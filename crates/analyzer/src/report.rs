//! Findings and their rendering: human text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the analyzer has zero dependencies so
//! it can never be broken by the crates it checks). The shape:
//!
//! ```json
//! {
//!   "tool": "netshare-lint",
//!   "files_checked": 123,
//!   "counts": { "deny": 0, "waived": 4 },
//!   "diagnostics": [ { "rule": "...", "file": "...", "line": 1,
//!                      "message": "...", "snippet": "...",
//!                      "waived": false, "waiver_reason": null,
//!                      "related": [ { "file": "...", "line": 1,
//!                                     "note": "..." } ] } ],
//!   "graph": { "lock_names": [...], "lock_edges": [...],
//!              "capabilities": { "<module>": [...] } }
//! }
//! ```
//!
//! Graph diagnostics carry their secondary sites in `related`: a
//! lock-order cycle names *both* acquisition sites there.

use crate::config::RuleId;

/// One finding. Every finding denies unless a waiver covers its line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (filled in by the waiver step).
    pub snippet: String,
    /// The reason of the inline waiver covering this line, when waived.
    /// Waived findings are reported but never fail the run.
    pub waiver_reason: Option<String>,
    /// Secondary sites participating in a graph finding (both ends of a
    /// lock-order cycle, the carrier of a propagated capability).
    pub related: Vec<RelatedSite>,
}

impl Diagnostic {
    /// An unwaived finding with no related sites.
    pub fn new(rule: RuleId, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            message,
            snippet: String::new(),
            waiver_reason: None,
            related: Vec::new(),
        }
    }

    /// True when an inline waiver covers this finding.
    pub fn waived(&self) -> bool {
        self.waiver_reason.is_some()
    }
}

/// A secondary source location attached to a graph diagnostic.
#[derive(Debug, Clone)]
pub struct RelatedSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this site contributes (e.g. "acquires a while holding b").
    pub note: String,
}

/// One observed lock-acquisition-order edge, for the JSON graph dump.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Canonical name of the lock already held.
    pub from: String,
    /// Canonical name of the lock acquired under it.
    pub to: String,
    /// Workspace-relative file of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// The workspace graph dump attached to every report.
#[derive(Debug, Clone, Default)]
pub struct GraphSummary {
    /// Canonical lock names observed, sorted.
    pub lock_names: Vec<String>,
    /// Acquisition-order edges observed.
    pub lock_edges: Vec<LockEdge>,
    /// `(module rel_path, capability names)` — capabilities each module
    /// carries (directly or transitively), sanctioned or not.
    pub capabilities: Vec<(String, Vec<String>)>,
}

/// Aggregated run result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived ones included.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files visited.
    pub files_checked: usize,
    /// Lock graph and capability manifest.
    pub graph: GraphSummary,
}

impl Report {
    /// Unwaived findings — these fail the run.
    pub fn deny_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| !d.waived()).count()
    }

    /// Waived findings (reported for audit, never fatal).
    pub fn waived_count(&self) -> usize {
        self.diagnostics.len() - self.deny_count()
    }

    /// Process exit code: 0 clean, 1 deny findings, (2 is CLI usage).
    pub fn exit_code(&self) -> u8 {
        u8::from(self.deny_count() > 0)
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            let tag = if d.waived() { "waived" } else { "deny" };
            s.push_str(&format!(
                "{}:{}: [{tag}/{}] {}\n    {}\n",
                d.file,
                d.line,
                d.rule.name(),
                d.message,
                d.snippet
            ));
            if let Some(r) = &d.waiver_reason {
                s.push_str(&format!("    waiver: {r}\n"));
            }
            for site in &d.related {
                s.push_str(&format!("    see {}:{} — {}\n", site.file, site.line, site.note));
            }
        }
        s.push_str(&format!(
            "netshare-lint: {} files checked, {} deny, {} waived\n",
            self.files_checked,
            self.deny_count(),
            self.waived_count()
        ));
        s
    }

    /// Machine-readable rendering.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"tool\":\"netshare-lint\",");
        s.push_str(&format!("\"files_checked\":{},", self.files_checked));
        s.push_str(&format!(
            "\"counts\":{{\"deny\":{},\"waived\":{}}},\"diagnostics\":[",
            self.deny_count(),
            self.waived_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            let related: Vec<String> = d
                .related
                .iter()
                .map(|r| {
                    format!(
                        "{{\"file\":{},\"line\":{},\"note\":{}}}",
                        json_str(&r.file),
                        r.line,
                        json_str(&r.note)
                    )
                })
                .collect();
            s.push_str(&format!(
                "{}{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{},\"snippet\":{},\
                 \"waived\":{},\"waiver_reason\":{},\"related\":[{}]}}",
                if i > 0 { "," } else { "" },
                json_str(d.rule.name()),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                json_str(&d.snippet),
                d.waived(),
                d.waiver_reason.as_deref().map_or("null".to_string(), json_str),
                related.join(",")
            ));
        }
        let g = &self.graph;
        let names: Vec<String> = g.lock_names.iter().map(|n| json_str(n)).collect();
        let edges: Vec<String> = g
            .lock_edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"from\":{},\"to\":{},\"file\":{},\"line\":{}}}",
                    json_str(&e.from),
                    json_str(&e.to),
                    json_str(&e.file),
                    e.line
                )
            })
            .collect();
        let caps: Vec<String> = g
            .capabilities
            .iter()
            .map(|(module, caps)| {
                let caps: Vec<String> = caps.iter().map(|c| json_str(c)).collect();
                format!("{}:[{}]", json_str(module), caps.join(","))
            })
            .collect();
        s.push_str(&format!(
            "],\"graph\":{{\"lock_names\":[{}],\"lock_edges\":[{}],\"capabilities\":{{{}}}}}}}",
            names.join(","),
            edges.join(","),
            caps.join(",")
        ));
        s
    }
}

/// JSON string literal with the escapes that can occur in source snippets.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, waived: bool) -> Diagnostic {
        let mut d = Diagnostic::new(rule, "crates/x/src/lib.rs", 3, "msg with \"quotes\"".into());
        d.snippet = "let m = HashMap::new();".into();
        d.waiver_reason = waived.then(|| "reason".to_string());
        d
    }

    fn report(diagnostics: Vec<Diagnostic>) -> Report {
        Report { diagnostics, files_checked: 7, ..Report::default() }
    }

    #[test]
    fn exit_code_tracks_unwaived_findings() {
        assert_eq!(report(vec![]).exit_code(), 0);

        let waived = report(vec![diag(RuleId::FloatEq, true)]);
        assert_eq!(waived.exit_code(), 0);
        assert_eq!(waived.waived_count(), 1);

        let dirty = report(vec![diag(RuleId::FloatEq, false), diag(RuleId::FloatEq, true)]);
        assert_eq!(dirty.exit_code(), 1);
        assert_eq!((dirty.deny_count(), dirty.waived_count()), (1, 1));
    }

    #[test]
    fn json_escapes_and_structure() {
        let j = report(vec![diag(RuleId::NondeterministicIteration, false)]).to_json();
        assert!(j.starts_with("{\"tool\":\"netshare-lint\",\"files_checked\":7,"));
        assert!(j.contains("\"rule\":\"nondeterministic-iteration\""));
        assert!(j.contains("msg with \\\"quotes\\\""));
        assert!(j.contains("\"counts\":{\"deny\":1,\"waived\":0}"));
        assert!(j.contains("\"waiver_reason\":null,\"related\":[]"));
        assert!(j.ends_with(
            "\"graph\":{\"lock_names\":[],\"lock_edges\":[],\"capabilities\":{}}}"
        ));
    }

    #[test]
    fn related_sites_render_in_text_and_json() {
        let mut d = diag(RuleId::LockOrder, false);
        d.related.push(RelatedSite {
            file: "crates/y/src/lib.rs".into(),
            line: 9,
            note: "acquires b while holding a".into(),
        });
        let r = report(vec![d]);
        assert!(r.to_text().contains("see crates/y/src/lib.rs:9 — acquires b while holding a"));
        assert!(r
            .to_json()
            .contains("\"related\":[{\"file\":\"crates/y/src/lib.rs\",\"line\":9,\"note\":\"acquires b while holding a\"}]"));
    }
}
