//! Workspace lock-order analysis (`lock-order`).
//!
//! Purely syntactic, per-fn guard tracking over the token stream:
//!
//! - An **acquisition** is `recv.lock()`, `recv.read()`/`recv.write()`
//!   (only in files that mention `RwLock`), or a configured guard-helper
//!   free function (`lock(&shared.state, ...)`). The lock's identity is
//!   its canonical name: a `lint: lock-order(<name>)` annotation on the
//!   acquisition line when present, else the module-local default
//!   `<crate>/<file-stem>.<receiver>`. Only annotated names are shared
//!   across modules — two files both locking `self.state` are *not*
//!   assumed to mean the same lock.
//! - A **guard scope** runs from a `let g = …lock()…;` binding to
//!   `drop(g)` or the end of the enclosing brace block; an acquisition
//!   not bound by `let` is live to the end of its statement.
//! - While a guard is live, acquiring a *different* lock adds the edge
//!   `held -> acquired` to the workspace order graph; re-acquiring the
//!   *same* canonical name denies immediately (std mutexes self-deadlock).
//! - A blocking call (configured: `wait`, `recv`, `accept`, `read_exact`,
//!   `push_blocking`) inside a live guard scope denies — unless the guard
//!   itself is an argument (condvar waits atomically release their
//!   guard). `wait_timeout` is a different identifier and never flagged.
//!
//! Workspace-wide, the pass denies every cycle in the order graph (both
//! acquisition sites are named in `related`) and every edge that inverts
//! the canonical rank list in [`Config::lock_ranks`].

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Config, RuleId, Severity};
use crate::engine::{Diagnostic, RelatedSite};
use crate::graph::WorkspaceModel;
use crate::lexer::{Tok, TokKind};
use crate::report::{GraphSummary, LockEdge};
use crate::syntax::{receiver_path, FileModel};

/// One live guard.
#[derive(Debug, Clone)]
struct Guard {
    /// Canonical lock name.
    lock: String,
    /// Binding name (`g` in `let g = …`), when bound.
    var: Option<String>,
    /// Brace depth at which the scope dies (binding: its block;
    /// unbound: statement end tracked via `stmt`).
    depth: i64,
    /// True for unbound statement-temporaries.
    stmt: bool,
    /// Acquisition site.
    line: u32,
}

/// One observed order edge with its acquisition sites.
#[derive(Debug, Clone)]
pub struct ObservedEdge {
    /// Lock already held.
    pub from: String,
    /// Acquisition site of `from` (file, line).
    pub from_site: (String, u32),
    /// Lock acquired under `from`.
    pub to: String,
    /// Acquisition site of `to` (file, line).
    pub to_site: (String, u32),
}

/// Full pass output: diagnostics plus the graph dump for the report.
pub struct LockAnalysis {
    /// Deny/warn findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Observed edges (for `GraphSummary`).
    pub edges: Vec<ObservedEdge>,
    /// All canonical lock names seen.
    pub names: BTreeSet<String>,
}

/// Runs the pass over every non-test, non-shim, non-exempt file.
pub fn analyze(model: &WorkspaceModel, cfg: &Config) -> LockAnalysis {
    let mut edges: Vec<ObservedEdge> = Vec::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    for (fi, file) in model.files.iter().enumerate() {
        if file.meta.is_shim || cfg.is_exempt(&file.meta.rel_path) {
            continue;
        }
        let default_prefix = format!("{}/{}", file.meta.crate_name, model.stem(fi));
        for item in &file.fns {
            scan_fn(
                file,
                &default_prefix,
                item.body,
                cfg,
                &mut edges,
                &mut names,
                &mut diagnostics,
            );
        }
    }

    // Cycle + rank checks over the merged edge set.
    let mut adj: BTreeMap<&str, Vec<&ObservedEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        // An inversion exists when `to` can reach `from` through other
        // observed edges (direct two-edge cycles included).
        if let Some(path) = reach(&adj, &e.to, &e.from) {
            let mut cycle: Vec<&ObservedEdge> = vec![e];
            cycle.extend(path);
            let key = canonical_cycle_key(&cycle);
            if reported.insert(key) {
                diagnostics.push(cycle_diag(&cycle, cfg));
            }
        }
        // Rank inversion against the declared canonical order.
        let (fa, fb) = (rank_of(cfg, &e.from), rank_of(cfg, &e.to));
        if let (Some(a), Some(b)) = (fa, fb) {
            if a > b {
                let key = (format!("rank:{}", e.from), e.to.clone());
                if reported.insert(key) {
                    diagnostics.push(rank_diag(e, cfg));
                }
            }
        }
    }

    apply_waivers(model, &mut diagnostics);
    LockAnalysis { diagnostics, edges, names }
}

/// The graph dump for the JSON report.
pub fn summary(analysis: &LockAnalysis) -> (Vec<String>, Vec<LockEdge>) {
    let names = analysis.names.iter().cloned().collect();
    let edges = analysis
        .edges
        .iter()
        .map(|e| LockEdge {
            from: e.from.clone(),
            to: e.to.clone(),
            file: e.to_site.0.clone(),
            line: e.to_site.1,
        })
        .collect();
    (names, edges)
}

fn rank_of(cfg: &Config, name: &str) -> Option<usize> {
    cfg.lock_ranks.iter().position(|r| r == name)
}

/// BFS from `from` to `to` over observed edges; returns the edge path.
fn reach<'a>(
    adj: &BTreeMap<&str, Vec<&'a ObservedEdge>>,
    from: &str,
    to: &str,
) -> Option<Vec<&'a ObservedEdge>> {
    let mut queue: Vec<(String, Vec<&'a ObservedEdge>)> = vec![(from.to_string(), Vec::new())];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    seen.insert(from.to_string());
    while let Some((node, path)) = queue.pop() {
        if node == to {
            return Some(path);
        }
        if let Some(outs) = adj.get(node.as_str()) {
            for e in outs {
                if seen.insert(e.to.clone()) || e.to == to {
                    let mut p = path.clone();
                    p.push(e);
                    if e.to == to {
                        return Some(p);
                    }
                    queue.push((e.to.clone(), p));
                }
            }
        }
    }
    None
}

/// Rotation-independent cycle identity, so each cycle reports once.
fn canonical_cycle_key(cycle: &[&ObservedEdge]) -> (String, String) {
    let mut names: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
    names.sort();
    (names.join("->"), String::new())
}

fn cycle_diag(cycle: &[&ObservedEdge], cfg: &Config) -> Diagnostic {
    let order: Vec<&str> = cycle
        .iter()
        .map(|e| e.from.as_str())
        .chain(std::iter::once(cycle[0].from.as_str()))
        .collect();
    let first = cycle[0];
    Diagnostic {
        rule: RuleId::LockOrder,
        severity: cfg.severity(RuleId::LockOrder),
        file: first.to_site.0.clone(),
        line: first.to_site.1,
        message: format!(
            "lock-order cycle {}: concurrent threads taking these locks in \
             opposite orders deadlock; pick one order and annotate it with \
             `lint: lock-order(<name>)` ranks",
            order.join(" -> ")
        ),
        snippet: String::new(),
        suggestion: None,
        waived: false,
        waiver_reason: None,
        related: cycle
            .iter()
            .map(|e| RelatedSite {
                file: e.to_site.0.clone(),
                line: e.to_site.1,
                note: format!("acquires `{}` while holding `{}`", e.to, e.from),
            })
            .collect(),
        baselined: false,
    }
}

fn rank_diag(e: &ObservedEdge, cfg: &Config) -> Diagnostic {
    Diagnostic {
        rule: RuleId::LockOrder,
        severity: cfg.severity(RuleId::LockOrder),
        file: e.to_site.0.clone(),
        line: e.to_site.1,
        message: format!(
            "rank inversion: `{}` acquired while holding `{}`, but the \
             canonical order (Config::lock_ranks) puts `{}` first",
            e.to, e.from, e.to
        ),
        snippet: String::new(),
        suggestion: None,
        waived: false,
        waiver_reason: None,
        related: vec![RelatedSite {
            file: e.from_site.0.clone(),
            line: e.from_site.1,
            note: format!("`{}` acquired here", e.from),
        }],
        baselined: false,
    }
}

/// Scans one fn body for acquisitions, scope ends, and blocking calls.
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    file: &FileModel,
    default_prefix: &str,
    body: (usize, usize),
    cfg: &Config,
    edges: &mut Vec<ObservedEdge>,
    names: &mut BTreeSet<String>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let toks = &file.lexed.toks;
    let has_rwlock = toks.iter().any(|t| t.text == "RwLock");
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    let mut i = body.0;
    while i <= body.1 && i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            ";" => {
                guards.retain(|g| !(g.stmt && g.depth == depth));
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            if file.in_test_region(t.line) {
                i += 1;
                continue;
            }
            // `drop(g)` ends g's scope.
            if t.text == "drop" && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(") {
                if let Some(arg) = toks.get(i + 2) {
                    guards.retain(|g| g.var.as_deref() != Some(arg.text.as_str()));
                }
            }
            if let Some(acq) = acquisition_at(file, toks, i, cfg, has_rwlock, default_prefix) {
                names.insert(acq.clone());
                // Edges from every live guard; same name = re-entrant deny.
                for g in &guards {
                    if g.lock == acq {
                        diagnostics.push(plain_diag(
                            file,
                            t.line,
                            format!(
                                "re-entrant acquisition of `{acq}`: already held \
                                 since line {}; std mutexes self-deadlock",
                                g.line
                            ),
                            vec![RelatedSite {
                                file: file.meta.rel_path.clone(),
                                line: g.line,
                                note: format!("`{acq}` first acquired here"),
                            }],
                            cfg,
                        ));
                    } else {
                        edges.push(ObservedEdge {
                            from: g.lock.clone(),
                            from_site: (file.meta.rel_path.clone(), g.line),
                            to: acq.clone(),
                            to_site: (file.meta.rel_path.clone(), t.line),
                        });
                    }
                }
                guards.push(make_guard(toks, i, acq, depth, t.line));
            } else if cfg.blocking_calls.iter().any(|b| b == &t.text)
                && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
                && toks.get(i.wrapping_sub(1)).map(|p| p.text.as_str()) == Some(".")
            {
                // A guard passed as an argument is released by the call.
                let args = call_arg_idents(toks, i + 1, body.1);
                for g in guards.iter().filter(|g| {
                    g.var
                        .as_deref()
                        .map(|v| !args.iter().any(|a| a == v))
                        .unwrap_or(true)
                }) {
                    diagnostics.push(plain_diag(
                        file,
                        t.line,
                        format!(
                            "blocking call `.{}(` while holding `{}` (acquired \
                             line {}): the holder cannot be cancelled and every \
                             other thread queueing on the lock stalls; drop the \
                             guard first or use a bounded wait",
                            t.text, g.lock, g.line
                        ),
                        vec![RelatedSite {
                            file: file.meta.rel_path.clone(),
                            line: g.line,
                            note: format!("`{}` acquired here", g.lock),
                        }],
                        cfg,
                    ));
                }
            }
        }
        i += 1;
    }
}

fn plain_diag(
    file: &FileModel,
    line: u32,
    message: String,
    related: Vec<RelatedSite>,
    cfg: &Config,
) -> Diagnostic {
    Diagnostic {
        rule: RuleId::LockOrder,
        severity: cfg.severity(RuleId::LockOrder),
        file: file.meta.rel_path.clone(),
        line,
        message,
        snippet: file.snippet(line),
        suggestion: None,
        waived: false,
        waiver_reason: None,
        related,
        baselined: false,
    }
}

/// Canonical lock name when token `i` is an acquisition, else `None`.
fn acquisition_at(
    file: &FileModel,
    toks: &[Tok],
    i: usize,
    cfg: &Config,
    has_rwlock: bool,
    default_prefix: &str,
) -> Option<String> {
    let t = &toks[i];
    let called = toks.get(i + 1).map(|n| n.text.as_str()) == Some("(");
    if !called {
        return None;
    }
    let is_method = i >= 1 && toks[i - 1].text == ".";
    let lockish = t.text == "lock" || (has_rwlock && (t.text == "read" || t.text == "write"));
    if is_method && lockish {
        let recv = receiver_path(toks, i)?;
        return Some(canonical(file, toks[i].line, default_prefix, &recv));
    }
    // Guard-helper free fn: `lock(&shared.state, "...")`.
    if !is_method
        && cfg.lock_helper_fns.iter().any(|h| h == &t.text)
        && i.checked_sub(1)
            .map(|p| toks[p].text.as_str() != "::")
            .unwrap_or(true)
    {
        let recv = first_arg_path(toks, i + 1)?;
        return Some(canonical(file, toks[i].line, default_prefix, &recv));
    }
    None
}

/// `lint: lock-order(<name>)` on the acquisition line wins; otherwise the
/// module-local default name.
fn canonical(file: &FileModel, line: u32, default_prefix: &str, recv: &str) -> String {
    match file.lock_name_for(line) {
        Some(name) => name.to_string(),
        None => format!("{default_prefix}.{recv}"),
    }
}

/// Dotted path of the first argument: `&shared.state` -> `shared.state`.
fn first_arg_path(toks: &[Tok], open: usize) -> Option<String> {
    let mut segs = Vec::new();
    let mut k = open + 1;
    while let Some(t) = toks.get(k) {
        match (t.kind, t.text.as_str()) {
            (_, "&") | (_, "mut") => {}
            (TokKind::Ident, _) => segs.push(t.text.clone()),
            (_, ".") => {}
            _ => break,
        }
        k += 1;
    }
    if segs.is_empty() {
        None
    } else {
        Some(segs.join("."))
    }
}

/// Index of the `)` matching the `(` at `open` (must point at a `(`).
fn paren_close(toks: &[Tok], open: usize) -> Option<usize> {
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Identifiers in a call's argument list (shallow paren matching).
fn call_arg_idents(toks: &[Tok], open: usize, limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    for t in toks.iter().take(limit + 1).skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if t.kind == TokKind::Ident {
                    out.push(t.text.clone());
                }
            }
        }
    }
    out
}

/// Builds the guard for an acquisition at token `i`: bound when the
/// statement opens with `let <var> =` on the same nesting level.
fn make_guard(toks: &[Tok], i: usize, lock: String, depth: i64, line: u32) -> Guard {
    // A guard consumed by a further method call is a temporary dropped
    // at the end of the statement, even under a `let`:
    // `let g = lock(m, "…").next_generation(id);` binds the *result*,
    // not the guard. Skip `.unwrap()`/`.expect(…)` adapters (those
    // still yield the guard), then check for a consuming call.
    if let Some(mut after) = paren_close(toks, i + 1) {
        loop {
            let adapter = toks.get(after + 1).map(|t| t.text.as_str()) == Some(".")
                && matches!(
                    toks.get(after + 2).map(|t| t.text.as_str()),
                    Some("unwrap") | Some("expect")
                );
            if !adapter {
                break;
            }
            match paren_close(toks, after + 3) {
                Some(c) => after = c,
                None => break,
            }
        }
        let consumed = toks.get(after + 1).map(|t| t.text.as_str()) == Some(".")
            && toks.get(after + 2).map(|t| t.kind) == Some(TokKind::Ident)
            && toks.get(after + 3).map(|t| t.text.as_str()) == Some("(");
        if consumed {
            return Guard { lock, var: None, depth, stmt: true, line };
        }
    }
    // Walk back to the statement start (`;`, `{`, or `}`) and look for
    // `let var = …` — tuple patterns and `if let` are treated as unbound.
    let mut k = i;
    while k > 0 {
        let txt = toks[k - 1].text.as_str();
        if txt == ";" || txt == "{" || txt == "}" {
            break;
        }
        k -= 1;
    }
    let var = if toks.get(k).map(|t| t.text.as_str()) == Some("let") {
        match (toks.get(k + 1), toks.get(k + 2).map(|t| t.text.as_str())) {
            (Some(v), Some("=")) if v.kind == TokKind::Ident => Some(v.text.clone()),
            (Some(m), _)
                if m.text == "mut"
                    && toks.get(k + 2).map(|t| t.kind) == Some(TokKind::Ident)
                    && toks.get(k + 3).map(|t| t.text.as_str()) == Some("=") =>
            {
                Some(toks[k + 2].text.clone())
            }
            _ => None,
        }
    } else {
        None
    };
    let stmt = var.is_none();
    Guard { lock, var, depth, stmt, line }
}

/// Applies each file's inline waivers to the pass's diagnostics.
fn apply_waivers(model: &WorkspaceModel, diagnostics: &mut [Diagnostic]) {
    for d in diagnostics.iter_mut() {
        if let Some(file) = model.files.iter().find(|f| f.meta.rel_path == d.file) {
            if let Some(w) = file
                .waivers
                .iter()
                .find(|w| w.rule == d.rule && w.covers == d.line)
            {
                d.waived = true;
                d.waiver_reason = Some(w.reason.clone());
            }
        }
    }
}

/// Attaches lock data to a [`GraphSummary`].
pub fn fill_summary(analysis: &LockAnalysis, g: &mut GraphSummary) {
    let (names, edges) = summary(analysis);
    g.lock_names = names;
    g.lock_edges = edges;
}

/// True when nothing denies (used by tests).
pub fn clean(analysis: &LockAnalysis) -> bool {
    !analysis
        .diagnostics
        .iter()
        .any(|d| !d.waived && d.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;
    use crate::syntax::FileModel;

    fn ws(files: &[(&str, &str)]) -> WorkspaceModel {
        let cfg = Config::default();
        WorkspaceModel::build(
            files
                .iter()
                .map(|(p, s)| FileModel::build(classify(p), &cfg, s.to_string()))
                .collect(),
        )
    }

    fn run(files: &[(&str, &str)]) -> LockAnalysis {
        analyze(&ws(files), &Config::default())
    }

    #[test]
    fn consumed_temporary_guard_is_statement_scoped() {
        // `let g = lock(m, "…").next(id);` binds the result, not the
        // guard — re-acquiring later in the fn is NOT re-entrant.
        let a = run(&[(
            "crates/orchestrator/src/pool.rs",
            "fn persist(&self) {\n\
             let generation = lock(self.manifest, \"m\").next_generation(id);\n\
             let mut m = lock(self.manifest, \"m\");\n\
             m.record(generation);\n\
             }\n",
        )]);
        assert!(clean(&a), "{:?}", a.diagnostics);

        // Method-chain form through an `.expect` adapter, same deal.
        let b = run(&[(
            "crates/orchestrator/src/pool.rs",
            "fn bump(&self) {\n\
             let n = self.state.lock().expect(\"state\").bump();\n\
             let mut s = self.state.lock().expect(\"state\");\n\
             s.apply(n);\n\
             }\n",
        )]);
        assert!(clean(&b), "{:?}", b.diagnostics);

        // But a *held* guard (no consuming call) still trips.
        let c = run(&[(
            "crates/orchestrator/src/pool.rs",
            "fn oops(&self) {\n\
             let g = self.state.lock().expect(\"state\");\n\
             let h = self.state.lock().expect(\"state\");\n\
             }\n",
        )]);
        assert_eq!(c.diagnostics.len(), 1, "{:?}", c.diagnostics);
        assert!(c.diagnostics[0].message.contains("re-entrant"));
    }

    #[test]
    fn cross_module_inversion_is_a_cycle_with_both_sites() {
        let a = "fn f(&self) {\n\
                 let g = self.a.lock(); // lint: lock-order(ws.a)\n\
                 let h = self.b.lock(); // lint: lock-order(ws.b)\n\
                 }\n";
        let b = "fn g(&self) {\n\
                 let g = self.b.lock(); // lint: lock-order(ws.b)\n\
                 let h = self.a.lock(); // lint: lock-order(ws.a)\n\
                 }\n";
        let out = run(&[("crates/alpha/src/lib.rs", a), ("crates/beta/src/lib.rs", b)]);
        let cycles: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.message.contains("lock-order cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "one rotation-deduped cycle: {:?}", out.diagnostics);
        let files: BTreeSet<&str> =
            cycles[0].related.iter().map(|r| r.file.as_str()).collect();
        assert!(files.contains("crates/alpha/src/lib.rs"));
        assert!(files.contains("crates/beta/src/lib.rs"));
    }

    #[test]
    fn unannotated_same_receiver_does_not_alias_across_modules() {
        let a = "fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n";
        let b = "fn g(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n";
        let out = run(&[("crates/alpha/src/lib.rs", a), ("crates/beta/src/lib.rs", b)]);
        assert!(clean(&out), "{:?}", out.diagnostics);
    }

    #[test]
    fn scopes_end_at_drop_block_and_statement() {
        let src = "fn f(&self) {\n\
                   let g = self.a.lock();\n\
                   drop(g);\n\
                   let h = self.b.lock();\n\
                   { let i = self.c.lock(); }\n\
                   self.d.lock().push(1);\n\
                   let j = self.e.lock();\n\
                   }\n";
        let out = run(&[("crates/alpha/src/lib.rs", src)]);
        // b is held for c, d and e; a (dropped) and c (block) and the d
        // temporary (statement) produce no further edges.
        let pairs: BTreeSet<(String, String)> = out
            .edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        let b = "alpha/lib.self.b".to_string();
        assert!(pairs.contains(&(b.clone(), "alpha/lib.self.c".into())));
        assert!(pairs.contains(&(b.clone(), "alpha/lib.self.d".into())));
        assert!(pairs.contains(&(b.clone(), "alpha/lib.self.e".into())));
        assert!(!pairs.iter().any(|(f, _)| f.ends_with(".a")));
        assert!(!pairs.iter().any(|(f, _)| f.ends_with(".c") || f.ends_with(".d")));
    }

    #[test]
    fn reentrant_acquisition_denies() {
        let src = "fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); }\n";
        let out = run(&[("crates/alpha/src/lib.rs", src)]);
        assert!(out.diagnostics.iter().any(|d| d.message.contains("re-entrant")));
    }

    #[test]
    fn blocking_call_under_guard_denies_unless_guard_is_the_argument() {
        let bad = "fn f(&self) { let g = self.a.lock(); self.rx.recv(); }\n";
        let out = run(&[("crates/alpha/src/lib.rs", bad)]);
        assert_eq!(out.diagnostics.len(), 1, "{:?}", out.diagnostics);
        assert!(out.diagnostics[0].message.contains("blocking call"));

        // Condvar wait consuming the guard is sanctioned.
        let ok = "fn f(&self) { let g = self.a.lock(); let g = self.cv.wait(g); }\n";
        let out = run(&[("crates/alpha/src/lib.rs", ok)]);
        assert!(clean(&out), "{:?}", out.diagnostics);
    }

    #[test]
    fn rank_inversion_against_declared_order_denies() {
        let src = "fn f(&self) {\n\
                   let g = self.m.lock(); // lint: lock-order(orchestrator.manifest)\n\
                   let h = self.s.lock(); // lint: lock-order(orchestrator.machine)\n\
                   }\n";
        let out = run(&[("crates/orchestrator/src/pool.rs", src)]);
        assert!(
            out.diagnostics.iter().any(|d| d.message.contains("rank inversion")),
            "{:?}",
            out.diagnostics
        );
    }

    #[test]
    fn helper_fn_acquisitions_are_tracked() {
        let src = "fn f() {\n\
                   let st = lock(&shared.state, \"s\"); // lint: lock-order(orchestrator.machine)\n\
                   let m = lock(&ctx.manifest, \"m\"); // lint: lock-order(orchestrator.manifest)\n\
                   }\n";
        let out = run(&[("crates/orchestrator/src/pool.rs", src)]);
        assert!(clean(&out), "{:?}", out.diagnostics);
        assert_eq!(out.edges.len(), 1);
        assert_eq!(out.edges[0].from, "orchestrator.machine");
        assert_eq!(out.edges[0].to, "orchestrator.manifest");
    }

    #[test]
    fn waiver_covers_lock_order_finding() {
        let src = "fn f(&self) {\n\
                   let g = self.a.lock();\n\
                   // lint: allow(lock-order) holds a across recv: startup only, single-threaded\n\
                   self.rx.recv();\n\
                   }\n";
        let out = run(&[("crates/alpha/src/lib.rs", src)]);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].waived);
        assert!(clean(&out));
    }
}
