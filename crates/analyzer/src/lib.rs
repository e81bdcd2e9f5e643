//! `netshare-lint` — workspace invariant checker.
//!
//! Walks every `.rs` file in the workspace and enforces the source
//! invariants the repo's guarantees rest on (bitwise seed determinism,
//! DP-SGD's noise boundary, the sanctioned entropy/clock/socket
//! boundaries, lock order, no-panic library code). One pipeline: one
//! [`syntax::FileModel`] per file (each file is lexed once), the per-file
//! rules and the three graph passes over the [`graph::WorkspaceModel`],
//! the waivers applied once, one [`report::Report`]. See DESIGN.md
//! "Static analysis & sanitizers" for the rule catalogue and waiver
//! syntax.
//!
//! Built dependency-free on a hand-rolled lexer so the checker can never
//! be broken by the crates it checks (and builds in the offline
//! workspace, where `syn` is unavailable).

pub mod capability;
pub mod config;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod syntax;
pub mod taint;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::{classify, is_exempt, relative_to, RuleId};
use graph::WorkspaceModel;
use report::{Diagnostic, GraphSummary, Report};
use syntax::FileModel;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", ".claude"];

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic report order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace rooted at `root`. A file's crate and role come
/// from its path under `root` alone.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = relative_to(root, &path);
        if !is_exempt(&rel) {
            files.push(FileModel::build(classify(&rel), fs::read_to_string(&path)?));
        }
    }
    Ok(lint(WorkspaceModel::build(files)))
}

/// Runs every rule and pass over the model, then applies the waivers.
pub fn lint(model: WorkspaceModel) -> Report {
    let mut diagnostics: Vec<Diagnostic> = model
        .files
        .iter()
        .flat_map(engine::lint_file)
        .collect();
    let locks = locks::analyze(&model);
    let caps = capability::analyze(&model);
    let graph = GraphSummary {
        lock_names: locks.names.iter().cloned().collect(),
        lock_edges: locks::lock_edges(&locks),
        capabilities: caps.manifest,
    };
    diagnostics.extend(locks.diagnostics);
    diagnostics.extend(caps.diagnostics);
    diagnostics.extend(taint::analyze(&model));
    apply_waivers(&model, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    Report { diagnostics, files_checked: model.files.len(), graph }
}

/// The one waiver step. A `lint: allow(<rule>) <reason>` comment covers
/// the findings of that rule on its line (trailing form) or on the next
/// code line (standalone form); every finding gets its source line as
/// its snippet. A waiver naming no rule is itself a finding, which no
/// waiver can cover.
fn apply_waivers(model: &WorkspaceModel, diagnostics: &mut Vec<Diagnostic>) {
    for d in diagnostics.iter_mut() {
        let Some(file) = model.files.iter().find(|f| f.meta.rel_path == d.file) else {
            continue;
        };
        d.snippet = file.snippet(d.line);
        d.waiver_reason = file
            .waivers
            .iter()
            .find(|w| w.payload == d.rule.name() && w.covers == d.line)
            .map(|w| w.rest.clone());
    }
    for file in &model.files {
        for w in file.waivers.iter().filter(|w| RuleId::parse(&w.payload).is_none()) {
            let mut d = Diagnostic::new(
                RuleId::UnknownWaiver,
                &file.meta.rel_path,
                w.line,
                format!(
                    "`lint: allow({})` names no rule, so it waives nothing; \
                     `netshare-lint --list-rules` lists the rule names",
                    w.payload
                ),
            );
            d.snippet = file.snippet(w.line);
            diagnostics.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_sources(files: &[(&str, &str)]) -> Report {
        let files = files
            .iter()
            .map(|(path, src)| FileModel::build(classify(path), src.to_string()))
            .collect();
        lint(WorkspaceModel::build(files))
    }

    fn rules(r: &Report) -> Vec<(&str, u32, Option<&str>)> {
        r.diagnostics
            .iter()
            .map(|d| (d.rule.name(), d.line, d.waiver_reason.as_deref()))
            .collect()
    }

    #[test]
    fn collect_skips_target_and_sorts() {
        let dir = std::env::temp_dir().join("netshare_lint_collect_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::create_dir_all(dir.join("target/debug")).unwrap();
        fs::write(dir.join("src/b.rs"), "fn b() {}\n").unwrap();
        fs::write(dir.join("src/a.rs"), "fn a() {}\n").unwrap();
        fs::write(dir.join("target/debug/gen.rs"), "fn g() {}\n").unwrap();
        fs::write(dir.join("notes.txt"), "not rust\n").unwrap();

        let files = collect_rs_files(&dir).unwrap();
        let rels: Vec<String> = files.iter().map(|p| relative_to(&dir, p)).collect();
        assert_eq!(rels, vec!["src/a.rs", "src/b.rs"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn waivers_cover_trailing_and_next_line_for_rules_and_passes() {
        let r = lint_sources(&[(
            "crates/core/src/x.rs",
            "let m = HashMap::new(); // lint: allow(nondeterministic-iteration) keys sorted below\n\
             fn f(&self) {\n\
             // lint: allow(panic-in-lib) config validated at startup\n\
             x.unwrap();\n\
             let g = self.a.lock();\n\
             // lint: allow(lock-order) startup only, single-threaded\n\
             self.rx.recv();\n\
             let t = SystemTime::now(); // lint: allow(capability-graph) banner only\n\
             }\n",
        )]);
        assert_eq!(
            rules(&r),
            vec![
                ("nondeterministic-iteration", 1, Some("keys sorted below")),
                ("panic-in-lib", 4, Some("config validated at startup")),
                ("lock-order", 7, Some("startup only, single-threaded")),
                ("capability-graph", 8, Some("banner only")),
            ]
        );
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.diagnostics[1].snippet, "x.unwrap();");
    }

    #[test]
    fn waiver_for_another_rule_does_not_cover() {
        let r = lint_sources(&[(
            "crates/core/src/x.rs",
            "let m = HashMap::new(); // lint: allow(float-eq) wrong rule\n",
        )]);
        assert_eq!(rules(&r), vec![("nondeterministic-iteration", 1, None)]);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn waiver_covers_taint_finding() {
        let r = lint_sources(&[(
            "crates/nnet/src/train_hooks.rs",
            "fn audit(&mut self) {\n\
             let g = self.model.flat_gradients();\n\
             let norm = l2(&g);\n\
             // lint: allow(dp-taint-flow) pre-noise norm histogram is outside the DP claim\n\
             self.metrics.record(norm as f64);\n\
             }\n",
        )]);
        assert_eq!(
            rules(&r),
            vec![("dp-taint-flow", 5, Some("pre-noise norm histogram is outside the DP claim"))]
        );
    }

    #[test]
    fn a_waiver_naming_no_rule_is_a_finding_no_waiver_covers() {
        let r = lint_sources(&[(
            "crates/core/src/bin/cli.rs",
            "fn main() {\n\
             // lint: allow(panic-in-bin) bins may panic\n\
             x.unwrap();\n\
             // lint: allow(unknown-waiver) trying to silence the check\n\
             }\n",
        )]);
        assert_eq!(
            rules(&r),
            vec![("unknown-waiver", 2, None), ("unknown-waiver", 4, None)]
        );
        assert!(r.diagnostics[0].message.contains("`lint: allow(panic-in-bin)` names no rule"));
        assert_eq!(r.exit_code(), 1);
    }
}
