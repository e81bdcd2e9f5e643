//! DP taint dataflow (`dp-taint-flow`).
//!
//! Makes `dp-post-noise` a checked flow property instead of a file tag:
//! per-example gradient data must not reach an externalizing sink
//! (events, metrics, serialization, wire frames) before the sanctioned
//! noise path clears it. NetDPSyn-style failures — an un-noised
//! intermediate quietly escaping into a log — are exactly this flow.
//!
//! The analysis is intraprocedural and forward, over each `fn` body in
//! the DP-relevant crates (`TAINT_CRATES`, library roles only):
//!
//! - **Sources** (`SOURCES`): a call to a per-example
//!   gradient accessor (`flat_gradients`, `gradients_mut`) taints the
//!   bound variable — and is tainted as an expression when passed
//!   directly to a sink.
//! - **Flow**: `let x = <rhs>` taints `x` when the right-hand side
//!   mentions a tainted variable; `for (a, b) in <expr>` taints the
//!   pattern when the iterated expression is tainted and records that
//!   the bindings *alias* the iterated collections; `x = rhs` /
//!   `x += rhs` taint `x` (and everything `x` aliases — writes through
//!   an `iter_mut` binding re-taint the collection).
//! - **Clearing** (`SANITIZERS`): an assignment whose
//!   right-hand side calls the sanctioned noise path (`sample` on a
//!   noise distribution, `add_noise`, `sanitize_batch`) clears its
//!   target and the target's aliases. Nothing else clears taint.
//! - **Sinks** (`SINKS`): calling `emit`, `record`,
//!   `serialize`, `to_string`, `write_frame`, or `write_all` with a
//!   tainted argument (or tainted method receiver) denies.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Role, RuleId};
use crate::graph::WorkspaceModel;
use crate::lexer::{Tok, TokKind};
use crate::report::Diagnostic;
use crate::syntax::FileModel;

/// Crates whose library files run the pass.
const TAINT_CRATES: [&str; 3] = ["nnet", "doppelganger", "core"];
/// Identifiers whose call result is per-example gradient data.
const SOURCES: [&str; 2] = ["flat_gradients", "gradients_mut"];
/// Method/function names that externalize data (events, metrics,
/// serialization, wire frames).
const SINKS: [&str; 6] = ["emit", "record", "serialize", "to_string", "write_frame", "write_all"];
/// Identifiers of the sanctioned noise path; an assignment whose
/// right-hand side calls one clears taint from its target.
const SANITIZERS: [&str; 3] = ["sample", "add_noise", "sanitize_batch"];

/// Runs the pass over the model.
pub fn analyze(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &model.files {
        if file.meta.is_shim
            || file.meta.role != Role::Lib
            || !TAINT_CRATES.contains(&file.meta.crate_name.as_str())
        {
            continue;
        }
        for item in &file.fns {
            scan_fn(file, item.body, &mut out);
        }
    }
    out
}

/// Expression classification for a token span.
#[derive(Debug, PartialEq)]
enum Rhs {
    Sanitized,
    Tainted,
    Clean,
}

fn scan_fn(file: &FileModel, body: (usize, usize), out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut aliases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut i = body.0;
    while i <= body.1 && i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || file.in_test_region(t.line) {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "let" => {
                let (pat, eq) = pattern_until_eq(toks, i + 1, body.1);
                if let Some(eq) = eq {
                    let end = stmt_end(toks, eq + 1, body.1);
                    match classify_rhs(toks, eq + 1, end, &tainted) {
                        Rhs::Tainted => {
                            let srcs = tainted_idents(toks, eq + 1, end, &tainted);
                            for p in &pat {
                                tainted.insert(p.clone());
                                aliases.entry(p.clone()).or_default().extend(srcs.clone());
                            }
                        }
                        Rhs::Sanitized => {
                            for p in &pat {
                                tainted.remove(p);
                            }
                        }
                        Rhs::Clean => {
                            for p in &pat {
                                tainted.remove(p);
                                aliases.remove(p);
                            }
                        }
                    }
                    check_sinks(file, toks, eq + 1, end, &tainted, out);
                    i = end;
                    continue;
                }
            }
            "for" => {
                // `for <pat> in <expr> {` — bindings alias the iterated
                // collections and inherit their taint.
                let mut k = i + 1;
                let mut pat = Vec::new();
                while k <= body.1 && toks[k].text != "in" {
                    if toks[k].kind == TokKind::Ident {
                        pat.push(toks[k].text.clone());
                    }
                    k += 1;
                }
                let expr_start = k + 1;
                let mut depth = 0i64;
                let mut e = expr_start;
                while e <= body.1 {
                    match toks[e].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                let srcs = tainted_idents(toks, expr_start, e, &tainted);
                if !srcs.is_empty()
                    || classify_rhs(toks, expr_start, e, &tainted) == Rhs::Tainted
                {
                    for p in &pat {
                        tainted.insert(p.clone());
                        aliases.entry(p.clone()).or_default().extend(srcs.clone());
                    }
                }
                i = e;
                continue;
            }
            _ => {}
        }
        // Assignment / compound assignment to an existing binding
        // (optionally through a deref: `*s += …`).
        if let Some(op) = toks.get(i + 1).map(|n| n.text.as_str()) {
            if (op == "=" || op == "+=" || op == "-=")
                && i.checked_sub(1)
                    .map(|p| toks[p].text != "." && toks[p].text != "let")
                    .unwrap_or(true)
            {
                let end = stmt_end(toks, i + 2, body.1);
                let target = t.text.clone();
                match classify_rhs(toks, i + 2, end, &tainted) {
                    Rhs::Sanitized => {
                        // The noise write-back: clears the target and the
                        // collections it aliases.
                        tainted.remove(&target);
                        if let Some(srcs) = aliases.get(&target) {
                            for s in srcs.clone() {
                                tainted.remove(&s);
                            }
                        }
                    }
                    Rhs::Tainted => {
                        tainted.insert(target.clone());
                        if let Some(srcs) = aliases.get(&target) {
                            for s in srcs.clone() {
                                tainted.insert(s);
                            }
                        }
                    }
                    Rhs::Clean => {
                        if op == "=" {
                            tainted.remove(&target);
                        }
                    }
                }
                check_sinks(file, toks, i + 2, end, &tainted, out);
                i = end;
                continue;
            }
        }
        // Bare sink calls in expression statements.
        if SINKS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
        {
            check_sinks(file, toks, i, stmt_end(toks, i, body.1), &tainted, out);
            i = stmt_end(toks, i, body.1);
            continue;
        }
        i += 1;
    }
}

/// Pattern identifiers up to `=` (returns its index) or statement end.
fn pattern_until_eq(toks: &[Tok], from: usize, limit: usize) -> (Vec<String>, Option<usize>) {
    let mut pat = Vec::new();
    let mut k = from;
    while k <= limit && k < toks.len() {
        match toks[k].text.as_str() {
            "=" => return (pat, Some(k)),
            ";" => return (pat, None),
            "mut" => {}
            _ => {
                if toks[k].kind == TokKind::Ident {
                    pat.push(toks[k].text.clone());
                }
            }
        }
        k += 1;
    }
    (pat, None)
}

/// Index of the `;` ending the statement starting at `from` (same brace
/// depth), or `limit`.
fn stmt_end(toks: &[Tok], from: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    let mut k = from;
    while k <= limit && k < toks.len() {
        match toks[k].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    limit
}

/// Classifies a token span: sanitizer call > tainted mention > clean.
fn classify_rhs(
    toks: &[Tok],
    from: usize,
    to: usize,
    tainted: &BTreeSet<String>,
) -> Rhs {
    for k in from..to.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if SANITIZERS.contains(&t.text.as_str())
            && toks.get(k + 1).map(|n| n.text.as_str()) == Some("(")
        {
            return Rhs::Sanitized;
        }
    }
    if tainted_idents(toks, from, to, tainted).is_empty() {
        Rhs::Clean
    } else {
        Rhs::Tainted
    }
}

/// Tainted variables (and source accessors) mentioned in a token span.
fn tainted_idents(
    toks: &[Tok],
    from: usize,
    to: usize,
    tainted: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for k in from..to.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if tainted.contains(&t.text) {
            out.insert(t.text.clone());
        }
        if SOURCES.contains(&t.text.as_str())
            && toks.get(k + 1).map(|n| n.text.as_str()) == Some("(")
        {
            out.insert(t.text.clone());
        }
    }
    out
}

/// Reports every sink call in the span that receives tainted data.
fn check_sinks(
    file: &FileModel,
    toks: &[Tok],
    from: usize,
    to: usize,
    tainted: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for k in from..to.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident
            || !SINKS.contains(&t.text.as_str())
            || toks.get(k + 1).map(|n| n.text.as_str()) != Some("(")
        {
            continue;
        }
        // Arguments, plus the receiver for method-form sinks
        // (`tainted.to_string()`).
        let close = stmt_end(toks, k + 2, to);
        let mut data = tainted_idents(toks, k + 2, close, tainted);
        if k >= 2 && toks[k - 1].text == "." {
            let recv_start = k.saturating_sub(8);
            data.extend(tainted_idents(toks, recv_start, k, tainted));
        }
        if data.is_empty() {
            continue;
        }
        let names: Vec<String> = data.into_iter().collect();
        out.push(Diagnostic::new(
            RuleId::DpTaintFlow,
            &file.meta.rel_path,
            t.line,
            format!(
                "pre-noise gradient data ({}) reaches sink `{}`: per-example \
                 gradients must pass the sanctioned noise path before being \
                 emitted, recorded, or serialized (DP guarantee)",
                names.join(", "),
                t.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;
    use crate::graph::WorkspaceModel;
    use crate::syntax::FileModel;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = WorkspaceModel::build(vec![FileModel::build(
            classify("crates/nnet/src/train_hooks.rs"),
            src.to_string(),
        )]);
        analyze(&model)
    }

    #[test]
    fn direct_source_to_sink_denies() {
        let out = run(
            "fn leak(&mut self) {\n\
             let g = self.model.flat_gradients();\n\
             self.events.emit(&g);\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("reaches sink `emit`"));
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn derived_value_stays_tainted_through_let_chain() {
        let out = run(
            "fn leak(&mut self) {\n\
             let g = self.model.flat_gradients();\n\
             let norm = l2(&g);\n\
             self.metrics.record(norm as f64);\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("norm"));
    }

    #[test]
    fn noise_path_clears_taint_including_aliased_collection() {
        let out = run(
            "fn sanitize(&mut self) {\n\
             let g = self.model.flat_gradients();\n\
             let mut sum = vec![0.0; g.len()];\n\
             for (s, gi) in sum.iter_mut().zip(&g) { *s += gi; }\n\
             for s in sum.iter_mut() { *s += self.normal.sample(&mut self.rng); }\n\
             self.events.emit(&sum);\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn sink_before_noise_still_denies() {
        let out = run(
            "fn sanitize(&mut self) {\n\
             let g = self.model.flat_gradients();\n\
             let mut sum = vec![0.0; g.len()];\n\
             for (s, gi) in sum.iter_mut().zip(&g) { *s += gi; }\n\
             self.events.emit(&sum);\n\
             for s in sum.iter_mut() { *s += self.normal.sample(&mut self.rng); }\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn source_passed_directly_to_sink_denies() {
        let out = run("fn leak(&mut self) { self.events.emit(self.model.flat_gradients()); }\n");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn clean_reassignment_clears() {
        let out = run(
            "fn ok(&mut self) {\n\
             let mut g = self.model.flat_gradients();\n\
             g = self.noise_free_summary();\n\
             self.events.emit(&g);\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn untainted_sinks_are_fine_and_other_crates_skipped() {
        let out = run(
            "fn ok(&self) { self.events.emit(\"loss\"); self.metrics.record(self.step as f64); }\n",
        );
        assert!(out.is_empty(), "{out:?}");

        // Same leak outside TAINT_CRATES: skipped.
        let model = WorkspaceModel::build(vec![FileModel::build(
            classify("crates/sketch/src/lib.rs"),
            "fn leak(&mut self) { let g = self.m.flat_gradients(); self.e.emit(&g); }\n".into(),
        )]);
        assert!(analyze(&model).is_empty());
    }
}
