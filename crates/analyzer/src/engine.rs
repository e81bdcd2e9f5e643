//! The per-file rules: token-stream scans over one file's model.
//!
//! No type information exists at this layer, so each rule is a
//! conservative lexical proxy for the semantic invariant it guards
//! (documented per rule). Waivers exist precisely because a proxy
//! sometimes flags intentional code; they are applied once, for every
//! rule and pass, by [`crate::lint`].

use crate::config::{Role, RuleId};
use crate::lexer::TokKind;
use crate::report::Diagnostic;
use crate::syntax::{block_after, FileModel};

/// Runs every per-file rule over one file.
pub fn lint_file(f: &FileModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_nondeterministic_iteration(f, &mut out);
    rule_dp_boundary(f, &mut out);
    rule_float_eq(f, &mut out);
    rule_panic_in_lib(f, &mut out);
    rule_unbounded_wait(f, &mut out);
    rule_alloc_in_step_loop(f, &mut out);
    out
}

/// True when lib-only rules skip this file outright.
fn is_test_like(f: &FileModel) -> bool {
    matches!(f.meta.role, Role::Test | Role::Bench | Role::Example)
}

/// Crates where `HashMap`/`HashSet` are banned.
const DETERMINISM_CRATES: [&str; 8] = [
    "nnet",
    "doppelganger",
    "core",
    "orchestrator",
    "fieldcodec",
    "nettrace",
    "sketch",
    "telemetry",
];

/// Rule 1 — `nondeterministic-iteration`.
///
/// Lexical proxy: any `HashMap`/`HashSet` identifier in a
/// determinism-critical crate's non-test code. Iteration order of std
/// hash maps is randomized per process, so any use that feeds training,
/// serialization, or output ordering breaks bitwise seed determinism;
/// the conservative stance is that these crates use `BTreeMap`/`BTreeSet`
/// (or sort explicitly and waive).
fn rule_nondeterministic_iteration(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if f.meta.is_shim
        || is_test_like(f)
        || !DETERMINISM_CRATES.contains(&f.meta.crate_name.as_str())
    {
        return;
    }
    for t in &f.lexed.toks {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if f.in_test_region(t.line) {
            continue;
        }
        let ordered = if t.text == "HashMap" { "BTreeMap" } else { "BTreeSet" };
        out.push(Diagnostic::new(
            RuleId::NondeterministicIteration,
            &f.meta.rel_path,
            t.line,
            format!(
                "`{}` in determinism-critical crate `{}`: iteration order is \
                 process-random; use `{}` or sort before iterating",
                t.text, f.meta.crate_name, ordered
            ),
        ));
    }
}

/// Identifiers banned in `dp-post-noise`-tagged files.
const DP_BANNED: [&str; 3] = ["flat_gradients", "set_flat_gradients", "gradients_mut"];

/// Rule 2 — `dp-boundary`.
///
/// A file tagged `lint: dp-post-noise` consumes gradients *after*
/// DP-SGD's clip-and-noise step; touching per-example accessors there
/// would read raw (un-noised) gradients and silently void the privacy
/// accounting. Only the sanitize boundary (`dpsgd.rs`, untagged) may.
fn rule_dp_boundary(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if !f.dp_tagged {
        return;
    }
    for t in &f.lexed.toks {
        if t.kind == TokKind::Ident && DP_BANNED.contains(&t.text.as_str()) {
            if f.in_test_region(t.line) {
                continue;
            }
            out.push(Diagnostic::new(
                RuleId::DpBoundary,
                &f.meta.rel_path,
                t.line,
                format!(
                    "`{}` in a `dp-post-noise` file: raw per-example gradients \
                     must not be read past the noise boundary (see \
                     `DpSgdTrainer::sanitize_batch`)",
                    t.text
                ),
            ));
        }
    }
}

/// Crates where float `==`/`!=` is checked.
const FLOAT_EQ_CRATES: [&str; 8] = [
    "nnet",
    "doppelganger",
    "core",
    "distmetrics",
    "mlkit",
    "baselines",
    "privacy",
    "telemetry",
];

/// Rule 3 — `float-eq`.
///
/// Lexical proxy: `==`/`!=` with a float literal on either side, in
/// metrics/training crates. Exact float equality is almost always a
/// rounding-sensitive bug; compare against a tolerance. Intentional
/// bitwise checks (zero-skip fast paths, golden tests) take a waiver.
fn rule_float_eq(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if f.meta.is_shim
        || is_test_like(f)
        || !FLOAT_EQ_CRATES.contains(&f.meta.crate_name.as_str())
    {
        return;
    }
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let float_adjacent = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|j| toks.get(j))
            .any(|n| n.kind == TokKind::Float);
        if !float_adjacent || f.in_test_region(t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            RuleId::FloatEq,
            &f.meta.rel_path,
            t.line,
            format!(
                "`{}` against a float literal: exact float comparison is \
                 rounding-sensitive; compare with a tolerance (or waive for \
                 intentional bitwise checks)",
                t.text
            ),
        ));
    }
}

/// Rule 4 — `panic-in-lib`.
///
/// `.unwrap()`, `.expect(…)`, and `panic!` abort a worker thread instead
/// of surfacing a typed error the orchestrator can retry; library crates
/// return `Result`. Tests, benches, examples, and binaries are exempt
/// (aborting is their error model). Plain `assert!`s are allowed — they
/// state invariants, not error handling.
fn rule_panic_in_lib(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if f.meta.is_shim || f.meta.role != Role::Lib {
        return;
    }
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let offense = match t.text.as_str() {
            "unwrap" | "expect" if i > 0 && toks[i - 1].text == "." => {
                format!("`.{}()` panics on the error path", t.text)
            }
            "panic" if toks.get(i + 1).is_some_and(|n| n.text == "!") => {
                "`panic!` aborts the worker thread".to_string()
            }
            _ => continue,
        };
        if f.in_test_region(t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            RuleId::PanicInLib,
            &f.meta.rel_path,
            t.line,
            format!("{offense}; return a typed error (or waive with the invariant that makes this unreachable)"),
        ));
    }
}

/// Rule 5 — `unbounded-wait`.
///
/// Flags `thread::sleep` and timeout-less `.wait(` (Condvar) calls in
/// library code. A worker blocked in either cannot be cancelled by the
/// hung-job watchdog or woken when the run fails, so retry backoffs and
/// claim loops would hold a dead run hostage; interruptible waits
/// (`CancelToken::wait_timeout`, `Condvar::wait_timeout` — distinct
/// identifiers, never flagged) are the sanctioned forms. Tests, benches,
/// examples, binaries and the shims (which implement the blocking
/// primitives themselves) may block freely.
///
/// Also flags fixed-sleep retry loops: a `wait_timeout` whose duration
/// is a `Duration::from_*(<integer literal>)` constant, sitting inside a
/// `loop`/`while`/`for` whose body never mentions a backoff. The wait
/// itself is interruptible, but the loop is a retry policy, and a
/// constant per-attempt delay polls a dead peer at full cadence forever;
/// `orchestrator::Backoff` (exponential growth, seeded jitter) is the
/// sanctioned shape, and any identifier containing `backoff` in the
/// enclosing loop passes.
fn rule_unbounded_wait(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if f.meta.is_shim || f.meta.role != Role::Lib {
        return;
    }
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let offense = match t.text.as_str() {
            "sleep" if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "thread" => {
                "`thread::sleep` cannot be interrupted"
            }
            "wait"
                if i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                "`.wait()` blocks with no timeout"
            }
            _ => continue,
        };
        if f.in_test_region(t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            RuleId::UnboundedWait,
            &f.meta.rel_path,
            t.line,
            format!(
                "{offense}: a hung worker here is invisible to the watchdog and \
                 deaf to run cancellation; use `CancelToken::wait_timeout` or \
                 `Condvar::wait_timeout` (or waive with the bound that makes \
                 this finite)"
            ),
        ));
    }

    // Second pass: fixed-sleep retry loops. Collect every loop span up
    // front (keyword index → closing-brace index; condition tokens land
    // inside the span because the open brace follows the keyword), then
    // flag constant-duration `wait_timeout` calls whose innermost
    // enclosing loop never names a backoff.
    let loop_spans: Vec<(usize, usize)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.kind == TokKind::Ident && matches!(t.text.as_str(), "loop" | "while" | "for")
        })
        .filter_map(|(kw, _)| block_after(toks, kw).map(|(_, close)| (kw, close)))
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "wait_timeout" {
            continue;
        }
        // The argument must spell `Duration::from_*(<integer literal>)`
        // within a short lexical window — a named constant or a computed
        // duration is somebody's tuning knob, not a hardcoded poll.
        let window = &toks[i..toks.len().min(i + 12)];
        let fixed = window.iter().enumerate().any(|(k, w)| {
            w.kind == TokKind::Ident
                && w.text.starts_with("from_")
                && window[..k].iter().any(|p| p.text == "Duration")
                && window.get(k + 1).is_some_and(|p| p.text == "(")
                && window.get(k + 2).is_some_and(|p| p.kind == TokKind::Int)
        });
        if !fixed || f.in_test_region(t.line) {
            continue;
        }
        let Some(&(kw, close)) = loop_spans
            .iter()
            .filter(|(kw, close)| *kw < i && i <= *close)
            .max_by_key(|(kw, _)| *kw)
        else {
            continue;
        };
        let has_backoff = toks[kw..=close]
            .iter()
            .any(|p| p.kind == TokKind::Ident && p.text.to_ascii_lowercase().contains("backoff"));
        if has_backoff {
            continue;
        }
        out.push(Diagnostic::new(
            RuleId::UnboundedWait,
            &f.meta.rel_path,
            t.line,
            "fixed-sleep retry loop: a constant delay per attempt polls a \
             dead peer at full cadence forever; grow the wait with \
             `orchestrator::Backoff` (exponential, seeded jitter) or waive \
             with the bound that makes this loop finite"
                .to_string(),
        ));
    }
}

/// Rule 6 — `alloc-in-step-loop`.
///
/// A `// lint: step-loop` comment tags the loop that follows it as a
/// per-timestep hot loop (GRU step loops, the sampler's generation
/// loop). Fresh heap allocation inside the tagged loop body —
/// `Vec::new()`, `vec![…]`, `Tensor::zeros(…)` — costs a malloc per
/// timestep per batch and is exactly the regression the scratch-arena
/// work removed; buffers belong before the loop or in a preallocated
/// `nnet::infer::Arena`. The tag is opt-in, so only loops whose authors
/// declared them hot are checked; allocation in callees is invisible to
/// this lexical proxy and is guarded by the alloc-count regression test
/// instead.
fn rule_alloc_in_step_loop(f: &FileModel, out: &mut Vec<Diagnostic>) {
    if f.meta.is_shim {
        return;
    }
    let toks = &f.lexed.toks;
    for c in &f.lexed.comments {
        // The tag must open the comment — prose merely *mentioning*
        // `lint: step-loop` (rule docs, fixture headers) is not a tag.
        if !c.text.trim_start().starts_with("lint: step-loop") {
            continue;
        }
        // First loop keyword at or after the tag (the tag may trail the
        // loop header line or sit on its own line above it).
        let Some(kw) = toks.iter().position(|t| {
            t.line >= c.line
                && t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "for" | "while" | "loop")
        }) else {
            continue;
        };
        let Some((open, close)) = block_after(toks, kw) else {
            continue;
        };
        for i in (open + 1)..close {
            let t = &toks[i];
            let assoc = |ty: &str, method: &str| {
                t.text == ty
                    && toks.get(i + 1).is_some_and(|n| n.text == "::")
                    && toks.get(i + 2).is_some_and(|n| n.text == method)
            };
            let what = if t.kind != TokKind::Ident {
                continue;
            } else if assoc("Vec", "new") {
                "`Vec::new()`"
            } else if t.text == "vec" && toks.get(i + 1).is_some_and(|n| n.text == "!") {
                "`vec![…]`"
            } else if assoc("Tensor", "zeros") {
                "`Tensor::zeros(…)`"
            } else {
                continue;
            };
            out.push(Diagnostic::new(
                RuleId::AllocInStepLoop,
                &f.meta.rel_path,
                t.line,
                format!(
                    "{what} inside a `lint: step-loop`-tagged hot loop \
                     allocates every timestep; hoist the buffer above the \
                     loop or take it from a preallocated `nnet::infer::Arena` \
                     (`take_zeroed`/`recycle`)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::classify;

    fn lint_as(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_file(&FileModel::build(classify(path), src.to_string()))
    }

    fn rules(diags: &[Diagnostic]) -> Vec<(RuleId, u32)> {
        diags.iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn hashmap_flagged_only_in_critical_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules(&lint_as("crates/core/src/x.rs", src)),
            vec![(RuleId::NondeterministicIteration, 1)]
        );
        assert!(lint_as("crates/distmetrics/src/x.rs", src).is_empty());
        assert!(lint_as("crates/core/tests/x.rs", src).is_empty());
        assert!(lint_as("shims/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn dp_boundary_requires_the_tag() {
        let tagged = "// lint: dp-post-noise\nlet g = model.flat_gradients();\n";
        assert_eq!(
            rules(&lint_as("crates/doppelganger/src/x.rs", tagged)),
            vec![(RuleId::DpBoundary, 2)]
        );
        let untagged = "let g = model.flat_gradients();\n";
        assert!(lint_as("crates/doppelganger/src/x.rs", untagged).is_empty());
    }

    #[test]
    fn float_eq_needs_a_float_literal() {
        let d = lint_as("crates/distmetrics/src/x.rs", "if x == 0.0 {}\nif n == 0 {}\nif 1e-3 != y {}\n");
        assert_eq!(rules(&d), vec![(RuleId::FloatEq, 1), (RuleId::FloatEq, 3)]);
    }

    #[test]
    fn panic_in_lib_exempts_tests_bins_and_cfg_test() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules(&lint_as("crates/core/src/x.rs", src)),
            vec![(RuleId::PanicInLib, 1)]
        );
        assert!(lint_as("crates/core/src/bin/cli.rs", src).is_empty());
        assert!(lint_as("crates/core/tests/t.rs", src).is_empty());

        let with_tests = "fn f() -> u8 { 0 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f().checked_add(1).unwrap(); panic!(\"x\"); }\n}\n";
        assert!(lint_as("crates/core/src/x.rs", with_tests).is_empty());
    }

    #[test]
    fn unbounded_wait_flags_sleeps_and_raw_waits_in_lib_code() {
        let src = "fn f(cv: &Condvar, g: G) {\n    std::thread::sleep(D);\n    let g = cv.wait(g);\n    let g = cv.wait_timeout(g, D);\n}\n";
        assert_eq!(
            rules(&lint_as("crates/orchestrator/src/x.rs", src)),
            vec![(RuleId::UnboundedWait, 2), (RuleId::UnboundedWait, 3)],
            "wait_timeout is a distinct identifier and never flagged"
        );
        // Test-like targets, bins, shims, and test regions may block.
        assert!(lint_as("crates/orchestrator/tests/t.rs", src).is_empty());
        assert!(lint_as("crates/core/src/bin/cli.rs", src).is_empty());
        assert!(lint_as("shims/rayon/src/lib.rs", src).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(D); }\n}\n";
        assert!(lint_as("crates/orchestrator/src/x.rs", in_tests).is_empty());
        // A field or free fn named `wait`/`sleep` is not a blocking call.
        assert!(lint_as("crates/core/src/x.rs", "let w = self.wait;\nfn sleep() {}\n").is_empty());
    }

    #[test]
    fn unbounded_wait_flags_fixed_sleep_retry_loops() {
        // A hardcoded per-attempt delay inside a loop is a flat poll.
        let flat = "fn f(t: &T) {\n    while !t.wait_timeout(Duration::from_millis(50)) {\n    }\n}\n";
        assert_eq!(
            rules(&lint_as("crates/orchestrator/src/x.rs", flat)),
            vec![(RuleId::UnboundedWait, 2)]
        );
        // Outside a loop, a fixed wait is a one-shot delay — fine.
        let once = "fn f(t: &T) {\n    let _ = t.wait_timeout(Duration::from_millis(50));\n}\n";
        assert!(lint_as("crates/orchestrator/src/x.rs", once).is_empty());
        // A variable duration is a tuning knob, not a hardcoded poll.
        let tunable = "fn f(t: &T, ms: u64) {\n    while !t.wait_timeout(Duration::from_millis(ms)) {\n    }\n}\n";
        assert!(lint_as("crates/orchestrator/src/x.rs", tunable).is_empty());
        // A loop that names a backoff is the sanctioned growing delay.
        let grows = "fn f(t: &T, backoff: &mut B) {\n    loop {\n        if t.wait_timeout(Duration::from_millis(5)) { return; }\n        if backoff.sleep(t) { return; }\n    }\n}\n";
        assert!(lint_as("crates/orchestrator/src/x.rs", grows).is_empty());
        // Test code may poll flat.
        assert!(lint_as("crates/orchestrator/tests/t.rs", flat).is_empty());
    }

    #[test]
    fn alloc_in_step_loop_fires_only_inside_tagged_loops() {
        let tagged = "fn f() {\n    let pre = Vec::new();\n    // lint: step-loop\n    for t in 0..n {\n        let z = Vec::new();\n        let v = vec![0.0; 4];\n        let h = Tensor::zeros(2, 3);\n    }\n    let post = vec![1];\n}\n";
        assert_eq!(
            rules(&lint_as("crates/nnet/src/x.rs", tagged)),
            vec![
                (RuleId::AllocInStepLoop, 5),
                (RuleId::AllocInStepLoop, 6),
                (RuleId::AllocInStepLoop, 7),
            ],
            "allocations before and after the tagged loop are not flagged"
        );

        let untagged = "fn f() {\n    for t in 0..n {\n        let z = Vec::new();\n    }\n}\n";
        assert!(lint_as("crates/nnet/src/x.rs", untagged).is_empty());

        let trailing_tag = "fn f() {\n    while go { // lint: step-loop\n        let z = Tensor::zeros(1, 1);\n    }\n}\n";
        assert_eq!(
            rules(&lint_as("crates/core/src/x.rs", trailing_tag)),
            vec![(RuleId::AllocInStepLoop, 3)]
        );
    }

    #[test]
    fn alloc_in_step_loop_ignores_method_calls_and_callees() {
        // `arena.take_zeroed` and other method calls are the sanctioned
        // form — only the three literal constructors are flagged.
        let src = "fn f() {\n    // lint: step-loop\n    for t in 0..n {\n        let z = arena.take_zeroed(2, 3);\n        let next = frozen.step(&x, &h, arena);\n    }\n}\n";
        assert!(lint_as("crates/nnet/src/x.rs", src).is_empty());
    }
}
