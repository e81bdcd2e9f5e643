//! Drives the real `netshare-lint` binary over the fixture corpus and the
//! live workspace (via `CARGO_BIN_EXE_netshare-lint`).
//!
//! Acceptance gates from the issue: the binary must exit nonzero on a
//! seeded fixture violation for *every* rule, and exit zero on the
//! cleaned workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyzer sits two levels under the workspace root")
        .to_path_buf()
}

/// Runs the binary, returning `(exit_code, stdout, stderr)`.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netshare-lint"))
        .args(args)
        .output()
        .expect("spawn netshare-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn lint_fixture_json(name: &str, as_crate: &str) -> (i32, String) {
    let path = fixture(name);
    let (code, stdout, stderr) = run(&[
        "--format",
        "json",
        "--file",
        path.to_str().expect("utf8 path"),
        "--as-crate",
        as_crate,
        "--as-role",
        "lib",
    ]);
    assert!(stderr.is_empty(), "unexpected stderr for {name}: {stderr}");
    (code, stdout)
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// Every rule must drive a nonzero exit from its seeded fixture, with the
/// expected number of deny-level and waived findings.
#[test]
fn every_rule_trips_on_its_fixture() {
    let cases: &[(&str, &str, &str, usize, usize)] = &[
        // (fixture, --as-crate, rule name, unwaived deny, waived)
        ("nondet_iteration.rs", "nnet", "nondeterministic-iteration", 3, 2),
        ("ambient_entropy.rs", "orchestrator", "ambient-entropy", 4, 1),
        ("dp_boundary.rs", "doppelganger", "dp-boundary", 3, 1),
        ("float_eq.rs", "nnet", "float-eq", 2, 1),
        ("undocumented_unsafe.rs", "nnet", "undocumented-unsafe", 2, 1),
        ("panic_in_lib.rs", "netshare", "panic-in-lib", 3, 1),
        ("telemetry_clock.rs", "orchestrator", "telemetry-clock", 2, 1),
        ("unbounded_wait.rs", "orchestrator", "unbounded-wait", 4, 2),
        ("alloc_in_step_loop.rs", "nnet", "alloc-in-step-loop", 3, 1),
        ("blocking_accept_loop.rs", "core", "blocking-accept-loop", 3, 1),
    ];
    for &(name, as_crate, rule, deny, waived) in cases {
        let (code, json) = lint_fixture_json(name, as_crate);
        assert_eq!(code, 1, "{name} must exit 1 (deny findings present)");
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "{name} must report {rule}: {json}"
        );
        assert_eq!(
            count(&json, "\"waived\":false"),
            deny,
            "{name} unwaived findings: {json}"
        );
        assert_eq!(
            count(&json, "\"waived\":true"),
            waived,
            "{name} waived findings: {json}"
        );
    }
}

#[test]
fn clean_fixture_passes_as_critical_crate() {
    let (code, json) = lint_fixture_json("clean.rs", "nnet");
    assert_eq!(code, 0, "clean fixture must pass: {json}");
    assert_eq!(count(&json, "\"rule\":"), 0, "no findings expected: {json}");
}

#[test]
fn dp_rule_is_inert_without_the_tag() {
    let (code, json) = lint_fixture_json("dp_boundary_untagged.rs", "doppelganger");
    assert_eq!(code, 0, "untagged file must pass: {json}");
    assert_eq!(count(&json, "\"rule\":"), 0, "no findings expected: {json}");
}

#[test]
fn allow_override_downgrades_to_exit_zero() {
    let path = fixture("nondet_iteration.rs");
    let (code, _, _) = run(&[
        "--allow",
        "nondeterministic-iteration",
        "--file",
        path.to_str().expect("utf8 path"),
        "--as-crate",
        "nnet",
        "--as-role",
        "lib",
    ]);
    assert_eq!(code, 0, "--allow must drop the findings");
}

#[test]
fn warn_override_reports_but_passes() {
    let path = fixture("nondet_iteration.rs");
    let (code, stdout, _) = run(&[
        "--warn",
        "nondeterministic-iteration",
        "--file",
        path.to_str().expect("utf8 path"),
        "--as-crate",
        "nnet",
        "--as-role",
        "lib",
    ]);
    assert_eq!(code, 0, "warnings alone must not fail the run");
    assert!(stdout.contains("nondeterministic-iteration"), "{stdout}");
}

#[test]
fn fix_dry_run_prints_mechanical_rewrites() {
    let path = fixture("nondet_iteration.rs");
    let (code, stdout, _) = run(&[
        "--fix-dry-run",
        "--file",
        path.to_str().expect("utf8 path"),
        "--as-crate",
        "nnet",
        "--as-role",
        "lib",
    ]);
    assert_eq!(code, 1, "dry run keeps the failing exit code");
    assert!(stdout.contains("HashMap"), "{stdout}");
    assert!(stdout.contains("BTreeMap"), "{stdout}");
    let minus = stdout.lines().filter(|l| l.trim_start().starts_with("- ")).count();
    let plus = stdout.lines().filter(|l| l.trim_start().starts_with("+ ")).count();
    assert!(minus >= 1 && minus == plus, "paired -/+ lines: {stdout}");
}

/// The self-check gate: the live workspace (all crates + shims, after the
/// violations fixed in this change series) must lint clean.
#[test]
fn live_workspace_lints_clean() {
    let root = workspace_root();
    let (code, json, stderr) = run(&[
        "--format",
        "json",
        "--root",
        root.to_str().expect("utf8 root"),
    ]);
    assert_eq!(code, 0, "workspace must be deny-clean: {stderr}\n{json}");
    assert!(json.contains("\"deny\":0"), "{json}");
    assert!(json.contains("\"warn\":0"), "{json}");
}

fn fixture_ws(name: &str) -> String {
    fixture(name).to_str().expect("utf8 path").to_string()
}

/// Acceptance gate: the seeded lock inversion (alpha takes A→B, beta
/// takes B→A) must be detected with BOTH acquisition sites named in
/// the JSON report, plus the blocking-call deny and the waived
/// re-entrant acquire.
#[test]
fn ws_lock_cycle_names_both_acquisition_sites() {
    let (code, json, stderr) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_lock"),
        "--workspace-graph",
    ]);
    assert!(stderr.is_empty(), "{stderr}");
    assert_eq!(code, 1, "seeded inversion must deny: {json}");
    assert_eq!(count(&json, "\"rule\":\"lock-order\""), 3, "{json}");
    assert_eq!(count(&json, "\"waived\":true"), 1, "{json}");
    assert!(json.contains("lock-order cycle"), "{json}");
    // Both sides of the inversion appear as related sites.
    assert!(
        json.contains("\"file\":\"crates/alpha/src/lib.rs\",\"line\":8")
            && json.contains("\"file\":\"crates/beta/src/lib.rs\",\"line\":7"),
        "cycle must name both acquisition sites: {json}"
    );
    // The graph summary carries the canonical names and observed edges.
    assert!(json.contains("\"ws.lock_a\"") && json.contains("\"ws.lock_b\""), "{json}");
    assert!(json.contains("\"from\":\"ws.lock_a\",\"to\":\"ws.lock_b\""), "{json}");
    assert!(json.contains("blocking call `.recv(`"), "{json}");
}

/// Capability fixture: a propagated clock reach and a direct raw-socket
/// use deny; the waived audit and the `lint: caps(…)`-declared module
/// do not. The declared module still lands in the manifest.
#[test]
fn ws_caps_propagation_and_sanctioned_boundary() {
    let (code, json, _) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_caps"),
        "--workspace-graph",
    ]);
    assert_eq!(code, 1, "{json}");
    assert_eq!(count(&json, "\"rule\":\"capability-graph\""), 3, "{json}");
    let denied: usize = json
        .split("\"rule\":\"capability-graph\"")
        .skip(1)
        .filter(|rest| rest.starts_with(",\"severity\":\"deny\"") && !rest[..rest.find(']').unwrap_or(rest.len())].contains("\"waived\":true"))
        .count();
    assert_eq!(denied, 2, "two unwaived capability denies: {json}");
    assert!(json.contains("transitively reaches the `clock` capability"), "{json}");
    assert!(json.contains("uses the `net` capability directly"), "{json}");
    // Propagated finding names the carrier definition as a related site.
    assert!(json.contains("`stamp` defined here carries `clock`"), "{json}");
    // The sanctioned module appears in the capability manifest.
    assert!(
        json.contains("\"crates/epsilon/src/lib.rs\":["),
        "declared-caps module must be in the manifest: {json}"
    );
}

/// Taint fixture: emitted norm and serialized gradient deny; the noised
/// path and the waived audit export do not.
#[test]
fn ws_taint_denies_pre_noise_sinks_only() {
    let (code, json, _) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_taint"),
        "--workspace-graph",
    ]);
    assert_eq!(code, 1, "{json}");
    assert_eq!(count(&json, "\"rule\":\"dp-taint-flow\""), 3, "{json}");
    assert_eq!(count(&json, "\"waived\":true"), 1, "{json}");
    assert!(json.contains("reaches sink `emit`"), "{json}");
    assert!(json.contains("reaches sink `serialize`"), "{json}");
    // `noised_ok` (line 25 emit) must NOT be reported.
    assert!(!json.contains("\"line\":25"), "noised path must be clean: {json}");
}

/// Baseline ratchet: writing a baseline from a dirty run makes the same
/// run pass (findings demoted to `baselined`), while a stale entry is
/// surfaced for deletion. New findings still deny.
#[test]
fn baseline_ratchets_and_reports_stale_entries() {
    let dir = std::env::temp_dir().join("netshare_lint_baseline_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.txt");

    // 1. Write the baseline from the dirty taint fixture.
    let (code, stdout, stderr) = run(&[
        "--root",
        &fixture_ws("ws_taint"),
        "--workspace-graph",
        "--write-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("wrote 2 baseline entries"), "{stdout}");

    // 2. The same run under the baseline passes, reporting the debt.
    let (code, json, _) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_taint"),
        "--workspace-graph",
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "baselined run must pass: {json}");
    assert!(json.contains("\"deny\":0"), "{json}");
    assert!(json.contains("\"baselined\":2"), "{json}");
    assert!(json.contains("\"applied\":2"), "{json}");

    // 3. A stale entry (nothing matches it) is reported for removal,
    //    and a finding NOT in the baseline still denies.
    let mut text = std::fs::read_to_string(&baseline).unwrap();
    text = text
        .lines()
        .filter(|l| l.starts_with('#') || !l.contains("emit"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\ndp-taint-flow|crates/nnet/src/gone.rs|vanished_line();\n";
    std::fs::write(&baseline, text).unwrap();
    let (code, json, _) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_taint"),
        "--workspace-graph",
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "un-baselined finding must still deny: {json}");
    assert!(json.contains("\"stale\":[\"dp-taint-flow|crates/nnet/src/gone.rs"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--diff` analyzes only the reverse-dependency cone of the changed
/// files: changing the `gamma` helper re-reports its `delta` caller
/// (reverse dependency), without needing `delta` in the change set.
#[test]
fn diff_mode_reports_the_reverse_dependency_cone() {
    let (code, json, _) = run(&[
        "--format",
        "json",
        "--root",
        &fixture_ws("ws_caps"),
        "--workspace-graph",
        "--diff",
        "crates/gamma/src/lib.rs",
    ]);
    assert_eq!(code, 1, "{json}");
    assert!(json.contains("\"mode\":\"diff\""), "{json}");
    assert!(json.contains("\"diff\":{\"changed\":1,"), "{json}");
    // The propagated finding sits in delta — inside the cone.
    assert!(json.contains("crates/delta/src/lib.rs"), "{json}");
}

/// Applying the dry-run rewrites twice is idempotent: the second
/// application changes nothing and the file is byte-identical.
#[test]
fn fix_dry_run_rewrites_are_idempotent() {
    let dir = std::env::temp_dir().join("netshare_lint_fix_idempotent");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("nondet.rs");
    std::fs::copy(fixture("nondet_iteration.rs"), &target).unwrap();

    // Parses `  - old` / `  + new` pairs and rewrites matching lines.
    fn apply(path: &Path) -> usize {
        let (_, stdout, _) = run(&[
            "--fix-dry-run",
            "--file",
            path.to_str().unwrap(),
            "--as-crate",
            "nnet",
            "--as-role",
            "lib",
        ]);
        let mut src = std::fs::read_to_string(path).unwrap();
        let mut applied = 0;
        let lines: Vec<&str> = stdout.lines().collect();
        for w in lines.windows(2) {
            let (Some(old), Some(new)) = (
                w[0].trim_start().strip_prefix("- "),
                w[1].trim_start().strip_prefix("+ "),
            ) else {
                continue;
            };
            if src.contains(old) {
                src = src.replacen(old, new, 1);
                applied += 1;
            }
        }
        std::fs::write(path, &src).unwrap();
        applied
    }

    let first = apply(&target);
    assert!(first >= 1, "the fixture must offer rewrites");
    let after_first = std::fs::read_to_string(&target).unwrap();
    let second = apply(&target);
    assert_eq!(second, 0, "second application must be a no-op");
    let after_second = std::fs::read_to_string(&target).unwrap();
    assert_eq!(after_first, after_second, "byte-identical after re-apply");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live workspace must be deny-clean in workspace-graph mode under
/// the committed baseline (the CI gate, exercised from the test suite).
#[test]
fn live_workspace_graph_lints_clean_under_committed_baseline() {
    let root = workspace_root();
    let baseline = root.join("lint-baseline.txt");
    let (code, json, stderr) = run(&[
        "--format",
        "json",
        "--root",
        root.to_str().expect("utf8 root"),
        "--workspace-graph",
        "--baseline",
        baseline.to_str().expect("utf8 baseline"),
    ]);
    assert_eq!(code, 0, "workspace must be deny-clean: {stderr}\n{json}");
    assert!(json.contains("\"mode\":\"workspace-graph\""), "{json}");
    assert!(json.contains("\"deny\":0"), "{json}");
    assert!(json.contains("\"stale\":[]"), "no stale baseline debt: {json}");
    // The canonical ranks are live: annotated locks appear in the graph.
    assert!(json.contains("\"orchestrator.machine\""), "{json}");
    assert!(json.contains("\"netshared.session_registry\""), "{json}");
}

#[test]
fn usage_error_exits_two() {
    let (code, _, stderr) = run(&["--definitely-not-a-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn list_rules_names_every_rule() {
    let (code, stdout, _) = run(&["--list-rules"]);
    assert_eq!(code, 0);
    for rule in [
        "nondeterministic-iteration",
        "ambient-entropy",
        "dp-boundary",
        "float-eq",
        "undocumented-unsafe",
        "panic-in-lib",
        "telemetry-clock",
        "unbounded-wait",
        "alloc-in-step-loop",
        "blocking-accept-loop",
    ] {
        assert!(stdout.contains(rule), "missing {rule}: {stdout}");
    }
}
