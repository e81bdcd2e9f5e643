//! Drives the real `netshare-lint` binary over the fixture corpus and the
//! live workspace (via `CARGO_BIN_EXE_netshare-lint`).
//!
//! Every rule must exit nonzero on its seeded fixture, and the live
//! workspace must lint clean. A fixture file is linted by copying it to a
//! path inside a fresh temporary workspace, so its crate and role come
//! from that path, exactly as for a real file.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// `--format json --root <root>`, asserting a quiet stderr.
fn lint_root(root: &Path) -> (i32, String) {
    let (code, json, stderr) = run(&["--format", "json", "--root", root.to_str().unwrap()]);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    (code, json)
}

/// Copies fixture `name` to `rel` inside a fresh workspace and lints it.
fn lint_placed(name: &str, rel: &str) -> (i32, String) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("netshare_lint_{}_{n}", std::process::id()));
    let dest = dir.join(rel);
    std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
    std::fs::copy(fixture(name), &dest).unwrap();
    let out = lint_root(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// `(rule, line, waived)` of every diagnostic in a JSON report.
fn findings(json: &str) -> Vec<(String, u32, bool)> {
    json.split("{\"rule\":\"")
        .skip(1)
        .map(|d| {
            let after = |key: &str| &d[d.find(key).expect(key) + key.len()..];
            let line = after("\"line\":")
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
                .expect("line number");
            let waived = after("\"waived\":").starts_with("true");
            (d[..d.find('"').unwrap()].to_string(), line, waived)
        })
        .collect()
}

/// `(fixture, placed at or crate, rule, unwaived lines, waived lines)`.
type Case = (&'static str, &'static str, &'static str, &'static [u32], &'static [u32]);

fn expect(rule: &str, deny: &[u32], waived: &[u32]) -> Vec<(String, u32, bool)> {
    let mut v: Vec<(String, u32, bool)> = deny
        .iter()
        .map(|&l| (rule.to_string(), l, false))
        .chain(waived.iter().map(|&l| (rule.to_string(), l, true)))
        .collect();
    v.sort_by_key(|(_, l, _)| *l);
    v
}

/// Every per-file rule must drive a nonzero exit from its seeded
/// fixture, with exactly the expected deny-level and waived findings.
#[test]
fn every_rule_trips_on_its_fixture() {
    let cases: &[Case] = &[
        ("nondet_iteration.rs", "crates/nnet/src/x.rs", "nondeterministic-iteration", &[6, 8, 9], &[13, 13]),
        ("dp_boundary.rs", "crates/doppelganger/src/x.rs", "dp-boundary", &[7, 11, 15], &[19]),
        ("float_eq.rs", "crates/nnet/src/x.rs", "float-eq", &[6, 10], &[14]),
        ("panic_in_lib.rs", "crates/netshare/src/x.rs", "panic-in-lib", &[6, 10, 14], &[18]),
        ("unbounded_wait.rs", "crates/orchestrator/src/x.rs", "unbounded-wait", &[13, 14, 23, 50], &[36, 58]),
        ("alloc_in_step_loop.rs", "crates/nnet/src/x.rs", "alloc-in-step-loop", &[12, 13, 14], &[24]),
        ("unknown_waiver.rs", "crates/core/src/x.rs", "unknown-waiver", &[6], &[]),
    ];
    for &(name, rel, rule, deny, waived) in cases {
        let (code, json) = lint_placed(name, rel);
        assert_eq!(code, 1, "{name} must exit 1 (deny findings present)");
        assert_eq!(findings(&json), expect(rule, deny, waived), "{name}: {json}");
    }
}

/// The entropy, clock and raw-socket checks are `capability-graph`'s
/// direct evidence: in a lib, a bin and (for OS entropy and raw clock
/// reads) a test file, telemetry's own included. `read_header` returns
/// `[u8; 4]`, whose `;` once hid the fn.
#[test]
fn capability_graph_reports_direct_evidence_by_role() {
    let cases: &[Case] = &[
        ("ambient_entropy.rs", "orchestrator", "capability-graph", &[8, 12, 16, 20], &[24]),
        ("ambient_entropy.rs", "telemetry", "capability-graph", &[8, 12, 16, 20], &[24]),
        ("telemetry_clock.rs", "orchestrator", "capability-graph", &[6, 10], &[15]),
        ("blocking_accept_loop.rs", "core", "capability-graph", &[13, 19, 25], &[31]),
    ];
    for &(name, krate, rule, deny, waived) in cases {
        for rel in ["src/x.rs", "src/bin/x.rs", "tests/x.rs"] {
            let (code, json) = lint_placed(name, &format!("crates/{krate}/{rel}"));
            let want = if !name.starts_with("ambient") && rel.starts_with("tests") {
                Vec::new()
            } else {
                expect(rule, deny, waived)
            };
            assert_eq!(code, i32::from(!want.is_empty()), "{name} in {krate}/{rel}: {json}");
            assert_eq!(findings(&json), want, "{name} in {krate}/{rel}: {json}");
        }
    }
}

#[test]
fn clean_fixtures_pass() {
    for (name, rel) in [
        ("clean.rs", "crates/nnet/src/x.rs"),
        // The dp rule is inert without the `dp-post-noise` tag.
        ("dp_boundary_untagged.rs", "crates/doppelganger/src/x.rs"),
    ] {
        let (code, json) = lint_placed(name, rel);
        assert_eq!(code, 0, "{name} must pass: {json}");
        assert!(findings(&json).is_empty(), "{name}: {json}");
    }
}

/// The self-check gate: the live workspace (all crates, shims, benches
/// and examples) must lint clean.
#[test]
fn live_workspace_lints_clean() {
    let (code, json) = lint_root(&workspace_root());
    assert_eq!(code, 0, "workspace must be deny-clean: {json}");
    assert!(json.contains("\"deny\":0"), "{json}");
    // The canonical ranks are live: annotated locks appear in the graph.
    assert!(json.contains("\"orchestrator.machine\""), "{json}");
    assert!(json.contains("\"netshared.session_registry\""), "{json}");
}

/// The seeded lock inversion (alpha takes A→B, beta takes B→A) must be
/// detected with BOTH acquisition sites named in the JSON report, plus
/// the blocking-call deny and the waived re-entrant acquire.
#[test]
fn ws_lock_cycle_names_both_acquisition_sites() {
    let (code, json) = lint_root(&fixture("ws_lock"));
    assert_eq!(code, 1, "seeded inversion must deny: {json}");
    assert_eq!(
        findings(&json),
        vec![
            ("lock-order".to_string(), 8, false),
            ("lock-order".to_string(), 15, true),
            ("lock-order".to_string(), 13, false),
        ],
        "{json}"
    );
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
/// use deny; the waived audit, the waived direct reads in `gamma` and
/// `epsilon` and the socket setup of the `lint: caps(…)`-declared module
/// do not. The declared module still lands in the manifest.
#[test]
fn ws_caps_propagation_and_sanctioned_boundary() {
    let (code, json) = lint_root(&fixture("ws_caps"));
    assert_eq!(code, 1, "{json}");
    let cap = |line, waived| ("capability-graph".to_string(), line, waived);
    assert_eq!(
        findings(&json),
        vec![cap(7, false), cap(12, false), cap(18, true), cap(16, true), cap(8, true)],
        "{json}"
    );
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
    let (code, json) = lint_root(&fixture("ws_taint"));
    assert_eq!(code, 1, "{json}");
    assert_eq!(findings(&json), expect("dp-taint-flow", &[9, 14], &[31]), "{json}");
    assert!(json.contains("reaches sink `emit`"), "{json}");
    assert!(json.contains("reaches sink `serialize`"), "{json}");
}

#[test]
fn usage_error_exits_two() {
    for args in [&["--definitely-not-a-flag"][..], &["--workspace-graph"], &["--format", "yaml"]] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn list_rules_names_every_rule() {
    let (code, stdout, _) = run(&["--list-rules"]);
    assert_eq!(code, 0);
    for rule in [
        "nondeterministic-iteration",
        "dp-boundary",
        "float-eq",
        "panic-in-lib",
        "unbounded-wait",
        "alloc-in-step-loop",
        "lock-order",
        "capability-graph",
        "dp-taint-flow",
    ] {
        assert!(stdout.contains(rule), "missing {rule}: {stdout}");
    }
}
