//! EXPERIMENTS.md's generated blocks are exactly what the committed
//! `results/` render to, and every computed claim has the status its
//! registry entry expects. The experiments themselves are re-run by
//! `scripts/ci.sh experiments` (release-built; too slow for a debug
//! test).

use bench::{registry, Expect};
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn results() -> PathBuf {
    root().join("results")
}

fn experiments_md() -> String {
    std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md is readable")
}

#[test]
fn committed_report_is_what_the_committed_results_render_to() {
    let doc = experiments_md();
    let rendered = bench::report(&doc, &results()).unwrap_or_else(|e| panic!("{e}"));
    if let Some((i, (want, got))) = doc.lines().zip(rendered.lines()).enumerate().find(|(_, (a, b))| a != b) {
        panic!(
            "EXPERIMENTS.md line {} differs from its render (run `experiments report`):\n  committed: {want}\n  rendered:  {got}",
            i + 1
        );
    }
    assert_eq!(doc, rendered, "EXPERIMENTS.md differs from its render in length");
}

#[test]
fn every_claim_has_the_status_its_entry_expects() {
    for e in registry() {
        let (_, claims) = e.load(&results()).unwrap_or_else(|err| panic!("{err}"));
        for (id, _) in e.expectations {
            assert!(claims.iter().any(|c| c.id == *id), "{}: `{id}` is expected but not claimed", e.name);
        }
        for c in &claims {
            let now = if c.holds { Expect::Holds } else { Expect::KnownFailing };
            assert_eq!(e.expected(c.id), Some(now), "{}: status moved: {}", e.name, c.line(e.expected(c.id)));
        }
    }
}

#[test]
fn a_missing_or_truncated_results_file_is_an_error_naming_it() {
    let dir = std::env::temp_dir().join(format!("experiments-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let entries = registry();
    let e = &entries[0];
    let path = e.path(&dir).display().to_string();

    let missing = bench::report(&experiments_md(), &dir).expect_err("no results at all");
    assert!(missing.0.contains(&path), "{missing}");

    let full = std::fs::read(e.path(&results())).expect("committed results file");
    std::fs::write(e.path(&dir), &full[..full.len() / 2]).expect("write truncated copy");
    let truncated = e.load(&dir).expect_err("half a file");
    assert!(truncated.0.contains(&path), "{truncated}");

    std::fs::remove_dir_all(&dir).ok();
}
