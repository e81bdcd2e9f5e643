//! Telemetry metrics stay deterministic when recorded from the rayon
//! pool's threads.

use rayon::prelude::*;

#[test]
fn rayon_recorded_metrics_snapshot_deterministically() {
    let samples: Vec<u64> = (0..2048).collect();
    let recorded: Vec<()> = samples
        .par_iter()
        .map(|&i| {
            telemetry::metrics::counter("rayon.test.calls").inc();
            telemetry::metrics::histogram(
                "rayon.test.us",
                &telemetry::metrics::DURATION_US_EDGES,
            )
            .record((i % 97) as f64);
        })
        .collect();
    assert_eq!(recorded.len(), 2048);

    let snap = telemetry::metrics::snapshot();
    assert_eq!(snap.counters["rayon.test.calls"], 2048);
    let hs = &snap.histograms["rayon.test.us"];
    assert_eq!(hs.count, 2048);
    // Integer-valued f64 samples add exactly, so the CAS-loop sum is the
    // same no matter how the pool interleaved the records.
    let expected: f64 = (0..2048u64).map(|i| (i % 97) as f64).sum();
    assert_eq!(hs.sum, expected);
}
