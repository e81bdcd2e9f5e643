//! Metrics registry behavior with the feature on: bucket-edge semantics,
//! non-finite handling, concurrent-recording determinism, and the pinned
//! snapshot JSON schema.
//!
//! Tests that need isolation build a private [`Registry`]; tests of the
//! module-level functions use the process-global one with unique names.
#![cfg(feature = "telemetry")]

use std::sync::Arc;
use telemetry::metrics::{self, Registry, DURATION_US_EDGES};

#[test]
fn histogram_bucket_edges_are_inclusive_upper_bounds() {
    let reg = Registry::new();
    let h = reg.histogram("edges.us", &[1.0, 10.0, 100.0]);
    for v in [0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 1000.0] {
        h.record(v);
    }
    let snap = reg.snapshot();
    let hs = &snap.histograms["edges.us"];
    assert_eq!(hs.edges, vec![1.0, 10.0, 100.0]);
    // `v <= edge` lands at the first matching edge: {0.5, 1.0} | {1.5, 10.0}
    // | {99.9, 100.0} | overflow {1000.0}.
    assert_eq!(hs.buckets, vec![2, 2, 2, 1]);
    assert_eq!(hs.count, 7);
    let expected: f64 = [0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 1000.0].iter().sum();
    assert!((hs.sum - expected).abs() < 1e-9);
}

#[test]
fn non_finite_samples_land_in_overflow_and_skip_the_sum() {
    let reg = Registry::new();
    let h = reg.histogram("nan.proof", &[1.0]);
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(0.5);
    assert_eq!(h.count(), 3, "non-finite samples still count");
    assert_eq!(h.sum(), 0.5, "but are excluded from the sum");
    let hs = reg.snapshot().histograms["nan.proof"].clone();
    assert_eq!(hs.buckets, vec![1, 2]);
}

#[test]
fn first_registration_fixes_histogram_edges() {
    let reg = Registry::new();
    let a = reg.histogram("fixed", &[1.0, 2.0]);
    let b = reg.histogram("fixed", &[99.0]);
    b.record(1.5);
    assert_eq!(a.count(), 1, "both handles share one histogram");
    assert_eq!(reg.snapshot().histograms["fixed"].edges, vec![1.0, 2.0]);
}

#[test]
fn gauge_add_moves_both_ways_and_survives_contention() {
    let reg = Registry::new();
    let g = reg.gauge("sessions.open");
    g.add(3.0);
    g.add(-1.0);
    assert_eq!(g.get(), 2.0);
    g.set(0.0);

    // 4 threads × 1000 balanced up/down movements: a lossy
    // read-modify-set would drift; the CAS loop must land on 0.
    let reg = Arc::new(reg);
    let handles: Vec<_> = (0..4u64)
        .map(|_| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.gauge("sessions.open").add(1.0);
                    reg.gauge("sessions.open").add(-1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(reg.gauge("sessions.open").get(), 0.0);
}

#[test]
fn snapshots_are_deterministic_under_concurrent_recording() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    reg.counter("conc.calls").inc();
                    reg.histogram("conc.us", &DURATION_US_EDGES)
                        .record(((t * 1000 + i) % 512) as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counters["conc.calls"], 4000);
    let hs = &snap.histograms["conc.us"];
    assert_eq!(hs.count, 4000);
    // Integer-valued f64 samples below 2^53 add exactly, so the CAS-loop
    // sum is independent of thread interleaving.
    let expected: f64 = (0..4u64)
        .flat_map(|t| (0..1000u64).map(move |i| ((t * 1000 + i) % 512) as f64))
        .sum();
    assert_eq!(hs.sum, expected);
}

#[test]
fn snapshot_json_schema_is_pinned() {
    let reg = Registry::new();
    reg.counter("a.calls").add(3);
    reg.gauge("b.loss").set(-1.5);
    reg.gauge("g.nan").set(f64::NAN);
    reg.histogram("c.us", &[1.0, 10.0]).record(5.0);
    assert_eq!(
        reg.snapshot().to_json(),
        "{\"counters\":{\"a.calls\":3},\
         \"gauges\":{\"b.loss\":-1.5,\"g.nan\":null},\
         \"histograms\":{\"c.us\":{\"edges\":[1,10],\"buckets\":[0,1,0],\"count\":1,\"sum\":5}}}"
    );
}

#[test]
fn global_module_functions_share_one_registry() {
    metrics::counter("global.test.calls").add(2);
    metrics::counter("global.test.calls").inc();
    let snap = metrics::snapshot();
    assert_eq!(snap.counters["global.test.calls"], 3);
    assert!(metrics::snapshot_json().contains("\"global.test.calls\":3"));
}

#[test]
fn scoped_timer_records_into_the_global_duration_histogram() {
    {
        let _t = metrics::scoped_timer_us("timer.test.us");
        std::hint::black_box(0u64);
    }
    let hs = metrics::snapshot().histograms["timer.test.us"].clone();
    assert_eq!(hs.count, 1);
    assert_eq!(hs.edges, DURATION_US_EDGES.to_vec());
    assert_eq!(hs.buckets.iter().sum::<u64>(), 1);
}

#[test]
fn lazy_handles_record_into_the_same_global_series_as_by_name_lookups() {
    static CALLS: metrics::LazyCounter = metrics::LazyCounter::new("lazy.test.calls");
    static TIMER: metrics::LazyTimerUs = metrics::LazyTimerUs::new("lazy.test.us");
    metrics::counter("lazy.test.calls").inc();
    CALLS.get().add(2);
    drop(TIMER.start());
    drop(metrics::scoped_timer_us("lazy.test.us"));
    drop(TIMER.start());
    let snap = metrics::snapshot();
    assert_eq!(snap.counters["lazy.test.calls"], 3);
    assert_eq!(snap.histograms["lazy.test.us"].count, 3);
    assert_eq!(snap.histograms["lazy.test.us"].edges, DURATION_US_EDGES.to_vec());
}
