//! Feature-off behavior: every handle is zero-sized, span names are never
//! formatted, and the snapshot is the empty-registry document. This is the
//! binary `scripts/ci.sh` runs via `cargo test -p telemetry` (building the
//! crate in isolation keeps the workspace-default `telemetry` feature out
//! of the graph).
#![cfg(not(feature = "telemetry"))]

#[test]
fn feature_off_spans_are_zero_sized_and_never_format_names() {
    let mut evaluated = false;
    let guard = telemetry::span::enter_with(|| {
        evaluated = true;
        "never".to_string()
    });
    assert_eq!(std::mem::size_of_val(&guard), 0, "guard must be a ZST");
    drop(guard);
    assert!(!evaluated, "feature-off spans must not evaluate their names");
    assert_eq!(telemetry::span::current_path(), "");
    telemetry::span::set_span_sink(|_ev: &telemetry::span::SpanEvent| {});
    telemetry::span::clear_span_sink();
}

#[test]
fn span_macro_compiles_to_a_noop_guard() {
    let _span = telemetry::span!("noop[{}]", 1);
}

#[test]
fn feature_off_metrics_are_zero_sized_noops() {
    let c = telemetry::metrics::counter("x.calls");
    c.inc();
    c.add(5);
    assert_eq!(c.get(), 0);
    assert_eq!(std::mem::size_of_val(&c), 0, "counter must be a ZST");

    let g = telemetry::metrics::gauge("x.loss");
    g.set(3.0);
    g.add(2.0);
    assert_eq!(g.get(), 0.0);

    let h = telemetry::metrics::histogram("x.us", &[1.0]);
    h.record(1.0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0.0);

    let t = telemetry::metrics::scoped_timer_us("x.us");
    assert_eq!(std::mem::size_of_val(&t), 0, "timer must be a ZST");
    drop(t);

    static CALLS: telemetry::metrics::LazyCounter = telemetry::metrics::LazyCounter::new("x.calls");
    static TIMER: telemetry::metrics::LazyTimerUs = telemetry::metrics::LazyTimerUs::new("x.us");
    CALLS.get().inc();
    assert_eq!(CALLS.get().get(), 0);
    assert_eq!(std::mem::size_of_val(&CALLS), 0, "cached counter must be a ZST");
    let t = TIMER.start();
    assert_eq!(std::mem::size_of_val(&t), 0, "cached timer must be a ZST");
    assert_eq!(std::mem::size_of_val(&TIMER), 0, "cached histogram must be a ZST");
    drop(t);

    assert_eq!(
        telemetry::metrics::snapshot_json(),
        "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    );
    telemetry::metrics::reset();
}

#[test]
fn feature_off_clock_still_ticks() {
    // The clock module is compiled unconditionally — it is the process
    // epoch anchor `orchestrator::timing` delegates to in either state.
    let t0 = telemetry::clock::monotonic_nanos();
    let t1 = telemetry::clock::monotonic_nanos();
    assert!(t1 >= t0);
    assert_eq!(telemetry::clock::nanos_since(t1 + 1_000_000_000), 0, "saturates");
}
