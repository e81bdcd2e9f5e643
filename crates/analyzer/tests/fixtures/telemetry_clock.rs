//! Fixture (capability-graph): raw telemetry epoch-clock reads, linted as a lib,
//! a bin and a test file under `crates/orchestrator/`. Expected as a lib and a
//! bin: 2 deny findings, 1 waived; test code may read the epoch clock.

pub fn positive_raw_timestamp() -> u64 {
    telemetry::clock::monotonic_nanos()
}

pub fn positive_microsecond_read() -> u64 {
    telemetry::clock::monotonic_nanos() / 1_000
}

pub fn waived_epoch_probe() -> u64 {
    // lint: allow(capability-graph) fixture: demonstrating a waiver
    telemetry::clock::monotonic_nanos()
}

pub fn negative_guarded_timing() -> f64 {
    // Sanctioned paths: the Stopwatch (which reads the epoch clock on
    // the caller's behalf) and telemetry's own span/timer guards.
    let sw = orchestrator::timing::Stopwatch::start();
    let _timer = telemetry::metrics::scoped_timer_us("fixture.us");
    sw.elapsed_seconds()
}
