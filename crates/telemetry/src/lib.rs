//! Zero-dependency observability layer for the NetShare workspace.
//!
//! Three surfaces:
//!
//! * [`clock`] — the process-wide monotonic clock anchor, the single
//!   sanctioned ambient-clock read site in the workspace besides
//!   `orchestrator::timing` (which delegates here). The `capability-graph`
//!   lint rule in `netshare-lint` keeps every other crate from reading it
//!   directly.
//! * [`mod@span`] — a thread-local span stack. `span!("chunk[3]/fine_tune")`
//!   pushes a named frame; dropping the returned guard pops it and emits a
//!   [`span::SpanEvent`] (slash-joined path, start + duration in
//!   nanoseconds, nesting depth) to the process-global sink installed with
//!   [`span::set_span_sink`]. The pipeline bridges that sink into the
//!   orchestrator's JSONL event stream as `Event::Span` lines.
//! * [`metrics`] — a process-global registry of counters, gauges, and
//!   fixed-bucket histograms, snapshotted on demand as deterministic
//!   (key-sorted) JSON via [`metrics::snapshot_json`]. The CLI dumps it
//!   with `--metrics-out`.
//!
//! Determinism story: telemetry never feeds data *back* into training —
//! timestamps and metric values flow out to event streams and snapshots
//! only, so instrumented runs remain bit-identical to uninstrumented ones
//! (pinned by the root package's `tests/oracles/determinism.rs`).

#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod span;

/// Locks a mutex of the metrics registry or the span sink. A poisoned
/// lock means a thread panicked while holding it: the map or sink it
/// guards may be torn and no caller can repair that, so the panic
/// propagates.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("poisoned telemetry lock") // lint: allow(panic-in-lib) poisoned lock is unrecoverable (see `lock`)
}

/// Open a timed span: `let _g = span!("chunk[{ci}]/fine_tune");`.
///
/// The span closes (and its event is emitted) when the returned guard is
/// dropped, including during panic unwinding, which keeps the stack
/// balanced across the orchestrator's `catch_unwind` retry boundary.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        $crate::span::enter(format!($($arg)*))
    };
}
