//! Span stack behavior: nesting, unwind safety across `catch_unwind` (the
//! orchestrator's retry boundary), mis-nesting recovery, and the
//! last-writer-wins sink contract.
//!
//! The sink is process-global, so every test that installs one serializes
//! on `SINK_LOCK`; spans themselves are thread-local and need no lock.

use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::span::{clear_span_sink, current_path, set_span_sink, SpanEvent};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Installs a capturing sink and returns the captured events plus the
/// serialization guard keeping other tests off the global sink.
fn capture() -> (Arc<Mutex<Vec<SpanEvent>>>, MutexGuard<'static, ()>) {
    let guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let events = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&events);
    set_span_sink(move |ev: &SpanEvent| {
        captured.lock().unwrap().push(ev.clone());
    });
    (events, guard)
}

#[test]
fn nested_spans_build_slash_paths_and_close_children_first() {
    let (events, _guard) = capture();
    {
        let _outer = telemetry::span!("outer[{}]", 1);
        assert_eq!(current_path(), "outer[1]");
        {
            let _inner = telemetry::span!("inner");
            assert_eq!(current_path(), "outer[1]/inner");
        }
        assert_eq!(current_path(), "outer[1]");
    }
    clear_span_sink();
    assert_eq!(current_path(), "");
    let evs = events.lock().unwrap();
    assert_eq!(evs.len(), 2, "one event per closed span: {evs:?}");
    assert_eq!(evs[0].path, "outer[1]/inner");
    assert_eq!(evs[0].depth, 2);
    assert_eq!(evs[1].path, "outer[1]");
    assert_eq!(evs[1].depth, 1);
    assert!(evs[1].start_ns <= evs[0].start_ns, "parent starts first");
    assert!(evs[1].duration_ns >= evs[0].duration_ns, "parent spans the child");
}

#[test]
fn spans_emit_and_the_stack_balances_across_catch_unwind() {
    let (events, _guard) = capture();
    let result = std::panic::catch_unwind(|| {
        let _span = telemetry::span!("doomed_attempt");
        panic!("injected fault");
    });
    assert!(result.is_err(), "the panic must propagate to catch_unwind");
    clear_span_sink();
    assert_eq!(current_path(), "", "stack rebalanced after the unwind");
    let evs = events.lock().unwrap();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].path, "doomed_attempt");
    assert_eq!(evs[0].depth, 1);
}

#[test]
fn parent_drop_truncates_leaked_children() {
    let (events, _guard) = capture();
    let parent = telemetry::span::enter("parent".to_string());
    let child = telemetry::span::enter("child".to_string());
    // Mis-nested: the parent guard drops while the child is still open.
    drop(parent);
    assert_eq!(current_path(), "", "parent pop truncates the leaked child");
    // The orphaned child guard must neither emit nor pop a frame that
    // is not its own.
    drop(child);
    clear_span_sink();
    let evs = events.lock().unwrap();
    assert_eq!(evs.len(), 1, "only the parent emits: {evs:?}");
    assert_eq!(evs[0].path, "parent");
    assert_eq!(evs[0].depth, 1);
}

#[test]
fn sink_is_last_writer_wins_and_clearable() {
    let (first, _guard) = capture();
    let second: Arc<Mutex<Vec<SpanEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&second);
    set_span_sink(move |ev: &SpanEvent| captured.lock().unwrap().push(ev.clone()));
    drop(telemetry::span!("replaced_sink"));
    clear_span_sink();
    drop(telemetry::span!("after_clear"));
    assert!(first.lock().unwrap().is_empty(), "the first sink was replaced");
    let evs = second.lock().unwrap();
    assert_eq!(evs.len(), 1, "nothing emits after clear: {evs:?}");
    assert_eq!(evs[0].path, "replaced_sink");
}

#[test]
fn span_stacks_are_per_thread() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _outer = telemetry::span!("main_thread");
    let worker_path = std::thread::spawn(|| {
        let _span = telemetry::span!("worker");
        current_path()
    })
    .join()
    .unwrap();
    assert_eq!(worker_path, "worker", "no cross-thread frame leakage");
    assert_eq!(current_path(), "main_thread");
}
