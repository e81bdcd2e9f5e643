//! Thread-local span stack with a process-global event sink.
//!
//! A span is opened with the [`span!`](crate::span!) macro (or
//! [`enter_with`]) and closed when its guard drops. Frames nest per
//! thread; the emitted [`SpanEvent`] carries the slash-joined path of
//! every frame open on that thread, so a fine-tune step inside a worker
//! shows up as e.g. `job[chunk-1]/attempt[1]/chunk[1]/fine_tune`.
//!
//! Events are delivered to the sink installed with [`set_span_sink`]
//! (last writer wins, same contract as `nnet::sanitize::set_hook`); with
//! no sink installed, spans still maintain the stack (so nested paths
//! stay correct) but emit nothing. Guards emit on drop even during panic
//! unwinding, which keeps the stack balanced across the orchestrator's
//! `catch_unwind` retry boundary.
//!
//! Child spans close before their parents, so a JSONL stream shows leaf
//! events first; readers reconstruct the tree from `path` + `depth`.

use crate::{clock, lock};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// One closed span, delivered to the sink when the guard drops.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Slash-joined names of every frame open on this thread at exit,
    /// outermost first (e.g. `pretrain/dpsgd/sanitize_batch[16]`).
    pub path: String,
    /// [`clock::monotonic_nanos`] reading at span entry.
    pub start_ns: u64,
    /// Nanoseconds between entry and guard drop.
    pub duration_ns: u64,
    /// Nesting depth on this thread, 1-based (a root span has depth 1).
    pub depth: u32,
}

struct Frame {
    name: String,
    start_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

type Sink = Arc<dyn Fn(&SpanEvent) + Send + Sync>;

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Install the process-global span sink, replacing any previous one.
/// The sink must not itself open spans (it would see a stack mid-pop).
pub fn set_span_sink<F>(sink: F)
where
    F: Fn(&SpanEvent) + Send + Sync + 'static,
{
    *lock(&SINK) = Some(Arc::new(sink));
}

/// Remove the process-global span sink (spans become stack-only).
pub fn clear_span_sink() {
    *lock(&SINK) = None;
}

fn current_sink() -> Option<Sink> {
    // Clone the Arc out of the lock so the sink runs without holding it
    // (the sink may take its own locks, e.g. the event log's).
    lock(&SINK).clone()
}

/// RAII guard for one span frame; pops and emits on drop.
///
/// The guard is neither `Send` nor `Sync`: its `Drop` pops the span stack
/// of the thread it runs on, so a guard dropped on another thread would
/// pop that thread's frames (or leak its own). Moving one across threads
/// does not compile:
///
/// ```compile_fail,E0277
/// let guard = telemetry::span!("moved");
/// std::thread::spawn(move || drop(guard));
/// ```
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// Stack length immediately after our frame was pushed; doubles as
    /// the 1-based nesting depth.
    len_after_push: usize,
    _thread_bound: PhantomData<*const ()>,
}

/// Open a span on this thread's stack, naming it with `name()`.
pub fn enter_with(name: impl FnOnce() -> String) -> SpanGuard {
    let start_ns = clock::monotonic_nanos();
    let len_after_push = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Frame { name: name(), start_ns });
        s.len()
    });
    SpanGuard { len_after_push, _thread_bound: PhantomData }
}

/// Slash-joined path of the frames currently open on this thread, or
/// an empty string outside any span. Primarily for tests.
pub fn current_path() -> String {
    STACK.with(|s| {
        s.borrow()
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>()
            .join("/")
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let event = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < self.len_after_push {
                // Our frame is already gone (a mis-nested guard outlived
                // its parent's pop). Emit nothing rather than popping a
                // frame that isn't ours.
                return None;
            }
            let path = s[..self.len_after_push]
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
                .join("/");
            let start_ns = s[self.len_after_push - 1].start_ns;
            // Drop our frame and any child frames leaked above it.
            s.truncate(self.len_after_push - 1);
            Some(SpanEvent {
                path,
                start_ns,
                duration_ns: clock::nanos_since(start_ns),
                depth: self.len_after_push as u32,
            })
        });
        if let Some(event) = event {
            if let Some(sink) = current_sink() {
                sink(&event);
            }
        }
    }
}
