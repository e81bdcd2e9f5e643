//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cloneable flag with a reason string and a
//! condition variable, so cancellation both *signals* (training loops
//! poll [`CancelToken::is_cancelled`] between steps) and *wakes*
//! (retry backoffs and injected hangs block in
//! [`CancelToken::wait_timeout`], which returns early the moment the
//! token fires). The watchdog cancels per-attempt tokens on a blown
//! deadline; the scheduler cancels the run-level token when the run
//! fails, so no worker finishes a now-pointless backoff at full length.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct Inner {
    /// `Some(reason)` once cancelled; the first reason wins.
    state: Mutex<Option<String>>,
    cond: Condvar,
}

/// A cloneable cancellation flag with wake-up semantics (see module docs).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: Mutex::new(None),
                cond: Condvar::new(),
            }),
        }
    }

    /// Cancels the token with `reason` and wakes every waiter. The first
    /// reason is kept; later calls are no-ops.
    pub fn cancel(&self, reason: &str) {
        let mut st = crate::lock(&self.inner.state); // lint: lock-order(orchestrator.cancel_state)
        if st.is_none() {
            *st = Some(reason.to_string());
        }
        self.inner.cond.notify_all();
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// The cancellation reason, if cancelled.
    pub fn reason(&self) -> Option<String> {
        crate::lock(&self.inner.state).clone() // lint: lock-order(orchestrator.cancel_state)
    }

    /// Blocks for up to `dur`, returning early (with `true`) if the token
    /// is — or becomes — cancelled. Returns `false` when `dur` elapsed
    /// quietly — or, rarely, sooner on a spurious condvar wakeup: this is
    /// a polling primitive, and every caller (retry backoff, watchdog
    /// poll, injected hang) re-checks its own condition in a loop, so an
    /// early `false` costs one extra iteration, never correctness. This
    /// is the interruptible replacement for `std::thread::sleep`.
    pub fn wait_timeout(&self, dur: Duration) -> bool {
        let st = crate::lock(&self.inner.state); // lint: lock-order(orchestrator.cancel_state)
        if st.is_some() {
            return true;
        }
        crate::wait_timeout(&self.inner.cond, st, dur).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_uncancelled_and_times_out() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert!(!t.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn first_cancellation_reason_wins() {
        let t = CancelToken::new();
        t.cancel("first");
        t.cancel("second");
        assert_eq!(t.reason().as_deref(), Some("first"));
        assert!(t.is_cancelled());
        assert!(t.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn cancellation_wakes_a_waiting_clone_early() {
        let t = CancelToken::new();
        let t2 = t.clone();
        let waiter = std::thread::spawn(move || t2.wait_timeout(Duration::from_secs(30)));
        // Give the waiter a moment to block, then cancel: the join must
        // come back long before the 30 s budget.
        std::thread::sleep(Duration::from_millis(20));
        t.cancel("shutdown");
        assert!(waiter.join().unwrap());
    }
}
