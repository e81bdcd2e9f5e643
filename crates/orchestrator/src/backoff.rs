//! Bounded exponential backoff with seeded jitter.
//!
//! Every reconnect/retry loop in the workspace (worker → coordinator
//! reconnects, `netshared` client re-subscribes, control-socket connect
//! retries) sleeps through this one helper, for three reasons:
//!
//! * **No thundering herd**: delays grow exponentially to a cap and
//!   carry per-attempt jitter, so N clients killed by one restart do not
//!   reconnect in lockstep.
//! * **Determinism**: jitter derives from a caller-supplied seed and the
//!   attempt number — never ambient entropy — so chaos runs replay
//!   identically (the same invariant `FaultPlan` keeps for its corruption
//!   positions).
//! * **Auditability**: fixed-sleep retry loops in lib code are denied by
//!   the `unbounded-wait` lint; a loop that sleeps via [`Backoff`] is
//!   the sanctioned form.
//!
//! Sleeps are token-aware ([`CancelToken::wait_timeout`]), so shutdown
//! never waits out a backoff.

use crate::cancel::CancelToken;
use crate::manifest::fnv1a64;
use std::time::Duration;

/// A bounded exponential backoff schedule (see module docs).
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, capped at
    /// `cap`; `seed` fixes the jitter sequence.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff { base, cap, seed, attempt: 0 }
    }

    /// Zero-based attempts consumed so far.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Forgets accumulated attempts (call after a success, so the next
    /// failure starts the schedule from `base` again).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay: `min(cap, base << attempt)` scaled into
    /// `[0.5, 1.0)` of itself by seeded jitter. Consumes one attempt.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16); // 2^16 × base saturates any sane cap
        let raw = self
            .base
            .checked_mul(1u32 << exp)
            .unwrap_or(self.cap)
            .min(self.cap);
        let jitter = fnv1a64(format!("{}|{}", self.seed, self.attempt).as_bytes()) % 1000;
        self.attempt = self.attempt.saturating_add(1);
        // 0.5 + jitter/2000 ∈ [0.5, 1.0): full-jitter-lite, never zero.
        raw.mul_f64(0.5 + jitter as f64 / 2000.0)
    }

    /// Sleeps out the next delay, waking early if `token` fires; returns
    /// `true` when the sleep was cut short by cancellation.
    pub fn sleep(&mut self, token: &CancelToken) -> bool {
        let delay = self.next_delay();
        token.wait_timeout(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_to_the_cap_and_never_hit_zero() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(200), 7);
        let mut prev = Duration::ZERO;
        for i in 0..12 {
            let d = b.next_delay();
            assert!(d >= Duration::from_millis(5), "attempt {i}: {d:?}");
            assert!(d < Duration::from_millis(200), "capped: {d:?}");
            if i >= 6 {
                // Past the cap the raw delay is constant; only jitter moves.
                assert!(d >= Duration::from_millis(100));
            }
            prev = d.max(prev);
        }
        assert!(prev >= Duration::from_millis(40), "schedule actually grew");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_attempt() {
        let mut a = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 42);
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 42);
        let seq_a: Vec<_> = (0..5).map(|_| a.next_delay()).collect();
        let seq_b: Vec<_> = (0..5).map(|_| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "same seed replays the same schedule");
        let mut c = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 43);
        let seq_c: Vec<_> = (0..5).map(|_| c.next_delay()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different jitter");
    }

    #[test]
    fn reset_restarts_the_schedule_and_cancel_cuts_sleep_short() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_secs(1), 1);
        let first = b.next_delay();
        b.next_delay();
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert_eq!(b.next_delay(), first, "post-reset attempt 0 repeats");

        let mut b = Backoff::new(Duration::from_secs(30), Duration::from_secs(60), 1);
        let token = CancelToken::new();
        token.cancel("test");
        assert!(b.sleep(&token), "cancelled sleep returns immediately");
    }
}
