//! Process-wide monotonic clock anchor.
//!
//! This is the **only** sanctioned `Instant::now()` site in the workspace
//! outside `orchestrator::timing` (which delegates here) and the bench
//! harnesses. Everything else must read time through
//! `orchestrator::timing::Stopwatch`/`measure` or through spans/metrics,
//! so the ambient-clock surface stays auditable: the `capability-graph`
//! rule in `netshare-lint` enforces the boundary.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (the first call to any clock
/// function in this process). Monotonic and thread-safe; wraps after
/// ~584 years of uptime, which we accept.
///
/// The epoch is process-local and intentionally unrelated to wall-clock
/// time: span events and stopwatch readings are only meaningful as
/// durations or orderings within one run, never as absolute timestamps,
/// which keeps event streams free of host-clock state.
pub fn monotonic_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Nanoseconds elapsed since an earlier [`monotonic_nanos`] reading.
/// Saturates at zero if `start_ns` is from the future (cross-thread
/// reads may observe the epoch initialization racing).
pub fn nanos_since(start_ns: u64) -> u64 {
    monotonic_nanos().saturating_sub(start_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_nanos_never_decreases() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        let c = monotonic_nanos();
        assert!(a <= b && b <= c, "clock went backwards: {a} {b} {c}");
    }

    #[test]
    fn nanos_since_saturates_instead_of_underflowing() {
        assert_eq!(nanos_since(u64::MAX), 0);
    }

    #[test]
    fn nanos_since_measures_forward_progress() {
        let start = monotonic_nanos();
        let mut spin = 0u64;
        for i in 0..10_000u64 {
            spin = spin.wrapping_add(i);
        }
        assert!(spin > 0);
        // Elapsed time is nonnegative by construction; equality with zero
        // is possible on coarse clocks, so only assert it moved from the
        // saturation case.
        let _ = nanos_since(start);
    }
}
