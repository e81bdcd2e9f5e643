//! Wall/CPU time measurement for job accounting.
//!
//! The paper's Fig. 4 cost axis is *total CPU hours*: machines run chunks
//! simultaneously, so wall time underestimates training cost. Per-thread
//! CPU time is the honest measure on an oversubscribed host.
//!
//! Wall-clock reads delegate to [`telemetry::clock`], the workspace's
//! single monotonic-clock anchor, so stopwatch readings and telemetry
//! span timestamps share one epoch and the ambient-clock lint boundary
//! (the `capability-graph` rule) stays one auditable surface.

use telemetry::clock;

/// CPU seconds consumed by the *calling thread* so far (Linux:
/// utime+stime from `/proc/thread-self/stat`). Falls back to `None` when
/// the proc file is unavailable (non-Linux), in which case callers use
/// wall time.
pub fn thread_cpu_seconds() -> Option<f64> {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// CPU seconds consumed by the *whole process* so far, every thread
/// included, live or exited (`/proc/self/stat`). A fit's cost is the
/// change in this across the fit, whatever threads it ran on. `None`
/// off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    stat_cpu_seconds("/proc/self/stat")
}

/// utime+stime of a `/proc/.../stat` file, in seconds.
fn stat_cpu_seconds(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesized comm: utime is field 14, stime 15
    // (1-based over the whole line).
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0) // CLK_TCK = 100 on Linux
}

/// A started wall clock. This is the only sanctioned way for orchestrator
/// code outside this module to read elapsed time (the `capability-graph`
/// lint bans raw clock reads so timing stays observable and auditable in
/// one place).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts a stopwatch.
    pub fn start() -> Self {
        Stopwatch { start_ns: clock::monotonic_nanos() }
    }

    /// Wall seconds since `start()`.
    pub fn elapsed_seconds(&self) -> f64 {
        clock::nanos_since(self.start_ns) as f64 / 1e9
    }
}

/// A cloneable liveness beacon for long-running job attempts.
///
/// The training loop calls [`Heartbeat::beat`] after every generator
/// step with the cumulative step count; the watchdog thread reads
/// [`Heartbeat::age_seconds`] to distinguish "slow but alive" from
/// "hung". Beats also publish a `train.steps_per_sec` telemetry gauge.
/// Lives in this module so its raw clock reads stay inside the one
/// lint-whitelisted timing surface.
#[derive(Debug, Clone, Default)]
pub struct Heartbeat {
    inner: std::sync::Arc<HeartbeatInner>,
}

#[derive(Debug, Default)]
struct HeartbeatInner {
    /// Monotonic nanos of the last beat; 0 = never beat.
    last_ns: std::sync::atomic::AtomicU64,
    /// Cumulative steps reported by the last beat.
    steps: std::sync::atomic::AtomicU64,
}

impl Heartbeat {
    /// A fresh heartbeat that has never beat.
    pub fn new() -> Self {
        Heartbeat::default()
    }

    /// Records a beat at `steps_done` cumulative steps, updating the
    /// `train.steps_per_sec` gauge from the delta to the previous beat.
    pub fn beat(&self, steps_done: u64) {
        use std::sync::atomic::Ordering;
        let now = clock::monotonic_nanos();
        let prev_ns = self.inner.last_ns.swap(now, Ordering::Relaxed);
        let prev_steps = self.inner.steps.swap(steps_done, Ordering::Relaxed);
        if prev_ns > 0 && now > prev_ns && steps_done > prev_steps {
            let rate = (steps_done - prev_steps) as f64 / ((now - prev_ns) as f64 / 1e9);
            telemetry::metrics::gauge("train.steps_per_sec").set(rate);
        }
    }

    /// Seconds since the last beat, or `None` if it never beat (a job
    /// that has not reached its training loop yet is not "stale").
    pub fn age_seconds(&self) -> Option<f64> {
        let last = self.inner.last_ns.load(std::sync::atomic::Ordering::Relaxed);
        (last > 0).then(|| clock::nanos_since(last) as f64 / 1e9)
    }

    /// Cumulative steps reported by the last beat.
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Measures `f`, returning `(result, wall_seconds, cpu_seconds)` where
/// `cpu_seconds` prefers thread CPU time and falls back to wall time.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let wall = Stopwatch::start();
    let cpu0 = thread_cpu_seconds();
    let out = f();
    let wall_secs = wall.elapsed_seconds();
    let cpu_secs = match (cpu0, thread_cpu_seconds()) {
        (Some(a), Some(b)) if b >= a => b - a,
        _ => wall_secs,
    };
    (out, wall_secs, cpu_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_result_and_nonnegative_times() {
        let (v, wall, cpu) = measure(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(wall >= 0.0 && cpu >= 0.0);
    }

    #[test]
    fn stopwatch_elapsed_is_nonnegative_and_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0 && b >= a);
    }

    #[test]
    fn stopwatch_shares_the_telemetry_epoch() {
        let before = clock::monotonic_nanos();
        let sw = Stopwatch::start();
        let after = clock::monotonic_nanos();
        assert!(sw.start_ns >= before && sw.start_ns <= after);
    }

    #[test]
    fn heartbeat_reports_age_only_after_first_beat() {
        let hb = Heartbeat::new();
        assert_eq!(hb.age_seconds(), None, "never beat => not stale");
        hb.beat(5);
        assert_eq!(hb.steps(), 5);
        assert!(hb.age_seconds().unwrap() >= 0.0);
        let hb2 = hb.clone();
        hb2.beat(9);
        assert_eq!(hb.steps(), 9, "clones share the beacon");
    }

    #[test]
    fn thread_cpu_time_is_monotonic_when_available() {
        if let (Some(a), Some(b)) = (thread_cpu_seconds(), thread_cpu_seconds()) {
            assert!(b >= a);
        }
    }

    #[test]
    fn process_cpu_time_covers_the_calling_thread() {
        if let (Some(t), Some(p)) = (thread_cpu_seconds(), process_cpu_seconds()) {
            assert!(p >= t, "process {p} < thread {t}");
        }
    }
}
