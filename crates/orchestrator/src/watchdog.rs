//! Hung-job watchdog.
//!
//! A hung worker is the one failure the retry machinery cannot see: the
//! attempt never returns, so `catch_unwind` never fires and the run waits
//! forever. The watchdog converts "stuck" into "cancelled": every job
//! attempt registers itself (deadline stopwatch + heartbeat + cancel
//! token), a single polling thread inside the worker scope trips tokens
//! whose deadline (`max_job_secs`) or heartbeat staleness
//! (`heartbeat_timeout_secs`) is blown, and the cancelled attempt
//! surfaces as an ordinary retryable error — re-entering the existing
//! backoff/retry path with no orphaned threads.
//!
//! Heartbeat staleness only trips after the attempt has beat at least
//! once: a job still in its data-encoding preamble is slow, not hung,
//! and the deadline covers it.

use crate::cancel::CancelToken;
use crate::events::{Event, EventLog};
use crate::timing::{Heartbeat, Stopwatch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Watchdog limits; both `None` (the default) disables the thread.
#[derive(Debug, Clone)]
pub struct WatchdogOptions {
    /// Cancel an attempt after this many wall seconds (`--max-job-secs`).
    pub max_job_secs: Option<f64>,
    /// Cancel an attempt whose heartbeat is older than this (only after
    /// it has beat at least once).
    pub heartbeat_timeout_secs: Option<f64>,
    /// Poll interval; bounds watchdog reaction latency.
    pub poll: Duration,
}

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions {
            max_job_secs: None,
            heartbeat_timeout_secs: None,
            poll: Duration::from_millis(100),
        }
    }
}

struct Watch {
    job: String,
    attempt: u32,
    started: Stopwatch,
    heartbeat: Heartbeat,
    token: CancelToken,
    /// Set once the watchdog has tripped this watch (one event per trip).
    tripped: bool,
}

/// The attempt registry plus the polling loop (see module docs).
///
/// Public since PR 7: the `netshared` daemon reuses it to evict idle
/// client sessions (each session registers with its heartbeat + cancel
/// token; staleness trips the token and the session unwinds).
pub struct Watchdog {
    opts: WatchdogOptions,
    watches: Mutex<BTreeMap<u64, Watch>>,
    next_id: AtomicU64,
    shutdown: CancelToken,
}

/// RAII registration of one job attempt; dropping unregisters it.
pub struct WatchGuard<'a> {
    dog: &'a Watchdog,
    id: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        crate::lock(&self.dog.watches).remove(&self.id); // lint: lock-order(orchestrator.watchdog_watches)
    }
}

impl Watchdog {
    /// A watchdog with the given limits and no registered watches; call
    /// [`Watchdog::run`] on a dedicated thread to start sweeping.
    pub fn new(opts: WatchdogOptions) -> Self {
        Watchdog {
            opts,
            watches: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            shutdown: CancelToken::new(),
        }
    }

    /// Whether any limit is configured (otherwise no thread is spawned).
    pub fn enabled(&self) -> bool {
        self.opts.max_job_secs.is_some() || self.opts.heartbeat_timeout_secs.is_some()
    }

    /// Registers a job attempt for supervision.
    pub fn register(
        &self,
        job: &str,
        attempt: u32,
        heartbeat: Heartbeat,
        token: CancelToken,
    ) -> WatchGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let watch = Watch {
            job: job.to_string(),
            attempt,
            started: Stopwatch::start(),
            heartbeat,
            token,
            tripped: false,
        };
        crate::lock(&self.watches).insert(id, watch); // lint: lock-order(orchestrator.watchdog_watches)
        WatchGuard { dog: self, id }
    }

    /// Stops the polling loop (idempotent).
    pub fn stop(&self) {
        self.shutdown.cancel("watchdog shutdown");
    }

    /// The polling loop body; runs on a dedicated thread inside the worker
    /// scope until [`Watchdog::stop`]. Every trip is emitted as a
    /// `WatchdogCancelled` event, then handed to `on_trip`.
    pub fn run(&self, events: &EventLog, on_trip: impl Fn(&Event)) {
        while !self.shutdown.wait_timeout(self.opts.poll) {
            self.sweep(events, &on_trip);
        }
    }

    /// One poll: trips the cancel token of every blown watch.
    ///
    /// Trips are collected under the watches lock and emitted after it
    /// is released: `EventLog::emit` takes the sink lock and runs sink
    /// file I/O, and holding `watches` across that both stalls every
    /// `register`/`beat` caller behind slow I/O and creates a
    /// watches→sinks lock-order edge the lint's canonical ranks forbid.
    fn sweep(&self, events: &EventLog, on_trip: &dyn Fn(&Event)) {
        let mut tripped = Vec::new();
        {
            let mut watches = crate::lock(&self.watches); // lint: lock-order(orchestrator.watchdog_watches)
            for watch in watches.values_mut() {
                if watch.tripped || watch.token.is_cancelled() {
                    continue;
                }
                let elapsed = watch.started.elapsed_seconds();
                let reason = match (self.opts.max_job_secs, self.opts.heartbeat_timeout_secs) {
                    (Some(max), _) if elapsed >= max => {
                        Some(format!("deadline exceeded: {elapsed:.1}s >= max-job-secs {max}"))
                    }
                    (_, Some(stale)) => watch
                        .heartbeat
                        .age_seconds()
                        .filter(|age| *age >= stale)
                        .map(|age| {
                            format!("heartbeat stale: last beat {age:.1}s ago >= timeout {stale}")
                        }),
                    _ => None,
                };
                if let Some(reason) = reason {
                    watch.tripped = true;
                    watch.token.cancel(&reason);
                    tripped.push(Event::WatchdogCancelled {
                        job: watch.job.clone(),
                        attempt: watch.attempt,
                        reason,
                        elapsed_seconds: elapsed,
                    });
                }
            }
        }
        for ev in tripped {
            telemetry::metrics::counter("orchestrator.watchdog_cancels").inc();
            events.emit(ev.clone());
            on_trip(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(max: Option<f64>, stale: Option<f64>) -> WatchdogOptions {
        WatchdogOptions {
            max_job_secs: max,
            heartbeat_timeout_secs: stale,
            poll: Duration::from_millis(5),
        }
    }

    #[test]
    fn deadline_trips_once_and_cancels_the_token() {
        let dog = Watchdog::new(opts(Some(0.0), None));
        assert!(dog.enabled());
        let events = EventLog::new();
        let token = CancelToken::new();
        let _guard = dog.register("chunk-1", 2, Heartbeat::new(), token.clone());
        dog.sweep(&events, &|_| {});
        dog.sweep(&events, &|_| {});
        assert!(token.is_cancelled());
        assert!(token.reason().unwrap().contains("deadline exceeded"));
        let cancels: Vec<_> = events
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::WatchdogCancelled { .. }))
            .collect();
        assert_eq!(cancels.len(), 1, "one event per trip: {cancels:?}");
    }

    #[test]
    fn sweep_emits_after_releasing_the_watches_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // A sink that probes the watches lock from inside `emit`. If
        // sweep still held it across the emit, try_lock would fail and
        // the probe records the violation (a real sink doing file I/O
        // there would stall every register/beat caller — and a sink
        // that re-entered the watchdog would deadlock outright).
        struct Probe {
            dog: Arc<Watchdog>,
            held_during_emit: Arc<AtomicBool>,
        }
        impl std::io::Write for Probe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.dog.watches.try_lock().is_err() {
                    self.held_during_emit.store(true, Ordering::SeqCst);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let dog = Arc::new(Watchdog::new(opts(Some(0.0), None)));
        let held = Arc::new(AtomicBool::new(false));
        let events = EventLog::new().with_sink(Box::new(Probe {
            dog: dog.clone(),
            held_during_emit: held.clone(),
        }));
        let token = CancelToken::new();
        let _guard = dog.register("chunk-1", 1, Heartbeat::new(), token.clone());
        dog.sweep(&events, &|_| {});
        assert!(token.is_cancelled());
        assert_eq!(events.events().len(), 1);
        assert!(
            !held.load(Ordering::SeqCst),
            "sweep must not hold the watches lock across EventLog::emit"
        );
    }

    #[test]
    fn heartbeat_staleness_requires_a_first_beat() {
        let dog = Watchdog::new(opts(None, Some(0.0)));
        let events = EventLog::new();
        let silent = CancelToken::new();
        let _g1 = dog.register("silent", 0, Heartbeat::new(), silent.clone());
        dog.sweep(&events, &|_| {});
        assert!(!silent.is_cancelled(), "no beat yet => not stale");

        let beaten = CancelToken::new();
        let hb = Heartbeat::new();
        hb.beat(1);
        let _g2 = dog.register("beaten", 0, hb, beaten.clone());
        dog.sweep(&events, &|_| {});
        assert!(beaten.is_cancelled());
        assert!(beaten.reason().unwrap().contains("heartbeat stale"));
    }

    #[test]
    fn dropping_the_guard_unregisters_and_stop_ends_the_loop() {
        let dog = Watchdog::new(opts(Some(0.0), None));
        let events = EventLog::new();
        let token = CancelToken::new();
        drop(dog.register("gone", 0, Heartbeat::new(), token.clone()));
        dog.sweep(&events, &|_| {});
        assert!(!token.is_cancelled(), "unregistered watches are not swept");
        assert!(!Watchdog::new(WatchdogOptions::default()).enabled());
        std::thread::scope(|s| {
            let h = s.spawn(|| dog.run(&events, |_| {}));
            dog.stop();
            h.join().unwrap();
        });
    }
}
