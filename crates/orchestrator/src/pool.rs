//! The bounded worker pool that executes a [`Plan`]: the in-process
//! driver of the [`Machine`].
//!
//! Workers are scoped threads that claim jobs from the machine and run
//! them as closures. Each attempt runs under `catch_unwind`, so a
//! panicking job is a failed attempt, not a dead run; the machine decides
//! whether it is retried and after which delay ([`RunOptions::backoff`],
//! doubling per retry, capped at 2 s), and a failed run retries nothing
//! and wakes every waiting worker. Every attempt carries a
//! [`CancelToken`] and a [`Heartbeat`] so the watchdog can turn a hung
//! attempt into an ordinary failed one. Outputs are pure functions of job
//! inputs, which makes results identical at any worker count — the
//! machine only decides *when*, never *what*.
//!
//! What this driver keeps for itself: the threads, where the fault
//! plan's attempt faults strike (inside the attempt's `catch_unwind`),
//! resume recovery with [`Manifest::probe`] on the workers and
//! [`Manifest::adopt`] in plan order, and persist-before-publish: a
//! result reaches the store and the manifest ([`fault::put_with_fault`],
//! [`Manifest::commit`]) before the machine hears of it, so the manifest
//! only ever references payloads that are fully on disk.

use crate::cancel::CancelToken;
use crate::fault::{self, FaultPlan, Phase};
use crate::dag::{panic_message, JobInputs, JobSpec, OrchestratorError, Plan};
use crate::events::{Event, EventLog};
use crate::machine::{run_failed, Input, Machine, Output};
use crate::manifest::{fnv1a64, JobStats, Manifest, ManifestEntry, Probed};
use crate::store::FsStore;
use crate::timing::{measure, Heartbeat, Stopwatch};
use crate::watchdog::{Watchdog, WatchdogOptions};
use crate::{into_inner, lock, wait_timeout};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a worker sleeps between claim-queue polls. The condvar makes
/// wakeups prompt; the timeout is a defensive bound so no worker can wait
/// forever on a lost notification.
const CLAIM_POLL: Duration = Duration::from_millis(100);

/// Knobs of one orchestrated run.
#[derive(Clone)]
pub struct RunOptions {
    /// Worker threads; `0` means one per logical core (honoring
    /// `RAYON_NUM_THREADS` like the training kernels).
    pub workers: usize,
    /// Retries after the first attempt before a job hard-fails.
    pub max_retries: u32,
    /// Base delay before a failed job is retried; doubles per retry,
    /// capped at 2 s, and abandoned when the run fails.
    pub backoff: Duration,
    /// Run directory for checkpoints/manifest; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Skip jobs the manifest can verify instead of re-running them.
    pub resume: bool,
    /// Configuration fingerprint; a manifest written under a different key
    /// is ignored on resume (the run starts fresh).
    pub run_key: String,
    /// Fault-injection plan (chaos testing).
    pub faults: Option<FaultPlan>,
    /// Verified checkpoint generations kept per job (older ones are
    /// deleted after each completion; clamped to at least 1).
    pub keep_generations: usize,
    /// Hung-attempt limits; defaults disable the watchdog thread.
    pub watchdog: WatchdogOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 0,
            max_retries: 2,
            backoff: Duration::from_millis(50),
            checkpoint_dir: None,
            resume: false,
            run_key: "default".into(),
            faults: None,
            keep_generations: 3,
            watchdog: WatchdogOptions::default(),
        }
    }
}

/// The result of a successful run.
pub struct RunReport<P> {
    /// Every job's payload, keyed by job id.
    pub outputs: BTreeMap<String, Arc<P>>,
    /// Per-job accounting, keyed by job id.
    pub stats: BTreeMap<String, JobStats>,
    /// Wall seconds of the whole run.
    pub wall_seconds: f64,
    /// Summed per-job CPU seconds (manifest values for skipped jobs).
    pub cpu_seconds: f64,
    /// Jobs executed this run.
    pub completed: u64,
    /// Jobs satisfied from the manifest.
    pub skipped: u64,
}

/// The machine and the payloads it let through, under one lock.
struct Sched<P> {
    machine: Machine,
    outputs: BTreeMap<usize, Arc<P>>,
}

struct Shared<P> {
    sched: Mutex<Sched<P>>,
    /// Notified whenever a step may have made a job claimable or ended
    /// the run.
    cond: Condvar,
    /// Cancelled on the first hard failure, so injected hangs and slow
    /// writes wake instead of running to their full length.
    run_cancel: CancelToken,
    /// The machine's clock.
    clock: Stopwatch,
    /// Written by workers after their payloads are persisted.
    manifest: Mutex<Manifest>,
}

impl<P> Shared<P> {
    /// The machine's run time.
    fn now(&self) -> Duration {
        Duration::from_secs_f64(self.clock.elapsed_seconds())
    }

    /// Steps the machine; the step that fails the run cancels it.
    fn step(&self, sched: &mut Sched<P>, input: Input<'_>) -> Vec<Output> {
        let out = sched.machine.step(self.now(), input);
        if let Some(err) = sched.machine.failure() {
            self.run_cancel.cancel(&run_failed(err));
        }
        out
    }
}

/// Executes a plan to completion on a bounded worker pool.
///
/// Returns the payload of every job. On a hard job failure the error is
/// returned *after* in-flight jobs finish (and persist), so a failed run
/// still leaves a maximal resumable manifest behind.
pub fn run<P>(
    plan: &Plan<'_, P>,
    opts: &RunOptions,
    events: &EventLog,
) -> Result<RunReport<P>, OrchestratorError>
where
    P: Serialize + Deserialize + Send + Sync,
{
    let wall_start = Stopwatch::start();
    let n = plan.jobs.len();

    // ---- run-directory recovery --------------------------------------
    let run_dir = match opts.checkpoint_dir.as_deref() {
        Some(dir) => Some((
            dir,
            FsStore::open(dir)
                .map_err(|e| OrchestratorError::io(dir.join(crate::store::OBJECTS_DIR), e))?,
        )),
        None => None,
    };
    let mut manifest = match &run_dir {
        Some((dir, _)) => Manifest::open(dir, &opts.run_key, events),
        None => Manifest::new(opts.run_key.clone()),
    };
    let pool_size = if opts.workers == 0 {
        rayon::current_num_threads()
    } else {
        opts.workers
    };
    let mut resumed = BTreeMap::new();
    let mut outputs = BTreeMap::new();
    if let Some((dir, _)) = &run_dir {
        if opts.resume {
            // Reading, digesting and decoding a payload touches nothing
            // shared, so the run's workers probe the jobs side by side;
            // what they found is applied to the manifest and announced
            // here, in plan order, exactly as a serial recovery would.
            let probed = probe_jobs(&manifest, dir, plan, pool_size);
            for (i, (job, found)) in plan.jobs.iter().zip(probed).enumerate() {
                if let Some((payload, entry)) = manifest.adopt(dir, &job.id, events, found) {
                    resumed.insert(i, (entry.digest, entry.stats()));
                    outputs.insert(i, Arc::new(payload));
                }
            }
        }
        // Persist immediately: a fresh run truncates any stale manifest so
        // a later resume can never mix runs.
        manifest.store(dir).map_err(|e| OrchestratorError::io(Manifest::path(dir), e))?;
    }

    let pending = n - resumed.len();
    let workers = pool_size.clamp(1, pending.max(1));

    events.emit(Event::RunStarted {
        run_key: opts.run_key.clone(),
        jobs: n as u64,
        workers: workers as u64,
        resumed: resumed.len() as u64,
    });
    for (i, job) in plan.jobs.iter().enumerate() {
        if resumed.contains_key(&i) {
            events.emit(Event::JobSkipped { job: job.id.clone() });
        }
    }

    let machine = Machine::new(&plan.graph, opts.max_retries, opts.backoff, resumed);
    let shared = Shared {
        sched: Mutex::new(Sched { machine, outputs }),
        cond: Condvar::new(),
        run_cancel: CancelToken::new(),
        clock: Stopwatch::start(),
        manifest: Mutex::new(manifest),
    };
    let watchdog = Watchdog::new(opts.watchdog.clone());

    if pending > 0 {
        std::thread::scope(|s| {
            let wd_handle = watchdog
                .enabled()
                .then(|| s.spawn(|| watchdog.run(events, |_| {})));
            let (shared, watchdog, run_dir) = (&shared, &watchdog, run_dir.as_ref());
            let handles: Vec<_> = (0..workers as u64)
                .map(|t| {
                    s.spawn(move || worker_loop(t, plan, opts, events, shared, watchdog, run_dir))
                })
                .collect();
            let panicked = handles.into_iter().find_map(|h| h.join().err());
            // Stop the watchdog before leaving the scope (its handle, if
            // any, is joined implicitly at scope exit).
            watchdog.stop();
            drop(wd_handle);
            if let Some(p) = panicked {
                // A worker died outside catch_unwind: scheduler state may
                // be torn, so propagate rather than report a partial run.
                std::panic::resume_unwind(p);
            }
        });
    }

    // ---- report -------------------------------------------------------
    let sched = into_inner(shared.sched);
    let done = sched.machine.finish()?;
    let id = |i: usize| plan.jobs[i].id.clone();
    let outputs = sched.outputs.into_iter().map(|(i, p)| (id(i), p)).collect();
    let stats: BTreeMap<String, JobStats> =
        done.into_iter().enumerate().map(|(i, (_, s))| (id(i), s)).collect();
    let cpu_seconds: f64 = stats.values().map(|s| s.cpu_seconds).sum();
    let skipped = stats.values().filter(|s| s.skipped).count() as u64;
    let completed = n as u64 - skipped;
    let report = RunReport {
        outputs,
        stats,
        wall_seconds: wall_start.elapsed_seconds(),
        cpu_seconds,
        completed,
        skipped,
    };
    events.emit(Event::RunFinished {
        wall_seconds: report.wall_seconds,
        cpu_seconds: report.cpu_seconds,
        completed,
        skipped,
    });
    Ok(report)
}

/// [`Manifest::probe`] of every job of the plan, in plan order, on up to
/// `threads` scoped threads (job `i` on thread `i % threads`).
fn probe_jobs<P>(
    manifest: &Manifest,
    dir: &Path,
    plan: &Plan<'_, P>,
    threads: usize,
) -> Vec<Vec<(ManifestEntry, Probed<P>)>>
where
    P: Deserialize + Send + Sync,
{
    let n = plan.jobs.len();
    let threads = threads.clamp(1, n.max(1));
    let probe = |i: usize| {
        let decode = |text: String| serde_json::from_str::<P>(&text).map_err(|e| e.to_string());
        manifest.probe(dir, &plan.jobs[i].id, decode)
    };
    let mut probed: Vec<_> = (0..n).map(|_| Vec::new()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || (t..n).step_by(threads).map(|i| (i, probe(i))).collect::<Vec<_>>())
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(found) => found.into_iter().for_each(|(i, f)| probed[i] = f),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    probed
}

/// Worker `t`: claim, run and report attempts until the machine drains.
fn worker_loop<P>(
    t: u64,
    plan: &Plan<'_, P>,
    opts: &RunOptions,
    events: &EventLog,
    shared: &Shared<P>,
    watchdog: &Watchdog,
    run_dir: Option<&(&Path, FsStore)>,
) where
    P: Serialize + Deserialize + Send + Sync,
{
    loop {
        // Claim a job (or leave: run finished or failed), snapshotting
        // its dependencies' outputs (Arc clones; cheap).
        let (job_idx, inputs, claimed) = {
            let mut sched = lock(&shared.sched); // lint: lock-order(orchestrator.machine)
            loop {
                let out = shared.step(&mut sched, Input::Claim { owner: t, worker: "pool" });
                match out.first() {
                    Some(&Output::Assign { job, attempt }) => {
                        let deps = plan.jobs[job]
                            .deps
                            .iter()
                            .zip(plan.graph.deps(job))
                            .map(|(d, di)| (d.clone(), Arc::clone(&sched.outputs[di])))
                            .collect();
                        let inputs = JobInputs {
                            deps,
                            attempt,
                            cancel: CancelToken::new(),
                            heartbeat: Heartbeat::new(),
                        };
                        break (job, inputs, out);
                    }
                    Some(Output::Wait { until }) => {
                        let due = until.map(|u| u.saturating_sub(shared.now()));
                        let nap = due.map_or(CLAIM_POLL, |d| d.min(CLAIM_POLL));
                        sched = wait_timeout(&shared.cond, sched, nap);
                    }
                    _ => return,
                }
            }
        };
        publish(events, claimed);
        let job = &plan.jobs[job_idx];

        let (result, wall_seconds, cpu_seconds) =
            measure(|| run_attempt(job, &inputs, opts, watchdog, &shared.run_cancel));
        let attempts = inputs.attempt + 1;
        let stats = JobStats { attempts, wall_seconds, cpu_seconds, skipped: false };
        // Persist *before* publishing: the manifest only ever references
        // payloads that are fully on disk.
        let persisted = result.map(|payload| {
            let digest = match run_dir {
                Some(rd) => persist(rd, shared, opts, &job.id, &payload, &stats),
                None => Ok(0),
            };
            (payload, digest)
        });
        let (input, payload) = match persisted {
            Ok((payload, Ok(digest))) => {
                let (job, verified) = (job_idx, Ok(()));
                let complete =
                    Input::Complete { owner: t, job, digest, verified, wall_seconds, cpu_seconds };
                (complete, Some(payload))
            }
            Ok((_, Err(err))) => (Input::Abort(err), None),
            Err(error) => (Input::Fail { owner: t, job: job_idx, error }, None),
        };
        let out = {
            let mut sched = lock(&shared.sched); // lint: lock-order(orchestrator.machine)
            let out = shared.step(&mut sched, input);
            let committed = out.iter().any(|o| matches!(o, Output::Commit { .. }));
            if let (Some(p), true) = (payload, committed) {
                sched.outputs.insert(job_idx, Arc::new(p));
            }
            shared.cond.notify_all();
            out
        };
        publish(events, out);
    }
}

/// Carries out what the machine's outputs ask of the pool beyond the
/// scheduling itself: telemetry and the event stream.
fn publish(events: &EventLog, out: Vec<Output>) {
    for o in out {
        match o {
            Output::Commit { stats, .. } => {
                telemetry::metrics::counter("orchestrator.jobs_completed").inc();
                telemetry::metrics::histogram(
                    "orchestrator.job_wall_us",
                    &telemetry::metrics::DURATION_US_EDGES,
                )
                .record(stats.wall_seconds * 1e6);
            }
            Output::Requeue { .. } => telemetry::metrics::counter("orchestrator.retries").inc(),
            Output::JobFailed { .. } => {
                telemetry::metrics::counter("orchestrator.jobs_failed").inc()
            }
            Output::Event(ev) => events.emit(ev),
            _ => {}
        }
    }
}

/// Runs one attempt of `job` with the fault plan's attempt fault, panic
/// isolation and watchdog supervision.
fn run_attempt<P>(
    job: &JobSpec<'_, P>,
    inputs: &JobInputs<P>,
    opts: &RunOptions,
    watchdog: &Watchdog,
    run_cancel: &CancelToken,
) -> Result<P, String> {
    let attempt = inputs.attempt;
    let _span = telemetry::span!("job[{}]/attempt[{}]", job.id, attempt);
    let _watch =
        watchdog.register(&job.id, attempt, inputs.heartbeat.clone(), inputs.cancel.clone());
    let fault = opts.faults.as_ref().and_then(|p| p.fault(Phase::Attempt, &job.id, attempt));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(entry) = fault {
            // A hang is released by the watchdog or by run failure.
            entry.strike(attempt, &[&inputs.cancel, run_cancel])?;
        }
        (job.run)(inputs)
    }));
    result.unwrap_or_else(|panic| Err(format!("panic: {}", panic_message(&*panic))))
}

/// Serializes a payload, writes it into the run directory's
/// content-addressed store (through any persist-phase fault planned
/// for the job), and commits a new manifest generation referencing the
/// object's digest, which it returns.
fn persist<P: Serialize>(
    (dir, store): &(&Path, FsStore),
    shared: &Shared<P>,
    opts: &RunOptions,
    id: &str,
    payload: &P,
    stats: &JobStats,
) -> Result<u64, OrchestratorError> {
    let text = serde_json::to_string(payload).map_err(|e| OrchestratorError::Codec {
        job: id.to_string(),
        message: e.to_string(),
    })?;
    telemetry::metrics::counter("orchestrator.checkpoints").inc();
    telemetry::metrics::histogram("orchestrator.checkpoint_bytes", &telemetry::metrics::BYTES_EDGES)
        .record(text.len() as f64);
    let final_attempt = stats.attempts.saturating_sub(1);
    let faults = opts.faults.as_ref();
    let (digest, landed) =
        fault::put_with_fault(store, text.as_bytes(), faults, id, final_attempt, &shared.run_cancel)
            .map_err(|e| OrchestratorError::io(store.object_path(fnv1a64(text.as_bytes())), e))?;
    if !landed {
        // Torn write: the run keeps the in-memory payload, the manifest
        // never learns about this generation.
        return Ok(digest);
    }
    let mut m = lock(&shared.manifest); // lint: lock-order(orchestrator.manifest)
    m.commit(dir, store, id, digest, stats, opts.keep_generations)
        .map_err(|e| OrchestratorError::io(Manifest::path(dir), e))?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_options_default_bounds_generations_and_disables_chaos() {
        let opts = RunOptions::default();
        assert!(opts.faults.is_none());
        assert_eq!(opts.keep_generations, 3);
        assert!(opts.watchdog.max_job_secs.is_none());
    }
}
