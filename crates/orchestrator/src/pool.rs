//! The bounded worker pool that executes a [`Plan`].
//!
//! Workers are scoped threads pulling ready jobs from a shared queue; a
//! job becomes ready when every dependency has published its output. Each
//! attempt runs under `catch_unwind`, so a panicking job is a *retried*
//! job, not a dead run; retries back off exponentially (bounded) and the
//! backoff wakes early when the run is cancelled. Every attempt carries a
//! [`CancelToken`] and a [`Heartbeat`] so the watchdog can convert a hung
//! attempt into an ordinary retryable failure. Outputs are pure functions
//! of job inputs, which makes results identical at any worker count — the
//! scheduler only decides *when*, never *what*.
//!
//! This module is the in-process *front-end* only: scoped threads
//! pulling closures, real panics, retry-in-thread with backoff. What it
//! schedules over ([`crate::dag::Graph`], [`crate::dag::Frontier`]), how
//! a run directory is opened, recovered and committed
//! ([`Manifest::open`] / [`Manifest::recover`] — here as its two halves,
//! [`Manifest::probe`] on the workers and [`Manifest::adopt`] in plan
//! order — / [`Manifest::commit`]),
//! and how persist-phase chaos faults strike a checkpoint write
//! ([`chaos::put_with_fault`]) are shared with the process coordinator
//! in [`crate::coord`].

use crate::cancel::CancelToken;
use crate::chaos::{self, ChaosPlan, FaultClass};
use crate::dag::{fail_first, panic_message, Frontier, JobInputs, OrchestratorError, Plan};
use crate::events::{Event, EventLog};
use crate::manifest::{fnv1a64, JobStats, Manifest, ManifestEntry, Probed};
use crate::store::FsStore;
use crate::timing::{measure, Heartbeat, Stopwatch};
use crate::watchdog::{Watchdog, WatchdogOptions};
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
    /// Base backoff slept after a failed attempt; doubles per retry,
    /// capped at 2 s, and wakes early when the run is cancelled.
    pub backoff: Duration,
    /// Run directory for checkpoints/manifest; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Skip jobs the manifest can verify instead of re-running them.
    pub resume: bool,
    /// Configuration fingerprint; a manifest written under a different key
    /// is ignored on resume (the run starts fresh).
    pub run_key: String,
    /// Structured fault-injection plan (chaos testing).
    pub chaos: Option<ChaosPlan>,
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
            chaos: None,
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

/// Scheduler bookkeeping shared by the workers.
struct SchedState<P> {
    frontier: Frontier,
    /// Published outputs (resumed and executed), by job index.
    outputs: BTreeMap<usize, Arc<P>>,
    /// Stats of resumed and executed jobs, by job index.
    stats: Vec<Option<JobStats>>,
    /// First hard failure; set once, cancels all pending work.
    failure: Option<OrchestratorError>,
}

struct Shared<P> {
    state: Mutex<SchedState<P>>,
    cond: Condvar,
    /// Cancelled on the first hard failure, so backoffs and injected
    /// hangs wake instead of running to their full length.
    run_cancel: CancelToken,
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
    let mut resumed: BTreeMap<usize, Arc<P>> = BTreeMap::new();
    let mut stats: Vec<Option<JobStats>> = (0..n).map(|_| None).collect();
    if let Some((dir, _)) = &run_dir {
        if opts.resume {
            // Reading, digesting and decoding a payload touches nothing
            // shared, so the run's workers probe the jobs side by side;
            // what they found is applied to the manifest and announced
            // here, in plan order, exactly as a serial recovery would.
            let probed = probe_jobs(&manifest, dir, plan, pool_size);
            for (i, (job, found)) in plan.jobs.iter().zip(probed).enumerate() {
                if let Some((payload, entry)) = manifest.adopt(dir, &job.id, events, found) {
                    stats[i] = Some(entry.stats());
                    resumed.insert(i, Arc::new(payload));
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

    let shared = Shared {
        state: Mutex::new(SchedState {
            frontier: Frontier::seed(&plan.graph, |i| resumed.contains_key(&i)),
            outputs: resumed,
            stats,
            failure: None,
        }),
        cond: Condvar::new(),
        run_cancel: CancelToken::new(),
    };
    let manifest = Mutex::new(manifest);
    let watchdog = Watchdog::new(opts.watchdog.clone());

    if pending > 0 {
        std::thread::scope(|s| {
            let wd_handle = watchdog
                .enabled()
                .then(|| s.spawn(|| watchdog.run(events)));
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        worker_loop(
                            plan, opts, events, &shared, &manifest, &watchdog,
                            run_dir.as_ref(),
                        )
                    })
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
    // lint: allow(panic-in-lib) poisoned scheduler lock is unrecoverable (see `lock`)
    let mut st = shared.state.into_inner().expect("scheduler state");
    if let Some(err) = st.failure.take() {
        return Err(err);
    }
    let mut outputs = BTreeMap::new();
    let mut stats = BTreeMap::new();
    for (i, job) in plan.jobs.iter().enumerate() {
        // lint: allow(panic-in-lib) failure was None, so every job published an output
        let p = st.outputs.remove(&i).expect("completed run has every output");
        outputs.insert(job.id.clone(), p);
        if let Some(js) = st.stats[i].take() {
            stats.insert(job.id.clone(), js);
        }
    }
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

/// One worker: pull ready jobs until the run completes or hard-fails.
fn worker_loop<P>(
    plan: &Plan<'_, P>,
    opts: &RunOptions,
    events: &EventLog,
    shared: &Shared<P>,
    manifest: &Mutex<Manifest>,
    watchdog: &Watchdog,
    run_dir: Option<&(&Path, FsStore)>,
) where
    P: Serialize + Deserialize + Send + Sync,
{
    let persist_ctx = run_dir.map(|(dir, store)| PersistCtx {
        dir,
        store,
        manifest,
        chaos: opts.chaos.as_ref(),
        run_cancel: &shared.run_cancel,
        keep: opts.keep_generations,
    });
    loop {
        // Claim a ready job (or leave: run finished / failed).
        let job_idx = {
            let mut st = lock(&shared.state, "scheduler state"); // lint: lock-order(orchestrator.sched_state)
            loop {
                if st.failure.is_some() || st.frontier.drained() {
                    return;
                }
                if let Some(i) = st.frontier.pop() {
                    break i;
                }
                let (guard, _timeout) = shared
                    .cond
                    .wait_timeout(st, CLAIM_POLL)
                    // lint: allow(panic-in-lib) poisoned scheduler lock is unrecoverable (see `lock`)
                    .expect("scheduler state");
                st = guard;
            }
        };
        let job = &plan.jobs[job_idx];

        // Snapshot dependency outputs (Arc clones; cheap).
        let deps: BTreeMap<String, Arc<P>> = {
            let st = lock(&shared.state, "scheduler state"); // lint: lock-order(orchestrator.sched_state)
            job.deps
                .iter()
                .zip(plan.graph.deps(job_idx))
                .map(|(d, di)| (d.clone(), Arc::clone(&st.outputs[di])))
                .collect()
        };

        let (outcome, wall, cpu) = measure(|| {
            execute_with_retry(job_idx, plan, opts, events, deps, watchdog, &shared.run_cancel)
        });
        match outcome {
            Ok((payload, attempts)) => {
                let stats = JobStats {
                    attempts,
                    wall_seconds: wall,
                    cpu_seconds: cpu,
                    skipped: false,
                };
                // Persist *before* publishing: the manifest only ever
                // references payloads that are fully on disk.
                if let Some(ctx) = &persist_ctx {
                    if let Err(err) = persist(ctx, &job.id, &payload, &stats) {
                        fail_run(shared, err);
                        return;
                    }
                }
                telemetry::metrics::counter("orchestrator.jobs_completed").inc();
                telemetry::metrics::histogram(
                    "orchestrator.job_wall_us",
                    &telemetry::metrics::DURATION_US_EDGES,
                )
                .record(wall * 1e6);
                events.emit(Event::JobFinished {
                    job: job.id.clone(),
                    attempts,
                    wall_seconds: wall,
                    cpu_seconds: cpu,
                });
                let mut st = lock(&shared.state, "scheduler state"); // lint: lock-order(orchestrator.sched_state)
                st.outputs.insert(job_idx, Arc::new(payload));
                st.stats[job_idx] = Some(stats);
                st.frontier.complete(job_idx);
                shared.cond.notify_all();
            }
            Err((error, attempts)) => {
                telemetry::metrics::counter("orchestrator.jobs_failed").inc();
                events.emit(Event::JobFailed {
                    job: job.id.clone(),
                    attempts,
                    error: error.clone(),
                });
                fail_run(
                    shared,
                    OrchestratorError::JobFailed {
                        job: job.id.clone(),
                        attempts,
                        error,
                    },
                );
                return;
            }
        }
    }
}

/// Runs one job with fault injection, panic isolation, watchdog
/// supervision, and bounded retry/backoff. Returns `(payload, attempts)`
/// or `(error, attempts)`.
fn execute_with_retry<P>(
    job_idx: usize,
    plan: &Plan<'_, P>,
    opts: &RunOptions,
    events: &EventLog,
    deps: BTreeMap<String, Arc<P>>,
    watchdog: &Watchdog,
    run_cancel: &CancelToken,
) -> Result<(P, u32), (String, u32)>
where
    P: Send + Sync,
{
    let job = &plan.jobs[job_idx];
    let mut inputs = JobInputs {
        deps,
        attempt: 0,
        cancel: CancelToken::new(),
        heartbeat: Heartbeat::new(),
    };
    let mut attempt = 0u32;
    loop {
        // Fresh token + heartbeat per attempt: a watchdog trip on attempt
        // N must not poison attempt N+1.
        inputs.attempt = attempt;
        inputs.cancel = CancelToken::new();
        inputs.heartbeat = Heartbeat::new();
        events.emit(Event::JobStarted {
            job: job.id.clone(),
            attempt,
        });
        let result: Result<P, String> = {
            let _span = telemetry::span!("job[{}]/attempt[{}]", job.id, attempt);
            let _watch =
                watchdog.register(&job.id, attempt, inputs.heartbeat.clone(), inputs.cancel.clone());
            let fault = opts.chaos.as_ref().and_then(|c| c.attempt_fault(&job.id, attempt));
            match catch_unwind(AssertUnwindSafe(|| {
                if let Some(entry) = fault {
                    match entry.class {
                        FaultClass::Panic => {
                            // lint: allow(panic-in-lib) injected chaos panic, caught by this very catch_unwind
                            panic!("injected panic ({}/{})", attempt + 1, entry.count)
                        }
                        FaultClass::Transient => {
                            return Err(format!("injected fault ({}/{})", attempt + 1, entry.count))
                        }
                        FaultClass::Hang => {
                            // Block until the watchdog (or run failure)
                            // cancels this attempt.
                            // lint: allow(unbounded-wait) deliberate injected hang, released by the watchdog or run cancel
                            while !inputs.cancel.wait_timeout(Duration::from_millis(50)) {
                                if run_cancel.is_cancelled() {
                                    break;
                                }
                            }
                            let reason = inputs
                                .cancel
                                .reason()
                                .or_else(|| run_cancel.reason())
                                .unwrap_or_else(|| "cancelled".into());
                            return Err(format!(
                                "injected hang ({}/{}) cancelled: {reason}",
                                attempt + 1,
                                entry.count
                            ));
                        }
                        _ => {}
                    }
                }
                (job.run)(&inputs)
            })) {
                Ok(r) => r,
                Err(panic) => Err(format!("panic: {}", panic_message(&*panic))),
            }
        };
        match result {
            Ok(p) => return Ok((p, attempt + 1)),
            Err(e) if attempt < opts.max_retries => {
                let backoff = backoff_for(opts.backoff, attempt);
                telemetry::metrics::counter("orchestrator.retries").inc();
                events.emit(Event::JobRetried {
                    job: job.id.clone(),
                    attempt,
                    error: e.clone(),
                    backoff_ms: backoff.as_millis() as u64,
                });
                // Interruptible backoff: a cancelled run must not wait out
                // the full (up to 2 s) backoff before winding down.
                if run_cancel.wait_timeout(backoff) {
                    let reason = run_cancel.reason().unwrap_or_default();
                    return Err((format!("{e}; retry abandoned: {reason}"), attempt + 1));
                }
                attempt += 1;
            }
            Err(e) => return Err((e, attempt + 1)),
        }
    }
}

/// Exponential backoff, doubling per retry and capped at 2 s.
fn backoff_for(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(6)).min(Duration::from_secs(2))
}

/// Locks a scheduler mutex. A poisoned lock means a worker panicked
/// *outside* `catch_unwind` — scheduler state may be torn, and no retry
/// policy can repair it, so propagating the panic is the only safe move.
fn lock<'a, T>(m: &'a Mutex<T>, what: &'static str) -> std::sync::MutexGuard<'a, T> {
    m.lock().expect(what) // lint: allow(panic-in-lib) poisoned scheduler lock is unrecoverable
}

/// Fails the run (see [`fail_first`]): pending jobs are cancelled; running
/// jobs finish and persist.
fn fail_run<P>(shared: &Shared<P>, err: OrchestratorError) {
    let mut st = lock(&shared.state, "scheduler state"); // lint: lock-order(orchestrator.sched_state)
    fail_first(&mut st.failure, err, &shared.run_cancel, &shared.cond);
}

/// Everything the checkpoint-persistence path needs, bundled per worker.
struct PersistCtx<'a> {
    dir: &'a Path,
    store: &'a FsStore,
    manifest: &'a Mutex<Manifest>,
    chaos: Option<&'a ChaosPlan>,
    run_cancel: &'a CancelToken,
    keep: usize,
}

/// Serializes a payload, writes it into the content-addressed store
/// (through any persist-phase chaos fault planned for the job), and
/// commits a new manifest generation referencing the object's digest.
fn persist<P: Serialize>(
    ctx: &PersistCtx<'_>,
    id: &str,
    payload: &P,
    stats: &JobStats,
) -> Result<(), OrchestratorError> {
    let text = serde_json::to_string(payload).map_err(|e| OrchestratorError::Codec {
        job: id.to_string(),
        message: e.to_string(),
    })?;
    telemetry::metrics::counter("orchestrator.checkpoints").inc();
    telemetry::metrics::histogram("orchestrator.checkpoint_bytes", &telemetry::metrics::BYTES_EDGES)
        .record(text.len() as f64);
    let final_attempt = stats.attempts.saturating_sub(1);
    let (digest, landed) = chaos::put_with_fault(
        ctx.store,
        text.as_bytes(),
        ctx.chaos,
        id,
        final_attempt,
        ctx.run_cancel,
    )
    .map_err(|e| OrchestratorError::io(ctx.store.object_path(fnv1a64(text.as_bytes())), e))?;
    if !landed {
        // Torn write: the run keeps the in-memory payload, the manifest
        // never learns about this generation.
        return Ok(());
    }
    let mut m = lock(ctx.manifest, "manifest lock"); // lint: lock-order(orchestrator.manifest)
    m.commit(ctx.dir, ctx.store, id, digest, stats, ctx.keep)
        .map_err(|e| OrchestratorError::io(Manifest::path(ctx.dir), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Duration::from_millis(50);
        assert_eq!(backoff_for(b, 0), Duration::from_millis(50));
        assert_eq!(backoff_for(b, 1), Duration::from_millis(100));
        assert_eq!(backoff_for(b, 3), Duration::from_millis(400));
        assert_eq!(backoff_for(b, 30), Duration::from_secs(2), "capped");
    }

    #[test]
    fn run_options_default_bounds_generations_and_disables_chaos() {
        let opts = RunOptions::default();
        assert!(opts.chaos.is_none());
        assert_eq!(opts.keep_generations, 3);
        assert!(opts.watchdog.max_job_secs.is_none());
    }
}
