//! Coordinator side of the multi-process worker seam.
//!
//! lint: io-boundary — this module owns the control-channel listener and
//! its accept loop; raw socket I/O anywhere else in the workspace trips
//! the `blocking-accept-loop` lint.
//!
//! The thread pool in [`crate::pool`] scales training across cores; this
//! module scales it across *processes*, mirroring the paper's Ray
//! deployment (§5) where chunk fine-tunes fan out over worker machines.
//! A coordinator owns the job DAG, the manifest, and the watchdog;
//! `netshare_worker` processes dial its local TCP control socket, claim
//! jobs, heartbeat while executing, and hand results back **only as
//! content-store digests** — payload bytes never cross the control
//! channel, they travel through the shared [`FsStore`].
//!
//! ## Control-frame grammar (frozen, DESIGN.md §12)
//!
//! Frames reuse the length-prefixed byte grammar of [`crate::wire`]
//! (`u32` big-endian payload length, then that many bytes of JSON
//! encoding one externally-tagged [`CtrlFrame`]). Conversation shape:
//!
//! ```text
//! worker                                    coordinator
//!   | -- WorkerHello{version, worker} --------> |   (version gate)
//!   | <------ CoordHello{version, run_key,      |
//!   |          store_dir, fault_spec} --------- |
//!   | -- Claim -------------------------------> |
//!   | <- Assign{job, attempt, spec, deps} ----- |   (deps = digest map)
//!   |      ... or Wait{poll_ms} / Drained ----- |
//!   | -- Heartbeat{job, steps} ---------------> |   (while executing)
//!   | -- Complete{job, digest, wall, cpu} ----> |   (result by address)
//!   |      ... or Fail{job, error} -----------> |
//!   | <- Error{code, message} ----------------- |   (fatal; then close)
//! ```
//!
//! A `Complete` is only believed after the coordinator re-reads the
//! object from the store and the bytes hash back to the claimed digest —
//! a worker cannot launder a torn or rotten result past the same
//! verification that guards resume. Jobs are deterministic, so a stale
//! `Complete` from a worker whose attempt was already requeued is
//! harmless: the digest either matches the recorded one (dedup), or the
//! job is already done, or the object fails verification — and then the
//! frame is dropped without touching the attempt that now owns the job.
//!
//! Failure handling reuses the single-process machinery: each assignment
//! gets a [`CancelToken`] + [`Heartbeat`] registered with the
//! [`Watchdog`]; a worker that stops heartbeating (hung, SIGKILLed, or
//! partitioned) trips the watch, and the coordinator requeues the job —
//! bounded by `max_retries`, exactly like thread-pool attempts.
//!
//! Like [`crate::pool`], this module is a front-end: it schedules over
//! the plan's [`Graph`] through a [`Frontier`], and opens, recovers and
//! commits the run directory through [`Manifest::open`] /
//! [`Manifest::recover`] / [`Manifest::commit`]. What is its own: the
//! sessions, requeue-instead-of-retry, and the write-ahead
//! [`Journal`] appended *before* each manifest commit.

use crate::cancel::CancelToken;
use crate::chaos::ChaosPlan;
use crate::dag::{fail_first, Frontier, Graph, OrchestratorError};
use crate::events::{Event, EventLog};
use crate::journal::{Journal, JournalRecord};
use crate::manifest::{JobStats, Manifest};
use crate::store::{FsStore, ObjectStore};
use crate::timing::{Heartbeat, Stopwatch};
use crate::watchdog::{WatchGuard, Watchdog, WatchdogOptions};
use crate::wire::{self, WireError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Control-protocol version spoken by this build; a `WorkerHello` with a
/// different version is answered with an `Error` frame and disconnected.
pub const COORD_VERSION: u32 = 1;

/// Hard ceiling on one control frame's payload. Control frames carry
/// specs and digests, never payload bytes, so 1 MiB is generous.
pub const MAX_CTRL_BYTES: usize = 1024 * 1024;

/// Accept-loop poll interval; also the cadence of the requeue sweep.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// `Wait.poll_ms` handed to workers when no job is ready.
const WAIT_POLL_MS: u64 = 100;

/// One frame of the coordinator/worker control protocol. Variant and
/// field names are part of the frozen wire grammar (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CtrlFrame {
    /// Handshake, worker → coordinator, first frame on the connection.
    WorkerHello {
        /// Worker's [`COORD_VERSION`].
        version: u32,
        /// Free-form worker name (diagnostics and event attribution).
        worker: String,
    },
    /// Handshake answer, coordinator → worker.
    CoordHello {
        /// Coordinator's [`COORD_VERSION`].
        version: u32,
        /// Configuration fingerprint of the run being served.
        run_key: String,
        /// Absolute run directory whose `objects/` store carries all
        /// payloads (coordinator and workers share one filesystem).
        store_dir: String,
        /// Chaos plan the worker must apply to its own attempts
        /// (grammar of [`crate::chaos::CHAOS_GRAMMAR`]); `None` = no
        /// fault injection.
        fault_spec: Option<String>,
    },
    /// Worker asks for a job.
    Claim,
    /// Coordinator assigns a job attempt.
    Assign {
        /// Job id.
        job: String,
        /// Zero-based attempt number (monotonic across workers).
        attempt: u32,
        /// Opaque executor spec (JSON with a `kind` discriminator).
        spec: String,
        /// Store digests of every dependency's payload, keyed by job id.
        deps: BTreeMap<String, u64>,
    },
    /// Nothing ready; claim again after `poll_ms`.
    Wait {
        /// Suggested re-claim delay in milliseconds.
        poll_ms: u64,
    },
    /// Every job is done; the worker should exit cleanly.
    Drained,
    /// Worker liveness while executing `job` (forwarded to the watchdog).
    Heartbeat {
        /// Job id being executed.
        job: String,
        /// Cumulative executor steps.
        steps: u64,
    },
    /// Worker finished `job`; the payload sits in the store at `digest`.
    Complete {
        /// Job id.
        job: String,
        /// Content address of the result object.
        digest: u64,
        /// Wall seconds of the successful attempt.
        wall_seconds: f64,
        /// CPU seconds of the successful attempt.
        cpu_seconds: f64,
    },
    /// Worker could not finish `job`; the coordinator requeues it.
    Fail {
        /// Job id.
        job: String,
        /// What went wrong.
        error: String,
    },
    /// Fatal connection-level fault (bad version, protocol violation,
    /// run failure); the sender closes after writing it.
    Error {
        /// Machine-readable code (`unsupported-version`,
        /// `protocol-violation`, `run-failed`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a control frame could not be read.
#[derive(Debug)]
pub enum CtrlError {
    /// The byte layer failed (close, truncation, cancellation, I/O).
    Wire(WireError),
    /// The payload bytes did not decode as a [`CtrlFrame`].
    Malformed(String),
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::Wire(e) => write!(f, "{e}"),
            CtrlError::Malformed(m) => write!(f, "malformed control frame: {m}"),
        }
    }
}

/// Reads one control frame (cancel-aware, length-prefixed).
pub fn read_ctrl(stream: &mut TcpStream, token: &CancelToken) -> Result<CtrlFrame, CtrlError> {
    let payload =
        wire::read_frame_bytes(stream, token, MAX_CTRL_BYTES).map_err(CtrlError::Wire)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| CtrlError::Malformed(format!("payload not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| CtrlError::Malformed(e.to_string()))
}

/// Encodes and writes one control frame (cancel-aware).
pub fn send_ctrl(
    stream: &mut TcpStream,
    frame: &CtrlFrame,
    token: &CancelToken,
) -> Result<(), String> {
    let payload =
        serde_json::to_string(frame).map_err(|e| format!("encode control frame: {e}"))?;
    let bytes =
        wire::frame(payload.as_bytes(), MAX_CTRL_BYTES).map_err(|e| e.to_string())?;
    wire::write_all(stream, &bytes, token).map_err(|e| e.to_string())
}

/// One job of a distributable plan: instead of a closure (which cannot
/// cross a process boundary), the body is an opaque executor `spec`
/// resolved by the worker's executor registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistJob {
    /// Unique job id.
    pub id: String,
    /// Ids of jobs whose store payloads this job consumes.
    pub deps: Vec<String>,
    /// Executor spec: JSON with a `kind` discriminator the worker
    /// dispatches on (e.g. `{"kind":"sim-chunk","seed":7,"steps":64}`).
    pub spec: String,
}

/// A validated distributable job DAG (unique ids, known deps, acyclic —
/// the one [`Graph`] validator closure plans go through too).
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// The jobs, in declaration order.
    pub jobs: Vec<DistJob>,
    graph: Graph,
}

impl DistPlan {
    /// Validates a job list into a plan.
    pub fn new(jobs: Vec<DistJob>) -> Result<DistPlan, String> {
        let graph = Graph::new(jobs.iter().map(|j| (j.id.as_str(), j.deps.as_slice())))?;
        Ok(DistPlan { jobs, graph })
    }
}

/// A deterministic pretrain → N-chunk simulation plan for the built-in
/// `sim-chunk` executor: the cheap stand-in for chunked GAN training
/// that the scale-out tests and the `netshare_cli coord` smoke run use.
/// Same `(chunks, steps, seed)` → bitwise-identical payloads on any
/// worker topology.
pub fn sim_plan(chunks: usize, steps: u64, seed: u64) -> DistPlan {
    let spec = |s: u64| format!(r#"{{"kind":"sim-chunk","seed":{s},"steps":{steps}}}"#);
    let mut jobs = vec![DistJob { id: "pretrain".into(), deps: Vec::new(), spec: spec(seed) }];
    for i in 1..=chunks {
        jobs.push(DistJob {
            id: format!("chunk-{i}"),
            deps: vec!["pretrain".into()],
            spec: spec(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        });
    }
    // lint: allow(panic-in-lib) statically valid shape: unique ids, one known dep, no cycle
    DistPlan::new(jobs).expect("sim plan is statically valid")
}

/// Knobs of one coordinated (multi-process) run.
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// Configuration fingerprint; resume only trusts a manifest written
    /// under the same key.
    pub run_key: String,
    /// Skip jobs the manifest can verify instead of re-assigning them.
    pub resume: bool,
    /// Requeues after the first attempt before a job hard-fails the run
    /// (worker loss and watchdog trips consume attempts exactly like
    /// thread-pool retries).
    pub max_retries: u32,
    /// Verified checkpoint generations kept per job.
    pub keep_generations: usize,
    /// Chaos plan forwarded verbatim to every worker (the coordinator
    /// itself injects nothing — faults strike where work executes).
    pub fault_spec: Option<String>,
    /// Hung-attempt limits; enable `heartbeat_timeout_secs` to detect
    /// SIGKILLed workers (their heartbeats stop mid-job).
    pub watchdog: WatchdogOptions,
    /// Grace window after the last job completes for connected workers
    /// to claim once more and receive `Drained`.
    pub drain: Duration,
}

impl Default for CoordOptions {
    fn default() -> Self {
        CoordOptions {
            run_key: "default".into(),
            resume: false,
            max_retries: 2,
            keep_generations: 3,
            fault_spec: None,
            watchdog: WatchdogOptions::default(),
            drain: Duration::from_secs(2),
        }
    }
}

/// The result of a successful coordinated run.
#[derive(Debug)]
pub struct CoordReport {
    /// Content address of every job's payload, keyed by job id.
    pub digests: BTreeMap<String, u64>,
    /// Every job's payload text (store-verified), keyed by job id.
    pub payloads: BTreeMap<String, String>,
    /// Per-job accounting, keyed by job id.
    pub stats: BTreeMap<String, JobStats>,
    /// Wall seconds of the whole run.
    pub wall_seconds: f64,
    /// Jobs executed by workers this run.
    pub completed: u64,
    /// Jobs satisfied from the manifest.
    pub skipped: u64,
    /// Attempts requeued (worker loss, watchdog trips, `Fail` frames).
    pub requeues: u64,
    /// Distinct worker connections that completed the handshake.
    pub workers_seen: u64,
}

/// One assignment currently executing on some worker.
struct Inflight {
    worker: String,
    token: CancelToken,
    heartbeat: Heartbeat,
}

/// Scheduler state shared by the accept loop and the session threads.
struct CoordState {
    frontier: Frontier,
    /// Attempts started per job (next assignment uses this number).
    attempts: Vec<u32>,
    /// Executing assignments, by job index.
    inflight: BTreeMap<usize, Inflight>,
    /// Verified result digest per completed job.
    done: BTreeMap<usize, u64>,
    /// Verified payload text per completed job.
    payloads: BTreeMap<usize, String>,
    stats: Vec<Option<JobStats>>,
    /// First hard failure; set once, cancels all pending work.
    failure: Option<OrchestratorError>,
    requeues: u64,
    workers_seen: u64,
}

struct CoordShared {
    state: Mutex<CoordState>,
    cond: Condvar,
    /// Cancelled when the run ends (success or failure): unblocks every
    /// session read and the accept loop.
    shutdown: CancelToken,
    /// Sessions currently connected (for the drain wait).
    sessions: AtomicI64,
}

/// A bound coordinator listener: two-phase so callers learn the
/// (possibly ephemeral) address before blocking in [`Coordinator::serve`].
pub struct Coordinator {
    listener: TcpListener,
    local: SocketAddr,
}

impl Coordinator {
    /// Binds the control listener (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Coordinator, OrchestratorError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| OrchestratorError::io(addr, format!("bind control listener: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| OrchestratorError::io(addr, format!("local_addr: {e}")))?;
        Ok(Coordinator { listener, local })
    }

    /// The bound control address (workers dial this).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Runs the plan to completion: accepts workers, assigns jobs,
    /// verifies results through the store, and persists the manifest.
    ///
    /// Like [`crate::run`], a hard job failure is returned after the run
    /// winds down, leaving a maximal resumable manifest behind.
    pub fn serve(
        self,
        dir: &Path,
        plan: &DistPlan,
        opts: &CoordOptions,
        events: &EventLog,
    ) -> Result<CoordReport, OrchestratorError> {
        serve_impl(self.listener, dir, plan, opts, events)
    }
}

fn serve_impl(
    listener: TcpListener,
    dir: &Path,
    plan: &DistPlan,
    opts: &CoordOptions,
    events: &EventLog,
) -> Result<CoordReport, OrchestratorError> {
    let wall_start = Stopwatch::start();
    let n = plan.jobs.len();
    let journal_path = dir.join(crate::journal::JOURNAL_FILE);

    let store = FsStore::open(dir)
        .map_err(|e| OrchestratorError::io(dir.join(crate::store::OBJECTS_DIR), e))?;
    // Workers need an address for the shared store that survives their
    // own working directory; canonicalize, falling back to the raw path.
    let store_dir = std::fs::canonicalize(dir)
        .unwrap_or_else(|_| dir.to_path_buf())
        .to_string_lossy()
        .into_owned();

    // ---- manifest recovery -------------------------------------------
    let mut manifest = Manifest::open(dir, &opts.run_key, events);
    let mut done = BTreeMap::new();
    let mut payloads = BTreeMap::new();
    let mut stats: Vec<Option<JobStats>> = (0..n).map(|_| None).collect();
    if opts.resume {
        for (i, job) in plan.jobs.iter().enumerate() {
            // Distributed payloads are opaque text to the coordinator.
            if let Some((text, entry)) = manifest.recover(dir, &job.id, events, Ok) {
                stats[i] = Some(entry.stats());
                done.insert(i, entry.digest);
                payloads.insert(i, text);
            }
        }
    }

    // ---- journal recovery (the WAL heals what the manifest missed) ---
    // A coordinator killed after journalling a `Completed` but before
    // the manifest recorded it stranded verified work; replay finds
    // those digests, re-verifies them through the store, and repairs
    // the manifest. See [`crate::journal`].
    if !opts.resume {
        Journal::reset(dir).map_err(|e| OrchestratorError::io(&journal_path, e))?;
    }
    let journal = Journal::open(dir).map_err(|e| OrchestratorError::io(&journal_path, e))?;
    let mut healed: Vec<Event> = Vec::new();
    if opts.resume {
        for record in Journal::replay(dir, &opts.run_key) {
            let JournalRecord::Completed { job, digest } = record else { continue };
            let Some(i) = plan.graph.index_of(&job) else { continue };
            if done.contains_key(&i) {
                continue;
            }
            // Same trust boundary as every recovery: bytes must hash
            // back to the journalled address and decode as UTF-8.
            let Ok(bytes) = store.get(digest) else { continue };
            let Ok(text) = String::from_utf8(bytes) else { continue };
            let healed_stats =
                JobStats { attempts: 1, wall_seconds: 0.0, cpu_seconds: 0.0, skipped: true };
            manifest.append(&job, digest, &healed_stats);
            stats[i] = Some(healed_stats);
            done.insert(i, digest);
            payloads.insert(i, text);
            telemetry::metrics::counter("coord.journal_recoveries").inc();
            healed.push(Event::JournalRecovered { job, digest });
        }
    }
    journal
        .append(&JournalRecord::Started { run_key: opts.run_key.clone() })
        .map_err(|e| OrchestratorError::io(&journal_path, e))?;

    manifest.store(dir).map_err(|e| OrchestratorError::io(Manifest::path(dir), e))?;

    events.emit(Event::RunStarted {
        run_key: opts.run_key.clone(),
        jobs: n as u64,
        // Workers are external processes that come and go; none are
        // known at start time.
        workers: 0,
        resumed: done.len() as u64,
    });
    for (i, job) in plan.jobs.iter().enumerate() {
        if done.contains_key(&i) {
            events.emit(Event::JobSkipped { job: job.id.clone() });
        }
    }
    for ev in healed {
        events.emit(ev);
    }

    let shared = CoordShared {
        state: Mutex::new(CoordState {
            frontier: Frontier::seed(&plan.graph, |i| done.contains_key(&i)),
            attempts: vec![0; n],
            inflight: BTreeMap::new(),
            done,
            payloads,
            stats,
            failure: None,
            requeues: 0,
            workers_seen: 0,
        }),
        cond: Condvar::new(),
        shutdown: CancelToken::new(),
        sessions: AtomicI64::new(0),
    };
    let manifest = Mutex::new(manifest);
    let watchdog = Watchdog::new(opts.watchdog.clone());

    listener
        .set_nonblocking(true)
        .map_err(|e| OrchestratorError::io(dir, format!("set_nonblocking: {e}")))?;

    // `kill-coord` chaos fires coordinator-side in `handle_complete`;
    // every other class is interpreted worker-side (the spec travels in
    // `CoordHello`). The CLI validated the spec, so a parse failure here
    // just disables coordinator-side faults.
    let chaos: Option<ChaosPlan> =
        opts.fault_spec.as_deref().and_then(|s| ChaosPlan::parse(s).ok());

    let ctx = SessionCtx {
        plan,
        opts,
        events,
        shared: &shared,
        manifest: &manifest,
        watchdog: &watchdog,
        dir,
        store: &store,
        store_dir: &store_dir,
        journal: &journal,
        chaos: chaos.as_ref(),
    };

    std::thread::scope(|s| {
        let wd_handle = watchdog.enabled().then(|| s.spawn(|| watchdog.run(events)));
        loop {
            sweep_tripped(&ctx);
            {
                let st = lock_state(&shared);
                if st.failure.is_some() || st.frontier.drained() {
                    break;
                }
            }
            match listener.accept() {
                Ok((sock, _peer)) => {
                    shared.sessions.fetch_add(1, Ordering::SeqCst);
                    s.spawn(move || {
                        session(sock, &ctx);
                        ctx.shared.sessions.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if wire::is_retry(e.kind()) => {
                    if shared.shutdown.wait_timeout(ACCEPT_POLL) {
                        break;
                    }
                }
                Err(_) => {
                    // Transient accept fault; retry after the poll.
                    if shared.shutdown.wait_timeout(ACCEPT_POLL) {
                        break;
                    }
                }
            }
        }
        // Give connected workers the drain window to claim once more
        // and receive `Drained`, then cut every blocked read loose.
        let drain = Stopwatch::start();
        while shared.sessions.load(Ordering::SeqCst) > 0
            && drain.elapsed_seconds() < opts.drain.as_secs_f64()
        {
            if shared.shutdown.wait_timeout(ACCEPT_POLL) {
                break;
            }
        }
        shared.shutdown.cancel("coordinator winding down");
        watchdog.stop();
        drop(wd_handle);
    });

    // ---- report -------------------------------------------------------
    // lint: allow(panic-in-lib) poisoned scheduler lock is unrecoverable
    let mut st = shared.state.into_inner().expect("coordinator state");
    if let Some(err) = st.failure.take() {
        return Err(err);
    }
    let mut digests = BTreeMap::new();
    let mut out_payloads = BTreeMap::new();
    let mut out_stats = BTreeMap::new();
    for (i, job) in plan.jobs.iter().enumerate() {
        // lint: allow(panic-in-lib) failure was None, so every job published a digest
        let d = st.done.remove(&i).expect("completed run has every digest");
        digests.insert(job.id.clone(), d);
        if let Some(text) = st.payloads.remove(&i) {
            out_payloads.insert(job.id.clone(), text);
        }
        if let Some(js) = st.stats[i].take() {
            out_stats.insert(job.id.clone(), js);
        }
    }
    let skipped = out_stats.values().filter(|s| s.skipped).count() as u64;
    let report = CoordReport {
        digests,
        payloads: out_payloads,
        stats: out_stats,
        wall_seconds: wall_start.elapsed_seconds(),
        completed: n as u64 - skipped,
        skipped,
        requeues: st.requeues,
        workers_seen: st.workers_seen,
    };
    events.emit(Event::RunFinished {
        wall_seconds: report.wall_seconds,
        cpu_seconds: report
            .stats
            .values()
            .map(|s| s.cpu_seconds)
            .sum(),
        completed: report.completed,
        skipped,
    });
    Ok(report)
}

/// Everything a session thread needs, bundled (and `Copy` so the accept
/// loop can hand each spawned thread its own).
struct SessionCtx<'a> {
    plan: &'a DistPlan,
    opts: &'a CoordOptions,
    events: &'a EventLog,
    shared: &'a CoordShared,
    manifest: &'a Mutex<Manifest>,
    watchdog: &'a Watchdog,
    dir: &'a Path,
    store: &'a FsStore,
    store_dir: &'a str,
    journal: &'a Journal,
    chaos: Option<&'a ChaosPlan>,
}

impl Copy for SessionCtx<'_> {}
impl Clone for SessionCtx<'_> {
    fn clone(&self) -> Self {
        *self
    }
}

/// Locks the coordinator scheduler state.
fn lock_state(shared: &CoordShared) -> std::sync::MutexGuard<'_, CoordState> {
    // lint: allow(panic-in-lib) poisoned scheduler lock is unrecoverable
    shared.state.lock().expect("coordinator state") // lint: lock-order(orchestrator.coord_state)
}

/// Whether `worker` still holds the live attempt of job `i`: the
/// assignment has not moved on (watchdog trip, lost session) and no
/// attempt's result has landed. Only then may its `Fail`, or a
/// `Complete` that does not verify, requeue the job.
fn owns_attempt(st: &CoordState, i: usize, worker: &str) -> bool {
    !st.done.contains_key(&i) && st.inflight.get(&i).is_some_and(|inf| inf.worker == worker)
}

/// Emits scheduler events, journalling every retried attempt first so
/// `--resume` replay sees the abandonment even if the event sink is a
/// buffer that dies with the process.
fn publish(ctx: &SessionCtx<'_>, events: Vec<Event>) {
    for ev in events {
        if let Event::JobRetried { job, error, .. } = &ev {
            let _ = ctx
                .journal
                .append(&JournalRecord::Requeued { job: job.clone(), error: error.clone() });
        }
        ctx.events.emit(ev);
    }
}

/// Requeues job `idx` (or fails the run when its attempts are spent).
/// Caller holds the state lock; returned events must be emitted *after*
/// releasing it (sink I/O must not stall the scheduler).
fn requeue_locked(
    st: &mut CoordState,
    plan: &DistPlan,
    opts: &CoordOptions,
    idx: usize,
    error: &str,
    shared: &CoordShared,
) -> Vec<Event> {
    let job = &plan.jobs[idx].id;
    let attempts = st.attempts[idx];
    if attempts > opts.max_retries {
        let err = OrchestratorError::JobFailed {
            job: job.clone(),
            attempts,
            error: error.to_string(),
        };
        fail_first(&mut st.failure, err, &shared.shutdown, &shared.cond);
        telemetry::metrics::counter("coord.failures").inc();
        return vec![Event::JobFailed { job: job.clone(), attempts, error: error.to_string() }];
    }
    st.requeues += 1;
    st.frontier.requeue(idx);
    telemetry::metrics::counter("coord.requeues").inc();
    shared.cond.notify_all();
    vec![Event::JobRetried {
        job: job.clone(),
        attempt: attempts.saturating_sub(1),
        error: error.to_string(),
        backoff_ms: 0,
    }]
}

/// The accept loop's periodic sweep: any inflight assignment whose token
/// was cancelled (watchdog deadline or heartbeat staleness — a SIGKILLed
/// worker stops beating) is pulled back and requeued.
fn sweep_tripped(ctx: &SessionCtx<'_>) {
    let mut out = Vec::new();
    {
        let mut st = lock_state(ctx.shared);
        let tripped: Vec<usize> = st
            .inflight
            .iter()
            .filter(|(_, inf)| inf.token.is_cancelled())
            .map(|(&i, _)| i)
            .collect();
        for i in tripped {
            // lint: allow(panic-in-lib) index came from the map we remove from
            let inf = st.inflight.remove(&i).expect("tripped inflight entry");
            let reason = inf.token.reason().unwrap_or_else(|| "cancelled".into());
            let error = format!("worker `{}` attempt cancelled: {reason}", inf.worker);
            out.extend(requeue_locked(&mut st, ctx.plan, ctx.opts, i, &error, ctx.shared));
        }
    }
    publish(ctx, out);
}

/// One worker connection: handshake, then claim/heartbeat/complete until
/// the run drains, the worker disconnects, or the run fails.
fn session(mut sock: TcpStream, ctx: &SessionCtx<'_>) {
    if sock.set_nonblocking(false).is_err() || wire::configure(&sock).is_err() {
        return;
    }
    let token = &ctx.shared.shutdown;
    let worker = match read_ctrl(&mut sock, token) {
        Ok(CtrlFrame::WorkerHello { version, worker }) if version == COORD_VERSION => worker,
        Ok(CtrlFrame::WorkerHello { version, .. }) => {
            let _ = send_ctrl(
                &mut sock,
                &CtrlFrame::Error {
                    code: "unsupported-version".into(),
                    message: format!("worker speaks v{version}, coordinator v{COORD_VERSION}"),
                },
                token,
            );
            return;
        }
        _ => return,
    };
    if send_ctrl(
        &mut sock,
        &CtrlFrame::CoordHello {
            version: COORD_VERSION,
            run_key: ctx.opts.run_key.clone(),
            store_dir: ctx.store_dir.to_string(),
            fault_spec: ctx.opts.fault_spec.clone(),
        },
        token,
    )
    .is_err()
    {
        return;
    }
    telemetry::metrics::counter("coord.workers_joined").inc();
    {
        let mut st = lock_state(ctx.shared);
        st.workers_seen += 1;
    }
    ctx.events.emit(Event::WorkerJoined { worker: worker.clone() });

    // Watch guards of assignments made over *this* connection; dropped
    // (unregistered) as soon as the job completes, fails, or the session
    // ends. A guard whose watch already tripped is inert.
    let mut guards: BTreeMap<usize, WatchGuard<'_>> = BTreeMap::new();
    let graph = &ctx.plan.graph;

    while let Ok(frame) = read_ctrl(&mut sock, token) {
        match frame {
            CtrlFrame::Claim => {
                let reply = next_assignment(ctx, &worker, &mut guards);
                let terminal =
                    matches!(reply, CtrlFrame::Drained | CtrlFrame::Error { .. });
                if send_ctrl(&mut sock, &reply, token).is_err() || terminal {
                    break;
                }
            }
            CtrlFrame::Heartbeat { job, steps } => {
                let Some(i) = graph.index_of(&job) else { continue };
                let st = lock_state(ctx.shared);
                if let Some(inf) = st.inflight.get(&i) {
                    if inf.worker == worker {
                        inf.heartbeat.beat(steps);
                    }
                }
            }
            CtrlFrame::Complete { job, digest, wall_seconds, cpu_seconds } => {
                let Some(i) = graph.index_of(&job) else { continue };
                guards.remove(&i);
                handle_complete(ctx, &worker, i, digest, wall_seconds, cpu_seconds);
            }
            CtrlFrame::Fail { job, error } => {
                let Some(i) = graph.index_of(&job) else { continue };
                guards.remove(&i);
                let mut out = Vec::new();
                {
                    let mut st = lock_state(ctx.shared);
                    if owns_attempt(&st, i, &worker) {
                        st.inflight.remove(&i);
                        out = requeue_locked(&mut st, ctx.plan, ctx.opts, i, &error, ctx.shared);
                    }
                }
                publish(ctx, out);
            }
            other => {
                let _ = send_ctrl(
                    &mut sock,
                    &CtrlFrame::Error {
                        code: "protocol-violation".into(),
                        message: format!("unexpected frame {other:?}"),
                    },
                    token,
                );
                break;
            }
        }
    }

    // Session over. Anything this worker still had inflight is lost:
    // requeue it and announce the loss.
    let mut out = Vec::new();
    let mut lost_jobs = Vec::new();
    {
        let mut st = lock_state(ctx.shared);
        let mine: Vec<usize> = st
            .inflight
            .iter()
            .filter(|(_, inf)| inf.worker == worker)
            .map(|(&i, _)| i)
            .collect();
        for i in mine {
            st.inflight.remove(&i);
            lost_jobs.push(ctx.plan.jobs[i].id.clone());
            let error = format!("worker `{worker}` disconnected mid-attempt");
            out.extend(requeue_locked(&mut st, ctx.plan, ctx.opts, i, &error, ctx.shared));
        }
    }
    if !lost_jobs.is_empty() {
        telemetry::metrics::counter("coord.workers_lost").inc();
        ctx.events.emit(Event::WorkerLost { worker: worker.clone(), requeued: lost_jobs });
    }
    publish(ctx, out);
    drop(guards);
}

/// Answers one `Claim`: an `Assign` when a job is ready, `Wait` when the
/// scheduler is momentarily dry, `Drained` when every job is done, or
/// `Error` when the run already failed.
fn next_assignment<'w>(
    ctx: &SessionCtx<'w>,
    worker: &str,
    guards: &mut BTreeMap<usize, WatchGuard<'w>>,
) -> CtrlFrame {
    let (frame, started) = {
        let mut st = lock_state(ctx.shared);
        if let Some(err) = &st.failure {
            (
                CtrlFrame::Error { code: "run-failed".into(), message: err.to_string() },
                None,
            )
        } else if st.frontier.drained() {
            (CtrlFrame::Drained, None)
        } else if let Some(i) = st.frontier.pop() {
            let attempt = st.attempts[i];
            st.attempts[i] += 1;
            let job = &ctx.plan.jobs[i];
            // The frontier only readies a job once every dependency is
            // done, so each index resolves to a recorded digest.
            let deps: BTreeMap<String, u64> = job
                .deps
                .iter()
                .zip(ctx.plan.graph.deps(i))
                .map(|(d, di)| (d.clone(), st.done[di]))
                .collect();
            let token = CancelToken::new();
            let heartbeat = Heartbeat::new();
            st.inflight.insert(
                i,
                Inflight {
                    worker: worker.to_string(),
                    token: token.clone(),
                    heartbeat: heartbeat.clone(),
                },
            );
            guards.insert(i, ctx.watchdog.register(&job.id, attempt, heartbeat, token));
            telemetry::metrics::counter("coord.assignments").inc();
            (
                CtrlFrame::Assign { job: job.id.clone(), attempt, spec: job.spec.clone(), deps },
                Some((job.id.clone(), attempt)),
            )
        } else {
            (CtrlFrame::Wait { poll_ms: WAIT_POLL_MS }, None)
        }
    };
    if let Some((job, attempt)) = started {
        let _ = ctx.journal.append(&JournalRecord::Assigned {
            job: job.clone(),
            attempt,
            worker: worker.to_string(),
        });
        ctx.events.emit(Event::JobStarted { job, attempt });
    }
    frame
}

/// Handles a `Complete`: re-reads the object from the store (digest
/// verification is the trust boundary), records the manifest generation,
/// and unlocks dependents. A duplicate `Complete` is dropped; a
/// missing/corrupt object counts as a failed attempt when the sender
/// still owns the assignment, and is dropped as stale when it does not.
fn handle_complete(
    ctx: &SessionCtx<'_>,
    worker: &str,
    i: usize,
    digest: u64,
    wall_seconds: f64,
    cpu_seconds: f64,
) {
    {
        let st = lock_state(ctx.shared);
        if st.done.contains_key(&i) {
            telemetry::metrics::counter("coord.stale_completes").inc();
            return;
        }
    }
    // Verify outside the lock: store reads are file I/O.
    let verified = ctx.store.get(digest).map_err(|e| e.to_string()).and_then(|bytes| {
        String::from_utf8(bytes).map_err(|e| format!("payload not UTF-8: {e}"))
    });
    let job = &ctx.plan.jobs[i].id;
    let mut out = Vec::new();
    match verified {
        Ok(text) => {
            let mut st = lock_state(ctx.shared);
            if st.done.contains_key(&i) {
                telemetry::metrics::counter("coord.stale_completes").inc();
                return;
            }
            let attempts = st.attempts[i].max(1);
            // WAL ordering: the completion is durable (journal line +
            // content store) *before* the manifest generation exists,
            // so a coordinator killed in between is healed by replay.
            // An append failure degrades to manifest-only durability —
            // the run itself stays correct.
            let _ = ctx
                .journal
                .append(&JournalRecord::Completed { job: job.clone(), digest });
            if let Some(plan) = ctx.chaos {
                if plan.coord_fault(job, attempts - 1).is_some() {
                    // `kill-coord`: die inside the journal→manifest
                    // window — the exact crash `--resume` must heal.
                    eprintln!(
                        "coordinator: injected kill-coord while completing `{job}`"
                    );
                    std::process::abort();
                }
            }
            // Commit under the manifest lock while holding the state
            // lock: coord_state ranks above manifest, and publishing
            // before persisting would let a crash orphan the result.
            let stats = JobStats { attempts, wall_seconds, cpu_seconds, skipped: false };
            let committed = {
                let mut m = ctx.manifest.lock().expect("manifest lock"); // lint: allow(panic-in-lib) poisoned manifest lock is unrecoverable // lint: lock-order(orchestrator.manifest)
                m.commit(ctx.dir, ctx.store, job, digest, &stats, ctx.opts.keep_generations)
            };
            if let Err(e) = committed {
                let err = OrchestratorError::io(Manifest::path(ctx.dir), e);
                fail_first(&mut st.failure, err, &ctx.shared.shutdown, &ctx.shared.cond);
                return;
            }
            st.inflight.remove(&i);
            st.done.insert(i, digest);
            st.payloads.insert(i, text);
            st.stats[i] = Some(stats);
            st.frontier.complete(i);
            telemetry::metrics::counter("coord.completions").inc();
            out.push(Event::JobFinished {
                job: job.clone(),
                attempts,
                wall_seconds,
                cpu_seconds,
            });
            ctx.shared.cond.notify_all();
        }
        Err(e) => {
            let mut st = lock_state(ctx.shared);
            if !owns_attempt(&st, i, worker) {
                // Not this sender's job to fail: requeueing it would run
                // it twice and burn one of its attempts.
                telemetry::metrics::counter("coord.stale_completes").inc();
                return;
            }
            st.inflight.remove(&i);
            let error =
                format!("result object {digest:#018x} failed verification: {e}");
            out = requeue_locked(&mut st, ctx.plan, ctx.opts, i, &error, ctx.shared);
        }
    }
    publish(ctx, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctrl_frames_round_trip_through_json() {
        let frames = vec![
            CtrlFrame::WorkerHello { version: 1, worker: "w0".into() },
            CtrlFrame::CoordHello {
                version: 1,
                run_key: "sim".into(),
                store_dir: "/tmp/run".into(),
                fault_spec: Some("chunk-1:kill-worker".into()),
            },
            CtrlFrame::Claim,
            CtrlFrame::Assign {
                job: "chunk-1".into(),
                attempt: 2,
                spec: r#"{"kind":"sim-chunk","seed":7,"steps":64}"#.into(),
                deps: [("pretrain".to_string(), 0xdead_beef_u64 << 32)].into_iter().collect(),
            },
            CtrlFrame::Wait { poll_ms: 100 },
            CtrlFrame::Drained,
            CtrlFrame::Heartbeat { job: "chunk-1".into(), steps: 48 },
            CtrlFrame::Complete {
                job: "chunk-1".into(),
                digest: u64::MAX - 3,
                wall_seconds: 0.5,
                cpu_seconds: 0.25,
            },
            CtrlFrame::Fail { job: "chunk-1".into(), error: "injected fault".into() },
            CtrlFrame::Error { code: "run-failed".into(), message: "boom".into() },
        ];
        for f in frames {
            let line = serde_json::to_string(&f).unwrap();
            let back: CtrlFrame = serde_json::from_str(&line).unwrap();
            assert_eq!(back, f, "{line}");
        }
    }

    #[test]
    fn dist_plan_rejects_what_the_closure_validator_rejects() {
        let job = |id: &str, deps: &[&str]| DistJob {
            id: id.into(),
            deps: deps.iter().map(|s| s.to_string()).collect(),
            spec: "{}".into(),
        };
        assert!(DistPlan::new(vec![job("a", &[]), job("a", &[])])
            .unwrap_err()
            .contains("duplicate"));
        assert!(DistPlan::new(vec![job("a", &["ghost"])]).unwrap_err().contains("unknown"));
        assert!(DistPlan::new(vec![job("a", &["b"]), job("b", &["a"])])
            .unwrap_err()
            .contains("cycle"));
        assert!(DistPlan::new(vec![job("a", &[]), job("b", &["a"])]).is_ok());
    }

    #[test]
    fn sim_plan_is_a_pretrain_fanout_with_distinct_seeds() {
        let p = sim_plan(3, 64, 17);
        assert_eq!(p.jobs.len(), 4);
        assert_eq!(p.jobs[0].id, "pretrain");
        assert!(p.jobs[1..].iter().all(|j| j.deps == ["pretrain"]));
        let specs: std::collections::BTreeSet<&str> =
            p.jobs.iter().map(|j| j.spec.as_str()).collect();
        assert_eq!(specs.len(), 4, "every job gets a distinct seed");
    }

    #[test]
    fn coordinator_binds_an_ephemeral_port() {
        let c = Coordinator::bind("127.0.0.1:0").unwrap();
        assert_ne!(c.local_addr().port(), 0);
    }
}
