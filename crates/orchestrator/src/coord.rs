//! Coordinator side of the multi-process worker seam.
//!
//! lint: io-boundary — this module owns the control-channel listener and
//! its accept loop; raw socket I/O anywhere else in the workspace trips
//! the `capability-graph` lint.
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
//! The coordinator is a driver of the [`Machine`], like [`crate::pool`]:
//! the machine decides who gets a job, whether a failed, lost or tripped
//! attempt is requeued (at once: the coordinator's retry delay is zero)
//! or fails the run, and whether a `Complete` is believed. What is this
//! module's own: the sessions, store verification of every result, the
//! watchdog registrations that a worker's heartbeats keep alive (a
//! worker that stops beating — hung, SIGKILLed or partitioned — trips
//! its watch, and the trip goes to the machine), and the write-ahead
//! [`Journal`], appended *before* each manifest commit. Run-directory
//! recovery goes through [`Manifest::open`] / [`Manifest::recover`] /
//! [`Manifest::commit`], as in the pool.

use crate::cancel::CancelToken;
use crate::fault::{FaultPlan, Phase};
use crate::dag::{Graph, OrchestratorError};
use crate::events::{Event, EventLog};
use crate::journal::{Journal, JournalRecord};
use crate::machine::{run_failed, Input, Machine, Output};
use crate::manifest::{JobStats, Manifest};
use crate::store::{FsStore, ObjectStore};
use crate::timing::{Heartbeat, Stopwatch};
use crate::watchdog::{WatchGuard, Watchdog, WatchdogOptions};
use crate::wire::{self, WireError};
use crate::{into_inner, lock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
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
        /// Fault plan the worker applies to its own attempts, as the
        /// plan's canonical spec ([`crate::fault`]); `None` = no fault
        /// injection.
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
    /// Fault plan: forwarded to every worker, where attempt, persist and
    /// process faults strike; the coordinator itself strikes only
    /// `kill-coord`.
    pub faults: Option<FaultPlan>,
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
            faults: None,
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

/// The machine and what the coordinator keeps beside it, under one lock.
struct Sched {
    machine: Machine,
    /// Verified payload text per finished job.
    payloads: BTreeMap<usize, String>,
    manifest: Manifest,
}

struct CoordShared {
    sched: Mutex<Sched>,
    /// The machine's clock.
    clock: Stopwatch,
    /// Cancelled when the run ends (success or failure): unblocks every
    /// session read and the accept loop.
    shutdown: CancelToken,
    /// Sessions currently connected (for the drain wait).
    sessions: AtomicI64,
    /// Sessions that completed the handshake; also the next session's
    /// machine owner number.
    workers_seen: AtomicU64,
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
        let mut resumed = BTreeMap::new();
        let mut payloads = BTreeMap::new();
        if opts.resume {
            for (i, job) in plan.jobs.iter().enumerate() {
                // Distributed payloads are opaque text to the coordinator.
                if let Some((text, entry)) = manifest.recover(dir, &job.id, events, Ok) {
                    resumed.insert(i, (entry.digest, entry.stats()));
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
                if resumed.contains_key(&i) {
                    continue;
                }
                // Same trust boundary as every recovery: bytes must hash
                // back to the journalled address and decode as UTF-8.
                let Ok(bytes) = store.get(digest) else { continue };
                let Ok(text) = String::from_utf8(bytes) else { continue };
                let healed_stats =
                    JobStats { attempts: 1, wall_seconds: 0.0, cpu_seconds: 0.0, skipped: true };
                manifest.append(&job, digest, &healed_stats);
                resumed.insert(i, (digest, healed_stats));
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
            resumed: resumed.len() as u64,
        });
        for (i, job) in plan.jobs.iter().enumerate() {
            if resumed.contains_key(&i) {
                events.emit(Event::JobSkipped { job: job.id.clone() });
            }
        }
        for ev in healed {
            events.emit(ev);
        }

        // Requeued jobs are handed out again at once: a worker polls anyway.
        let machine = Machine::new(&plan.graph, opts.max_retries, Duration::ZERO, resumed);
        let shared = CoordShared {
            sched: Mutex::new(Sched { machine, payloads, manifest }),
            clock: Stopwatch::start(),
            shutdown: CancelToken::new(),
            sessions: AtomicI64::new(0),
            workers_seen: AtomicU64::new(0),
        };
        let watchdog = Watchdog::new(opts.watchdog.clone());

        self.listener
            .set_nonblocking(true)
            .map_err(|e| OrchestratorError::io(dir, format!("set_nonblocking: {e}")))?;

        let ctx = SessionCtx {
            plan,
            opts,
            events,
            shared: &shared,
            watchdog: &watchdog,
            dir,
            store: &store,
            store_dir: &store_dir,
            journal: &journal,
        };

        // A tripped watch (deadline, or a heartbeat gone stale: a
        // SIGKILLed worker stops beating) is the machine's to requeue.
        let on_trip = |ev: &Event| {
            let Event::WatchdogCancelled { job, attempt, reason, .. } = ev else { return };
            let Some(job) = plan.graph.index_of(job) else { return };
            let (attempt, reason) = (*attempt, reason.clone());
            ctx.step_and_publish(Input::Tripped { job, attempt, reason });
        };
        std::thread::scope(|s| {
            let wd_handle =
                watchdog.enabled().then(|| s.spawn(move || ctx.watchdog.run(events, on_trip)));
            loop {
                if ctx.finished() {
                    break;
                }
                match self.listener.accept() {
                    Ok((sock, _peer)) => {
                        shared.sessions.fetch_add(1, Ordering::SeqCst);
                        s.spawn(move || {
                            session(sock, &ctx);
                            ctx.shared.sessions.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    // A timed-out poll, or a transient accept fault: retry
                    // after the poll.
                    Err(_) => {
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
        let Sched { machine, payloads, .. } = into_inner(shared.sched);
        let requeues = machine.requeues();
        let done = machine.finish()?;
        let id = |i: usize| plan.jobs[i].id.clone();
        let payloads = payloads.into_iter().map(|(i, text)| (id(i), text)).collect();
        let digests = done.iter().enumerate().map(|(i, d)| (id(i), d.0)).collect();
        let stats: BTreeMap<String, JobStats> =
            done.into_iter().enumerate().map(|(i, d)| (id(i), d.1)).collect();
        let skipped = stats.values().filter(|s| s.skipped).count() as u64;
        let report = CoordReport {
            digests,
            payloads,
            stats,
            wall_seconds: wall_start.elapsed_seconds(),
            completed: n as u64 - skipped,
            skipped,
            requeues,
            workers_seen: shared.workers_seen.load(Ordering::SeqCst),
        };
        events.emit(Event::RunFinished {
            wall_seconds: report.wall_seconds,
            cpu_seconds: report.stats.values().map(|s| s.cpu_seconds).sum(),
            completed: report.completed,
            skipped,
        });
        Ok(report)
    }
}

/// Everything a session thread needs, bundled (and `Copy` so the accept
/// loop can hand each spawned thread its own).
#[derive(Clone, Copy)]
struct SessionCtx<'a> {
    plan: &'a DistPlan,
    opts: &'a CoordOptions,
    events: &'a EventLog,
    shared: &'a CoordShared,
    watchdog: &'a Watchdog,
    dir: &'a Path,
    store: &'a FsStore,
    store_dir: &'a str,
    journal: &'a Journal,
}

impl SessionCtx<'_> {
    /// Steps the machine; the step that fails the run shuts it down.
    fn step(&self, sched: &mut Sched, input: Input<'_>) -> Vec<Output> {
        let now = Duration::from_secs_f64(self.shared.clock.elapsed_seconds());
        let out = sched.machine.step(now, input);
        if let Some(err) = sched.machine.failure() {
            self.shared.shutdown.cancel(&run_failed(err));
        }
        out
    }

    /// Whether the machine will hand out nothing more.
    fn finished(&self) -> bool {
        lock(&self.shared.sched).machine.finished() // lint: lock-order(orchestrator.machine)
    }

    /// Steps the machine under its lock, then publishes the outputs.
    fn step_and_publish(&self, input: Input<'_>) {
        let out = self.step(&mut lock(&self.shared.sched), input); // lint: lock-order(orchestrator.machine)
        self.publish(out);
    }

    /// Carries out the outputs that need no lock: telemetry, journal
    /// records and events (sink I/O must not stall the scheduler). A
    /// requeue is journalled before its event, so `--resume` replay sees
    /// it even if the event sink dies with the process.
    fn publish(&self, out: Vec<Output>) {
        let count = |name| telemetry::metrics::counter(name).inc();
        for o in out {
            match o {
                Output::Assign { .. } => count("coord.assignments"),
                Output::Requeue { .. } => count("coord.requeues"),
                Output::Commit { .. } => count("coord.completions"),
                Output::JobFailed { .. } => count("coord.failures"),
                Output::Journal(record) => {
                    let _ = self.journal.append(&record);
                }
                Output::Event(ev) => {
                    if matches!(ev, Event::WorkerLost { .. }) {
                        count("coord.workers_lost");
                    }
                    self.events.emit(ev);
                }
                Output::Wait { .. } | Output::Drained => {}
            }
        }
    }
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
            fault_spec: ctx.opts.faults.as_ref().map(FaultPlan::to_string),
        },
        token,
    )
    .is_err()
    {
        return;
    }
    telemetry::metrics::counter("coord.workers_joined").inc();
    let owner = ctx.shared.workers_seen.fetch_add(1, Ordering::SeqCst);
    ctx.events.emit(Event::WorkerJoined { worker: worker.clone() });

    // Watches of the attempts assigned over *this* connection, with the
    // heartbeats its frames beat; dropped (unregistered) as soon as the
    // attempt is answered or the session ends. A tripped watch is inert.
    let mut watches: BTreeMap<usize, (WatchGuard<'_>, Heartbeat)> = BTreeMap::new();
    let graph = &ctx.plan.graph;

    while let Ok(frame) = read_ctrl(&mut sock, token) {
        match frame {
            CtrlFrame::Claim => {
                let reply = claim(ctx, owner, &worker, &mut watches);
                let terminal =
                    matches!(reply, CtrlFrame::Drained | CtrlFrame::Error { .. });
                if send_ctrl(&mut sock, &reply, token).is_err() || terminal {
                    break;
                }
            }
            CtrlFrame::Heartbeat { job, steps } => {
                if let Some((_, heartbeat)) = graph.index_of(&job).and_then(|i| watches.get(&i)) {
                    heartbeat.beat(steps);
                }
            }
            CtrlFrame::Complete { job, digest, wall_seconds, cpu_seconds } => {
                let Some(i) = graph.index_of(&job) else { continue };
                watches.remove(&i);
                handle_complete(ctx, owner, i, digest, wall_seconds, cpu_seconds);
            }
            CtrlFrame::Fail { job, error } => {
                let Some(i) = graph.index_of(&job) else { continue };
                watches.remove(&i);
                ctx.step_and_publish(Input::Fail { owner, job: i, error });
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

    // Session over: anything this worker still holds is lost.
    ctx.step_and_publish(Input::Lost { owner });
    drop(watches);
}

/// Answers one `Claim`: an `Assign` when a job is ready, `Wait` when the
/// scheduler is momentarily dry, `Drained` when every job is done, or
/// `Error` when the run already failed.
fn claim<'w>(
    ctx: &SessionCtx<'w>,
    owner: u64,
    worker: &str,
    watches: &mut BTreeMap<usize, (WatchGuard<'w>, Heartbeat)>,
) -> CtrlFrame {
    let (reply, out) = {
        let mut sched = lock(&ctx.shared.sched); // lint: lock-order(orchestrator.machine)
        let out = ctx.step(&mut sched, Input::Claim { owner, worker });
        let reply = match out.first() {
            Some(&Output::Assign { job, attempt }) => {
                let spec = &ctx.plan.jobs[job];
                let deps = sched
                    .machine
                    .dep_digests(job)
                    .map(|(d, digest)| (ctx.plan.jobs[d].id.clone(), digest))
                    .collect();
                let heartbeat = Heartbeat::new();
                let guard =
                    ctx.watchdog.register(&spec.id, attempt, heartbeat.clone(), CancelToken::new());
                watches.insert(job, (guard, heartbeat));
                CtrlFrame::Assign { job: spec.id.clone(), attempt, spec: spec.spec.clone(), deps }
            }
            Some(Output::Wait { .. }) => CtrlFrame::Wait { poll_ms: WAIT_POLL_MS },
            _ => match sched.machine.failure() {
                Some(err) => {
                    CtrlFrame::Error { code: "run-failed".into(), message: err.to_string() }
                }
                None => CtrlFrame::Drained,
            },
        };
        (reply, out)
    };
    ctx.publish(out);
    reply
}

/// Handles a `Complete`: re-reads the object from the store (digest
/// verification is the trust boundary) and lets the machine judge it.
/// A believed result is committed before the machine lock is released,
/// so no session can see the job done before it is durable. A result
/// for a job already done is dropped unread.
fn handle_complete(
    ctx: &SessionCtx<'_>,
    owner: u64,
    i: usize,
    digest: u64,
    wall_seconds: f64,
    cpu_seconds: f64,
) {
    if lock(&ctx.shared.sched).machine.is_done(i) { // lint: lock-order(orchestrator.machine)
        telemetry::metrics::counter("coord.stale_completes").inc();
        return;
    }
    // Verify outside the lock: store reads are file I/O.
    let text = ctx.store.get(digest).map_err(|e| e.to_string()).and_then(|bytes| {
        String::from_utf8(bytes).map_err(|e| format!("payload not UTF-8: {e}"))
    });
    let verified = text
        .as_ref()
        .map(|_| ())
        .map_err(|e| format!("result object {digest:#018x} failed verification: {e}"));
    let input = Input::Complete { owner, job: i, digest, verified, wall_seconds, cpu_seconds };
    let out = {
        let mut sched = lock(&ctx.shared.sched); // lint: lock-order(orchestrator.machine)
        let out = ctx.step(&mut sched, input);
        let committed = match out.first() {
            Some(Output::Commit { stats, .. }) => {
                Some(commit(ctx, &mut sched.manifest, i, digest, stats))
            }
            _ => None,
        };
        match (committed, text) {
            (Some(Err(err)), _) => ctx.step(&mut sched, Input::Abort(err)),
            (Some(Ok(())), Ok(text)) => {
                sched.payloads.insert(i, text);
                out
            }
            _ => out,
        }
    };
    if out.is_empty() {
        telemetry::metrics::counter("coord.stale_completes").inc();
    }
    ctx.publish(out);
}

/// The coordinator's side of a `Commit`: the completion is journalled,
/// then recorded as a manifest generation. WAL ordering: the completion
/// is durable (journal line + content store) *before* the manifest
/// generation exists, so a coordinator killed in between is healed by
/// replay. A journal append failure degrades to manifest-only
/// durability — the run itself stays correct.
fn commit(
    ctx: &SessionCtx<'_>,
    manifest: &mut Manifest,
    i: usize,
    digest: u64,
    stats: &JobStats,
) -> Result<(), OrchestratorError> {
    let job = &ctx.plan.jobs[i].id;
    let _ = ctx.journal.append(&JournalRecord::Completed { job: job.clone(), digest });
    let attempt = stats.attempts - 1;
    let kill = ctx.opts.faults.as_ref().and_then(|p| p.fault(Phase::Coordinator, job, attempt));
    if let Some(entry) = kill {
        // `kill-coord`: die inside the journal→manifest window — the
        // exact crash `--resume` must heal.
        let _ = entry.strike(attempt, &[]);
    }
    manifest
        .commit(ctx.dir, ctx.store, job, digest, stats, ctx.opts.keep_generations)
        .map_err(|e| OrchestratorError::io(Manifest::path(ctx.dir), e))
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
