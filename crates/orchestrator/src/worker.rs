//! Worker side of the multi-process seam: the claim/execute/report loop
//! that `netshare_worker` runs against a [`crate::coord::Coordinator`].
//!
//! lint: io-boundary — this module owns the worker's control-channel
//! socket; raw socket I/O anywhere else in the workspace trips the
//! `blocking-accept-loop` lint.
//!
//! A worker is deliberately dumb: it holds no scheduler state, just a
//! registry of named executors. It dials the coordinator, claims one job
//! at a time, pulls dependency payloads out of the shared content store
//! by digest, runs the executor under `catch_unwind` while a forwarding
//! loop relays [`Heartbeat`] beats over the control channel, writes the
//! result back through the store, and reports only the digest. Crashing
//! at any point is safe: the coordinator requeues whatever the worker
//! had claimed (connection loss or heartbeat staleness) and the store's
//! atomic writes mean a half-written object is never visible under its
//! address.
//!
//! Faults travel *with the work*: the coordinator forwards its
//! [`FaultPlan`] in `CoordHello` and the worker strikes attempt faults
//! (panic/transient/hang, under a `catch_unwind` → `Fail` frames),
//! persist faults (slow-io and the corrupt-* classes strike the object
//! bytes through the same [`put_with_fault`] the thread pool persists
//! with, so the coordinator's digest verification must catch them), and
//! the process fault (`kill-worker` aborts the process, no cleanup,
//! simulating SIGKILL/OOM-kill of a worker box).
//!
//! A dropped control channel is not fatal: the worker re-dials and
//! re-handshakes up to [`WorkerOptions::reconnects`] times under seeded
//! exponential [`Backoff`], so it survives a coordinator that crashes
//! and is restarted with `--resume`. Reconnecting is safe because the
//! coordinator requeues a disconnected worker's assignments, executors
//! are deterministic, and the store dedups identical payloads — a
//! re-run attempt converges on the same digest. Protocol-level faults
//! (version skew, `run-failed`, malformed frames) stay fatal: retrying
//! cannot fix them.

use crate::backoff::Backoff;
use crate::cancel::CancelToken;
use crate::fault::{put_with_fault, FaultPlan, Phase};
use crate::coord::{read_ctrl, send_ctrl, CtrlError, CtrlFrame, COORD_VERSION};
use crate::dag::panic_message;
use crate::manifest::fnv1a64;
use crate::store::{FsStore, ObjectStore};
use crate::timing::{measure, Heartbeat};
use crate::wire;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Cadence of heartbeat frames relayed while an executor runs.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// Everything an executor sees about the assignment it is running.
pub struct ExecCtx<'a> {
    /// Job id.
    pub job: &'a str,
    /// Zero-based attempt number (global across workers).
    pub attempt: u32,
    /// The opaque spec from the plan (JSON with a `kind` discriminator).
    pub spec: &'a str,
    /// Dependency payload text, keyed by dependency job id (fetched from
    /// the store and digest-verified before the executor starts).
    pub deps: &'a BTreeMap<String, String>,
    /// Liveness beacon: beat it from long loops or the coordinator's
    /// staleness watchdog will cancel and requeue the attempt.
    pub heartbeat: &'a Heartbeat,
    /// Cooperative cancellation (process shutdown).
    pub cancel: &'a CancelToken,
}

/// A named job body: spec + verified dependency payloads in, payload
/// text out (persisted to the store by the claim loop, never by the
/// executor itself).
pub type Executor = Box<dyn Fn(&ExecCtx<'_>) -> Result<String, String> + Send + Sync>;

/// Dispatch table from spec `kind` to [`Executor`].
#[derive(Default)]
pub struct ExecutorRegistry {
    by_kind: BTreeMap<String, Executor>,
}

/// Peeks at a spec's `kind` discriminator without binding the rest of
/// its schema (extra fields are ignored by the decoder).
#[derive(Deserialize)]
struct KindProbe {
    kind: String,
}

impl ExecutorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ExecutorRegistry::default()
    }

    /// The registry with every built-in executor (currently `sim-chunk`,
    /// the deterministic training stand-in the scale-out tests use).
    pub fn builtin() -> Self {
        let mut r = ExecutorRegistry::new();
        r.register("sim-chunk", Box::new(sim_chunk));
        r
    }

    /// Registers (or replaces) the executor for a spec kind.
    pub fn register(&mut self, kind: &str, exec: Executor) {
        self.by_kind.insert(kind.to_string(), exec);
    }

    /// Resolves a spec to its executor via the `kind` discriminator.
    pub fn resolve(&self, spec: &str) -> Result<&Executor, String> {
        let probe: KindProbe = serde_json::from_str(spec)
            .map_err(|e| format!("spec has no readable `kind` field: {e}"))?;
        self.by_kind
            .get(&probe.kind)
            .ok_or_else(|| format!("no executor registered for kind `{}`", probe.kind))
    }
}

/// Schema of the built-in `sim-chunk` spec (the `kind` field is the
/// registry's dispatch key and is not re-read here).
#[derive(Deserialize)]
struct SimSpec {
    seed: u64,
    steps: u64,
}

/// The built-in executor: a seeded LCG "training loop" that folds every
/// dependency payload into its state, beats the heartbeat as it goes,
/// and emits a small JSON payload. Deterministic in `(spec, deps)`, so
/// reruns on any worker topology produce bitwise-identical objects —
/// which is exactly what the kill-worker equivalence tests assert.
fn sim_chunk(ctx: &ExecCtx<'_>) -> Result<String, String> {
    let spec: SimSpec =
        serde_json::from_str(ctx.spec).map_err(|e| format!("bad sim-chunk spec: {e}"))?;
    let mut h = spec.seed ^ 0xcbf2_9ce4_8422_2325;
    for (id, text) in ctx.deps {
        h ^= crate::manifest::fnv1a64(id.as_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= crate::manifest::fnv1a64(text.as_bytes());
    }
    for step in 0..spec.steps {
        h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407 ^ step);
        if step % 16 == 0 {
            ctx.heartbeat.beat(step);
            if ctx.cancel.is_cancelled() {
                return Err(format!(
                    "cancelled at step {step}: {}",
                    ctx.cancel.reason().unwrap_or_default()
                ));
            }
        }
    }
    ctx.heartbeat.beat(spec.steps);
    Ok(format!(
        r#"{{"job":"{}","state":"{:016x}","steps":{}}}"#,
        ctx.job, h, spec.steps
    ))
}

/// Knobs of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Name sent in `WorkerHello` (event attribution and diagnostics).
    pub worker_id: String,
    /// How long to keep retrying the initial connect (the coordinator
    /// may bind after the worker launches).
    pub connect_timeout: Duration,
    /// How many times a dropped control channel is re-dialed before the
    /// worker gives up. Completing a job refills the budget, so a
    /// long-lived worker is not starved by unrelated earlier drops.
    pub reconnects: u32,
    /// Base delay of the reconnect backoff (doubles per consecutive
    /// failure, seeded jitter, capped at 16x the base).
    pub reconnect_backoff: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            worker_id: format!("worker-{}", std::process::id()),
            connect_timeout: Duration::from_secs(10),
            reconnects: 3,
            reconnect_backoff: Duration::from_millis(100),
        }
    }
}

/// What a drained worker did with its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Jobs completed (verified object put + `Complete` sent).
    pub completed: u64,
    /// Attempts reported as `Fail` (injected faults, executor errors,
    /// missing dependencies).
    pub failed: u64,
}

/// Why one control-channel session ended early.
enum SessionError {
    /// The socket died (coordinator crash, reset, torn frame) — a fresh
    /// dial may land on a restarted coordinator.
    Transport(String),
    /// Version skew, run failure, or a protocol violation — retrying
    /// cannot change the outcome.
    Fatal(String),
}

/// Dials the coordinator at `addr` and runs the claim loop until the run
/// drains (`Ok`), the run fails or the protocol breaks (`Err`), or
/// `token` fires (`Ok` with whatever was done so far). A dropped control
/// channel is re-dialed up to `opts.reconnects` times with seeded
/// exponential backoff; completing a job refills the budget.
pub fn run_worker(
    addr: &str,
    opts: &WorkerOptions,
    registry: &ExecutorRegistry,
    token: &CancelToken,
) -> Result<WorkerReport, String> {
    let mut report = WorkerReport { completed: 0, failed: 0 };
    let mut budget = opts.reconnects;
    let cap = opts.reconnect_backoff.saturating_mul(16);
    let mut backoff =
        Backoff::new(opts.reconnect_backoff, cap, fnv1a64(opts.worker_id.as_bytes()));
    // The first dial tolerates a coordinator that has not bound yet;
    // re-dials keep the window short so an orphaned worker (coordinator
    // gone for good) drains its budget in seconds, not minutes.
    let mut connect_window = opts.connect_timeout;
    loop {
        let before = report.completed;
        match run_session(addr, connect_window, opts, registry, token, &mut report) {
            Ok(()) => return Ok(report),
            Err(SessionError::Fatal(e)) => return Err(e),
            Err(SessionError::Transport(e)) => {
                if token.is_cancelled() {
                    return Ok(report);
                }
                if report.completed > before {
                    budget = opts.reconnects;
                    backoff.reset();
                }
                if budget == 0 {
                    return Err(format!(
                        "control channel lost and reconnects exhausted: {e}"
                    ));
                }
                budget -= 1;
                telemetry::metrics::counter("worker.reconnects").inc();
                eprintln!(
                    "worker[{}]: control channel lost ({e}); reconnecting ({budget} left)",
                    opts.worker_id
                );
                if backoff.sleep(token) {
                    return Ok(report);
                }
                connect_window = opts.connect_timeout.min(Duration::from_secs(2));
            }
        }
    }
}

/// One control-channel session: dial, handshake, claim until drained.
/// Clean exits (drained, cancelled) are `Ok`; everything else is
/// classified for the reconnect loop above.
fn run_session(
    addr: &str,
    connect_window: Duration,
    opts: &WorkerOptions,
    registry: &ExecutorRegistry,
    token: &CancelToken,
    report: &mut WorkerReport,
) -> Result<(), SessionError> {
    let mut sock =
        connect_with_retry(addr, connect_window, token).map_err(SessionError::Transport)?;
    wire::configure(&sock).map_err(|e| SessionError::Transport(e.to_string()))?;
    send_ctrl(
        &mut sock,
        &CtrlFrame::WorkerHello { version: COORD_VERSION, worker: opts.worker_id.clone() },
        token,
    )
    .map_err(SessionError::Transport)?;
    let (store_dir, faults) = match read_session_ctrl(&mut sock, token)? {
        CtrlFrame::CoordHello { version, store_dir, fault_spec, .. } => {
            if version != COORD_VERSION {
                return Err(SessionError::Fatal(format!(
                    "coordinator speaks v{version}, worker v{COORD_VERSION}"
                )));
            }
            let faults = fault_spec.as_deref().map(FaultPlan::parse).transpose();
            (store_dir, faults.map_err(SessionError::Fatal)?)
        }
        CtrlFrame::Error { code, message } => {
            return Err(SessionError::Fatal(format!("{code}: {message}")));
        }
        other => {
            return Err(SessionError::Fatal(format!("expected CoordHello, got {other:?}")));
        }
    };
    let store = FsStore::open(Path::new(&store_dir))
        .map_err(|e| SessionError::Fatal(format!("open store at {store_dir}: {e}")))?;

    loop {
        if token.is_cancelled() {
            return Ok(());
        }
        send_ctrl(&mut sock, &CtrlFrame::Claim, token).map_err(SessionError::Transport)?;
        match read_session_ctrl(&mut sock, token)? {
            CtrlFrame::Wait { poll_ms } => {
                if token.wait_timeout(Duration::from_millis(poll_ms)) {
                    return Ok(());
                }
            }
            CtrlFrame::Drained => return Ok(()),
            CtrlFrame::Error { code, message } => {
                return Err(SessionError::Fatal(format!("{code}: {message}")));
            }
            CtrlFrame::Assign { job, attempt, spec, deps } => {
                telemetry::metrics::counter("worker.claims").inc();
                execute_assignment(
                    &mut sock,
                    &store,
                    registry,
                    faults.as_ref(),
                    &job,
                    attempt,
                    &spec,
                    &deps,
                    token,
                    report,
                )
                .map_err(SessionError::Transport)?;
            }
            other => {
                return Err(SessionError::Fatal(format!("unexpected frame {other:?}")));
            }
        }
    }
}

/// Reads one frame, classifying the failure: byte-layer faults are
/// transport (reconnectable), undecodable payloads are protocol-fatal.
fn read_session_ctrl(
    sock: &mut TcpStream,
    token: &CancelToken,
) -> Result<CtrlFrame, SessionError> {
    read_ctrl(sock, token).map_err(|e| match e {
        CtrlError::Wire(w) => SessionError::Transport(w.to_string()),
        CtrlError::Malformed(m) => {
            SessionError::Fatal(format!("malformed control frame: {m}"))
        }
    })
}

/// Retries `connect` until it lands, `deadline` passes, or `token` fires
/// (the coordinator may not have bound yet when the worker launches).
/// Dial attempts back off exponentially with seeded jitter so a fleet of
/// workers launched together does not thundering-herd the listener.
fn connect_with_retry(
    addr: &str,
    deadline: Duration,
    token: &CancelToken,
) -> Result<TcpStream, String> {
    let clock = crate::timing::Stopwatch::start();
    let mut backoff =
        Backoff::new(Duration::from_millis(25), Duration::from_millis(250), fnv1a64(addr.as_bytes()));
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if clock.elapsed_seconds() >= deadline.as_secs_f64() {
                    return Err(format!("connect {addr}: {e}"));
                }
                if backoff.sleep(token) {
                    return Err("cancelled before connecting".to_string());
                }
            }
        }
    }
}

/// Runs one assignment end to end: fault strikes, dependency fetch,
/// executor under `catch_unwind` with heartbeat relay, persist, report.
#[allow(clippy::too_many_arguments)]
fn execute_assignment(
    sock: &mut TcpStream,
    store: &FsStore,
    registry: &ExecutorRegistry,
    faults: Option<&FaultPlan>,
    job: &str,
    attempt: u32,
    spec: &str,
    dep_digests: &BTreeMap<String, u64>,
    token: &CancelToken,
    report: &mut WorkerReport,
) -> Result<(), String> {
    let fail = |sock: &mut TcpStream, report: &mut WorkerReport, error: String| {
        telemetry::metrics::counter("worker.failures").inc();
        report.failed += 1;
        send_ctrl(sock, &CtrlFrame::Fail { job: job.to_string(), error }, token)
    };

    let planned = |phase| faults.and_then(|p| p.fault(phase, job, attempt));
    if let Some(entry) = planned(Phase::Process) {
        // Simulated SIGKILL/OOM-kill: the coordinator finds out from the
        // dead socket.
        let _ = entry.strike(attempt, &[token]);
    }
    if let Some(entry) = planned(Phase::Attempt) {
        // A hang wedges this worker until process shutdown; the
        // coordinator's heartbeat watchdog requeues the job elsewhere.
        let struck = std::panic::catch_unwind(|| entry.strike(attempt, &[token]));
        let error = match struck {
            Ok(result) => result.err().unwrap_or_default(),
            Err(p) => format!("panicked: {}", panic_message(&*p)),
        };
        return fail(sock, report, error);
    }

    // Dependency payloads come from the store, digest-verified.
    let mut deps = BTreeMap::new();
    for (id, digest) in dep_digests {
        match store.get(*digest).map_err(|e| e.to_string()).and_then(|b| {
            String::from_utf8(b).map_err(|e| format!("dep not UTF-8: {e}"))
        }) {
            Ok(text) => {
                deps.insert(id.clone(), text);
            }
            Err(e) => {
                return fail(sock, report, format!("dependency `{id}` unavailable: {e}"));
            }
        }
    }

    let exec = match registry.resolve(spec) {
        Ok(e) => e,
        Err(e) => return fail(sock, report, e),
    };

    // The executor runs on its own thread so this thread can keep the
    // control channel warm: the coordinator's staleness watchdog sees a
    // beat every relay, and a genuinely stuck executor stops the relay's
    // step counter from advancing.
    let heartbeat = Heartbeat::new();
    let (result, wall_seconds, cpu_seconds) = std::thread::scope(|s| {
        let hb = &heartbeat;
        let handle = s.spawn(move || {
            measure(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    exec(&ExecCtx { job, attempt, spec, deps: &deps, heartbeat: hb, cancel: token })
                }))
            })
        });
        while !handle.is_finished() {
            let _ = send_ctrl(
                sock,
                &CtrlFrame::Heartbeat { job: job.to_string(), steps: heartbeat.steps() },
                token,
            );
            if token.wait_timeout(HEARTBEAT_EVERY) {
                break;
            }
        }
        // lint: allow(panic-in-lib) executor panics are caught inside the thread
        handle.join().expect("executor thread")
    });

    let payload = match result {
        Ok(Ok(text)) => text,
        Ok(Err(e)) => return fail(sock, report, e),
        Err(p) => return fail(sock, report, format!("panicked: {}", panic_message(&*p))),
    };

    // Persist faults strike the object bytes themselves; the
    // coordinator's digest verification must catch every corrupt class
    // and requeue (the next attempt's put() heals the rotten object). A
    // torn write is reported like any other: the "process" died mid-write,
    // so the object never exists at the address it claims.
    let (digest, _landed) = put_with_fault(store, payload.as_bytes(), faults, job, attempt, token)
        .map_err(|e| format!("persist: {e}"))?;
    telemetry::metrics::counter("worker.completions").inc();
    report.completed += 1;
    send_ctrl(
        sock,
        &CtrlFrame::Complete { job: job.to_string(), digest, wall_seconds, cpu_seconds },
        token,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        spec: &'a str,
        deps: &'a BTreeMap<String, String>,
        hb: &'a Heartbeat,
        cancel: &'a CancelToken,
    ) -> ExecCtx<'a> {
        ExecCtx { job: "chunk-1", attempt: 0, spec, deps, heartbeat: hb, cancel }
    }

    #[test]
    fn registry_dispatches_on_the_kind_discriminator() {
        let reg = ExecutorRegistry::builtin();
        assert!(reg.resolve(r#"{"kind":"sim-chunk","seed":1,"steps":4}"#).is_ok());
        let ghost = reg.resolve(r#"{"kind":"ghost"}"#).err().unwrap();
        assert!(ghost.contains("no executor registered"), "{ghost}");
        let bad = reg.resolve("not json").err().unwrap();
        assert!(bad.contains("kind"), "{bad}");
    }

    #[test]
    fn sim_chunk_is_deterministic_in_spec_and_deps() {
        let reg = ExecutorRegistry::builtin();
        let hb = Heartbeat::new();
        let cancel = CancelToken::new();
        let spec = r#"{"kind":"sim-chunk","seed":7,"steps":64}"#;
        let deps: BTreeMap<String, String> =
            [("pretrain".to_string(), "base".to_string())].into_iter().collect();
        let exec = reg.resolve(spec).unwrap();
        let a = exec(&ctx(spec, &deps, &hb, &cancel)).unwrap();
        let b = exec(&ctx(spec, &deps, &hb, &cancel)).unwrap();
        assert_eq!(a, b, "same inputs, same payload");
        assert!(hb.steps() >= 64, "executor beat its heartbeat");

        let other_spec = r#"{"kind":"sim-chunk","seed":8,"steps":64}"#;
        assert_ne!(a, exec(&ctx(other_spec, &deps, &hb, &cancel)).unwrap());
        let other_deps: BTreeMap<String, String> =
            [("pretrain".to_string(), "different".to_string())].into_iter().collect();
        assert_ne!(a, exec(&ctx(spec, &other_deps, &hb, &cancel)).unwrap());
    }

    #[test]
    fn sim_chunk_honors_cancellation() {
        let reg = ExecutorRegistry::builtin();
        let hb = Heartbeat::new();
        let cancel = CancelToken::new();
        cancel.cancel("test shutdown");
        let spec = r#"{"kind":"sim-chunk","seed":7,"steps":1000000}"#;
        let deps = BTreeMap::new();
        let err = reg.resolve(spec).unwrap()(&ctx(spec, &deps, &hb, &cancel)).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
    }

    #[test]
    fn default_worker_options_name_the_process() {
        let opts = WorkerOptions::default();
        assert!(opts.worker_id.starts_with("worker-"));
        assert!(opts.connect_timeout >= Duration::from_secs(1));
    }
}
