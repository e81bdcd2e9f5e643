//! `netshare_cli` — one-shot synthetic trace generation from the command
//! line, the workflow the paper envisions for data holders (§5: share the
//! *generated traces*, not the model).
//!
//! ```text
//! netshare_cli synth-flows   real.csv  synthetic.csv  [options]
//! netshare_cli synth-packets real.pcap synthetic.pcap [options]
//! netshare_cli pull          host:port artifact       [pull options]
//! netshare_cli coord         run-dir                  [coord options]
//! netshare_cli gc            run-dir
//!
//! pull options (client of the `netshared` streaming daemon):
//!   --count <N>        samples to pull (default 100)
//!   --credit <C>       DATA-frame flow-control window (default 4)
//!   --retries <R>      reconnects allowed on retryable serving faults
//!                      (connection loss, `draining`, `overloaded`);
//!                      resumes from the last delivered frame (default 0)
//!   --backoff-ms <B>   base reconnect backoff in milliseconds, doubling
//!                      per attempt with seeded jitter (default 100)
//!   --out <file>       write samples as JSONL there (default: stdout)
//!   --metrics-out <f>  write the telemetry metrics snapshot (JSON) there
//!
//! coord options (multi-process scale-out; see OPERATIONS.md):
//!   --chunks <N>       sim-chunk jobs after pretrain (default 4)
//!   --steps <S>        sim steps per job (default 256)
//!   --seed <U64>       sim seed (default 17)
//!   --addr <A>         control-socket bind address (default 127.0.0.1:0)
//!   --addr-file <f>    write the bound address there (for hand-started
//!                      workers polling it)
//!   --workers-procs <N>  netshare_worker processes to spawn (default 2;
//!                      0 = spawn none, workers are started by hand)
//!   --resume           skip jobs the manifest verifies
//!   --retries <R>      requeues per failed job (default 2)
//!   --max-job-secs <S> watchdog deadline per assignment (default: none)
//!   --keep-generations <K>  verified generations kept per job
//!
//! `gc` sweeps `run-dir/objects/` of every object neither a manifest
//! generation nor `codec.json` references (safe while no run is active;
//! quarantine evidence is kept).
//!
//! options:
//!   --n <count>        records/packets to generate (default: input size)
//!   --chunks <M>       time chunks (default 10)
//!   --steps <S>        seed-chunk generator steps (default 300)
//!   --labels           model the benign/attack labels (flow CSV only)
//!   --dp <sigma>       train with DP-SGD at noise multiplier sigma
//!   --private-ips      remap generated IPs into 10.0.0.0/8
//!   --seed <u64>       RNG seed (default 17)
//!   --workers <W>      training-job worker threads (default: one per core)
//!   --ckpt-dir <dir>   persist per-job checkpoints + events.jsonl there
//!   --resume           skip jobs the checkpoint manifest verifies
//!   --retries <R>      retries per failed training job (default 2)
//!   --max-job-secs <S> watchdog deadline per job attempt (default: none)
//!   --keep-generations <K>  verified checkpoint generations kept per job
//!   --rollback-budget <B>   divergence-sentinel rollbacks per job
//!   --metrics-out <f>  write the telemetry metrics snapshot (JSON) there
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, parse, a fatal
//! protocol error on `pull`), `2` usage error (bad flags or a malformed
//! injection spec), `3` training failure (a job exhausted its retries —
//! watchdog cancellations, divergence past the rollback budget, panics),
//! `4` pull retries exhausted (every attempt failed with a *retryable*
//! serving fault — the server stayed down, draining, or overloaded —
//! so re-running later may succeed, unlike exit 1).
//!
//! Fault hooks for CI: `NETSHARE_INJECT_FAULT` holds one fault plan in
//! the grammar of DESIGN.md §9 — `;`-joined job items
//! (`job:class[:count]`, legacy `job:count` = transient), wire items
//! (`class:count`, striking *this* process's sockets) and an optional
//! `seed=U64` — and `NETSHARE_INJECT_DIVERGENCE` takes `job:step` to
//! poison a model mid-training. Malformed specs are usage errors (exit 2)
//! that cite the grammar.

use netshare::flowcodec::FlowCodec;
use netshare::packetcodec::PacketCodec;
use netshare::{postprocess, DpOptions, NetShare, NetShareConfig, TraceCodec};
use std::process::ExitCode;

struct Options {
    n: Option<usize>,
    cfg: NetShareConfig,
    private_ips: bool,
    metrics_out: Option<std::path::PathBuf>,
}

/// A bad invocation (unknown flag, missing value, wrong arity) — reported
/// with the usage text and exit code 2, unlike runtime failures (exit 1).
struct UsageError(String);

fn usage() -> ExitCode {
    eprintln!(
        "usage: netshare_cli <synth-flows|synth-packets> <input> <output> \
         [--n N] [--chunks M] [--steps S] [--labels] [--dp SIGMA] [--private-ips] [--seed U64] \
         [--workers W] [--ckpt-dir DIR] [--resume] [--retries R] [--max-job-secs S] \
         [--keep-generations K] [--rollback-budget B] [--metrics-out FILE]\n\
         \x20      netshare_cli pull <host:port> <artifact> \
         [--count N] [--credit C] [--retries R] [--backoff-ms B] \
         [--out FILE] [--metrics-out FILE]\n\
         \x20      netshare_cli coord <run-dir> [--chunks N] [--steps S] [--seed U64] \
         [--addr A] [--addr-file FILE] [--workers-procs N] [--resume] [--retries R] \
         [--max-job-secs S] [--keep-generations K]\n\
         \x20      netshare_cli gc <run-dir>"
    );
    ExitCode::from(2)
}

/// Validates the divergence hook before any input is read: a typo'd spec
/// must be exit-code-2 loud, not silently ignored. Split out from
/// [`parse_options`] so tests can exercise the grammar check without
/// mutating the process environment.
fn validate_divergence(spec: Option<&str>) -> Result<(), String> {
    match spec.map(netshare::parse_divergence_spec) {
        Some(Err(e)) => Err(format!("NETSHARE_INJECT_DIVERGENCE: {e}")),
        _ => Ok(()),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut cfg = NetShareConfig::default_config();
    let mut n = None;
    let mut private_ips = false;
    let mut metrics_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--n" => n = Some(value("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
            "--chunks" => {
                cfg.n_chunks = value("--chunks")?.parse().map_err(|e| format!("--chunks: {e}"))?
            }
            "--steps" => {
                cfg.seed_steps = value("--steps")?.parse().map_err(|e| format!("--steps: {e}"))?;
                cfg.finetune_steps = (cfg.seed_steps / 5).max(10);
            }
            "--labels" => cfg.with_labels = true,
            "--dp" => {
                let sigma: f32 = value("--dp")?.parse().map_err(|e| format!("--dp: {e}"))?;
                cfg.dp = Some(DpOptions {
                    noise_multiplier: sigma,
                    clip_norm: 1.0,
                    delta: 1e-5,
                    public_pretrain_steps: cfg.seed_steps / 2,
                    pretrain_source: Default::default(),
                });
            }
            "--private-ips" => private_ips = true,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workers" => {
                cfg.orchestrator.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--ckpt-dir" => cfg.orchestrator.checkpoint_dir = Some(value("--ckpt-dir")?.into()),
            "--resume" => cfg.orchestrator.resume = true,
            "--retries" => {
                cfg.orchestrator.max_retries =
                    Some(value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?)
            }
            "--max-job-secs" => {
                cfg.orchestrator.max_job_secs = Some(
                    value("--max-job-secs")?
                        .parse()
                        .map_err(|e| format!("--max-job-secs: {e}"))?,
                )
            }
            "--keep-generations" => {
                cfg.orchestrator.keep_generations = Some(
                    value("--keep-generations")?
                        .parse()
                        .map_err(|e| format!("--keep-generations: {e}"))?,
                )
            }
            "--rollback-budget" => {
                cfg.orchestrator.rollback_budget = Some(
                    value("--rollback-budget")?
                        .parse()
                        .map_err(|e| format!("--rollback-budget: {e}"))?,
                )
            }
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?.into()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if cfg.orchestrator.resume && cfg.orchestrator.checkpoint_dir.is_none() {
        return Err("--resume requires --ckpt-dir".into());
    }
    // The CI divergence hook; the config field is the programmatic path
    // (the fault plan is read in `main`).
    let divergence = std::env::var("NETSHARE_INJECT_DIVERGENCE").ok();
    validate_divergence(divergence.as_deref())?;
    cfg.orchestrator.divergence_spec = divergence;
    Ok(Options { n, cfg, private_ips, metrics_out })
}

/// A `pull` invocation: stream samples from a running `netshared` daemon.
struct PullArgs {
    addr: String,
    artifact: String,
    count: u64,
    credit: u32,
    retries: u32,
    backoff_ms: u64,
    out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
}

fn parse_pull_options(addr: &str, artifact: &str, args: &[String]) -> Result<PullArgs, String> {
    let mut pull = PullArgs {
        addr: addr.to_string(),
        artifact: artifact.to_string(),
        count: 100,
        credit: 4,
        retries: 0,
        backoff_ms: 100,
        out: None,
        metrics_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--count" => {
                pull.count = value("--count")?.parse().map_err(|e| format!("--count: {e}"))?
            }
            "--credit" => {
                pull.credit = value("--credit")?.parse().map_err(|e| format!("--credit: {e}"))?
            }
            "--retries" => {
                pull.retries = value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?
            }
            "--backoff-ms" => {
                pull.backoff_ms =
                    value("--backoff-ms")?.parse().map_err(|e| format!("--backoff-ms: {e}"))?
            }
            "--out" => pull.out = Some(value("--out")?.into()),
            "--metrics-out" => pull.metrics_out = Some(value("--metrics-out")?.into()),
            other => return Err(format!("unknown pull option {other}")),
        }
    }
    if pull.credit == 0 {
        return Err("--credit must be at least 1".into());
    }
    if pull.backoff_ms == 0 {
        return Err("--backoff-ms must be at least 1".into());
    }
    Ok(pull)
}

/// A `coord <run-dir>` invocation: serve a simulated chunk plan to
/// external `netshare_worker` processes through the content store.
struct CoordArgs {
    dir: String,
    chunks: usize,
    steps: u64,
    seed: u64,
    addr: String,
    addr_file: Option<std::path::PathBuf>,
    worker_procs: usize,
    resume: bool,
    retries: u32,
    max_job_secs: Option<f64>,
    keep_generations: usize,
}

fn parse_coord_options(dir: &str, args: &[String]) -> Result<CoordArgs, String> {
    let mut coord = CoordArgs {
        dir: dir.to_string(),
        chunks: 4,
        steps: 256,
        seed: 17,
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        worker_procs: 2,
        resume: false,
        retries: 2,
        max_job_secs: None,
        keep_generations: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--chunks" => {
                coord.chunks = value("--chunks")?.parse().map_err(|e| format!("--chunks: {e}"))?
            }
            "--steps" => {
                coord.steps = value("--steps")?.parse().map_err(|e| format!("--steps: {e}"))?
            }
            "--seed" => coord.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--addr" => coord.addr = value("--addr")?,
            "--addr-file" => coord.addr_file = Some(value("--addr-file")?.into()),
            "--workers-procs" => {
                coord.worker_procs = value("--workers-procs")?
                    .parse()
                    .map_err(|e| format!("--workers-procs: {e}"))?
            }
            "--resume" => coord.resume = true,
            "--retries" => {
                coord.retries = value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?
            }
            "--max-job-secs" => {
                coord.max_job_secs = Some(
                    value("--max-job-secs")?
                        .parse()
                        .map_err(|e| format!("--max-job-secs: {e}"))?,
                )
            }
            "--keep-generations" => {
                coord.keep_generations = value("--keep-generations")?
                    .parse()
                    .map_err(|e| format!("--keep-generations: {e}"))?
            }
            other => return Err(format!("unknown coord option {other}")),
        }
    }
    if coord.chunks == 0 {
        return Err("--chunks must be at least 1".into());
    }
    Ok(coord)
}

/// One validated invocation: local synthesis, a daemon pull, a
/// multi-process coordinator run, or a store sweep.
enum Command {
    Synth { mode: String, input: String, output: String, opts: Box<Options> },
    Pull(PullArgs),
    Coord(Box<CoordArgs>),
    Gc { dir: String },
}

/// Full command-line validation: arity, mode, and options. Everything
/// wrong here is the *caller's* invocation, not a runtime failure.
fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    match args.first().map(String::as_str) {
        Some("gc") => {
            return match args {
                [_, dir] => Ok(Command::Gc { dir: dir.clone() }),
                _ => Err(UsageError("gc takes exactly one run directory".into())),
            };
        }
        Some("coord") => {
            let dir = args.get(1).ok_or_else(|| UsageError("coord needs a run directory".into()))?;
            let coord = parse_coord_options(dir, &args[2..]).map_err(UsageError)?;
            return Ok(Command::Coord(Box::new(coord)));
        }
        _ => {}
    }
    if args.len() < 3 {
        return Err(UsageError("missing arguments".into()));
    }
    let mode = args[0].clone();
    if mode == "pull" {
        let pull = parse_pull_options(&args[1], &args[2], &args[3..]).map_err(UsageError)?;
        return Ok(Command::Pull(pull));
    }
    if mode != "synth-flows" && mode != "synth-packets" {
        return Err(UsageError(format!("unknown mode {mode}")));
    }
    let opts = parse_options(&args[3..]).map_err(UsageError)?;
    Ok(Command::Synth { mode, input: args[1].clone(), output: args[2].clone(), opts: Box::new(opts) })
}

/// How a valid invocation failed, mapped onto the exit-code taxonomy:
/// `Runtime` → 1, `Training` → 3, `Exhausted` → 4 (a `pull` whose every
/// attempt failed retryably — re-running later may succeed). A late
/// `Config` error — reachable only through the programmatic API —
/// counts as runtime.
enum RunError {
    Runtime(String),
    Training(String),
    Exhausted(String),
}

fn classify(e: netshare::PipelineError) -> RunError {
    match e {
        netshare::PipelineError::Training { .. } => RunError::Training(e.to_string()),
        other => RunError::Runtime(other.to_string()),
    }
}

/// The middle of a synth run, the same for either kind of trace: fit,
/// report the DP guarantee, generate `--n` (default: as many as read).
fn synthesize<C: TraceCodec>(real: &C::Trace, opts: &Options) -> Result<C::Trace, RunError> {
    let mut model = NetShare::<C>::fit(real, &opts.cfg).map_err(classify)?;
    if let Some(eps) = model.epsilon() {
        eprintln!("DP guarantee: (ε = {eps:.2}, δ = 1e-5)");
    }
    Ok(model.generate(opts.n.unwrap_or(C::records(real).len())))
}

fn run(mode: &str, input: &str, output: &str, opts: &Options) -> Result<(), RunError> {
    match mode {
        "synth-flows" => {
            let csv = std::fs::read_to_string(input).map_err(|e| RunError::Runtime(format!("read {input}: {e}")))?;
            let real = nettrace::netflow::read_netflow_csv(&csv)
                .map_err(|e| RunError::Runtime(format!("parse {input}: {e}")))?;
            eprintln!("read {} flow records from {input}", real.len());
            let mut synth = synthesize::<FlowCodec>(&real, opts)?;
            if opts.private_ips {
                postprocess::transform_ips_flow(
                    &mut synth,
                    postprocess::DEFAULT_PRIVATE_BASE,
                    postprocess::DEFAULT_PRIVATE_PREFIX,
                    opts.cfg.seed,
                );
            }
            std::fs::write(output, postprocess::to_netflow_csv(&synth))
                .map_err(|e| RunError::Runtime(format!("write {output}: {e}")))?;
            eprintln!("wrote {} synthetic records to {output}", synth.len());
        }
        "synth-packets" => {
            let bytes = std::fs::read(input).map_err(|e| RunError::Runtime(format!("read {input}: {e}")))?;
            let real =
                nettrace::pcap::read_pcap(&bytes).map_err(|e| RunError::Runtime(format!("parse {input}: {e}")))?;
            eprintln!("read {} packets from {input}", real.len());
            let mut synth = synthesize::<PacketCodec>(&real, opts)?;
            if opts.private_ips {
                postprocess::transform_ips_packet(
                    &mut synth,
                    postprocess::DEFAULT_PRIVATE_BASE,
                    postprocess::DEFAULT_PRIVATE_PREFIX,
                    opts.cfg.seed,
                );
            }
            std::fs::write(output, postprocess::to_pcap_bytes(&synth))
                .map_err(|e| RunError::Runtime(format!("write {output}: {e}")))?;
            eprintln!("wrote {} synthetic packets to {output}", synth.len());
        }
        other => return Err(RunError::Runtime(format!("unknown mode {other}"))),
    }
    // Dump the telemetry snapshot last so it covers fit + generate.
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, telemetry::metrics::snapshot_json())
            .map_err(|e| RunError::Runtime(format!("write {}: {e}", path.display())))?;
        eprintln!("wrote telemetry metrics snapshot to {}", path.display());
    }
    Ok(())
}

/// Streams `count` samples from a `netshared` daemon and writes them as
/// JSONL (one [`doppelganger::GeneratedSample`] per line).
fn run_pull(args: &PullArgs) -> Result<(), RunError> {
    let cfg = netshared::PullConfig {
        addr: args.addr.clone(),
        artifact: args.artifact.clone(),
        count: args.count,
        credit: args.credit,
        peer: "netshare_cli".to_string(),
        retries: args.retries,
        backoff: std::time::Duration::from_millis(args.backoff_ms),
    };
    let token = orchestrator::CancelToken::new();
    let result = netshared::pull(&cfg, &token).map_err(|e| match e {
        netshared::PullError::Retryable(m) => RunError::Exhausted(m),
        netshared::PullError::Fatal(m) => RunError::Runtime(m),
    })?;
    let mut lines = String::new();
    for sample in &result.samples {
        let line = serde_json::to_string(sample)
            .map_err(|e| RunError::Runtime(format!("encode sample: {e}")))?;
        lines.push_str(&line);
        lines.push('\n');
    }
    match &args.out {
        Some(path) => {
            std::fs::write(path, lines)
                .map_err(|e| RunError::Runtime(format!("write {}: {e}", path.display())))?;
            eprintln!(
                "pulled {} samples ({} frames, {} reconnects) of {:?} from {} to {}",
                result.samples.len(),
                result.frames,
                result.reconnects,
                args.artifact,
                args.addr,
                path.display(),
            );
        }
        None => {
            print!("{lines}");
            eprintln!(
                "pulled {} samples ({} frames, {} reconnects) of {:?} from {}",
                result.samples.len(),
                result.frames,
                result.reconnects,
                args.artifact,
                args.addr,
            );
        }
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, telemetry::metrics::snapshot_json())
            .map_err(|e| RunError::Runtime(format!("write {}: {e}", path.display())))?;
    }
    Ok(())
}

/// Sweeps a run directory's content store of every object neither a
/// manifest generation nor the codec ref references (quarantine evidence
/// is never touched).
fn run_gc(dir: &str) -> Result<(), RunError> {
    use orchestrator::ObjectStore;
    let dir = std::path::Path::new(dir);
    let live = netshare::live_objects(dir);
    let store = orchestrator::FsStore::open(dir)
        .map_err(|e| RunError::Runtime(format!("open store in {}: {e}", dir.display())))?;
    let report = store
        .sweep(&live)
        .map_err(|e| RunError::Runtime(format!("sweep {}: {e}", dir.display())))?;
    for digest in &report.removed {
        println!("removed {digest:#018x}");
    }
    eprintln!(
        "gc: removed {} unreferenced object(s), kept {} live, quarantined {} torn fragment(s)",
        report.removed.len(),
        report.kept,
        report.quarantined_fragments,
    );
    Ok(())
}

/// Binds a coordinator, spawns `netshare_worker` processes against it,
/// and serves a deterministic sim plan from the run directory's store.
fn run_coord(args: &CoordArgs, faults: Option<orchestrator::FaultPlan>) -> Result<(), RunError> {
    let dir = std::path::PathBuf::from(&args.dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| RunError::Runtime(format!("create {}: {e}", dir.display())))?;
    let plan = orchestrator::sim_plan(args.chunks, args.steps, args.seed);
    let opts = orchestrator::CoordOptions {
        run_key: format!("coord-sim-c{}-s{}-r{}", args.chunks, args.steps, args.seed),
        resume: args.resume,
        max_retries: args.retries,
        keep_generations: args.keep_generations,
        faults,
        watchdog: orchestrator::WatchdogOptions {
            max_job_secs: args.max_job_secs,
            // Always armed for multi-process runs: stale heartbeats are
            // how a worker SIGKILLed mid-execution is detected.
            heartbeat_timeout_secs: Some(10.0),
            poll: std::time::Duration::from_millis(100),
        },
        ..Default::default()
    };
    let coord = orchestrator::Coordinator::bind(&args.addr)
        .map_err(|e| RunError::Runtime(e.to_string()))?;
    let addr = coord.local_addr().to_string();
    eprintln!("coordinator listening on {addr}");
    if let Some(path) = &args.addr_file {
        std::fs::write(path, &addr)
            .map_err(|e| RunError::Runtime(format!("write {}: {e}", path.display())))?;
    }

    // Workers are siblings of this binary (Cargo puts every workspace bin
    // in one directory); hand-started workers can join via --addr-file.
    let mut children = Vec::new();
    if args.worker_procs > 0 {
        let worker_bin = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("netshare_worker")))
            .ok_or_else(|| RunError::Runtime("cannot locate netshare_worker".into()))?;
        for w in 0..args.worker_procs {
            let child = std::process::Command::new(&worker_bin)
                .arg(&addr)
                .arg("--worker-id")
                .arg(format!("w{w}"))
                .spawn()
                .map_err(|e| {
                    RunError::Runtime(format!("spawn {}: {e}", worker_bin.display()))
                })?;
            children.push(child);
        }
    }

    let events = orchestrator::EventLog::new()
        .with_file(&dir.join("events.jsonl"))
        .map_err(|e| RunError::Runtime(format!("open events.jsonl: {e}")))?;
    let result = coord.serve(&dir, &plan, &opts, &events);

    // Reap workers but never fail on their exit codes: a kill-worker
    // chaos run aborts one by design, and the run's own success already
    // proves recovery.
    for (w, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("worker w{w} exited with {status}"),
            Err(e) => eprintln!("worker w{w} unreapable: {e}"),
        }
    }

    match result {
        Ok(report) => {
            eprintln!(
                "coordinated run complete: {} executed, {} resumed, {} requeue(s), \
                 {} worker connection(s), {:.2}s",
                report.completed,
                report.skipped,
                report.requeues,
                report.workers_seen,
                report.wall_seconds,
            );
            for (job, digest) in &report.digests {
                println!("{job} {digest:#018x}");
            }
            Ok(())
        }
        Err(e @ orchestrator::OrchestratorError::JobFailed { .. }) => {
            Err(RunError::Training(e.to_string()))
        }
        Err(e) => Err(RunError::Runtime(e.to_string())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Bad invocations get the usage text and exit 2; failures of a valid
    // invocation (unreadable input, training error) exit 1 without the
    // usage noise — scripts can tell "fix the command" from "fix the run".
    let command = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(UsageError(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // The fault plan is parsed once, before any input is read: its wire
    // faults arm this process (a coord run's spawned workers re-arm from
    // their inherited environment), its job faults go to the jobs' engine.
    let faults = match orchestrator::fault::init_from_env() {
        Ok(faults) => faults,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command {
        Command::Pull(pull) => run_pull(&pull),
        Command::Coord(coord) => run_coord(&coord, faults),
        Command::Gc { dir } => run_gc(&dir),
        Command::Synth { mode, input, output, mut opts } => {
            opts.cfg.orchestrator.faults = faults;
            run(&mode, &input, &output, &opts)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(RunError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(RunError::Training(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
        Err(RunError::Exhausted(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_when_no_options() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.n, None);
        assert!(!o.private_ips);
        assert!(o.cfg.dp.is_none());
    }

    #[test]
    fn parses_all_options() {
        let o = opts(&[
            "--n", "500", "--chunks", "3", "--steps", "100", "--labels",
            "--dp", "1.5", "--private-ips", "--seed", "99",
        ])
        .unwrap();
        assert_eq!(o.n, Some(500));
        assert_eq!(o.cfg.n_chunks, 3);
        assert_eq!(o.cfg.seed_steps, 100);
        assert!(o.cfg.with_labels);
        assert!(o.private_ips);
        assert_eq!(o.cfg.seed, 99);
        let dp = o.cfg.dp.unwrap();
        assert_eq!(dp.noise_multiplier, 1.5);
    }

    #[test]
    fn rejects_unknown_and_missing_values() {
        assert!(opts(&["--bogus"]).is_err());
        assert!(opts(&["--n"]).is_err());
        assert!(opts(&["--dp", "not-a-number"]).is_err());
    }

    #[test]
    fn parses_orchestrator_options() {
        let o = opts(&["--workers", "2", "--ckpt-dir", "/tmp/ck", "--resume", "--retries", "5"])
            .unwrap();
        assert_eq!(o.cfg.orchestrator.workers, 2);
        assert_eq!(
            o.cfg.orchestrator.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ck"))
        );
        assert!(o.cfg.orchestrator.resume);
        assert_eq!(o.cfg.orchestrator.max_retries, Some(5));
    }

    #[test]
    fn resume_without_ckpt_dir_is_rejected() {
        assert!(opts(&["--resume"]).is_err());
    }

    #[test]
    fn parses_failure_domain_options() {
        let o = opts(&[
            "--max-job-secs", "120.5", "--keep-generations", "5", "--rollback-budget", "1",
        ])
        .unwrap();
        assert_eq!(o.cfg.orchestrator.max_job_secs, Some(120.5));
        assert_eq!(o.cfg.orchestrator.keep_generations, Some(5));
        assert_eq!(o.cfg.orchestrator.rollback_budget, Some(1));
        let d = opts(&[]).unwrap();
        assert_eq!(d.cfg.orchestrator.max_job_secs, None);
        assert_eq!(d.cfg.orchestrator.keep_generations, None);
        assert_eq!(d.cfg.orchestrator.rollback_budget, None);
        assert!(opts(&["--max-job-secs", "soon"]).is_err());
        assert!(opts(&["--keep-generations"]).is_err(), "value required");
    }

    #[test]
    fn divergence_env_grammar_is_validated() {
        assert!(validate_divergence(None).is_ok());
        assert!(validate_divergence(Some("chunk-1:40")).is_ok());
        let err = validate_divergence(Some("no-step")).unwrap_err();
        assert!(
            err.contains("NETSHARE_INJECT_DIVERGENCE") && err.contains("expected `job:step`"),
            "{err}"
        );
    }

    #[test]
    fn parses_metrics_out() {
        let o = opts(&["--metrics-out", "/tmp/metrics.json"]).unwrap();
        assert_eq!(
            o.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/metrics.json"))
        );
        assert!(opts(&[]).unwrap().metrics_out.is_none());
        assert!(opts(&["--metrics-out"]).is_err(), "value required");
    }

    #[test]
    fn parse_args_validates_arity_and_mode() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&a(&[])).is_err());
        assert!(parse_args(&a(&["synth-flows", "in"])).is_err());
        assert!(parse_args(&a(&["bogus-mode", "in", "out"])).is_err());
        assert!(parse_args(&a(&["synth-flows", "in", "out"])).is_ok());
        assert!(parse_args(&a(&["synth-packets", "in", "out", "--seed", "1"])).is_ok());
    }

    fn pull(args: &[&str]) -> Result<PullArgs, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_args(&argv) {
            Ok(Command::Pull(p)) => Ok(p),
            Ok(_) => Err("parsed as synth".into()),
            Err(UsageError(e)) => Err(e),
        }
    }

    #[test]
    fn pull_mode_parses_defaults_and_flags() {
        let p = pull(&["pull", "127.0.0.1:7464", "ugr16"]).unwrap();
        assert_eq!(p.addr, "127.0.0.1:7464");
        assert_eq!(p.artifact, "ugr16");
        assert_eq!(p.count, 100);
        assert_eq!(p.credit, 4);
        assert_eq!((p.retries, p.backoff_ms), (0, 100), "no retries by default");
        assert!(p.out.is_none() && p.metrics_out.is_none());

        let p = pull(&[
            "pull", "localhost:9", "caida",
            "--count", "250", "--credit", "8",
            "--retries", "5", "--backoff-ms", "50",
            "--out", "/tmp/s.jsonl", "--metrics-out", "/tmp/m.json",
        ])
        .unwrap();
        assert_eq!(p.count, 250);
        assert_eq!(p.credit, 8);
        assert_eq!((p.retries, p.backoff_ms), (5, 50));
        assert_eq!(p.out.as_deref(), Some(std::path::Path::new("/tmp/s.jsonl")));
        assert_eq!(p.metrics_out.as_deref(), Some(std::path::Path::new("/tmp/m.json")));
    }

    fn coord(args: &[&str]) -> Result<CoordArgs, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_args(&argv) {
            Ok(Command::Coord(c)) => Ok(*c),
            Ok(_) => Err("parsed as another command".into()),
            Err(UsageError(e)) => Err(e),
        }
    }

    #[test]
    fn coord_mode_parses_defaults_and_flags() {
        let c = coord(&["coord", "/tmp/run"]).unwrap();
        assert_eq!(c.dir, "/tmp/run");
        assert_eq!((c.chunks, c.steps, c.seed), (4, 256, 17));
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.worker_procs, 2);
        assert!(!c.resume && c.addr_file.is_none() && c.max_job_secs.is_none());
        assert_eq!((c.retries, c.keep_generations), (2, 3));

        let c = coord(&[
            "coord", "/tmp/run",
            "--chunks", "6", "--steps", "64", "--seed", "9",
            "--addr", "127.0.0.1:7500", "--addr-file", "/tmp/a",
            "--workers-procs", "0", "--resume", "--retries", "1",
            "--max-job-secs", "30", "--keep-generations", "2",
        ])
        .unwrap();
        assert_eq!((c.chunks, c.steps, c.seed), (6, 64, 9));
        assert_eq!(c.addr, "127.0.0.1:7500");
        assert_eq!(c.addr_file.as_deref(), Some(std::path::Path::new("/tmp/a")));
        assert_eq!(c.worker_procs, 0, "0 means workers join by hand");
        assert!(c.resume);
        assert_eq!((c.retries, c.keep_generations), (1, 2));
        assert_eq!(c.max_job_secs, Some(30.0));
    }

    #[test]
    fn coord_mode_rejects_bad_invocations() {
        assert!(coord(&["coord"]).is_err(), "run dir required");
        assert!(coord(&["coord", "/tmp/run", "--chunks", "0"]).is_err(), "zero chunks");
        assert!(coord(&["coord", "/tmp/run", "--workers-procs"]).is_err(), "value required");
        assert!(coord(&["coord", "/tmp/run", "--credit", "4"]).is_err(), "pull-only flag");
    }

    #[test]
    fn gc_mode_takes_exactly_one_directory() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(parse_args(&a(&["gc", "/tmp/run"])), Ok(Command::Gc { dir }) if dir == "/tmp/run"));
        assert!(parse_args(&a(&["gc"])).is_err());
        assert!(parse_args(&a(&["gc", "/a", "/b"])).is_err());
    }

    #[test]
    fn pull_mode_rejects_bad_invocations() {
        assert!(pull(&["pull", "addr"]).is_err(), "artifact is required");
        assert!(pull(&["pull", "addr", "a", "--count"]).is_err(), "value required");
        assert!(pull(&["pull", "addr", "a", "--count", "many"]).is_err());
        assert!(pull(&["pull", "addr", "a", "--credit", "0"]).is_err(), "zero window");
        assert!(pull(&["pull", "addr", "a", "--retries", "soon"]).is_err());
        assert!(pull(&["pull", "addr", "a", "--backoff-ms", "0"]).is_err(), "zero backoff");
        assert!(pull(&["pull", "addr", "a", "--seed", "1"]).is_err(), "synth-only flag");
    }
}
