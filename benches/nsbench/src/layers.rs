//! The adaptor: every call this benchmark makes into a product crate is
//! in this file, and every one goes through a `pub` item of that crate.
//! The workloads and micro-timings are written against the functions
//! below, so the product surface the benchmark depends on is what this
//! file names and nothing else.

use crate::spans::Recorder;
use doppelganger::{DgConfig, FeatureSpec, Segment, TimeSeriesDataset};
use netshare::flowcodec::FlowCodec;
use netshare::tuplecodec::TupleCodec;
use netshare::{NetShare, NetShareConfig};
use netshared::protocol;
use nnet::{Arena, Gru, Parameterized, Tensor};
use orchestrator::coord::{CoordOptions, Coordinator};
use orchestrator::worker::{run_worker, ExecutorRegistry, WorkerOptions};
use orchestrator::{
    wire, CancelToken, EventLog, FsStore, JobSpec, Journal, JournalRecord, Manifest, ManifestEntry,
    ObjectStore, Plan, RunOptions,
};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use doppelganger::{ArtifactBundle, DoppelGanger, GeneratedSample};
pub use netshared::protocol::Frame;
pub use netshared::Server;
pub use nettrace::FlowTrace;

// ---------------------------------------------------------------- artifacts

/// The two artifacts the serve workloads stream. Both are untrained but
/// deterministic in the seed, and paper-shaped: metadata laid out as
/// `FlowCodec::meta_spec` gives it at `embed_dim 12`, `n_chunks 10`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Wide metadata, eight records per flow.
    Flow8,
    /// Same metadata, thirty-two records per flow.
    Seq32,
}

impl Artifact {
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Flow8 => "flow8",
            Artifact::Seq32 => "seq32",
        }
    }

    pub fn max_len(self) -> usize {
        match self {
            Artifact::Flow8 => 8,
            Artifact::Seq32 => 32,
        }
    }
}

/// Continuous fields per record.
pub const RECORD_DIM: usize = 4;
/// Flows the generator advances per GRU step (`DgConfig::batch_size`).
pub const BATCH: usize = 32;

fn meta_spec() -> FeatureSpec {
    FeatureSpec::new(vec![
        Segment::Continuous { dim: 64 },
        Segment::Categorical { dim: 12 },
        Segment::Continuous { dim: 12 },
        Segment::Categorical { dim: 12 },
        Segment::Continuous { dim: 12 },
        Segment::Categorical { dim: 4 },
        Segment::Continuous { dim: 12 },
        Segment::Continuous { dim: 11 },
    ])
}

/// `DgConfig::small` widths (`rnn_hidden 48`) over the artifact's shape.
pub fn dg_config(art: Artifact, seed: u64) -> DgConfig {
    let mut cfg = DgConfig::small(
        meta_spec(),
        FeatureSpec::continuous(RECORD_DIM),
        art.max_len(),
    );
    cfg.batch_size = BATCH;
    cfg.seed = seed;
    cfg
}

/// Widths the generator's GRU works at: `(step input, hidden)`.
pub fn gru_dims(art: Artifact) -> (usize, usize) {
    let cfg = dg_config(art, 0);
    (cfg.z_record_dim + cfg.meta_spec.dim(), cfg.rnn_hidden)
}

/// A freshly initialised generator, captured as a bundle. One weight is
/// set by hand: the bias of the head's generation-flag output, raised so
/// that no sequence ends before `max_len`. An untrained flag hovers
/// around its 0.5 cut, so without this the records per flow, and with
/// them the bytes per flow and the work per pull, would change with the
/// seed; with it every seed gives flows of the same shape.
pub fn make_bundle(art: Artifact, seed: u64) -> Result<ArtifactBundle, String> {
    let mut model = DoppelGanger::new(dg_config(art, seed));
    let flag_bias = model
        .gen
        .parameters_mut()
        .pop()
        .filter(|t| t.shape() == (1, RECORD_DIM + 1))
        .ok_or("the generator's last parameter is not the head's output bias")?;
    flag_bias.set(0, RECORD_DIM, 16.0);
    Ok(ArtifactBundle::capture(art.name(), &model, None))
}

pub fn save_bundle(bundle: &ArtifactBundle, path: &Path) -> Result<(), String> {
    bundle.save(path)
}

/// What `netshared --artifact <file>` does with the file.
pub fn load_bundle(path: &Path) -> Result<ArtifactBundle, String> {
    ArtifactBundle::load(path)
}

/// Records per flow of the bundle's artifact.
pub fn bundle_max_len(bundle: &ArtifactBundle) -> usize {
    bundle.cfg.max_len
}

pub fn rebuild(bundle: &ArtifactBundle) -> Result<DoppelGanger, String> {
    bundle.rebuild()
}

/// The production sampler (frozen inference path).
pub fn sample_fast(model: &mut DoppelGanger, n: usize) -> Vec<GeneratedSample> {
    model.sample_fast(n)
}

/// The training-graph sampler, batched the same way.
pub fn sample_train(model: &mut DoppelGanger, n: usize) -> Vec<GeneratedSample> {
    model.sample(n)
}

/// Walks a sample cursor over `total` flows, as the server's producer
/// does, handing each batch and the seconds `next_batch` took to `each`;
/// stops early when `each` returns `false`.
pub fn stream_batches(
    model: &mut DoppelGanger,
    total: usize,
    mut each: impl FnMut(Vec<GeneratedSample>, f64) -> bool,
) -> Result<(), String> {
    let mut cursor = model.sample_cursor(total)?;
    loop {
        let t0 = Instant::now();
        let Some(batch) = cursor.next_batch() else {
            return Ok(());
        };
        if !each(batch, t0.elapsed().as_secs_f64()) {
            return Ok(());
        }
    }
}

/// The `ModelArtifact` of a bundle as the JSON text a store object holds.
pub fn artifact_json(bundle: &ArtifactBundle) -> Result<String, String> {
    serde_json::to_string(&bundle.artifact).map_err(|e| e.to_string())
}

/// A training set of `rows` flows in the artifact's shape, for timing
/// training steps: values are arbitrary but valid (in `[0, 1]`, exact
/// one-hots in the categorical segments).
pub fn synthetic_dataset(art: Artifact, rows: usize, seed: u64) -> TimeSeriesDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = meta_spec();
    let meta: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            let mut row: Vec<f32> = (0..spec.dim()).map(|_| rng.gen::<f32>()).collect();
            spec.harden_row(&mut row);
            row
        })
        .collect();
    let seqs: Vec<Vec<Vec<f32>>> = (0..rows)
        .map(|_| {
            (0..art.max_len())
                .map(|_| (0..RECORD_DIM).map(|_| rng.gen::<f32>()).collect())
                .collect()
        })
        .collect();
    TimeSeriesDataset::new(meta, seqs, art.max_len())
}

/// Runs `gen_steps` generator steps (each with its critic steps) of GAN
/// training on a fresh model.
pub fn train_steps(art: Artifact, data: &TimeSeriesDataset, gen_steps: usize, seed: u64) {
    let mut model = DoppelGanger::new(dg_config(art, seed));
    model.train_steps(data, gen_steps);
    black_box(&model.stats);
}

// ------------------------------------------------------------------ serving

/// Capacity of a stream's buffer under the default server configuration.
pub fn default_capacity() -> usize {
    netshared::ServerConfig::default().capacity_bytes
}

/// An in-process `netshared` under its default configuration (64 KiB
/// stream buffers), on an ephemeral loopback port.
pub fn start_server(bundles: Vec<ArtifactBundle>) -> Result<Server, String> {
    Server::start(netshared::ServerConfig::default(), bundles)
}

pub fn server_addr(server: &Server) -> String {
    server.local_addr().to_string()
}

pub fn stop_server(server: Server) -> usize {
    server.shutdown()
}

/// The `ServerStats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub sessions_open: i64,
    pub frames_sent: u64,
    pub credit_stalls: u64,
    pub push_stalls: u64,
    pub stream_max_buffered: u64,
}

pub fn server_counters(server: &Server) -> ServerCounters {
    use std::sync::atomic::Ordering::Relaxed;
    let s = server.stats();
    ServerCounters {
        sessions_open: s.sessions_open.load(Relaxed),
        frames_sent: s.frames_sent.load(Relaxed),
        credit_stalls: s.credit_stalls.load(Relaxed),
        push_stalls: s.push_stalls.load(Relaxed),
        stream_max_buffered: s.stream_max_buffered.load(Relaxed),
    }
}

/// The one stream id a benchmark connection subscribes on.
pub const STREAM: u64 = 1;

/// One raw-protocol client connection.
pub struct Conn {
    sock: TcpStream,
    token: CancelToken,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        protocol::configure(&sock).map_err(|e| e.to_string())?;
        Ok(Conn {
            sock,
            token: CancelToken::new(),
        })
    }

    pub fn send(&mut self, frame: &Frame) -> Result<(), String> {
        protocol::write_frame(&mut self.sock, frame, &self.token).map_err(|e| e.to_string())
    }

    /// Blocks until one frame's payload bytes have arrived.
    pub fn read_payload(&mut self) -> Result<Vec<u8>, String> {
        wire::read_frame_bytes(&mut self.sock, &self.token, protocol::MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())
    }
}

pub fn hello_frame() -> Frame {
    Frame::Hello {
        version: protocol::PROTOCOL_VERSION,
        peer: "nsbench".to_string(),
        artifacts: Vec::new(),
    }
}

pub fn subscribe_frame(artifact: &str, count: u64, credit: u32, from_seq: u64) -> Frame {
    Frame::Subscribe {
        stream: STREAM,
        artifact: artifact.to_string(),
        count,
        credit,
        from_seq,
    }
}

pub fn credit_frame() -> Frame {
    Frame::Credit {
        stream: STREAM,
        frames: 1,
    }
}

pub fn data_frame(seq: u64, samples: Vec<GeneratedSample>) -> Frame {
    Frame::Data {
        stream: STREAM,
        seq,
        samples,
    }
}

/// On-wire bytes of a frame: length prefix plus JSON payload.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, String> {
    protocol::encode_frame(frame).map_err(|e| e.to_string())
}

/// A frame from its payload bytes (prefix already stripped).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, String> {
    protocol::decode_frame(payload).map_err(|e| e.to_string())
}

// --------------------------------------------------------------------- wire

/// Two ends of a loopback TCP connection, both set up as the product
/// sets up its sockets (`wire::configure`).
pub fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let a = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (b, _) = listener.accept().map_err(|e| e.to_string())?;
    for s in [&a, &b] {
        wire::configure(s).map_err(|e| e.to_string())?;
    }
    Ok((a, b))
}

/// `payload` behind its length prefix.
pub fn wire_frame(payload: &[u8]) -> Result<Vec<u8>, String> {
    wire::frame(payload, protocol::MAX_FRAME_BYTES).map_err(|e| e.to_string())
}

pub fn wire_write(sock: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    wire::write_all(sock, bytes, &CancelToken::new()).map_err(|e| e.to_string())
}

pub fn wire_read(sock: &mut TcpStream) -> Result<Vec<u8>, String> {
    wire::read_frame_bytes(sock, &CancelToken::new(), protocol::MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())
}

// ----------------------------------------------------------------- training

pub fn synth_trace(n: usize, seed: u64) -> FlowTrace {
    trace_synth::generate_flows(trace_synth::DatasetKind::Ugr16, n, seed)
}

/// `NetShareConfig::default_config()` with the given seed; at smoke size
/// the `fast` configuration with half its steps and a third of its
/// public corpus.
pub fn net_config(seed: u64, smoke: bool) -> NetShareConfig {
    let mut cfg = NetShareConfig::default_config();
    if smoke {
        cfg = NetShareConfig::fast();
        cfg.seed_steps /= 2;
        cfg.finetune_steps /= 2;
        cfg.ip2vec_public_packets /= 3;
    }
    cfg.seed = seed;
    cfg
}

/// One `NetShare::fit_flows`. With `ckpt`, chunk models are
/// checkpointed there; with `resume` too, verified ones are not retrained.
pub fn fit(
    trace: &FlowTrace,
    base: &NetShareConfig,
    workers: usize,
    ckpt: Option<&Path>,
    resume: bool,
) -> Result<NetShare, String> {
    let mut cfg = base.clone();
    cfg.orchestrator.workers = workers;
    cfg.orchestrator.checkpoint_dir = ckpt.map(Path::to_path_buf);
    cfg.orchestrator.resume = resume;
    NetShare::fit_flows(trace, &cfg).map_err(|e| e.to_string())
}

/// Whether the fit ran no job: every one was satisfied from checkpoints.
pub fn fit_skipped_all(model: &NetShare) -> bool {
    use netshare::OrchestratorEvent as Event;
    let events = model.events();
    events.iter().any(|e| matches!(e, Event::JobSkipped { .. }))
        && !events.iter().any(|e| matches!(e, Event::JobStarted { .. }))
}

/// `(pool wall, summed job cpu)` seconds the fit's job pool reported.
pub fn fit_pool_seconds(model: &NetShare) -> (f64, f64) {
    (model.wall_seconds, model.cpu_seconds)
}

pub fn generate(model: &mut NetShare, n: usize) -> FlowTrace {
    model.generate_flows(n)
}

/// A digest of a trace's records, in order.
pub fn trace_digest(trace: &FlowTrace) -> u64 {
    let mut text = String::new();
    for f in &trace.flows {
        text.push_str(&format!("{f:?}\n"));
    }
    orchestrator::fnv1a64(text.as_bytes())
}

/// The codec work of `fit_flows`, replayed beside it with the same
/// public calls so each piece can be timed on its own.
pub struct CodecReplay {
    pub codec: FlowCodec,
    /// Chunk bounds, for decoding against.
    pub bounds: (f64, f64),
    /// Encoded `(metadata, records)` of every group, in chunk order.
    pub encoded: Vec<(Vec<f32>, Vec<Vec<f32>>)>,
    /// Public corpus + IP2Vec dictionary + flow-codec ranges, seconds.
    pub fit_s: f64,
    /// `chunk_flows`, seconds.
    pub chunk_s: f64,
    /// Every `encode_group`, seconds.
    pub encode_s: f64,
}

pub fn replay_codec(trace: &FlowTrace, cfg: &NetShareConfig, rec: &mut Recorder) -> CodecReplay {
    let t0 = Instant::now();
    rec.enter("netshare.codec_fit");
    let public =
        trace_synth::public::ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
    let tuples = TupleCodec::fit_public(&public, cfg.embed_dim, cfg.seed ^ 0xcd);
    let codec = FlowCodec::fit(trace, tuples, cfg.n_chunks, cfg.with_labels);
    rec.exit();
    let fit_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    rec.enter("netshare.chunk_flows");
    let chunked = netshare::chunking::chunk_flows(trace, cfg.n_chunks);
    rec.exit();
    let chunk_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    rec.enter("netshare.encode_groups");
    let mut encoded = Vec::new();
    for (ci, groups) in chunked.chunks.iter().enumerate() {
        for g in groups {
            encoded.push(codec.encode_group(g, chunked.bounds[ci]));
        }
    }
    rec.exit();
    let encode_s = t0.elapsed().as_secs_f64();
    let bounds = chunked.bounds.first().copied().unwrap_or((0.0, 1.0));
    CodecReplay {
        codec,
        bounds,
        encoded,
        fit_s,
        chunk_s,
        encode_s,
    }
}

/// Decodes one generated sample into flow records; returns how many.
pub fn decode_sample(replay: &CodecReplay, meta: &[f32], records: &[Vec<f32>]) -> usize {
    black_box(replay.codec.decode_sample(meta, records, replay.bounds)).len()
}

/// An IP2Vec dictionary trained on the public corpus at `embed_dim 12`,
/// with query vectors to look up in it.
pub struct Ip2VecBench {
    model: fieldcodec::ip2vec::Ip2Vec,
    queries: Vec<Vec<f32>>,
    next: usize,
}

impl Ip2VecBench {
    /// Trains the dictionary on `packets` public packets.
    pub fn new(packets: usize, seed: u64) -> Self {
        let public = trace_synth::public::ip2vec_public_corpus(packets, seed);
        let cfg = fieldcodec::ip2vec::Ip2VecConfig {
            dim: 12,
            epochs: 1,
            seed,
            ..Default::default()
        };
        let model = fieldcodec::ip2vec::Ip2Vec::train_on_packets(&public, cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let queries = (0..64)
            .map(|_| (0..12).map(|_| rng.gen::<f32>() - 0.5).collect())
            .collect();
        Ip2VecBench {
            model,
            queries,
            next: 0,
        }
    }

    /// One nearest-neighbour port lookup over the whole dictionary.
    pub fn nearest_port(&mut self) {
        self.next = (self.next + 1) % self.queries.len();
        black_box(self.model.nearest_port(&self.queries[self.next]));
    }
}

// ------------------------------------------------------------- coordination

/// What one coordinated run did.
pub struct CoordRun {
    /// Wall seconds of `Coordinator::serve`.
    pub wall_s: f64,
    /// Seconds from the start of `serve` to the first `JobFinished`
    /// event, when a job ran.
    pub first_job_s: Option<f64>,
    pub completed: u64,
    pub skipped: u64,
    /// Content address of every job's payload.
    pub digests: BTreeMap<String, u64>,
    /// Summed `JobStats.wall_seconds` of the jobs.
    pub busy_s: f64,
}

/// An `EventLog` sink that notes when the first `JobFinished` line lands.
struct FirstJobSink {
    first: Arc<Mutex<Option<Instant>>>,
}

impl Write for FirstJobSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.windows(11).any(|w| w == b"JobFinished") {
            let mut first = self.first.lock().expect("first-job lock");
            first.get_or_insert_with(Instant::now);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `sim_plan(chunks, 0, seed)` from `dir` with `workers`
/// in-thread `run_worker` loops, the shape `netshare_cli coord` gives
/// processes. A resumed run over a completed directory needs no worker,
/// so its workers are released as soon as `serve` returns.
pub fn coord_run(
    dir: &Path,
    chunks: usize,
    seed: u64,
    resume: bool,
    workers: usize,
) -> Result<CoordRun, String> {
    let plan = orchestrator::sim_plan(chunks, 0, seed);
    let opts = CoordOptions {
        run_key: format!("nsbench-{seed}"),
        resume,
        ..CoordOptions::default()
    };
    let first = Arc::new(Mutex::new(None));
    let events = EventLog::new().with_sink(Box::new(FirstJobSink {
        first: Arc::clone(&first),
    }));
    let coord = Coordinator::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = coord.local_addr().to_string();
    let release = CancelToken::new();
    let (report, t0, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (addr, release) = (addr.clone(), release.clone());
                s.spawn(move || {
                    let wopts = WorkerOptions {
                        worker_id: format!("w{w}"),
                        connect_timeout: Duration::from_secs(5),
                        reconnects: 0,
                        ..WorkerOptions::default()
                    };
                    run_worker(&addr, &wopts, &ExecutorRegistry::builtin(), &release)
                })
            })
            .collect();
        let t0 = Instant::now();
        let report = coord.serve(dir, &plan, &opts, &events);
        let wall_s = t0.elapsed().as_secs_f64();
        release.cancel("run over");
        for h in handles {
            // A worker of a resumed run finds the listener gone; that is
            // no fault of the run, which `report` alone judges.
            let _ = h.join();
        }
        (report, t0, wall_s)
    });
    let report = report.map_err(|e| e.to_string())?;
    let first_job_s = first
        .lock()
        .expect("first-job lock")
        .map(|at: Instant| at.duration_since(t0).as_secs_f64());
    Ok(CoordRun {
        wall_s,
        first_job_s,
        completed: report.completed,
        skipped: report.skipped,
        busy_s: report.stats.values().map(|s| s.wall_seconds).sum(),
        digests: report.digests,
    })
}

/// The run-directory pieces a coordinated run touches per job, for
/// timing one call at a time.
pub struct RunDirBench {
    dir: std::path::PathBuf,
    store: FsStore,
    journal: Journal,
    manifest: Manifest,
    object: Vec<u8>,
    digest: u64,
    fresh: u64,
}

impl RunDirBench {
    /// Opens a store and journal under `dir`; `object` is the payload
    /// the store calls move, and the manifest holds `entries` entries.
    pub fn new(dir: &Path, object: Vec<u8>, entries: usize) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let store = FsStore::open(dir).map_err(|e| e.to_string())?;
        let journal = Journal::open(dir).map_err(|e| e.to_string())?;
        let digest = store.put(&object).map_err(|e| e.to_string())?.digest;
        let mut manifest = Manifest::new("nsbench");
        for i in 0..entries {
            manifest.record(ManifestEntry {
                id: format!("chunk-{i}"),
                generation: 1,
                file: Manifest::object_file(digest),
                digest,
                attempts: 1,
                wall_seconds: 0.05,
                cpu_seconds: 0.01,
            });
        }
        Ok(RunDirBench {
            dir: dir.to_path_buf(),
            store,
            journal,
            manifest,
            object,
            digest,
            fresh: 0,
        })
    }

    /// Puts an object the store has not seen (the payload with a
    /// counter appended), so bytes are written and synced.
    pub fn put_new(&mut self) -> Result<(), String> {
        self.fresh += 1;
        let mut bytes = self.object.clone();
        bytes.extend_from_slice(format!(" {}", self.fresh).as_bytes());
        let out = self.store.put(&bytes).map_err(|e| e.to_string())?;
        self.store.remove(out.digest).map_err(|e| e.to_string())
    }

    /// Puts the object the store already holds: verify, write nothing.
    pub fn put_dedup(&self) -> Result<(), String> {
        let out = self.store.put(&self.object).map_err(|e| e.to_string())?;
        if out.deduped {
            Ok(())
        } else {
            Err("second put of the same bytes was not a dedup hit".to_string())
        }
    }

    /// A verified read of the object.
    pub fn get(&self) -> Result<(), String> {
        black_box(self.store.get(self.digest).map_err(|e| e.to_string())?);
        Ok(())
    }

    /// One journal record, synced.
    pub fn journal_append(&self) -> Result<(), String> {
        self.journal
            .append(&JournalRecord::Completed {
                job: "chunk-1".to_string(),
                digest: self.digest,
            })
            .map_err(|e| e.to_string())
    }

    /// One atomic manifest rewrite.
    pub fn manifest_store(&self) -> Result<(), String> {
        self.manifest.store(&self.dir).map_err(|e| e.to_string())
    }
}

/// Runs the coordinated plan's DAG shape (one root, `chunks` dependents)
/// as trivial closures on the in-process pool `fit_flows` trains on,
/// with checkpoints on. Returns the run's wall seconds.
pub fn pool_run(dir: &Path, chunks: usize, workers: usize) -> Result<f64, String> {
    let mut jobs: Vec<JobSpec<'_, u64>> =
        vec![JobSpec::new("pretrain", Vec::<String>::new(), |_| Ok(1))];
    for i in 1..=chunks {
        jobs.push(JobSpec::new(
            format!("chunk-{i}"),
            ["pretrain"],
            move |inp| Ok(inp.dep("pretrain")? + i as u64),
        ));
    }
    let plan = Plan::new(jobs)?;
    let opts = RunOptions {
        workers,
        checkpoint_dir: Some(dir.to_path_buf()),
        run_key: "nsbench-pool".to_string(),
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    let report = orchestrator::run(&plan, &opts, &EventLog::new()).map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    if report.completed as usize != chunks + 1 {
        return Err(format!(
            "pool completed {} of {} jobs",
            report.completed,
            chunks + 1
        ));
    }
    Ok(wall)
}

// --------------------------------------------------------------------- nnet

fn filled(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect(),
    )
}

/// The matrix products one `FrozenGru::step` issues (input and
/// recurrent), and the two transposed products of their backward pass.
pub struct GemmBench {
    x: Tensor,
    w: Tensor,
    h: Tensor,
    u: Tensor,
    dz: Tensor,
}

impl GemmBench {
    pub fn new(batch: usize, input: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        GemmBench {
            x: filled(batch, input, &mut rng),
            w: filled(input, hidden, &mut rng),
            h: filled(batch, hidden, &mut rng),
            u: filled(hidden, hidden, &mut rng),
            dz: filled(batch, hidden, &mut rng),
        }
    }

    /// `x·W` and `h·U` through the size-based dispatch.
    pub fn auto(&self) {
        black_box(black_box(&self.x).matmul(&self.w));
        black_box(black_box(&self.h).matmul(&self.u));
    }

    pub fn input_serial(&self) {
        black_box(black_box(&self.x).matmul_serial(&self.w));
    }

    pub fn input_tiled(&self) {
        black_box(black_box(&self.x).matmul_tiled(&self.w));
    }

    pub fn input_parallel(&self) {
        black_box(black_box(&self.x).matmul_parallel(&self.w));
    }

    pub fn recurrent_serial(&self) {
        black_box(black_box(&self.h).matmul_serial(&self.u));
    }

    pub fn recurrent_tiled(&self) {
        black_box(black_box(&self.h).matmul_tiled(&self.u));
    }

    pub fn recurrent_parallel(&self) {
        black_box(black_box(&self.h).matmul_parallel(&self.u));
    }

    /// Weight gradient `xᵀ·dz`.
    pub fn tn(&self) {
        black_box(black_box(&self.x).t_matmul(&self.dz));
    }

    /// Input gradient `dz·Wᵀ`.
    pub fn nt(&self) {
        black_box(black_box(&self.dz).matmul_t(&self.w));
    }
}

/// One GRU cell at the generator's widths, stepped on a warm arena.
pub struct GruBench {
    gru: Gru,
    x: Tensor,
    h: Tensor,
    arena: Arena,
}

impl GruBench {
    pub fn new(batch: usize, input: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let gru = Gru::new(input, hidden, &mut rng);
        let (x, h) = (
            filled(batch, input, &mut rng),
            filled(batch, hidden, &mut rng),
        );
        GruBench {
            gru,
            x,
            h,
            arena: Arena::new(),
        }
    }

    pub fn step(&mut self) {
        let next = self.gru.freeze().step(&self.x, &self.h, &mut self.arena);
        self.arena.recycle(black_box(next));
    }
}

// ---------------------------------------------------------------- telemetry

/// Opens and closes one telemetry span.
pub fn telemetry_span() {
    let _span = telemetry::span!("nsbench/probe");
}

/// Looks a counter up by name and increments it: what `kernel`
/// instrumentation pays on every product.
pub fn telemetry_counter_inc() {
    telemetry::metrics::counter("nsbench.probe").inc();
}

/// Threads the rayon pool the kernels dispatch on reports.
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}
