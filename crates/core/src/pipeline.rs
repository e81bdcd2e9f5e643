//! The end-to-end NetShare pipeline (paper Fig. 9).
//!
//! Once a trace is merged and split into per-five-tuple time series,
//! NetFlow and PCAP are the same learning problem (Insight 1), so there
//! is one pipeline here and two kinds of trace: [`NetShare::fit`] and
//! [`NetShare::generate`] are written once over a [`TraceCodec`], and
//! [`FlowCodec`] / [`PacketCodec`] supply what differs — the record
//! fields, the container, and how records are chunked and encoded.

use crate::ModelArtifact;
use crate::chunking::{Chunked, FlowGroup};
use crate::config::NetShareConfig;
use crate::flowcodec::FlowCodec;
use crate::packetcodec::PacketCodec;
use crate::tuplecodec::TupleCodec;
use doppelganger::{
    DgConfig, DoppelGanger, FeatureSpec, SentinelConfig, TimeSeriesDataset, TrainControl,
};
use nettrace::{FlowTrace, PacketTrace};
use orchestrator::store::GetError;
use orchestrator::{
    Event, EventLog, FsStore, JobInputs, JobSpec, ObjectStore, OrchestratorError, Plan,
    RunOptions, WatchdogOptions,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use telemetry::metrics::LazyCounter;

/// Pipeline errors.
#[derive(Debug)]
pub enum PipelineError {
    /// The input trace has no records.
    EmptyTrace,
    /// A configuration value failed validation before any training ran
    /// (e.g. a malformed fault or divergence injection spec).
    Config(String),
    /// A checkpoint/manifest/event-stream filesystem operation failed.
    Checkpoint {
        /// Offending path.
        path: PathBuf,
        /// OS error text.
        message: String,
    },
    /// A training job exhausted its retries (watchdog cancellations,
    /// divergence past the rollback budget, panics, or plain errors).
    Training {
        /// Job id.
        job: String,
        /// Attempts executed.
        attempts: u32,
        /// Final failure (panic message or job error).
        error: String,
    },
    /// Training failed inside the orchestrator for a non-job reason (an
    /// invalid job plan or an undecodable artifact).
    Orchestrator(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyTrace => write!(f, "cannot fit NetShare on an empty trace"),
            PipelineError::Config(m) => write!(f, "invalid configuration: {m}"),
            PipelineError::Checkpoint { path, message } => {
                write!(f, "checkpoint I/O failed at {}: {message}", path.display())
            }
            PipelineError::Training { job, attempts, error } => {
                write!(f, "training job {job} failed after {attempts} attempt(s): {error}")
            }
            PipelineError::Orchestrator(m) => write!(f, "chunk training failed: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<OrchestratorError> for PipelineError {
    fn from(e: OrchestratorError) -> Self {
        match e {
            OrchestratorError::Io { path, message } => PipelineError::Checkpoint { path, message },
            OrchestratorError::JobFailed { job, attempts, error } => {
                PipelineError::Training { job, attempts, error }
            }
            other => PipelineError::Orchestrator(other.to_string()),
        }
    }
}

/// One kind of header trace, as the pipeline sees it: the record and
/// container types, and the kind-specific steps between a trace and the
/// `(metadata, record sequence)` samples DoppelGANger trains on.
/// Implemented by [`FlowCodec`] and [`PacketCodec`]; the kind is a type
/// parameter of [`NetShare`], so a model fit on packets has no
/// `generate_flows` to call. (`Sync`: the pre-training job encodes
/// through a shared reference on a pool worker.)
pub trait TraceCodec: Sized + Sync {
    /// One time-series element (a flow record or a packet).
    type Record;
    /// The trace container.
    type Trace: Clone;
    /// Suffix of the `fit_*` / `generate_*[n]` span names.
    const KIND: &'static str;

    /// The trace's records, in order.
    fn records(trace: &Self::Trace) -> &[Self::Record];
    /// Remerges generated records into a time-sorted trace of at most
    /// `n` records (the post-processing step).
    fn assemble(records: Vec<Self::Record>, n: usize) -> Self::Trace;
    /// A public packet corpus as this kind of trace.
    fn from_packets(public: &PacketTrace) -> Cow<'_, Self::Trace>;
    /// Fits the continuous-field ranges on `trace` (private data in the
    /// non-DP pipeline, a public trace in DP mode).
    fn fit(trace: &Self::Trace, tuples: TupleCodec, cfg: &NetShareConfig) -> Self;
    /// Slices `trace` into `m` fixed-time chunks of per-tuple groups.
    fn chunk(trace: &Self::Trace, m: usize) -> Chunked<Self::Record>;
    /// Metadata layout.
    fn meta_spec(&self) -> FeatureSpec;
    /// Record layout.
    fn record_spec(&self) -> FeatureSpec;
    /// Encodes one chunked group into `(metadata, record sequence)`,
    /// record times relative to the chunk bounds.
    fn encode_group(
        &self,
        group: &FlowGroup<Self::Record>,
        bounds: (f64, f64),
    ) -> (Vec<f32>, Vec<Vec<f32>>);
    /// Decodes one generated sample into records placed inside the
    /// chunk bounds.
    fn decode_sample(
        &self,
        meta: &[f32],
        records: &[Vec<f32>],
        bounds: (f64, f64),
    ) -> Vec<Self::Record>;
}

/// A fitted NetShare model: one DoppelGANger per chunk, plus the codec and
/// chunk geometry needed to decode generated samples back into a trace.
///
/// The codec type fixes the trace kind; asking a packet model for flows
/// does not compile:
///
/// ```compile_fail
/// use netshare::{NetShare, NetShareConfig};
/// let real = trace_synth::generate_packets(trace_synth::DatasetKind::Caida, 500, 1);
/// let mut model = NetShare::fit_packets(&real, &NetShareConfig::fast()).unwrap();
/// model.generate_flows(1);
/// ```
pub struct NetShare<C = FlowCodec> {
    cfg: NetShareConfig,
    codec: C,
    /// Per-chunk models (`None` for chunks with no training data).
    models: Vec<Option<DoppelGanger>>,
    bounds: Vec<(f64, f64)>,
    /// Real record/packet counts per chunk (drives proportional sampling).
    chunk_counts: Vec<usize>,
    /// Wall-clock seconds of the fit call (parallel chunks overlap).
    pub wall_seconds: f64,
    /// Summed per-chunk training seconds — the "total CPU hours" axis of
    /// the paper's Fig. 4 (machines run chunks simultaneously, so wall
    /// time underestimates cost).
    pub cpu_seconds: f64,
    /// Sampling rates (batch/chunk size) per trained chunk, for the DP
    /// accountant.
    dp_rates: Vec<(f64, u64)>,
    /// The orchestrator event stream of the fit (also mirrored to
    /// `<checkpoint_dir>/events.jsonl` when checkpointing is on).
    events: Vec<Event>,
}

/// What [`train_chunks`] hands back to [`NetShare::fit`]: per-chunk
/// models (`None` for empty chunks), summed per-chunk CPU seconds, wall
/// seconds, per-chunk DP sampling rates, and the orchestrator event
/// stream.
type ChunkTraining = (
    Vec<Option<DoppelGanger>>,
    f64,
    f64,
    Vec<(f64, u64)>,
    Vec<Event>,
);

impl NetShare<FlowCodec> {
    /// Fits on a flow-header trace (the NetFlow pipeline).
    pub fn fit_flows(trace: &FlowTrace, cfg: &NetShareConfig) -> Result<Self, PipelineError> {
        Self::fit(trace, cfg)
    }

    /// Fits on per-epoch flow traces by first merging them (Insight 1).
    pub fn fit_flow_epochs(
        epochs: &[FlowTrace],
        cfg: &NetShareConfig,
    ) -> Result<Self, PipelineError> {
        Self::fit(&nettrace::epoch::merge_flow_epochs(epochs), cfg)
    }

    /// [`NetShare::generate`]: about `n` flow records in start-time order.
    pub fn generate_flows(&mut self, n: usize) -> FlowTrace {
        self.generate(n)
    }
}

impl NetShare<PacketCodec> {
    /// Fits on a packet-header trace (the PCAP pipeline).
    pub fn fit_packets(trace: &PacketTrace, cfg: &NetShareConfig) -> Result<Self, PipelineError> {
        Self::fit(trace, cfg)
    }

    /// [`NetShare::generate`]: about `n` packets in timestamp order.
    pub fn generate_packets(&mut self, n: usize) -> PacketTrace {
        self.generate(n)
    }
}

/// Encodes every group of the chunks in `which` into one training
/// dataset, record times relative to each group's own chunk.
fn encode_chunks<C: TraceCodec>(
    codec: &C,
    chunked: &Chunked<C::Record>,
    which: std::ops::Range<usize>,
    max_seq_len: usize,
) -> TimeSeriesDataset {
    let (meta, seqs) = which
        .flat_map(|ci| {
            let bounds = chunked.bounds[ci];
            chunked.chunks[ci].iter().map(move |g| codec.encode_group(g, bounds))
        })
        .unzip();
    TimeSeriesDataset::new(meta, seqs, max_seq_len)
}

impl<C: TraceCodec> NetShare<C> {
    /// Fits on a trace of the codec's kind: public IP2Vec dictionary,
    /// codec ranges, fixed-time chunking, then one DoppelGANger per
    /// chunk — a seed model and parallel fine-tunes, run as a job DAG
    /// on the orchestrator.
    pub fn fit(trace: &C::Trace, cfg: &NetShareConfig) -> Result<Self, PipelineError> {
        if C::records(trace).is_empty() {
            return Err(PipelineError::EmptyTrace);
        }
        let _span = telemetry::span!("fit_{}", C::KIND);
        let run = FitRun::open(cfg)?;
        let public_pkts =
            trace_synth::public::ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
        let tuples = public_codec(cfg, &public_pkts, &run.events)?;
        // In DP mode, normalization ranges must not depend on private data.
        let codec = if cfg.dp.is_some() {
            C::fit(&C::from_packets(&public_pkts), tuples, cfg)
        } else {
            C::fit(trace, tuples, cfg)
        };

        let chunked = C::chunk(trace, cfg.n_chunks);
        let datasets: Vec<Option<TimeSeriesDataset>> = (0..chunked.chunks.len())
            .map(|ci| {
                (!chunked.chunks[ci].is_empty())
                    .then(|| encode_chunks(&codec, &chunked, ci..ci + 1, cfg.max_seq_len))
            })
            .collect();

        let (models, cpu_seconds, wall_seconds, dp_rates, events) = train_chunks(
            cfg,
            &run,
            codec.meta_spec(),
            codec.record_spec(),
            &datasets,
            || {
                // Public pre-training dataset for DP mode: the chosen
                // public trace run through the same encode path.
                let src = pretrain_packets(cfg, &public_pkts);
                let pc = C::chunk(&C::from_packets(&src), cfg.n_chunks);
                encode_chunks(&codec, &pc, 0..pc.chunks.len(), cfg.max_seq_len)
            },
        )?;

        Ok(NetShare {
            codec,
            models,
            chunk_counts: chunk_item_counts(&chunked),
            bounds: chunked.bounds,
            wall_seconds,
            cpu_seconds,
            dp_rates,
            events,
            cfg: cfg.clone(),
        })
    }

    /// Generates a synthetic trace of approximately `n` records, each
    /// chunk model contributing in proportion to the real chunk's size.
    ///
    /// Draws from the frozen arena-backed sampler
    /// ([`DoppelGanger::sample_fast`]), which the `infer_equiv` suite
    /// holds bitwise-equal to the training-graph sampler.
    pub fn generate(&mut self, n: usize) -> C::Trace {
        let _span = telemetry::span!("generate_{}[{n}]", C::KIND);
        let total: usize = self.chunk_counts.iter().sum::<usize>().max(1);
        let mut records = Vec::with_capacity(n);
        for ci in 0..self.models.len() {
            let want = (n as f64 * self.chunk_counts[ci] as f64 / total as f64).round() as usize;
            let Some(model) = self.models[ci].as_mut() else {
                continue;
            };
            let bounds = self.bounds[ci];
            let mut got = 0usize;
            while got < want {
                let take = ((want - got) / 2 + 1).clamp(1, 64);
                for s in model.sample_fast(take) {
                    let recs = self.codec.decode_sample(&s.meta, &s.records, bounds);
                    got += recs.len();
                    records.extend(recs);
                }
            }
        }
        C::assemble(records, n)
    }

    /// The (ε, δ) privacy guarantee of the fitted model, `None` when DP is
    /// off. Chunks train on *disjoint* time slices, so parallel
    /// composition applies: ε is the maximum over chunks.
    pub fn epsilon(&self) -> Option<f64> {
        let dp = self.cfg.dp?;
        let eps = self
            .dp_rates
            .iter()
            .map(|&(q, steps)| {
                privacy::compute_epsilon(q, dp.noise_multiplier as f64, steps, dp.delta)
            })
            .fold(0.0f64, f64::max);
        Some(eps)
    }

    /// Number of chunk models actually trained.
    pub fn trained_chunks(&self) -> usize {
        self.models.iter().filter(|m| m.is_some()).count()
    }

    /// The orchestrator event stream of the fit: run/job lifecycle,
    /// retries, scaled step budgets, and final losses. Mirrored to
    /// `<checkpoint_dir>/events.jsonl` when checkpointing is enabled.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// The file beside the manifest that names the run directory's stored
/// [`TupleCodec`] object and what it is the codec of.
const CODEC_REF: &str = "codec.json";

#[derive(Serialize, Deserialize)]
struct CodecRef {
    key: String,
    digest: u64,
}

static CODEC_TRAINED: LazyCounter = LazyCounter::new("netshare.codec.trained");
static CODEC_LOADED: LazyCounter = LazyCounter::new("netshare.codec.loaded");
static CODEC_LOAD_MISSES: LazyCounter = LazyCounter::new("netshare.codec.load_misses");

fn codec_object_bytes(len: usize) {
    telemetry::metrics::histogram("netshare.codec.object_bytes", &telemetry::metrics::BYTES_EDGES)
        .record(len as f64);
}

/// Everything the public five-tuple codec is a function of: the public
/// corpus (its size; its seed derives from `seed`), the embedding width,
/// the dictionary seed, and the stored form's version. Deliberately not
/// [`run_key`]: a changed step budget voids the models, not the
/// dictionary.
fn codec_key(cfg: &NetShareConfig) -> String {
    format!(
        "codec-v{}|public={}|embed={}|seed={}",
        crate::tuplecodec::CODEC_FORMAT,
        cfg.ip2vec_public_packets,
        cfg.embed_dim,
        cfg.seed,
    )
}

fn read_codec_ref(dir: &Path) -> Option<CodecRef> {
    let text = std::fs::read_to_string(dir.join(CODEC_REF)).ok()?;
    serde_json::from_str(&text).ok()
}

/// The digest of the codec object `dir`'s codec ref names, if it has
/// one: live for `netshare_cli gc`, like every digest the manifest names.
pub fn codec_ref_digest(dir: &Path) -> Option<u64> {
    read_codec_ref(dir).map(|r| r.digest)
}

/// The objects of `dir`'s store that something references: a manifest
/// generation or the codec ref. `netshare_cli gc` sweeps every other one.
pub fn live_objects(dir: &Path) -> std::collections::BTreeSet<u64> {
    let mut live: std::collections::BTreeSet<u64> = orchestrator::Manifest::load(dir)
        .map(|m| m.jobs.iter().map(|e| e.digest).collect())
        .unwrap_or_default();
    live.extend(codec_ref_digest(dir));
    live
}

fn checkpoint_error(path: PathBuf) -> impl FnOnce(std::io::Error) -> PipelineError {
    move |e| PipelineError::Checkpoint { path, message: e.to_string() }
}

/// The fitted public codec of a fit: trained, or — on a resume into a
/// run directory that holds one under this configuration's
/// [`codec_key`] — loaded through the store's verified read. A fit with
/// a checkpoint directory leaves the codec it trained there. Whatever
/// keeps a load from succeeding (no ref, another key, a missing, damaged
/// or undecodable object) costs a training run and nothing else: the
/// codec is a pure function of its key, so both routes yield the same
/// one. Nothing private enters the object (Insight 2: the dictionary is
/// trained on public data only).
fn public_codec(
    cfg: &NetShareConfig,
    public: &PacketTrace,
    events: &EventLog,
) -> Result<TupleCodec, PipelineError> {
    let train = || {
        let _span = telemetry::span!("codec/train");
        CODEC_TRAINED.get().inc();
        TupleCodec::fit_public(public, cfg.embed_dim, cfg.seed ^ 0xcd)
    };
    let Some(dir) = cfg.orchestrator.checkpoint_dir.as_deref() else {
        return Ok(train());
    };
    let objects = dir.join(orchestrator::store::OBJECTS_DIR);
    let store = FsStore::open(dir).map_err(checkpoint_error(objects.clone()))?;
    let key = codec_key(cfg);
    if cfg.orchestrator.resume {
        let _span = telemetry::span!("codec/load");
        match load_codec(dir, &store, &key, events) {
            Some(codec) => {
                CODEC_LOADED.get().inc();
                return Ok(codec);
            }
            None => CODEC_LOAD_MISSES.get().inc(),
        }
    }
    let codec = train();
    let text = codec.to_json().map_err(PipelineError::Orchestrator)?;
    codec_object_bytes(text.len());
    let digest = store.put(text.as_bytes()).map_err(checkpoint_error(objects))?.digest;
    let codec_ref = serde_json::to_string(&CodecRef { key, digest })
        .map_err(|e| PipelineError::Orchestrator(e.to_string()))?;
    let ref_path = dir.join(CODEC_REF);
    orchestrator::atomic_write(&ref_path, codec_ref.as_bytes())
        .map_err(checkpoint_error(ref_path.clone()))?;
    Ok(codec)
}

/// The codec `dir`'s ref files under `key`, or `None` for any miss. An
/// object that is there but fails verification or does not decode is
/// quarantined and announced like any damaged payload.
fn load_codec(dir: &Path, store: &FsStore, key: &str, events: &EventLog) -> Option<TupleCodec> {
    let codec_ref = read_codec_ref(dir).filter(|r| r.key == key)?;
    let reason = match store.get(codec_ref.digest) {
        Err(GetError::Missing) => return None,
        Err(e) => e.to_string(),
        Ok(bytes) => {
            let len = bytes.len();
            let decoded = String::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(|text| TupleCodec::from_json(&text));
            match decoded {
                Ok(codec) => {
                    codec_object_bytes(len);
                    return Some(codec);
                }
                Err(e) => format!("undecodable codec: {e}"),
            }
        }
    };
    let file = orchestrator::store::object_rel(codec_ref.digest);
    orchestrator::manifest::quarantine_announced(dir, "", &file, reason, events);
    None
}

/// What a fit sets up before it does any work, and takes down on every
/// way out: the validated divergence spec, the run's event stream, and
/// this run's taps on the two process-global observers.
struct FitRun {
    divergence: Option<(String, u64)>,
    events: std::sync::Arc<EventLog>,
}

impl FitRun {
    fn open(cfg: &NetShareConfig) -> Result<Self, PipelineError> {
        let orch = &cfg.orchestrator;
        // The divergence spec is validated up front: a typo must abort the
        // run with exit-code-2 semantics, not silently train without the
        // fault the CI run was counting on.
        let divergence = orch
            .divergence_spec
            .as_deref()
            .map(parse_divergence_spec)
            .transpose()
            .map_err(PipelineError::Config)?;
        let mut events = EventLog::new();
        if std::env::var("NETSHARE_DEBUG_STEPS").is_ok() {
            events = events.with_stderr();
        }
        if let Some(dir) = &orch.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(checkpoint_error(dir.clone()))?;
            let path = dir.join("events.jsonl");
            events = events.with_file(&path).map_err(checkpoint_error(path.clone()))?;
        }
        let events = std::sync::Arc::new(events);
        // From here on the taps are installed, and `Drop` removes them.
        let run = FitRun { divergence, events };
        // With the sanitizer compiled in, route its trips into this run's
        // event stream: the hook fires on the tripping worker thread just
        // before the fatal panic, so the layer-attributed diagnostic is on
        // disk before the orchestrator's panic recovery files the generic
        // JobRetried/JobFailed.
        #[cfg(feature = "sanitize")]
        {
            let sink = std::sync::Arc::clone(&run.events);
            nnet::sanitize::set_hook(move |inc: &nnet::sanitize::Incident| {
                sink.emit(Event::SanitizerTripped {
                    scope: inc.scope.clone(),
                    op: inc.op.clone(),
                    kind: inc.kind.name().to_string(),
                    detail: inc.detail.clone(),
                });
            });
        }
        // Bridge telemetry spans into the same JSONL stream.
        let sink = std::sync::Arc::clone(&run.events);
        telemetry::span::set_span_sink(move |sp: &telemetry::span::SpanEvent| {
            sink.emit(Event::Span {
                path: sp.path.clone(),
                start_us: sp.start_ns / 1_000,
                duration_us: sp.duration_ns / 1_000,
                depth: sp.depth,
            });
        });
        Ok(run)
    }
}

/// Left installed, the taps would keep every later span in the process
/// flowing into this run's (finished) event stream. Both observers are
/// last-writer-wins, so of two runs sharing a process the one that
/// returns first ends the tap for both.
impl Drop for FitRun {
    fn drop(&mut self) {
        telemetry::span::clear_span_sink();
        #[cfg(feature = "sanitize")]
        nnet::sanitize::clear_hook();
    }
}

/// Chunk training — kind-agnostic: specs and encoded datasets in, models
/// out — run as a job DAG on the orchestrator (mirroring the paper's Ray
/// topology): one `pretrain` job — seed chunk at full depth, or public
/// pre-training in DP mode — and one `chunk-<i>` fine-tune job per
/// non-empty chunk, each depending on the pretrain artifact.
///
/// Jobs communicate through [`ModelArtifact`]s (parameters + sampler
/// RNG state), and the final models are rebuilt *from artifacts* on
/// both the live and the resumed path, so the result is bitwise
/// identical at any worker count and across kill/resume.
fn train_chunks(
    cfg: &NetShareConfig,
    run: &FitRun,
    meta_spec: FeatureSpec,
    record_spec: FeatureSpec,
    datasets: &[Option<TimeSeriesDataset>],
    build_public: impl Fn() -> TimeSeriesDataset + Send + Sync,
) -> Result<ChunkTraining, PipelineError> {
    // The pretrained model every chunk fine-tunes from. No data at all
    // (every chunk empty) means nothing to train.
    let Some(seed_idx) = datasets.iter().position(|d| d.is_some()) else {
        let none: Vec<Option<DoppelGanger>> = datasets.iter().map(|_| None).collect();
        return Ok((none, 0.0, 0.0, Vec::new(), Vec::new()));
    };
    let seed_data = datasets[seed_idx]
        .as_ref()
        .expect("seed_idx points at a non-empty chunk"); // lint: allow(panic-in-lib) seed_idx was selected from the non-empty chunks

    let base_dg = |steps: usize, seed: u64, dp: Option<nnet::dpsgd::DpSgdConfig>| {
        let mut dg = DgConfig::small(meta_spec.clone(), record_spec.clone(), cfg.max_seq_len);
        dg.gen_steps = steps;
        dg.batch_size = cfg.batch_size;
        // DP fine-tuning uses a reduced learning rate so the noisy
        // gradients refine (rather than overwrite) the pre-trained
        // weights — the mechanism behind the Insight-4 gains.
        dg.lr = if dp.is_some() { cfg.lr * 0.3 } else { cfg.lr };
        dg.n_critic = cfg.n_critic;
        dg.weight_clip = cfg.weight_clip;
        dg.aux_weight = cfg.aux_weight;
        dg.seed = seed;
        dg.dp = dp;
        dg
    };
    // The config chunk `ci`'s model is trained under and later rebuilt
    // from its artifact with. Non-DP, the seed model *is* the seed
    // chunk's model, so that chunk keeps the pretrain seed.
    let chunk_dg = |ci: usize| match cfg.dp {
        None if ci == seed_idx => base_dg(0, cfg.seed ^ 0x91, None),
        dp => base_dg(0, cfg.seed ^ (ci as u64) << 8, dp.map(|d| d.dpsgd())),
    };
    // Steps are specified for the *whole* trace and scaled to each
    // chunk's share of the data (training effort ∝ data seen, like the
    // epoch-based training in the paper). This is what makes chunking
    // cheaper in total CPU: the seed chunk gets full-depth training on
    // 1/M of the data and every other chunk only a short fine-tune.
    let total_items: usize = datasets
        .iter()
        .flatten()
        .map(|d| d.len())
        .sum::<usize>()
        .max(1);

    let orch = &cfg.orchestrator;
    let events = &run.events;

    let scaled = |job: &str, steps: usize, len: usize| -> usize {
        let v = ((steps as f64 * len as f64 / total_items as f64).ceil() as usize).max(5);
        events.emit(Event::ScaledSteps {
            job: job.to_string(),
            requested: steps as u64,
            scaled: v as u64,
            items: len as u64,
            total_items: total_items as u64,
        });
        v
    };
    let emit_losses = |job: &str, model: &DoppelGanger| {
        events.emit(Event::Losses {
            job: job.to_string(),
            d_loss: model.stats.d_loss.last().copied().unwrap_or(0.0) as f64,
            g_loss: model.stats.g_loss.last().copied().unwrap_or(0.0) as f64,
            critic_steps: model.stats.critic_steps,
            gen_steps: model.stats.g_loss.len() as u64,
        });
    };

    // Cooperative training controls: the cancel probe surfaces
    // watchdog / run-failure cancellations between generator steps,
    // and the observer feeds the watchdog heartbeat (and the
    // `train.steps_per_sec` gauge).
    let control_from = |inp: &JobInputs<ModelArtifact>| -> TrainControl {
        let token = inp.cancel.clone();
        let heartbeat = inp.heartbeat.clone();
        TrainControl {
            cancel: Some(std::sync::Arc::new(move || token.reason())),
            observer: Some(std::sync::Arc::new(move |steps| heartbeat.beat(steps))),
        }
    };
    let divergence = &run.divergence;
    // All training runs under the divergence sentinel; a healthy run
    // is bitwise-identical to plain `train_steps`, so the pool's
    // determinism guarantees are untouched.
    let train_guarded = |model: &mut DoppelGanger,
                         data: &TimeSeriesDataset,
                         steps: usize,
                         job: &str,
                         inp: &JobInputs<ModelArtifact>,
                         dp: bool|
     -> Result<(), String> {
        let mut scfg = SentinelConfig::default();
        if let Some(budget) = orch.rollback_budget {
            scfg.rollback_budget = budget;
        }
        if dp {
            // A rollback would replay DP-SGD steps the accountant has
            // already charged (its state is not snapshotted), so DP
            // jobs get no budget: divergence fails the attempt loudly.
            scfg.rollback_budget = 0;
        } else if let Some((dj, at)) = divergence {
            if dj == job {
                scfg.inject_non_finite_at = Some(*at);
            }
        }
        let rollbacks = model
            .train_steps_sentinel(data, steps, &scfg, &control_from(inp))
            .map_err(|e| e.to_string())?;
        for (i, rb) in rollbacks.iter().enumerate() {
            events.emit(Event::SentinelRollback {
                job: job.to_string(),
                step: rb.step,
                reason: rb.reason.clone(),
                rollback: (i + 1) as u32,
                lr: rb.lr as f64,
            });
        }
        Ok(())
    };

    // --- the job DAG --------------------------------------------------
    let base_dg = &base_dg;
    let chunk_dg = &chunk_dg;
    let scaled = &scaled;
    let emit_losses = &emit_losses;
    let build_public = &build_public;
    let train_guarded = &train_guarded;
    let mut jobs: Vec<JobSpec<'_, ModelArtifact>> = Vec::with_capacity(datasets.len() + 1);
    jobs.push(JobSpec::new(
        "pretrain",
        Vec::<String>::new(),
        move |inp: &JobInputs<ModelArtifact>| {
            let _span = telemetry::span!("pretrain");
            let mut model = DoppelGanger::new(base_dg(0, cfg.seed ^ 0x91, None));
            // DP: pre-train (non-privately) on public data. Non-DP: the
            // seed chunk trains from scratch at full depth (scaled to
            // its data share).
            let public;
            let (data, steps) = match cfg.dp {
                Some(dp_opts) => {
                    public = build_public();
                    (&public, dp_opts.public_pretrain_steps)
                }
                None => (seed_data, scaled("pretrain", cfg.seed_steps, seed_data.len())),
            };
            train_guarded(&mut model, data, steps, "pretrain", inp, false)?;
            emit_losses("pretrain", &model);
            Ok(ModelArtifact::capture(&model, None))
        },
    ));
    for (ci, data) in datasets.iter().enumerate() {
        let Some(data) = data.as_ref() else { continue };
        let id = format!("chunk-{ci}");
        jobs.push(JobSpec::new(
            id.clone(),
            ["pretrain"],
            move |inp: &JobInputs<ModelArtifact>| {
                let _span = telemetry::span!("chunk[{ci}]/fine_tune");
                let seed_model = inp
                    .dep("pretrain")?
                    .rebuild(base_dg(0, cfg.seed ^ 0x91, None))?;
                // Non-DP, the seed model *is* the seed chunk's model: it
                // retrains 0 extra steps from the artifact (no clone).
                // Every other chunk — under DP all of them, from the
                // public model — fine-tunes for its share of the steps.
                let mut model = DoppelGanger::from_pretrained(chunk_dg(ci), &seed_model);
                let steps = if cfg.dp.is_none() && ci == seed_idx {
                    0
                } else {
                    scaled(&id, cfg.finetune_steps, data.len())
                };
                train_guarded(&mut model, data, steps, &id, inp, cfg.dp.is_some())?;
                let rate = cfg.dp.map(|_| {
                    let q = (cfg.batch_size as f64 / data.len() as f64).min(1.0);
                    (q, model.dp_steps())
                });
                emit_losses(&id, &model);
                Ok(ModelArtifact::capture(&model, rate))
            },
        ));
    }
    let plan = Plan::new(jobs).map_err(PipelineError::Orchestrator)?;

    let defaults = RunOptions::default();
    let opts = RunOptions {
        workers: orch.workers,
        max_retries: orch.max_retries.unwrap_or(defaults.max_retries),
        checkpoint_dir: orch.checkpoint_dir.clone(),
        resume: orch.resume,
        run_key: run_key(
            RUN_KEY_VERSION,
            cfg,
            meta_spec.dim(),
            record_spec.dim(),
            &datasets.iter().map(|d| d.as_ref().map_or(0, |d| d.len())).collect::<Vec<_>>(),
        ),
        faults: orch.faults.clone(),
        keep_generations: orch.keep_generations.unwrap_or(defaults.keep_generations),
        watchdog: WatchdogOptions {
            max_job_secs: orch.max_job_secs,
            ..WatchdogOptions::default()
        },
        ..defaults
    };
    let report = orchestrator::run(&plan, &opts, events)?;

    // --- rebuild models from artifacts --------------------------------
    let mut models = Vec::with_capacity(datasets.len());
    let mut dp_rates = Vec::new();
    for (ci, data) in datasets.iter().enumerate() {
        if data.is_none() {
            models.push(None);
            continue;
        }
        let artifact = report
            .outputs
            .get(&format!("chunk-{ci}"))
            .ok_or_else(|| PipelineError::Orchestrator(format!("missing chunk-{ci} output")))?;
        let model = artifact.rebuild(chunk_dg(ci)).map_err(PipelineError::Orchestrator)?;
        if let Some(rate) = artifact.dp_rate {
            dp_rates.push(rate);
        }
        models.push(Some(model));
    }
    Ok((
        models,
        report.cpu_seconds,
        report.wall_seconds,
        dp_rates,
        events.events(),
    ))
}

/// Selects the DP pre-training packet source per the configured
/// [`crate::config::DpPretrainSource`].
fn pretrain_packets(cfg: &NetShareConfig, same_domain: &PacketTrace) -> PacketTrace {
    match cfg.dp.map(|d| d.pretrain_source) {
        Some(crate::config::DpPretrainSource::DifferentDomain) => {
            trace_synth::dc::generate(same_domain.len().max(1_000), cfg.seed ^ 0x0d1ff)
        }
        _ => same_domain.clone(),
    }
}

/// Parses a `"<job-id>:<step>"` divergence-injection spec (the
/// `NETSHARE_INJECT_DIVERGENCE` grammar): poison the named job's model
/// with a NaN at that generator step so the sentinel must roll back.
pub fn parse_divergence_spec(spec: &str) -> Result<(String, u64), String> {
    let err = || {
        format!(
            "invalid divergence spec `{spec}`: expected `job:step` \
             with a non-negative integer step"
        )
    };
    let (job, step) = spec.rsplit_once(':').ok_or_else(err)?;
    if job.is_empty() {
        return Err(err());
    }
    let step: u64 = step.parse().map_err(|_| err())?;
    Ok((job.to_string(), step))
}

/// Version of [`run_key`]'s description. Bumped whenever a job object's
/// stored form changes — v3: checkpoints as exact bit patterns — so a run
/// directory an older build wrote starts fresh once, instead of meeting
/// objects this build cannot decode; `netshare_cli gc` then reclaims them.
const RUN_KEY_VERSION: u32 = 3;

/// Fingerprints the *training-relevant* configuration and data geometry
/// (`meta_dim`, `rec_dim` and the per-chunk series counts `lens`).
/// A manifest written under a different key is ignored on resume —
/// changing the seed, step budget, DP options, the size of the public
/// corpus the dictionary is trained on (the metadata width does not move
/// with it, the embeddings the models were trained against do), or the
/// data itself must never silently reuse stale checkpoints. Orchestration knobs (worker
/// count, retries, checkpoint dir, chaos faults) deliberately do not
/// participate: they change scheduling, never the trained bits. The
/// divergence-injection spec *does* participate — a forced rollback
/// changes the weights, so its checkpoints must not leak into clean runs.
fn run_key(
    version: u32,
    cfg: &NetShareConfig,
    meta_dim: usize,
    rec_dim: usize,
    lens: &[usize],
) -> String {
    let div = match &cfg.orchestrator.divergence_spec {
        Some(spec) => format!("|div={spec}"),
        None => String::new(),
    };
    let desc = format!(
        "v{version}|seed={}|chunks={}|steps={}+{}|bs={}|lr={}|nc={}|wc={}|aux={}|maxlen={}|embed={}|public={}|labels={}|tags={}|dp={:?}|meta={meta_dim}|rec={rec_dim}|lens={lens:?}{div}",
        cfg.seed,
        cfg.n_chunks,
        cfg.seed_steps,
        cfg.finetune_steps,
        cfg.batch_size,
        cfg.lr,
        cfg.n_critic,
        cfg.weight_clip,
        cfg.aux_weight,
        cfg.max_seq_len,
        cfg.embed_dim,
        cfg.ip2vec_public_packets,
        cfg.with_labels,
        cfg.use_flow_tags,
        cfg.dp,
    );
    format!("{:016x}", orchestrator::fnv1a64(desc.as_bytes()))
}

fn chunk_item_counts<T>(chunked: &Chunked<T>) -> Vec<usize> {
    chunked
        .chunks
        .iter()
        .map(|c| c.iter().map(|g| g.items.len()).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpOptions;
    use trace_synth::{generate_flows as synth_flows, generate_packets as synth_packets, DatasetKind};

    fn tiny_cfg() -> NetShareConfig {
        let mut cfg = NetShareConfig::fast();
        cfg.n_chunks = 2;
        cfg.seed_steps = 12;
        cfg.finetune_steps = 4;
        cfg.ip2vec_public_packets = 1_200;
        cfg.max_seq_len = 4;
        cfg
    }

    #[test]
    fn flow_pipeline_end_to_end() {
        let real = synth_flows(DatasetKind::Ugr16, 600, 1);
        let mut model = NetShare::fit_flows(&real, &tiny_cfg()).unwrap();
        assert!(model.trained_chunks() >= 1);
        let synth = model.generate_flows(300);
        assert!(synth.len() >= 250 && synth.len() <= 300, "got {}", synth.len());
        assert!(synth
            .flows
            .windows(2)
            .all(|w| w[0].start_ms <= w[1].start_ms), "time-sorted output");
        assert!(synth.flows.iter().all(|f| f.packets >= 1));
    }

    #[test]
    fn packet_pipeline_end_to_end() {
        let real = synth_packets(DatasetKind::Caida, 600, 2);
        let mut model = NetShare::fit_packets(&real, &tiny_cfg()).unwrap();
        let synth = model.generate_packets(300);
        assert!(synth.len() >= 250 && synth.len() <= 300);
        assert!(synth.packets.iter().all(|p| p.packet_len >= 20));
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(matches!(
            NetShare::fit_flows(&FlowTrace::new(), &tiny_cfg()),
            Err(PipelineError::EmptyTrace)
        ));
    }

    #[test]
    fn dp_mode_reports_epsilon() {
        let real = synth_flows(DatasetKind::Ugr16, 400, 3);
        let mut cfg = tiny_cfg();
        cfg.dp = Some(DpOptions {
            noise_multiplier: 1.0,
            clip_norm: 1.0,
            delta: 1e-5,
            public_pretrain_steps: 6,
            pretrain_source: Default::default(),
        });
        let mut model = NetShare::fit_flows(&real, &cfg).unwrap();
        let eps = model.epsilon().expect("DP mode must report epsilon");
        assert!(eps.is_finite() && eps > 0.0, "ε = {eps}");
        let synth = model.generate_flows(100);
        assert!(!synth.is_empty());
    }

    #[test]
    fn non_dp_has_no_epsilon() {
        let real = synth_flows(DatasetKind::Ugr16, 300, 4);
        let model = NetShare::fit_flows(&real, &tiny_cfg()).unwrap();
        assert!(model.epsilon().is_none());
    }

    #[test]
    fn v0_single_chunk_trains_one_model() {
        let real = synth_flows(DatasetKind::Ugr16, 300, 5);
        let cfg = tiny_cfg().v0_from();
        let model = NetShare::fit_flows(&real, &cfg).unwrap();
        assert_eq!(model.trained_chunks(), 1);
    }

    #[test]
    fn divergence_spec_grammar() {
        assert_eq!(
            parse_divergence_spec("chunk-1:40").unwrap(),
            ("chunk-1".to_string(), 40)
        );
        for bad in ["", "chunk-1", "chunk-1:", ":40", "chunk-1:x", "chunk-1:-3"] {
            let err = parse_divergence_spec(bad).unwrap_err();
            assert!(err.contains("expected `job:step`"), "{err}");
        }
    }

    #[test]
    fn malformed_divergence_spec_is_a_config_error() {
        let real = synth_flows(DatasetKind::Ugr16, 200, 7);
        let mut cfg = tiny_cfg();
        cfg.orchestrator.divergence_spec = Some("no-step".into());
        assert!(matches!(
            NetShare::fit_flows(&real, &cfg),
            Err(PipelineError::Config(e)) if e.contains("expected `job:step`")
        ));
    }

    /// The stored form of a job object before checkpoints had a format:
    /// every weight as float text.
    #[derive(Serialize)]
    struct FloatTextCheckpoint {
        tensors: Vec<nnet::Tensor>,
    }

    #[derive(Serialize)]
    struct FloatTextArtifact {
        gen: FloatTextCheckpoint,
        disc: FloatTextCheckpoint,
        rng_state: Vec<u64>,
        dp_rate: Option<(f64, u64)>,
    }

    fn float_text(art: &ModelArtifact) -> String {
        let ckpt = |c: &nnet::serialize::Checkpoint| FloatTextCheckpoint { tensors: c.tensors.clone() };
        serde_json::to_string(&FloatTextArtifact {
            gen: ckpt(&art.gen),
            disc: ckpt(&art.disc),
            rng_state: art.rng_state.clone(),
            dp_rate: art.dp_rate,
        })
        .unwrap()
    }

    /// A run directory as the previous build left it — this run's jobs
    /// as float-text objects under the `v2` run key — resumes as a fresh
    /// run: every job trains, nothing is taken for damage, the trace is
    /// the one a fresh fit makes, and the old objects wait for `gc`.
    #[test]
    fn a_run_directory_of_the_previous_build_trains_afresh_once() {
        let real = synth_flows(DatasetKind::Ugr16, 400, 17);
        let dir = std::env::temp_dir().join(format!("netshare-upgrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = tiny_cfg();
        cfg.orchestrator.checkpoint_dir = Some(dir.clone());
        let mut fresh = NetShare::fit_flows(&real, &cfg).unwrap();
        let want = fresh.generate_flows(100);

        let lens: Vec<usize> =
            FlowCodec::chunk(&real, cfg.n_chunks).chunks.iter().map(Vec::len).collect();
        let (meta, rec) = (fresh.codec.meta_spec().dim(), fresh.codec.record_spec().dim());
        let key = |version| run_key(version, &cfg, meta, rec, &lens);
        let current = orchestrator::Manifest::load(&dir).unwrap();
        assert_eq!(current.run_key, key(RUN_KEY_VERSION), "the key the fit ran under");
        assert_eq!(key(2), "d7506656300746dd", "the key the previous build gave this run");

        let store = FsStore::open(&dir).unwrap();
        let mut old = orchestrator::Manifest::new(key(2));
        let mut old_objects = std::collections::BTreeSet::new();
        for e in &current.jobs {
            let text = String::from_utf8(store.get(e.digest).unwrap()).unwrap();
            let art: ModelArtifact = serde_json::from_str(&text).unwrap();
            let digest = store.put(float_text(&art).as_bytes()).unwrap().digest;
            store.remove(e.digest).unwrap();
            old.append(&e.id, digest, &e.stats());
            old_objects.insert(digest);
        }
        old.store(&dir).unwrap();

        cfg.orchestrator.resume = true;
        let mut resumed = NetShare::fit_flows(&real, &cfg).unwrap();
        assert_eq!(resumed.generate_flows(100), want);
        let events = resumed.events();
        assert!(events.iter().any(|e| matches!(e, Event::RunStarted { resumed: 0, .. })));
        let trained: std::collections::BTreeSet<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::JobStarted { job, .. } => Some(job.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(trained.len(), current.jobs.len(), "every job trains: {trained:?}");
        assert!(!events
            .iter()
            .any(|e| matches!(e, Event::JobSkipped { .. } | Event::CheckpointQuarantined { .. })));
        assert!(old_objects.iter().all(|&d| store.contains(d)), "the old objects wait for gc");

        let swept = store.sweep(&live_objects(&dir)).unwrap();
        assert_eq!(swept.removed.into_iter().collect::<std::collections::BTreeSet<_>>(), old_objects);
        let now = orchestrator::Manifest::load(&dir).unwrap();
        assert!(now.jobs.iter().all(|e| store.contains(e.digest)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_merge_entry_point() {
        let real = synth_flows(DatasetKind::Ugr16, 400, 6);
        let epochs = nettrace::epoch::split_flow_epochs(&real, 4);
        let mut model = NetShare::fit_flow_epochs(&epochs, &tiny_cfg()).unwrap();
        let synth = model.generate_flows(100);
        assert!(!synth.is_empty());
    }
}
