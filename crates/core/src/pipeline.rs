//! The end-to-end NetShare pipeline (paper Fig. 9).

use crate::ModelArtifact;
use crate::chunking::{chunk_flows, chunk_packets, Chunked};
use crate::config::NetShareConfig;
use crate::flowcodec::FlowCodec;
use crate::packetcodec::PacketCodec;
use crate::tuplecodec::TupleCodec;
use doppelganger::{DgConfig, DoppelGanger, SentinelConfig, TimeSeriesDataset, TrainControl};
use nettrace::{aggregate_flows, AggregationConfig, FlowTrace, PacketTrace};
use orchestrator::{
    ChaosPlan, Event, EventLog, JobInputs, JobSpec, OrchestratorError, Plan, RunOptions,
    WatchdogOptions,
};
use rand::prelude::*;
use std::fmt;
use std::path::PathBuf;

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

enum Codec {
    Flow(FlowCodec),
    Packet(PacketCodec),
}

/// Which sampler the generation loops draw from.
///
/// At default precision the two paths are **bitwise-equal** (the
/// `infer_equiv` suite proves it), so this is purely a speed knob; the
/// reference path survives as the oracle the fast path is checked
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePath {
    /// The training-graph sampler (`DoppelGanger::sample`): rebuilds
    /// activations per call. Kept as the equivalence oracle.
    Reference,
    /// The frozen arena-backed sampler (`DoppelGanger::sample_fast`):
    /// no gradient caches, recycled activations. The default.
    Fast,
}

/// A fitted NetShare model: one DoppelGANger per chunk, plus the codec and
/// chunk geometry needed to decode generated samples back into a trace.
pub struct NetShare {
    cfg: NetShareConfig,
    codec: Codec,
    /// Per-chunk models (`None` for chunks with no training data).
    models: Vec<Option<DoppelGanger>>,
    bounds: Vec<(f64, f64)>,
    /// Real record/packet counts per chunk (drives proportional sampling).
    chunk_counts: Vec<usize>,
    rng: StdRng,
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

/// What [`NetShare::train_chunks`] hands back to the fit entry points:
/// per-chunk models (`None` for empty chunks), summed per-chunk CPU
/// seconds, wall seconds, per-chunk DP sampling rates, and the
/// orchestrator event stream.
type ChunkTraining = (
    Vec<Option<DoppelGanger>>,
    f64,
    f64,
    Vec<(f64, u64)>,
    Vec<Event>,
);

impl NetShare {
    /// Fits on a flow-header trace (the NetFlow pipeline).
    pub fn fit_flows(trace: &FlowTrace, cfg: &NetShareConfig) -> Result<NetShare, PipelineError> {
        if trace.is_empty() {
            return Err(PipelineError::EmptyTrace);
        }
        let _span = telemetry::span!("fit_flows");
        let public_pkts =
            trace_synth::public::ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
        let tuples = TupleCodec::fit_public(&public_pkts, cfg.embed_dim, cfg.seed ^ 0xcd);
        // In DP mode, normalization ranges must not depend on private data.
        let mut codec = if cfg.dp.is_some() {
            let public_flows = aggregate_flows(&public_pkts, AggregationConfig::default());
            FlowCodec::fit(&public_flows, tuples, cfg.n_chunks, cfg.with_labels)
        } else {
            FlowCodec::fit(trace, tuples, cfg.n_chunks, cfg.with_labels)
        };
        codec.tags_enabled = cfg.use_flow_tags;

        let chunked = chunk_flows(trace, cfg.n_chunks);
        let datasets: Vec<Option<TimeSeriesDataset>> = chunked
            .chunks
            .iter()
            .enumerate()
            .map(|(ci, groups)| {
                if groups.is_empty() {
                    return None;
                }
                let mut meta = Vec::with_capacity(groups.len());
                let mut seqs = Vec::with_capacity(groups.len());
                for g in groups {
                    let (m, s) = codec.encode_group(g, chunked.bounds[ci]);
                    meta.push(m);
                    seqs.push(s);
                }
                Some(TimeSeriesDataset::new(meta, seqs, cfg.max_seq_len))
            })
            .collect();

        let (models, cpu_seconds, wall_seconds, dp_rates, events) = Self::train_chunks(
            cfg,
            codec.meta_spec(),
            codec.record_spec(),
            &datasets,
            || {
                // Public pre-training dataset for DP mode: the chosen
                // public trace run through the same encode path.
                let src = pretrain_packets(cfg, &public_pkts);
                let public_flows = aggregate_flows(&src, AggregationConfig::default());
                let pc = chunk_flows(&public_flows, cfg.n_chunks);
                let mut meta = Vec::new();
                let mut seqs = Vec::new();
                for (ci, groups) in pc.chunks.iter().enumerate() {
                    for g in groups {
                        let (m, s) = codec.encode_group(g, pc.bounds[ci]);
                        meta.push(m);
                        seqs.push(s);
                    }
                }
                TimeSeriesDataset::new(meta, seqs, cfg.max_seq_len)
            },
        )?;

        Ok(NetShare {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xef),
            codec: Codec::Flow(codec),
            models,
            bounds: chunked.bounds.clone(),
            chunk_counts: chunk_item_counts(&chunked),
            wall_seconds,
            cpu_seconds,
            dp_rates,
            events,
            cfg: cfg.clone(),
        })
    }

    /// Fits on per-epoch flow traces by first merging them (Insight 1).
    pub fn fit_flow_epochs(
        epochs: &[FlowTrace],
        cfg: &NetShareConfig,
    ) -> Result<NetShare, PipelineError> {
        let merged = nettrace::epoch::merge_flow_epochs(epochs);
        NetShare::fit_flows(&merged, cfg)
    }

    /// Fits on a packet-header trace (the PCAP pipeline).
    pub fn fit_packets(
        trace: &PacketTrace,
        cfg: &NetShareConfig,
    ) -> Result<NetShare, PipelineError> {
        if trace.is_empty() {
            return Err(PipelineError::EmptyTrace);
        }
        let _span = telemetry::span!("fit_packets");
        let public_pkts =
            trace_synth::public::ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
        let tuples = TupleCodec::fit_public(&public_pkts, cfg.embed_dim, cfg.seed ^ 0xcd);
        let mut codec = if cfg.dp.is_some() {
            PacketCodec::fit(&public_pkts, tuples, cfg.n_chunks)
        } else {
            PacketCodec::fit(trace, tuples, cfg.n_chunks)
        };
        codec.tags_enabled = cfg.use_flow_tags;

        let chunked = chunk_packets(trace, cfg.n_chunks);
        let datasets: Vec<Option<TimeSeriesDataset>> = chunked
            .chunks
            .iter()
            .enumerate()
            .map(|(ci, groups)| {
                if groups.is_empty() {
                    return None;
                }
                let mut meta = Vec::with_capacity(groups.len());
                let mut seqs = Vec::with_capacity(groups.len());
                for g in groups {
                    let (m, s) = codec.encode_group(g, chunked.bounds[ci]);
                    meta.push(m);
                    seqs.push(s);
                }
                Some(TimeSeriesDataset::new(meta, seqs, cfg.max_seq_len))
            })
            .collect();

        let (models, cpu_seconds, wall_seconds, dp_rates, events) = Self::train_chunks(
            cfg,
            codec.meta_spec(),
            codec.record_spec(),
            &datasets,
            || {
                let src = pretrain_packets(cfg, &public_pkts);
                let pc = chunk_packets(&src, cfg.n_chunks);
                let mut meta = Vec::new();
                let mut seqs = Vec::new();
                for (ci, groups) in pc.chunks.iter().enumerate() {
                    for g in groups {
                        let (m, s) = codec.encode_group(g, pc.bounds[ci]);
                        meta.push(m);
                        seqs.push(s);
                    }
                }
                TimeSeriesDataset::new(meta, seqs, cfg.max_seq_len)
            },
        )?;

        Ok(NetShare {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xef),
            codec: Codec::Packet(codec),
            models,
            bounds: chunked.bounds.clone(),
            chunk_counts: chunk_item_counts(&chunked),
            wall_seconds,
            cpu_seconds,
            dp_rates,
            events,
            cfg: cfg.clone(),
        })
    }

    /// Shared chunk-training logic, run as a job DAG on the orchestrator
    /// (mirroring the paper's Ray topology): one `pretrain` job — seed
    /// chunk at full depth, or public pre-training in DP mode — and one
    /// `chunk-<i>` fine-tune job per non-empty chunk, each depending on
    /// the pretrain artifact.
    ///
    /// Jobs communicate through [`ModelArtifact`]s (parameters + sampler
    /// RNG state), and the final models are rebuilt *from artifacts* on
    /// both the live and the resumed path, so the result is bitwise
    /// identical at any worker count and across kill/resume.
    fn train_chunks(
        cfg: &NetShareConfig,
        meta_spec: doppelganger::FeatureSpec,
        record_spec: doppelganger::FeatureSpec,
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
            .expect("seed_idx points at a non-empty chunk"); // lint: allow(panic-in-lib) seed_idx was selected from the non-empty chunks (lint: allow(panic-in-lib) seed_idx was selected from the non-empty chunks)

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
        // Injection specs are validated up front: a typo in a chaos knob
        // must abort the run with exit-code-2 semantics, not silently
        // train without the fault the CI run was counting on.
        let chaos = orch
            .fault_spec
            .as_deref()
            .map(ChaosPlan::parse)
            .transpose()
            .map_err(PipelineError::Config)?;
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
            std::fs::create_dir_all(dir).map_err(|e| PipelineError::Checkpoint {
                path: dir.clone(),
                message: e.to_string(),
            })?;
            let path = dir.join("events.jsonl");
            events = events.with_file(&path).map_err(|e| PipelineError::Checkpoint {
                path,
                message: e.to_string(),
            })?;
        }
        let events = std::sync::Arc::new(events);
        // This run's taps on the two process-global observers, removed
        // again on every way out of this function: left installed, they
        // would keep every later span in the process flowing into this
        // run's (finished) event stream. Both observers are
        // last-writer-wins, so of two runs sharing a process the one that
        // returns first ends the tap for both.
        struct GlobalTaps;
        impl Drop for GlobalTaps {
            fn drop(&mut self) {
                telemetry::span::clear_span_sink();
                #[cfg(feature = "sanitize")]
                nnet::sanitize::clear_hook();
            }
        }
        let _taps = GlobalTaps;
        // With the sanitizer compiled in, route its trips into this run's
        // event stream: the hook fires on the tripping worker thread just
        // before the fatal panic, so the layer-attributed diagnostic is on
        // disk before the orchestrator's panic recovery files the generic
        // JobRetried/JobFailed.
        #[cfg(feature = "sanitize")]
        {
            let sink = std::sync::Arc::clone(&events);
            nnet::sanitize::set_hook(move |inc: &nnet::sanitize::Incident| {
                sink.emit(Event::SanitizerTripped {
                    scope: inc.scope.clone(),
                    op: inc.op.clone(),
                    kind: inc.kind.name().to_string(),
                    detail: inc.detail.clone(),
                });
            });
        }

        // Bridge telemetry spans into the same JSONL stream. With the
        // `telemetry` feature off this installs nothing (the sink setter is
        // a no-op and spans never fire).
        {
            let sink = std::sync::Arc::clone(&events);
            telemetry::span::set_span_sink(move |sp: &telemetry::span::SpanEvent| {
                sink.emit(Event::Span {
                    path: sp.path.clone(),
                    start_us: sp.start_ns / 1_000,
                    duration_us: sp.duration_ns / 1_000,
                    depth: sp.depth,
                });
            });
        }

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
        let divergence = &divergence;
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
                match cfg.dp {
                    Some(dp_opts) => {
                        // DP: pre-train (non-privately) on public data.
                        let public = build_public();
                        train_guarded(
                            &mut model,
                            &public,
                            dp_opts.public_pretrain_steps,
                            "pretrain",
                            inp,
                            false,
                        )?;
                    }
                    None => {
                        // Non-DP: seed chunk trains from scratch at full
                        // depth (scaled to its data share).
                        train_guarded(
                            &mut model,
                            seed_data,
                            scaled("pretrain", cfg.seed_steps, seed_data.len()),
                            "pretrain",
                            inp,
                            false,
                        )?;
                    }
                }
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
                    let (model, rate) = match cfg.dp {
                        Some(dp_opts) => {
                            // Every chunk (including the first) DP
                            // fine-tunes from the public model.
                            let mut m = DoppelGanger::from_pretrained(
                                base_dg(0, cfg.seed ^ (ci as u64) << 8, Some(dp_opts.dpsgd())),
                                &seed_model,
                            );
                            train_guarded(
                                &mut m,
                                data,
                                scaled(&id, cfg.finetune_steps, data.len()),
                                &id,
                                inp,
                                true,
                            )?;
                            let q = (cfg.batch_size as f64 / data.len() as f64).min(1.0);
                            let steps = m.dp_steps();
                            (m, Some((q, steps)))
                        }
                        None if ci == seed_idx => {
                            // The seed model *is* this chunk's model.
                            // (Cloning is avoided by retraining 0 extra
                            // steps from its artifact.)
                            let mut m = DoppelGanger::from_pretrained(
                                base_dg(0, cfg.seed ^ 0x91, None),
                                &seed_model,
                            );
                            train_guarded(&mut m, data, 0, &id, inp, false)?;
                            (m, None)
                        }
                        None => {
                            let mut m = DoppelGanger::from_pretrained(
                                base_dg(0, cfg.seed ^ (ci as u64) << 8, None),
                                &seed_model,
                            );
                            train_guarded(
                                &mut m,
                                data,
                                scaled(&id, cfg.finetune_steps, data.len()),
                                &id,
                                inp,
                                false,
                            )?;
                            (m, None)
                        }
                    };
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
            run_key: run_key(cfg, &meta_spec, &record_spec, datasets),
            chaos,
            keep_generations: orch.keep_generations.unwrap_or(defaults.keep_generations),
            watchdog: WatchdogOptions {
                max_job_secs: orch.max_job_secs,
                ..WatchdogOptions::default()
            },
            ..defaults
        };
        let report = orchestrator::run(&plan, &opts, &events)?;

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
            let dg_cfg = match cfg.dp {
                Some(dp_opts) => base_dg(0, cfg.seed ^ (ci as u64) << 8, Some(dp_opts.dpsgd())),
                None if ci == seed_idx => base_dg(0, cfg.seed ^ 0x91, None),
                None => base_dg(0, cfg.seed ^ (ci as u64) << 8, None),
            };
            let model = artifact.rebuild(dg_cfg).map_err(PipelineError::Orchestrator)?;
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

    /// Generates a synthetic flow trace of approximately `n` records,
    /// remerged in start-time order (the post-processing step).
    ///
    /// Draws from the frozen arena-backed sampler ([`SamplePath::Fast`]),
    /// whose output is bitwise-equal to the reference path (proven by the
    /// `infer_equiv` suite), so traces are byte-identical either way.
    ///
    /// # Panics
    /// Panics if the model was fit on packets.
    pub fn generate_flows(&mut self, n: usize) -> FlowTrace {
        self.generate_flows_via(n, SamplePath::Fast)
    }

    /// [`Self::generate_flows`] with an explicit sampler choice.
    ///
    /// # Panics
    /// Panics if the model was fit on packets.
    pub fn generate_flows_via(&mut self, n: usize, path: SamplePath) -> FlowTrace {
        let _span = telemetry::span!("generate_flows[{n}]");
        let codec = match &self.codec {
            Codec::Flow(c) => c,
            Codec::Packet(_) => panic!("model was fit on packets; call generate_packets"), // lint: allow(panic-in-lib) documented contract panic (see doc comment) (lint: allow(panic-in-lib) documented contract panic (see doc comment))
        };
        let total: usize = self.chunk_counts.iter().sum::<usize>().max(1);
        let mut flows = Vec::with_capacity(n);
        for ci in 0..self.models.len() {
            let want = (n as f64 * self.chunk_counts[ci] as f64 / total as f64).round() as usize;
            let Some(model) = self.models[ci].as_mut() else {
                continue;
            };
            let bounds = self.bounds[ci];
            let mut got = 0usize;
            while got < want {
                let take = ((want - got) / 2 + 1).clamp(1, 64);
                let batch = match path {
                    SamplePath::Reference => model.sample(take),
                    SamplePath::Fast => model.sample_fast(take),
                };
                for s in batch {
                    let recs = codec.decode_sample(&s.meta, &s.records, bounds);
                    got += recs.len();
                    flows.extend(recs);
                }
            }
        }
        let mut trace = FlowTrace::from_records(flows);
        trace.truncate(n);
        trace
    }

    /// Generates a synthetic packet trace of approximately `n` packets,
    /// remerged by raw timestamp.
    ///
    /// Draws from the frozen arena-backed sampler ([`SamplePath::Fast`]);
    /// see [`Self::generate_flows`] for the equivalence guarantee.
    ///
    /// # Panics
    /// Panics if the model was fit on flows.
    pub fn generate_packets(&mut self, n: usize) -> PacketTrace {
        self.generate_packets_via(n, SamplePath::Fast)
    }

    /// [`Self::generate_packets`] with an explicit sampler choice.
    ///
    /// # Panics
    /// Panics if the model was fit on flows.
    pub fn generate_packets_via(&mut self, n: usize, path: SamplePath) -> PacketTrace {
        let _span = telemetry::span!("generate_packets[{n}]");
        let codec = match &self.codec {
            Codec::Packet(c) => c,
            Codec::Flow(_) => panic!("model was fit on flows; call generate_flows"), // lint: allow(panic-in-lib) documented contract panic (see doc comment) (lint: allow(panic-in-lib) documented contract panic (see doc comment))
        };
        let total: usize = self.chunk_counts.iter().sum::<usize>().max(1);
        let mut packets = Vec::with_capacity(n);
        for ci in 0..self.models.len() {
            let want = (n as f64 * self.chunk_counts[ci] as f64 / total as f64).round() as usize;
            let Some(model) = self.models[ci].as_mut() else {
                continue;
            };
            let bounds = self.bounds[ci];
            let mut got = 0usize;
            while got < want {
                let take = ((want - got) / 2 + 1).clamp(1, 64);
                let batch = match path {
                    SamplePath::Reference => model.sample(take),
                    SamplePath::Fast => model.sample_fast(take),
                };
                for s in batch {
                    let recs = codec.decode_sample(&s.meta, &s.records, bounds);
                    got += recs.len();
                    packets.extend(recs);
                }
            }
        }
        let mut trace = PacketTrace::from_records(packets);
        trace.truncate(n);
        let _ = &self.rng; // reserved for future stochastic post-processing
        trace
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

/// Fingerprints the *training-relevant* configuration and data geometry.
/// A manifest written under a different key is ignored on resume —
/// changing the seed, step budget, DP options, or the data itself must
/// never silently reuse stale checkpoints. Orchestration knobs (worker
/// count, retries, checkpoint dir, chaos faults) deliberately do not
/// participate: they change scheduling, never the trained bits. The
/// divergence-injection spec *does* participate — a forced rollback
/// changes the weights, so its checkpoints must not leak into clean runs.
fn run_key(
    cfg: &NetShareConfig,
    meta_spec: &doppelganger::FeatureSpec,
    record_spec: &doppelganger::FeatureSpec,
    datasets: &[Option<TimeSeriesDataset>],
) -> String {
    let lens: Vec<usize> = datasets
        .iter()
        .map(|d| d.as_ref().map_or(0, |d| d.len()))
        .collect();
    let div = match &cfg.orchestrator.divergence_spec {
        Some(spec) => format!("|div={spec}"),
        None => String::new(),
    };
    let desc = format!(
        "v1|seed={}|chunks={}|steps={}+{}|bs={}|lr={}|nc={}|wc={}|aux={}|maxlen={}|embed={}|labels={}|tags={}|dp={:?}|meta={}|rec={}|lens={:?}{div}",
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
        cfg.with_labels,
        cfg.use_flow_tags,
        cfg.dp,
        meta_spec.dim(),
        record_spec.dim(),
        lens,
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
    fn malformed_injection_specs_are_config_errors() {
        let real = synth_flows(DatasetKind::Ugr16, 200, 7);
        let mut cfg = tiny_cfg();
        cfg.orchestrator.fault_spec = Some("chunk-1:bogus".into());
        assert!(matches!(
            NetShare::fit_flows(&real, &cfg),
            Err(PipelineError::Config(e)) if e.contains("invalid fault spec")
        ));
        let mut cfg = tiny_cfg();
        cfg.orchestrator.divergence_spec = Some("no-step".into());
        assert!(matches!(
            NetShare::fit_flows(&real, &cfg),
            Err(PipelineError::Config(e)) if e.contains("expected `job:step`")
        ));
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
