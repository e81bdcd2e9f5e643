//! The DoppelGANger training loop and sampling interface.
//!
//! lint: dp-post-noise — in DP mode this file consumes gradients only
//! *after* `DpSgdTrainer::sanitize_batch` has clipped and noised them;
//! `netshare-lint` therefore bans the raw per-example accessors
//! (`flat_gradients`/`gradients_mut`/`set_flat_gradients`) here, so the
//! privacy accounting cannot be silently bypassed by a later edit.

use crate::data::TimeSeriesDataset;
use crate::model::{DgDiscriminators, DgGenerator};
use crate::spec::FeatureSpec;
use nnet::dpsgd::{DpSgdConfig, DpSgdTrainer};
use nnet::loss::{bce_with_logits, wasserstein_critic, wasserstein_generator};
use nnet::optim::{clip_weights, Adam, GradClip, Optimizer};
use nnet::serialize::Checkpoint;
use nnet::{Init, Layer, Parameterized};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// GAN objective for the DoppelGANger critics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DgLoss {
    /// Wasserstein with weight clipping — the substitution for the
    /// original's WGAN-GP (see DESIGN.md §1).
    Wasserstein,
    /// Non-saturating BCE GAN. At small (CPU) training scale the
    /// unconstrained discriminator gives far sharper mode coverage than a
    /// weight-clipped critic, so this is the default here.
    Bce,
}

/// Hyper-parameters of a DoppelGANger instance.
///
/// Serializable so a config can travel with a trained
/// [`ModelArtifact`](crate::artifact::ModelArtifact) inside an
/// [`ArtifactBundle`](crate::artifact::ArtifactBundle) — the on-disk unit
/// the `netshared` serving daemon loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DgConfig {
    /// Metadata feature layout.
    pub meta_spec: FeatureSpec,
    /// Record feature layout (excluding the gen flag).
    pub record_spec: FeatureSpec,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Metadata noise width.
    pub z_meta_dim: usize,
    /// Per-step record noise width.
    pub z_record_dim: usize,
    /// Metadata-generator hidden sizes.
    pub meta_hidden: Vec<usize>,
    /// GRU hidden width.
    pub rnn_hidden: usize,
    /// Record-head hidden sizes.
    pub head_hidden: Vec<usize>,
    /// Full-critic hidden sizes.
    pub disc_hidden: Vec<usize>,
    /// Auxiliary-critic hidden sizes.
    pub aux_hidden: Vec<usize>,
    /// Adam learning rate (both players).
    pub lr: f32,
    /// Critic steps per generator step.
    pub n_critic: usize,
    /// WGAN weight-clipping bound.
    pub weight_clip: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Total generator steps to train.
    pub gen_steps: usize,
    /// Weight of the auxiliary critic in both losses.
    pub aux_weight: f32,
    /// GAN objective.
    pub loss: DgLoss,
    /// RNG seed.
    pub seed: u64,
    /// When set, critic updates run through DP-SGD.
    pub dp: Option<DpSgdConfig>,
}

impl DgConfig {
    /// A small default sized for CPU experiments: override `meta_spec`,
    /// `record_spec`, and `max_len` for your data.
    pub fn small(meta_spec: FeatureSpec, record_spec: FeatureSpec, max_len: usize) -> Self {
        DgConfig {
            meta_spec,
            record_spec,
            max_len,
            z_meta_dim: 16,
            z_record_dim: 8,
            meta_hidden: vec![64, 64],
            rnn_hidden: 48,
            head_hidden: vec![48],
            disc_hidden: vec![96, 64],
            aux_hidden: vec![48],
            lr: 1e-3,
            n_critic: 3,
            weight_clip: 0.1,
            batch_size: 32,
            gen_steps: 400,
            aux_weight: 1.0,
            loss: DgLoss::Bce,
            seed: 7,
            dp: None,
        }
    }
}

/// Per-step loss trajectory.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Critic loss after each critic step.
    pub d_loss: Vec<f32>,
    /// Generator loss after each generator step.
    pub g_loss: Vec<f32>,
    /// Number of critic steps executed (== DP-SGD steps when DP is on).
    pub critic_steps: u64,
}

/// A trained (or training) DoppelGANger model.
pub struct DoppelGanger {
    /// Generator.
    pub gen: DgGenerator,
    /// Discriminator pair.
    pub disc: DgDiscriminators,
    /// Configuration.
    pub cfg: DgConfig,
    /// Loss history.
    pub stats: TrainStats,
    pub(crate) rng: StdRng,
    pub(crate) g_opt: Adam,
    pub(crate) d_opt: Adam,
    pub(crate) dp: Option<DpSgdTrainer>,
    /// Recycled activation storage for the fast sampling path; warms on
    /// the first `sample_fast` call and is reused across calls.
    pub(crate) arena: nnet::infer::Arena,
}

/// One decoded generated sample.
///
/// Serializable because this is also the unit the `netshared` streaming
/// protocol ships over the wire (`DATA` frame payloads); the JSON round
/// trip is exact for every finite `f32`, so streamed samples compare
/// bitwise-equal to locally generated ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedSample {
    /// Hardened metadata (categorical segments are exact one-hots).
    pub meta: Vec<f32>,
    /// Hardened record steps (flag removed, sequence cut at the flag).
    pub records: Vec<Vec<f32>>,
}

impl DoppelGanger {
    /// Builds a fresh model: Xavier weights drawn from the seeded sampler
    /// RNG, which then carries on from after the draws.
    pub fn new(cfg: DgConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (gen, disc) = Self::networks(&cfg, &mut rng);
        Self::assemble(cfg, gen, disc, rng)
    }

    /// The generator and discriminator pair `cfg` describes, with weights
    /// from `init`.
    pub(crate) fn networks<I: Init + ?Sized>(
        cfg: &DgConfig,
        init: &mut I,
    ) -> (DgGenerator, DgDiscriminators) {
        let gen = DgGenerator::new(
            cfg.meta_spec.clone(),
            cfg.record_spec.clone(),
            cfg.z_meta_dim,
            cfg.z_record_dim,
            &cfg.meta_hidden,
            cfg.rnn_hidden,
            &cfg.head_hidden,
            cfg.max_len,
            init,
        );
        let disc = DgDiscriminators::new(
            cfg.meta_spec.dim(),
            cfg.max_len * (cfg.record_spec.dim() + 1),
            &cfg.disc_hidden,
            &cfg.aux_hidden,
            init,
        );
        (gen, disc)
    }

    /// A model around built networks: fresh optimizers and statistics,
    /// the DP trainer (if any) seeded from `cfg.seed`, and `rng` as the
    /// sampler.
    pub(crate) fn assemble(
        cfg: DgConfig,
        gen: DgGenerator,
        disc: DgDiscriminators,
        rng: StdRng,
    ) -> Self {
        let dp = cfg.dp.map(|d| DpSgdTrainer::new(d, cfg.seed ^ 0xd9));
        DoppelGanger {
            g_opt: Adam::new(cfg.lr),
            d_opt: Adam::new(cfg.lr),
            rng,
            gen,
            disc,
            stats: TrainStats::default(),
            dp,
            cfg,
            arena: nnet::infer::Arena::new(),
        }
    }

    /// Builds a model warm-started from another's parameters — the
    /// fine-tuning primitive behind Insights 3 (seed chunk → later chunks)
    /// and 4 (public model → DP fine-tune). Optimizer state is fresh.
    pub fn from_pretrained(cfg: DgConfig, pretrained: &DoppelGanger) -> Self {
        let mut model = DoppelGanger::new(cfg);
        model.gen.copy_parameters_from(&pretrained.gen);
        model.disc.copy_parameters_from(&pretrained.disc);
        model
    }

    /// Captures generator+discriminator parameters.
    pub fn checkpoint(&self) -> (Checkpoint, Checkpoint) {
        (
            nnet::serialize::snapshot(&self.gen),
            nnet::serialize::snapshot(&self.disc),
        )
    }

    /// Restores parameters from [`DoppelGanger::checkpoint`] output.
    pub fn restore(&mut self, ckpt: &(Checkpoint, Checkpoint)) {
        nnet::serialize::restore(&mut self.gen, &ckpt.0);
        nnet::serialize::restore(&mut self.disc, &ckpt.1);
    }

    /// The sampler RNG's raw state. Together with
    /// [`DoppelGanger::checkpoint`] this captures everything `sample`
    /// depends on, so a model rebuilt from `(checkpoint, rng_state)`
    /// generates bitwise-identical samples to the original.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the sampler RNG captured by [`DoppelGanger::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Number of DP-SGD steps taken (0 when DP is off). Feed to the
    /// `privacy` accountant together with `batch_size / dataset_len`.
    pub fn dp_steps(&self) -> u64 {
        self.dp.as_ref().map(|d| d.steps()).unwrap_or(0)
    }

    /// Trains for `cfg.gen_steps` generator steps.
    pub fn train(&mut self, data: &TimeSeriesDataset) {
        self.train_steps(data, self.cfg.gen_steps);
    }

    /// Trains for an explicit number of generator steps (used for
    /// fine-tuning with fewer steps than a from-scratch run).
    pub fn train_steps(&mut self, data: &TimeSeriesDataset, gen_steps: usize) {
        // Infallible with the default control: no cancel source is wired,
        // so the only Err path (cancellation) cannot fire.
        let _ = self.train_steps_ctl(data, gen_steps, &crate::sentinel::TrainControl::default());
    }

    /// [`DoppelGanger::train_steps`] with cooperative control: the cancel
    /// probe is consulted before every generator step (an `Err` returns
    /// promptly with the partial progress kept in `stats`), and the
    /// observer fires after each step with the 1-based step count — the
    /// orchestrator wires it to a watchdog heartbeat. With the default
    /// [`TrainControl`] this is exactly `train_steps`, bitwise.
    pub(crate) fn train_steps_ctl(
        &mut self,
        data: &TimeSeriesDataset,
        gen_steps: usize,
        ctl: &crate::sentinel::TrainControl,
    ) -> Result<(), String> {
        assert_eq!(
            data.record_dim,
            self.gen.record_dim(),
            "dataset record width must match the model"
        );
        assert_eq!(
            data.meta_dim(),
            self.gen.meta_dim(),
            "dataset metadata width must match the model"
        );
        let _span = telemetry::span!("train_steps[{gen_steps}]");
        let d_hist = telemetry::metrics::histogram("train.d_loss", &telemetry::metrics::LOSS_EDGES);
        let g_hist = telemetry::metrics::histogram("train.g_loss", &telemetry::metrics::LOSS_EDGES);
        for step in 0..gen_steps {
            if let Some(cancel) = &ctl.cancel {
                if let Some(reason) = cancel() {
                    return Err(format!(
                        "cancelled after {step}/{gen_steps} generator steps: {reason}"
                    ));
                }
            }
            for _ in 0..self.cfg.n_critic {
                let d_loss = if self.dp.is_some() {
                    self.critic_step_dp(data)
                } else {
                    self.critic_step(data)
                };
                telemetry::metrics::counter("train.critic_steps").inc();
                telemetry::metrics::gauge("train.d_loss").set(d_loss as f64);
                d_hist.record(d_loss as f64);
                self.stats.d_loss.push(d_loss);
                self.stats.critic_steps += 1;
            }
            let g_loss = self.generator_step();
            telemetry::metrics::counter("train.gen_steps").inc();
            telemetry::metrics::gauge("train.g_loss").set(g_loss as f64);
            g_hist.record(g_loss as f64);
            self.stats.g_loss.push(g_loss);
            if let Some(observer) = &ctl.observer {
                observer((step + 1) as u64);
            }
        }
        Ok(())
    }

    fn sample_batch_indices(&mut self, n: usize) -> Vec<usize> {
        (0..self.cfg.batch_size)
            .map(|_| self.rng.gen_range(0..n))
            .collect()
    }

    /// One ordinary Wasserstein critic step. Returns the critic loss.
    fn critic_step(&mut self, data: &TimeSeriesDataset) -> f32 {
        let idx = self.sample_batch_indices(data.len());
        let (m_real, r_real, _) = data.batch(&idx);
        let fake = self.gen.generate(self.cfg.batch_size, &mut self.rng);

        self.disc.zero_grad();
        let loss = match self.cfg.loss {
            DgLoss::Wasserstein => {
                // Real pass (the Wasserstein gradients are constants, so
                // each forward can be followed immediately by its backward).
                let s_real = self.disc.score(&m_real, &r_real);
                let g_real = s_real.map(|_| -1.0 / s_real.len() as f32);
                let _ = self.disc.disc.backward(&g_real);
                let s_fake = self.disc.score(&fake.meta, &fake.records);
                let g_fake = s_fake.map(|_| 1.0 / s_fake.len() as f32);
                let _ = self.disc.disc.backward(&g_fake);
                // Auxiliary critic on metadata.
                let a_real = self.disc.score_aux(&m_real);
                let ga_real = a_real.map(|_| -self.cfg.aux_weight / a_real.len() as f32);
                let _ = self.disc.aux.backward(&ga_real);
                let a_fake = self.disc.score_aux(&fake.meta);
                let ga_fake = a_fake.map(|_| self.cfg.aux_weight / a_fake.len() as f32);
                let _ = self.disc.aux.backward(&ga_fake);
                let (loss, _, _) = wasserstein_critic(&s_real, &s_fake);
                let (aux_loss, _, _) = wasserstein_critic(&a_real, &a_fake);
                loss + self.cfg.aux_weight * aux_loss
            }
            DgLoss::Bce => {
                // One-sided label smoothing (real = 0.9) keeps the
                // discriminator from saturating.
                let s_real = self.disc.score(&m_real, &r_real);
                let ones = s_real.map(|_| 0.9);
                let (l_r, g_r) = bce_with_logits(&s_real, &ones);
                let _ = self.disc.disc.backward(&g_r);
                let s_fake = self.disc.score(&fake.meta, &fake.records);
                let zeros = s_fake.map(|_| 0.0);
                let (l_f, g_f) = bce_with_logits(&s_fake, &zeros);
                let _ = self.disc.disc.backward(&g_f);
                let a_real = self.disc.score_aux(&m_real);
                let a_ones = a_real.map(|_| 0.9);
                let (l_ar, mut g_ar) = bce_with_logits(&a_real, &a_ones);
                g_ar.scale(self.cfg.aux_weight);
                let _ = self.disc.aux.backward(&g_ar);
                let a_fake = self.disc.score_aux(&fake.meta);
                let a_zeros = a_fake.map(|_| 0.0);
                let (l_af, mut g_af) = bce_with_logits(&a_fake, &a_zeros);
                g_af.scale(self.cfg.aux_weight);
                let _ = self.disc.aux.backward(&g_af);
                l_r + l_f + self.cfg.aux_weight * (l_ar + l_af)
            }
        };
        self.d_opt.step(&mut self.disc);
        if self.cfg.loss == DgLoss::Wasserstein {
            clip_weights(&mut self.disc, self.cfg.weight_clip);
        }
        loss
    }

    /// One DP-SGD critic step: per-example clipping + Gaussian noise over
    /// paired (realᵢ, fakeᵢ) microbatches. Returns the (pre-noise) loss.
    fn critic_step_dp(&mut self, data: &TimeSeriesDataset) -> f32 {
        let idx = self.sample_batch_indices(data.len());
        let (m_real, r_real, _) = data.batch(&idx);
        let fake = self.gen.generate(self.cfg.batch_size, &mut self.rng);

        // Loss bookkeeping (non-private, diagnostic only).
        let s_real = self.disc.score(&m_real, &r_real);
        let s_fake = self.disc.score(&fake.meta, &fake.records);
        let (loss, _, _) = wasserstein_critic(&s_real, &s_fake);

        let aux_weight = self.cfg.aux_weight;
        let positions: Vec<usize> = (0..self.cfg.batch_size).collect();
        let mut dp = self.dp.take().expect("dp trainer present in DP mode"); // lint: allow(panic-in-lib) dp is always Some in DP mode (checked by caller) (lint: allow(panic-in-lib) dp is always Some in DP mode (checked by caller))
        dp.sanitize_batch(&mut self.disc, &positions, |disc, i| {
            let mi = m_real.select_rows(&[i]);
            let ri = r_real.select_rows(&[i]);
            let s = disc.score(&mi, &ri);
            let g = s.map(|_| -1.0);
            let _ = disc.disc.backward(&g);
            let fm = fake.meta.select_rows(&[i]);
            let fr = fake.records.select_rows(&[i]);
            let sf = disc.score(&fm, &fr);
            let gf = sf.map(|_| 1.0);
            let _ = disc.disc.backward(&gf);
            let a = disc.score_aux(&mi);
            let ga = a.map(|_| -aux_weight);
            let _ = disc.aux.backward(&ga);
            let af = disc.score_aux(&fm);
            let gaf = af.map(|_| aux_weight);
            let _ = disc.aux.backward(&gaf);
        });
        self.dp = Some(dp);

        self.d_opt.step(&mut self.disc);
        clip_weights(&mut self.disc, self.cfg.weight_clip);
        loss
    }

    /// One generator step. Returns the generator loss.
    fn generator_step(&mut self) -> f32 {
        self.gen.zero_grad();
        let fake = self.gen.generate(self.cfg.batch_size, &mut self.rng);
        let meta_dim = self.gen.meta_dim();
        let rec_total = fake.records.cols();

        // Full critic path.
        let s = self.disc.score(&fake.meta, &fake.records);
        let (loss, gs) = match self.cfg.loss {
            DgLoss::Wasserstein => wasserstein_generator(&s),
            DgLoss::Bce => {
                let ones = s.map(|_| 1.0);
                bce_with_logits(&s, &ones)
            }
        };
        self.disc.zero_grad();
        let gx = self.disc.disc.backward(&gs);
        let mut g_meta = gx.slice_cols(0, meta_dim);
        let g_rec = gx.slice_cols(meta_dim, meta_dim + rec_total);

        // Auxiliary critic path (metadata only).
        let sa = self.disc.score_aux(&fake.meta);
        let (aux_loss, mut gsa) = match self.cfg.loss {
            DgLoss::Wasserstein => wasserstein_generator(&sa),
            DgLoss::Bce => {
                let a_ones = sa.map(|_| 1.0);
                bce_with_logits(&sa, &a_ones)
            }
        };
        gsa.scale(self.cfg.aux_weight);
        let g_meta_aux = self.disc.aux.backward(&gsa);
        g_meta.add_assign(&g_meta_aux);

        self.gen.backward(&g_meta, &g_rec);
        let _ = GradClip::clip_global_norm(&mut self.gen, 5.0);
        self.g_opt.step(&mut self.gen);
        loss + self.cfg.aux_weight * aux_loss
    }

    /// Trains with periodic snapshot selection (paper §5: "If downstream
    /// tasks are known a priori, they could be used as one of the
    /// 'selection criteria' for picking the best model among various
    /// hyperparameter setups or training snapshots").
    ///
    /// Every `snapshot_every` generator steps, `score` is called with a
    /// fresh sample batch; the checkpoint with the **highest** score is
    /// restored at the end. Returns the best score.
    pub fn train_with_selection<F>(
        &mut self,
        data: &TimeSeriesDataset,
        gen_steps: usize,
        snapshot_every: usize,
        sample_size: usize,
        mut score: F,
    ) -> f64
    where
        F: FnMut(&[GeneratedSample]) -> f64,
    {
        assert!(snapshot_every > 0, "snapshot interval must be positive");
        let mut best_score = f64::NEG_INFINITY;
        let mut best_ckpt = None;
        let mut done = 0;
        while done < gen_steps {
            let step = snapshot_every.min(gen_steps - done);
            self.train_steps(data, step);
            done += step;
            let samples = self.sample(sample_size);
            let s = score(&samples);
            if s > best_score {
                best_score = s;
                best_ckpt = Some(self.checkpoint());
            }
        }
        if let Some(ckpt) = &best_ckpt {
            self.restore(ckpt);
        }
        best_score
    }

    /// Generates `n` decoded samples (hardened categorical segments,
    /// flag-cut sequences) through the training-path generator. This is
    /// the reference sampler; [`DoppelGanger::sample_fast`] is the
    /// production path and is bitwise-equivalent to it.
    pub fn sample(&mut self, n: usize) -> Vec<GeneratedSample> {
        let _span = telemetry::span!("sample[{n}]");
        let mut out = Vec::with_capacity(n);
        let record_dim = self.gen.record_dim();
        let max_len = self.cfg.max_len;
        while out.len() < n {
            let take = (n - out.len()).min(self.cfg.batch_size.max(1));
            let batch = self.gen.generate(take, &mut self.rng);
            decode_batch(
                &self.cfg.meta_spec,
                &self.cfg.record_spec,
                record_dim,
                max_len,
                &batch,
                take,
                &mut self.rng,
                &mut out,
            );
        }
        out
    }

    /// Generates `n` decoded samples through the frozen inference path
    /// (`nnet::infer`): no grad bookkeeping, arena-recycled activations,
    /// and `batch_size` flows advanced per GRU step. Bitwise-identical
    /// output to [`DoppelGanger::sample`] for the same weights and RNG
    /// state (pinned by `tests/infer_equiv.rs`). This is
    /// [`DoppelGanger::sample_cursor`] drained in one call.
    pub fn sample_fast(&mut self, n: usize) -> Vec<GeneratedSample> {
        let _span = telemetry::span!("sample_fast[{n}]");
        // Err is unreachable for generators built by DgGenerator::new (no
        // conv nodes); the reference path is equivalent anyway.
        let Ok(mut cursor) = self.sample_cursor(n) else {
            return self.sample(n);
        };
        let mut out = Vec::with_capacity(n);
        while let Some(batch) = cursor.next_batch() {
            out.extend(batch);
        }
        self.arena.publish_metrics();
        out
    }

    /// Opens a resumable cursor over `total` frozen-path samples: each
    /// [`SampleCursor::next_batch`] call produces at most
    /// `cfg.batch_size` decoded samples and returns, so a caller (the
    /// `netshared` streaming daemon) can interleave generation with
    /// transmission instead of materializing the whole trace. The
    /// concatenation of every batch is **bitwise-identical** to one
    /// [`DoppelGanger::sample_fast`]`(total)` call from the same model
    /// state — that method is this cursor's loop run to the end
    /// (pinned by `tests/cursor_equiv.rs`).
    ///
    /// Fails (like [`DgGenerator::freeze`]) only for generators holding
    /// conv nodes, which [`DoppelGanger::new`] never builds.
    pub fn sample_cursor(&mut self, total: usize) -> Result<SampleCursor<'_>, String> {
        let DoppelGanger { gen, cfg, rng, arena, .. } = self;
        let record_dim = gen.record_dim();
        let frozen = gen.freeze()?;
        Ok(SampleCursor {
            frozen,
            meta_spec: &cfg.meta_spec,
            record_spec: &cfg.record_spec,
            record_dim,
            max_len: cfg.max_len,
            streams: cfg.batch_size.max(1),
            rng,
            arena,
            remaining: total,
            produced: 0,
        })
    }
}

/// The [`DoppelGanger::sample_fast`] loop, suspended between batches:
/// yields the same sample stream batch-by-batch (see
/// [`DoppelGanger::sample_cursor`]).
/// Dropping the cursor mid-stream leaves the model's RNG wherever the
/// last produced batch left it, exactly as an offline run truncated at
/// the same batch boundary would.
pub struct SampleCursor<'a> {
    frozen: crate::model::FrozenGenerator<'a>,
    meta_spec: &'a FeatureSpec,
    record_spec: &'a FeatureSpec,
    record_dim: usize,
    max_len: usize,
    streams: usize,
    rng: &'a mut StdRng,
    arena: &'a mut nnet::infer::Arena,
    remaining: usize,
    produced: usize,
}

/// Everything a [`SampleCursor`] carries across a batch boundary: every
/// batch starts from fresh noise and a zero hidden state, so the sampler
/// RNG and the sample count are the whole state. Only
/// [`SampleCursor::mark`] makes one; it is meaningful only to cursors of
/// the same artifact (same weights, same starting RNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorMark {
    produced: usize,
    rng: [u64; 4],
}

impl CursorMark {
    /// Samples the marked cursor had produced.
    pub fn produced(&self) -> usize {
        self.produced
    }
}

impl SampleCursor<'_> {
    /// Samples not yet produced.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Samples produced so far (after a [`SampleCursor::seek`], the
    /// skipped prefix included).
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// The cursor's position, for [`SampleCursor::seek`]. Batches are
    /// `remaining.min(batch_size)` samples, so only the last one depends
    /// on the cursor's `total`: a mark taken while every batch so far was
    /// full is valid for any cursor of the artifact with
    /// `total >= produced`.
    pub fn mark(&self) -> CursorMark {
        CursorMark { produced: self.produced, rng: self.rng.state() }
    }

    /// Jumps to `mark`: [`SampleCursor::next_batch`] then yields exactly
    /// what an uninterrupted cursor yields from that boundary on, and
    /// [`SampleCursor::produced`] counts the skipped samples. Refuses
    /// (leaving the cursor as it was) a mark beyond this cursor's total
    /// or off a full-batch boundary, which no uninterrupted cursor of
    /// this total passes through.
    pub fn seek(&mut self, mark: CursorMark) -> Result<(), String> {
        let total = self.produced + self.remaining;
        if mark.produced > total {
            return Err(format!("mark at sample {} is past the cursor's total {total}", mark.produced));
        }
        if !mark.produced.is_multiple_of(self.streams) {
            return Err(format!(
                "mark at sample {} is not on a boundary of {}-sample batches",
                mark.produced, self.streams
            ));
        }
        *self.rng = StdRng::from_state(mark.rng);
        self.produced = mark.produced;
        self.remaining = total - mark.produced;
        Ok(())
    }

    /// Generates and decodes the next batch (at most `cfg.batch_size`
    /// samples; the final batch may be shorter). `None` once `total`
    /// samples have been produced.
    pub fn next_batch(&mut self) -> Option<Vec<GeneratedSample>> {
        if self.remaining == 0 {
            return None;
        }
        let take = self.remaining.min(self.streams);
        let batch = self.frozen.generate(take, &mut *self.rng, &mut *self.arena);
        let mut out = Vec::with_capacity(take);
        decode_batch(
            self.meta_spec,
            self.record_spec,
            self.record_dim,
            self.max_len,
            &batch,
            take,
            self.rng,
            &mut out,
        );
        self.remaining -= take;
        self.produced += take;
        telemetry::metrics::counter("infer.samples").add(take as u64);
        Some(out)
    }
}

/// Decodes `take` rows of a generated batch into hardened samples. Both
/// sampling paths share this exact code (and the same `rng`), so any
/// divergence between [`DoppelGanger::sample`] and
/// [`DoppelGanger::sample_fast`] can only come from the generator
/// forward — which the equivalence suite pins to bitwise-equal.
#[allow(clippy::too_many_arguments)]
fn decode_batch(
    meta_spec: &FeatureSpec,
    record_spec: &FeatureSpec,
    record_dim: usize,
    max_len: usize,
    batch: &crate::model::GeneratedBatch,
    take: usize,
    rng: &mut StdRng,
    out: &mut Vec<GeneratedSample>,
) {
    for i in 0..take {
        let mut meta = batch.meta.row(i).to_vec();
        meta_spec.sample_row(&mut meta, rng);
        let len = batch.length(i, record_dim, max_len);
        let step = record_dim + 1;
        let mut records = Vec::with_capacity(len);
        for t in 0..len {
            let mut r = batch.records.row(i)[t * step..t * step + record_dim].to_vec();
            record_spec.sample_row(&mut r, rng);
            records.push(r);
        }
        out.push(GeneratedSample { meta, records });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Segment;

    /// A toy dataset: metadata one-hot over {A, B} with 85/15 skew; record
    /// values near 0.8 for A and 0.2 for B; sequence lengths 1 for B, 3
    /// for A.
    fn toy_data(n: usize, seed: u64) -> TimeSeriesDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut meta = Vec::with_capacity(n);
        let mut seqs = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.gen::<f64>() < 0.85 {
                meta.push(vec![1.0, 0.0]);
                seqs.push(vec![vec![0.8 + rng.gen_range(-0.05..0.05)]; 3]);
            } else {
                meta.push(vec![0.0, 1.0]);
                seqs.push(vec![vec![0.2 + rng.gen_range(-0.05..0.05)]; 1]);
            }
        }
        TimeSeriesDataset::new(meta, seqs, 4)
    }

    fn toy_config() -> DgConfig {
        let mut cfg = DgConfig::small(
            FeatureSpec::new(vec![Segment::Categorical { dim: 2 }]),
            FeatureSpec::continuous(1),
            4,
        );
        cfg.gen_steps = 150;
        cfg.batch_size = 24;
        cfg.meta_hidden = vec![24];
        cfg.rnn_hidden = 16;
        cfg.head_hidden = vec![16];
        cfg.disc_hidden = vec![32];
        cfg.aux_hidden = vec![16];
        cfg
    }

    #[test]
    fn training_runs_and_produces_valid_samples() {
        let data = toy_data(300, 1);
        let mut model = DoppelGanger::new(toy_config());
        model.train(&data);
        assert_eq!(model.stats.g_loss.len(), 150);
        assert!(model.stats.d_loss.iter().all(|l| l.is_finite()));

        let samples = model.sample(50);
        assert_eq!(samples.len(), 50);
        for s in &samples {
            let hot: f32 = s.meta.iter().sum();
            assert!((hot - 1.0).abs() < 1e-6, "hardened one-hot metadata");
            assert!(!s.records.is_empty() && s.records.len() <= 4);
            assert!(s.records.iter().all(|r| (0.0..=1.0).contains(&r[0])));
        }
    }

    #[test]
    fn learns_the_metadata_mode_skew() {
        let data = toy_data(400, 2);
        let mut cfg = toy_config();
        cfg.gen_steps = 300;
        let mut model = DoppelGanger::new(cfg);
        model.train(&data);
        let samples = model.sample(200);
        let frac_a =
            samples.iter().filter(|s| s.meta[0] > 0.5).count() as f64 / samples.len() as f64;
        assert!(frac_a > 0.55, "mode A should dominate, got {frac_a}");
    }

    #[test]
    fn fine_tuning_starts_from_pretrained_weights() {
        let data = toy_data(200, 3);
        let mut base = DoppelGanger::new(toy_config());
        base.train_steps(&data, 20);
        let tuned = DoppelGanger::from_pretrained(toy_config(), &base);
        for (a, b) in base.gen.parameters().iter().zip(tuned.gen.parameters()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut model = DoppelGanger::new(toy_config());
        let ckpt = model.checkpoint();
        // Perturb, then restore.
        for p in model.gen.parameters_mut() {
            p.scale(3.0);
        }
        model.restore(&ckpt);
        let again = model.checkpoint();
        assert_eq!(ckpt.0.tensors, again.0.tensors);
    }

    #[test]
    fn snapshot_selection_restores_the_best_checkpoint() {
        let data = toy_data(200, 9);
        let mut cfg = toy_config();
        cfg.gen_steps = 0; // training driven by train_with_selection
        let mut model = DoppelGanger::new(cfg);
        // Score = fraction of mode-A samples; selection must return the
        // max over snapshots and leave the model at that snapshot.
        let best = model.train_with_selection(&data, 60, 20, 50, |samples| {
            samples.iter().filter(|s| s.meta[0] > 0.5).count() as f64 / samples.len() as f64
        });
        assert!(best.is_finite() && best >= 0.0);
        // The restored model reproduces (approximately) the best score.
        let samples = model.sample(100);
        let frac = samples.iter().filter(|s| s.meta[0] > 0.5).count() as f64 / 100.0;
        assert!(
            frac >= best - 0.25,
            "restored model score {frac} far below selected {best}"
        );
    }

    #[test]
    fn dp_mode_counts_steps_and_trains() {
        let data = toy_data(100, 4);
        let mut cfg = toy_config();
        cfg.gen_steps = 5;
        cfg.dp = Some(DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.5,
        });
        let mut model = DoppelGanger::new(cfg);
        model.train(&data);
        assert_eq!(model.dp_steps(), 5 * 3, "n_critic steps per gen step");
        let samples = model.sample(10);
        assert_eq!(samples.len(), 10);
    }

    #[test]
    fn weight_clipping_holds_after_training() {
        let data = toy_data(100, 5);
        let mut cfg = toy_config();
        cfg.gen_steps = 10;
        cfg.loss = DgLoss::Wasserstein; // clipping applies only to W-critics
        let clip = cfg.weight_clip;
        let mut model = DoppelGanger::new(cfg);
        model.train(&data);
        for p in model.disc.parameters() {
            assert!(p.data().iter().all(|v| v.abs() <= clip + 1e-6));
        }
    }
}
