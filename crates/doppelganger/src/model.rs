//! Generator and discriminator networks.

use crate::spec::FeatureSpec;
use nnet::infer::{Arena, FrozenGru, FrozenSequential};
use nnet::{Activation, Gru, Init, Layer, Linear, Parameterized, Sequential, Tensor};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use telemetry::metrics::{LazyCounter, LazyTimerUs};

static INFER_STEPS: LazyCounter = LazyCounter::new("infer.steps");
static INFER_GENERATE_US: LazyTimerUs = LazyTimerUs::new("infer.generate.us");

/// A batch of generated samples, in transformed (decodable) space.
#[derive(Debug, Clone)]
pub struct GeneratedBatch {
    /// Transformed metadata, `batch × meta_dim`.
    pub meta: Tensor,
    /// Transformed records with trailing gen-flag per step,
    /// `batch × max_len·(record_dim + 1)`.
    pub records: Tensor,
}

impl GeneratedBatch {
    /// Effective sequence length of row `i`: the first step whose gen flag
    /// falls below 0.5 ends the sequence (minimum length 1).
    pub fn length(&self, i: usize, record_dim: usize, max_len: usize) -> usize {
        let step = record_dim + 1;
        let row = self.records.row(i);
        for t in 0..max_len {
            if row[t * step + record_dim] < 0.5 {
                return t.max(1);
            }
        }
        max_len
    }
}

/// Cached forward state needed for the generator backward pass.
struct GenCache {
    /// Transformed metadata output (for the metadata-spec backward).
    meta_y: Tensor,
    /// Stacked transformed head outputs, step-major, `(T·batch) × (rd+1)`.
    head_y: Tensor,
    batch: usize,
}

/// The DoppelGANger generator: metadata MLP + GRU record generator.
#[derive(Serialize, Deserialize)]
pub struct DgGenerator {
    /// Metadata network: `z_meta → meta logits`.
    pub meta_net: Sequential,
    /// Recurrent core; step input is `[z_record ‖ meta]`.
    pub rnn: Gru,
    /// Head: GRU hidden state → record logits + flag logit.
    pub head: Sequential,
    /// Metadata feature layout.
    pub meta_spec: FeatureSpec,
    /// Record feature layout (excluding the flag).
    pub record_spec: FeatureSpec,
    /// Metadata noise width.
    pub z_meta_dim: usize,
    /// Per-step record noise width.
    pub z_record_dim: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    #[serde(skip)]
    cache: Option<GenCache>,
}

impl DgGenerator {
    /// Builds a generator with weights from `init` (Xavier for an RNG).
    #[allow(clippy::too_many_arguments)]
    pub fn new<I: Init + ?Sized>(
        meta_spec: FeatureSpec,
        record_spec: FeatureSpec,
        z_meta_dim: usize,
        z_record_dim: usize,
        meta_hidden: &[usize],
        rnn_hidden: usize,
        head_hidden: &[usize],
        max_len: usize,
        init: &mut I,
    ) -> Self {
        let meta_dim = meta_spec.dim();
        let record_dim = record_spec.dim();
        let meta_net = Sequential::mlp(z_meta_dim, meta_hidden, meta_dim, Activation::Relu, init);
        let rnn = Gru::new(z_record_dim + meta_dim, rnn_hidden, init);
        let mut head = Sequential::new();
        let mut prev = rnn_hidden;
        for &h in head_hidden {
            head.push_linear(Linear::new(prev, h, init));
            head.push_activation(Activation::Relu);
            prev = h;
        }
        head.push_linear(Linear::new(prev, record_dim + 1, init));
        DgGenerator {
            meta_net,
            rnn,
            head,
            meta_spec,
            record_spec,
            z_meta_dim,
            z_record_dim,
            max_len,
            cache: None,
        }
    }

    /// Record width excluding the flag.
    pub fn record_dim(&self) -> usize {
        self.record_spec.dim()
    }

    /// Metadata width.
    pub fn meta_dim(&self) -> usize {
        self.meta_spec.dim()
    }

    /// Generates a batch, caching everything the backward pass needs.
    pub fn generate<R: Rng + ?Sized>(&mut self, batch: usize, rng: &mut R) -> GeneratedBatch {
        let record_dim = self.record_dim();
        let step_dim = record_dim + 1;

        let z_meta = Tensor::randn(batch, self.z_meta_dim, rng);
        let meta_logits = self.meta_net.forward(&z_meta);
        let meta_y = self.meta_spec.transform(&meta_logits);

        // RNN steps: input [z_t ‖ meta_y].
        let xs: Vec<Tensor> = (0..self.max_len)
            .map(|_| {
                let z = Tensor::randn(batch, self.z_record_dim, rng);
                Tensor::hstack(&[&z, &meta_y])
            })
            .collect();
        let h0 = Tensor::zeros(batch, self.rnn.hidden_dim());
        let hs = self.rnn.forward_sequence(&xs, &h0);

        // Head applied once on stacked hidden states (step-major).
        let h_refs: Vec<&Tensor> = hs.iter().collect();
        let h_stack = Tensor::vstack(&h_refs);
        let head_logits = self.head.forward(&h_stack);
        // Transform: record spec on the first record_dim cols, sigmoid flag.
        let mut head_y = Tensor::zeros(head_logits.rows(), step_dim);
        {
            let rec_logits = head_logits.slice_cols(0, record_dim);
            let rec_y = self.record_spec.transform(&rec_logits);
            for r in 0..head_y.rows() {
                head_y.row_mut(r)[..record_dim].copy_from_slice(rec_y.row(r));
                let flag_logit = head_logits.get(r, record_dim);
                head_y.set(r, record_dim, 1.0 / (1.0 + (-flag_logit).exp()));
            }
        }

        // Reassemble per-example record rows.
        let mut records = Tensor::zeros(batch, self.max_len * step_dim);
        for t in 0..self.max_len {
            for b in 0..batch {
                let src = head_y.row(t * batch + b);
                records.row_mut(b)[t * step_dim..(t + 1) * step_dim].copy_from_slice(src);
            }
        }

        self.cache = Some(GenCache {
            meta_y: meta_y.clone(),
            head_y,
            batch,
        });
        GeneratedBatch {
            meta: meta_y,
            records,
        }
    }

    /// Builds a forward-only view over this generator for the fast
    /// sampling path: frozen weight borrows, no grad bookkeeping, all
    /// activations drawn from a caller-supplied [`Arena`]. Errors if
    /// either MLP contains a convolution node (never true for networks
    /// built by [`DgGenerator::new`]).
    pub fn freeze(&self) -> Result<FrozenGenerator<'_>, String> {
        Ok(FrozenGenerator {
            meta_net: FrozenSequential::of(&self.meta_net)?,
            rnn: self.rnn.freeze(),
            head: FrozenSequential::of(&self.head)?,
            meta_spec: &self.meta_spec,
            record_spec: &self.record_spec,
            z_meta_dim: self.z_meta_dim,
            z_record_dim: self.z_record_dim,
            max_len: self.max_len,
        })
    }

    /// Back-propagates generator gradients from the discriminators'
    /// input-gradients: `grad_meta` is ∂L/∂meta (sum of the full
    /// discriminator's metadata slice and the auxiliary discriminator's
    /// gradient), `grad_records` is ∂L/∂records in the layout produced by
    /// [`DgGenerator::generate`]. Accumulates parameter gradients.
    pub fn backward(&mut self, grad_meta: &Tensor, grad_records: &Tensor) {
        let cache = self.cache.take().expect("backward called before generate"); // lint: allow(panic-in-lib) documented API contract: generate precedes backward (lint: allow(panic-in-lib) documented API contract: generate precedes backward)
        let batch = cache.batch;
        let record_dim = self.record_dim();
        let step_dim = record_dim + 1;

        // Re-stack record gradients step-major to match head_y.
        let mut gy = Tensor::zeros(self.max_len * batch, step_dim);
        for t in 0..self.max_len {
            for b in 0..batch {
                let src = &grad_records.row(b)[t * step_dim..(t + 1) * step_dim];
                gy.row_mut(t * batch + b).copy_from_slice(src);
            }
        }

        // Backward through the output transforms.
        let rec_y = cache.head_y.slice_cols(0, record_dim);
        let rec_gy = gy.slice_cols(0, record_dim);
        let rec_gx = self.record_spec.backward(&rec_y, &rec_gy);
        let mut head_gx = Tensor::zeros(gy.rows(), step_dim);
        for r in 0..gy.rows() {
            head_gx.row_mut(r)[..record_dim].copy_from_slice(rec_gx.row(r));
            let flag_y = cache.head_y.get(r, record_dim);
            head_gx.set(r, record_dim, gy.get(r, record_dim) * flag_y * (1.0 - flag_y));
        }

        // Head → GRU hidden-state gradients.
        let dh_stack = self.head.backward(&head_gx);
        let grad_hs: Vec<Tensor> = (0..self.max_len)
            .map(|t| {
                let mut g = Tensor::zeros(batch, dh_stack.cols());
                for b in 0..batch {
                    g.row_mut(b).copy_from_slice(dh_stack.row(t * batch + b));
                }
                g
            })
            .collect();
        let (dxs, _) = self.rnn.backward_sequence(&grad_hs);

        // Meta gradient: external + the per-step RNN-input slices.
        let mut gmeta_y = grad_meta.clone();
        for dx in &dxs {
            let meta_slice = dx.slice_cols(self.z_record_dim, dx.cols());
            gmeta_y.add_assign(&meta_slice);
        }
        let gmeta_logits = self.meta_spec.backward(&cache.meta_y, &gmeta_y);
        let _ = self.meta_net.backward(&gmeta_logits);
    }
}

impl Parameterized for DgGenerator {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.meta_net.parameters();
        p.extend(self.rnn.parameters());
        p.extend(self.head.parameters());
        p
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.meta_net.parameters_mut();
        p.extend(self.rnn.parameters_mut());
        p.extend(self.head.parameters_mut());
        p
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        let mut g = self.meta_net.gradients_mut();
        g.extend(self.rnn.gradients_mut());
        g.extend(self.head.gradients_mut());
        g
    }
}

/// A forward-only view over a [`DgGenerator`]: borrowed weights, no
/// grad tape, no per-step caches. [`FrozenGenerator::generate`] is
/// bitwise-equivalent to [`DgGenerator::generate`] for the same weights
/// and RNG state (pinned by `tests/oracles/infer_equiv.rs`) while performing
/// zero steady-state allocations per timestep. Like the training-graph
/// generator it advances all `batch` flows per GRU step; unlike it, it
/// computes the metadata columns' share of the GRU's input products once
/// per batch rather than at every step ([`nnet::ConstInputGru`]), which
/// is where it gains on it (nsbench `doppelganger.fast_over_train_ratio`).
pub struct FrozenGenerator<'a> {
    meta_net: FrozenSequential<'a>,
    rnn: FrozenGru<'a>,
    head: FrozenSequential<'a>,
    meta_spec: &'a FeatureSpec,
    record_spec: &'a FeatureSpec,
    z_meta_dim: usize,
    z_record_dim: usize,
    max_len: usize,
}

impl FrozenGenerator<'_> {
    /// Maximum sequence length of the underlying generator.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Generates a batch without touching training state.
    ///
    /// The RNG draw order matches [`DgGenerator::generate`] exactly
    /// (`z_meta` first, then one `z_t` per step, in step order), the
    /// head runs on the same step-major `(T·batch) × hidden` stack (so
    /// the GEMM kernel dispatch — and therefore the rounding — is
    /// identical), and the feature transforms go through the same code.
    /// Output tensors are plain allocations owned by the caller; every
    /// intermediate is recycled into `arena`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        batch: usize,
        rng: &mut R,
        arena: &mut Arena,
    ) -> GeneratedBatch {
        let _timer = INFER_GENERATE_US.start();
        INFER_STEPS.get().add(self.max_len as u64);
        let record_dim = self.record_spec.dim();
        let step_dim = record_dim + 1;
        let hidden = self.rnn.hidden_dim();

        // fill_randn overwrites every element, so scratch (no memset)
        // storage yields the same bytes as a zeroed buffer.
        let mut z_meta = arena.take_scratch(batch, self.z_meta_dim);
        z_meta.fill_randn(rng);
        let meta_logits = self.meta_net.forward(&z_meta, arena);
        arena.recycle(z_meta);
        let meta_y = self.meta_spec.transform(&meta_logits);
        arena.recycle(meta_logits);

        // RNN steps on reused buffers: input x_t = [z_t ‖ meta_y]. The
        // meta columns are constant across steps, so they are written
        // once here, and their share of the GRU's input products is
        // computed once (`with_constant_input`); each step only redraws
        // the latent columns in place (`fill_randn_cols` draws in the
        // exact element order of the training path's per-step
        // `Tensor::randn(batch, z_dim)`).
        let mut x = arena.take_scratch(batch, self.z_record_dim + meta_y.cols());
        for b in 0..batch {
            x.row_mut(b)[self.z_record_dim..].copy_from_slice(meta_y.row(b));
        }
        let rnn = self.rnn.with_constant_input(&x, self.z_record_dim);
        // The initial hidden state is real data — it must be zero.
        let mut h = arena.take_zeroed(batch, hidden);
        // Every `h_stack` row is overwritten by the block copies below
        // (step t fills rows `t·batch..(t+1)·batch`; t covers 0..T).
        let mut h_stack = arena.take_scratch(self.max_len * batch, hidden);
        // lint: step-loop
        for t in 0..self.max_len {
            x.fill_randn_cols(self.z_record_dim, rng);
            let next = rnn.step(&x, &h, arena);
            // Rows t·batch.. of the step-major stack are exactly
            // `next`'s storage, contiguously: one memcpy per step.
            h_stack.data_mut()[t * batch * hidden..(t + 1) * batch * hidden]
                .copy_from_slice(next.data());
            arena.recycle(std::mem::replace(&mut h, next));
        }
        // The addends' storage goes back to its pool before the head runs.
        drop(rnn);
        arena.recycle(x);
        arena.recycle(h);

        // Head applied once on the full stack — the same GEMM shapes as
        // the training path, which is what keeps kernel dispatch (and
        // rounding) identical.
        let head_logits = self.head.forward(&h_stack, arena);
        arena.recycle(h_stack);

        // Every row is fully copied below — scratch storage suffices.
        let mut rec = arena.take_scratch(head_logits.rows(), record_dim);
        for r in 0..rec.rows() {
            rec.row_mut(r)
                .copy_from_slice(&head_logits.row(r)[..record_dim]);
        }
        self.record_spec.transform_inplace(&mut rec);

        // Reassemble per-example record rows (escapes to the caller).
        let mut records = Tensor::zeros(batch, self.max_len * step_dim);
        for t in 0..self.max_len {
            for b in 0..batch {
                let src = t * batch + b;
                let dst = &mut records.row_mut(b)[t * step_dim..(t + 1) * step_dim];
                dst[..record_dim].copy_from_slice(rec.row(src));
                let flag_logit = head_logits.get(src, record_dim);
                dst[record_dim] = 1.0 / (1.0 + (-flag_logit).exp());
            }
        }
        arena.recycle(rec);
        arena.recycle(head_logits);

        GeneratedBatch {
            meta: meta_y,
            records,
        }
    }
}

/// The discriminator pair: a full critic on `[meta ‖ records]` and the
/// auxiliary critic on metadata alone.
#[derive(Serialize, Deserialize)]
pub struct DgDiscriminators {
    /// Full critic.
    pub disc: Sequential,
    /// Auxiliary (metadata-only) critic.
    pub aux: Sequential,
}

impl DgDiscriminators {
    /// Builds the pair for the given input widths.
    pub fn new<I: Init + ?Sized>(
        meta_dim: usize,
        record_total_dim: usize,
        disc_hidden: &[usize],
        aux_hidden: &[usize],
        init: &mut I,
    ) -> Self {
        DgDiscriminators {
            disc: Sequential::mlp(
                meta_dim + record_total_dim,
                disc_hidden,
                1,
                Activation::LeakyRelu,
                init,
            ),
            aux: Sequential::mlp(meta_dim, aux_hidden, 1, Activation::LeakyRelu, init),
        }
    }

    /// Critic scores for a (meta, records) batch.
    pub fn score(&mut self, meta: &Tensor, records: &Tensor) -> Tensor {
        self.disc.forward(&Tensor::hstack(&[meta, records]))
    }

    /// Auxiliary critic scores for metadata.
    pub fn score_aux(&mut self, meta: &Tensor) -> Tensor {
        self.aux.forward(meta)
    }
}

impl Parameterized for DgDiscriminators {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.disc.parameters();
        p.extend(self.aux.parameters());
        p
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.disc.parameters_mut();
        p.extend(self.aux.parameters_mut());
        p
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        let mut g = self.disc.gradients_mut();
        g.extend(self.aux.gradients_mut());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Segment;
    use rand::rngs::StdRng;

    fn tiny_gen(rng: &mut StdRng) -> DgGenerator {
        DgGenerator::new(
            FeatureSpec::new(vec![Segment::Categorical { dim: 3 }, Segment::Continuous { dim: 1 }]),
            FeatureSpec::continuous(2),
            4,
            2,
            &[8],
            6,
            &[8],
            3,
            rng,
        )
    }

    #[test]
    fn generated_shapes_and_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = tiny_gen(&mut rng);
        let out = g.generate(5, &mut rng);
        assert_eq!(out.meta.shape(), (5, 4));
        assert_eq!(out.records.shape(), (5, 3 * 3));
        for r in 0..5 {
            let m = out.meta.row(r);
            let cat_sum: f32 = m[..3].iter().sum();
            assert!((cat_sum - 1.0).abs() < 1e-4, "metadata softmax simplex");
            assert!(out.records.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn length_cuts_at_first_low_flag() {
        let mut records = Tensor::zeros(1, 9); // record_dim 2, max_len 3
        // flags at cols 2, 5, 8
        records.set(0, 2, 0.9);
        records.set(0, 5, 0.2);
        records.set(0, 8, 0.9);
        let batch = GeneratedBatch {
            meta: Tensor::zeros(1, 1),
            records,
        };
        assert_eq!(batch.length(0, 2, 3), 1);
    }

    #[test]
    fn generator_backward_produces_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = tiny_gen(&mut rng);
        let out = g.generate(4, &mut rng);
        g.zero_grad();
        let gm = Tensor::from_vec(4, 4, vec![0.1; 16]);
        let gr = Tensor::from_vec(4, 9, vec![0.1; 36]);
        g.backward(&gm, &gr);
        let norm: f32 = g.flat_gradients().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 0.0, "gradients must flow to every component");
        drop(out);
    }

    /// End-to-end generator gradient check through the discriminator
    /// (the path used in real training).
    #[test]
    fn generator_gradient_matches_finite_difference_through_critic() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = tiny_gen(&mut rng);
        let mut d = DgDiscriminators::new(4, 9, &[8], &[6], &mut rng);

        // Loss: mean critic score of a *fixed-noise* generation. To keep
        // the noise fixed we reuse the same RNG seed per evaluation.
        let eval = |g: &mut DgGenerator, d: &mut DgDiscriminators| -> f32 {
            let mut r = StdRng::seed_from_u64(42);
            let out = g.generate(3, &mut r);
            let s = d.score(&out.meta, &out.records);
            s.mean()
        };

        // Analytic gradient.
        {
            let mut r = StdRng::seed_from_u64(42);
            let out = g.generate(3, &mut r);
            let s = d.score(&out.meta, &out.records);
            let gs = s.map(|_| 1.0 / s.len() as f32);
            d.zero_grad();
            let gx = d.disc.backward(&gs);
            let gm = gx.slice_cols(0, 4);
            let gr = gx.slice_cols(4, 13);
            g.zero_grad();
            g.backward(&gm, &gr);
        }
        let flat = g.flat_gradients();

        let eps = 1e-2f32;
        let n = g.num_parameters();
        let step = (n / 12).max(1);
        for i in (0..n).step_by(step) {
            let set = |g: &mut DgGenerator, delta: f32| {
                let mut off = 0;
                for p in g.parameters_mut() {
                    if i < off + p.len() {
                        p.data_mut()[i - off] += delta;
                        return;
                    }
                    off += p.len();
                }
            };
            set(&mut g, eps);
            let fp = eval(&mut g, &mut d);
            set(&mut g, -2.0 * eps);
            let fm = eval(&mut g, &mut d);
            set(&mut g, eps);
            let num = (fp - fm) / (2.0 * eps);
            let ana = flat[i];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "param {i}: numeric {num} vs analytic {ana}"
            );
        }
    }
}
