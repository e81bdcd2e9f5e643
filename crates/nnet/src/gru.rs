//! A GRU recurrent cell with back-propagation through time.
//!
//! DoppelGANger's record generator is an RNN that emits a few timeseries
//! steps per RNN pass; this GRU is that recurrent core. The cell follows
//! Cho et al. (2014):
//!
//! ```text
//! z_t = σ(x_t·Wz + h_{t-1}·Uz + bz)          (update gate)
//! r_t = σ(x_t·Wr + h_{t-1}·Ur + br)          (reset gate)
//! ĥ_t = tanh(x_t·Wh + (r_t ⊙ h_{t-1})·Uh + bh)
//! h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ ĥ_t
//! ```

use crate::infer::{Arena, FrozenGru};
use crate::tensor::Tensor;
use crate::layers::Init;
use crate::Parameterized;
use serde::{Deserialize, Serialize};
use telemetry::metrics::{LazyCounter, LazyTimerUs};

static GRU_STEPS: LazyCounter = LazyCounter::new("gru.steps");
static GRU_FORWARD_US: LazyTimerUs = LazyTimerUs::new("gru.forward.us");
static GRU_BACKWARD_US: LazyTimerUs = LazyTimerUs::new("gru.backward.us");

/// Per-step cache for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    z: Tensor,
    r: Tensor,
    hhat: Tensor,
}

/// A GRU cell (single layer) operating on batched sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gru {
    wz: Tensor,
    uz: Tensor,
    bz: Tensor,
    wr: Tensor,
    ur: Tensor,
    br: Tensor,
    wh: Tensor,
    uh: Tensor,
    bh: Tensor,
    gwz: Tensor,
    guz: Tensor,
    gbz: Tensor,
    gwr: Tensor,
    gur: Tensor,
    gbr: Tensor,
    gwh: Tensor,
    guh: Tensor,
    gbh: Tensor,
    #[serde(skip)]
    cache: Vec<StepCache>,
    /// Recycled scratch storage for step temporaries and BPTT caches:
    /// after the first sequence warms the pool, the step loop performs
    /// no per-step heap allocation beyond the hidden states and input
    /// gradients that escape to the caller (pinned by the alloc-count
    /// regression test). Skipped by serde and reset by clone — scratch
    /// is an optimization, never state.
    #[serde(skip)]
    scratch: Arena,
    input_dim: usize,
    hidden_dim: usize,
}

impl Gru {
    /// Builds a GRU mapping `input_dim` inputs to `hidden_dim` hidden
    /// units, with weights from `init` (Xavier for an RNG).
    pub fn new<I: Init + ?Sized>(input_dim: usize, hidden_dim: usize, init: &mut I) -> Self {
        Gru {
            wz: init.weights(input_dim, hidden_dim),
            uz: init.weights(hidden_dim, hidden_dim),
            bz: Tensor::zeros(1, hidden_dim),
            wr: init.weights(input_dim, hidden_dim),
            ur: init.weights(hidden_dim, hidden_dim),
            br: Tensor::zeros(1, hidden_dim),
            wh: init.weights(input_dim, hidden_dim),
            uh: init.weights(hidden_dim, hidden_dim),
            bh: Tensor::zeros(1, hidden_dim),
            gwz: Tensor::zeros(input_dim, hidden_dim),
            guz: Tensor::zeros(hidden_dim, hidden_dim),
            gbz: Tensor::zeros(1, hidden_dim),
            gwr: Tensor::zeros(input_dim, hidden_dim),
            gur: Tensor::zeros(hidden_dim, hidden_dim),
            gbr: Tensor::zeros(1, hidden_dim),
            gwh: Tensor::zeros(input_dim, hidden_dim),
            guh: Tensor::zeros(hidden_dim, hidden_dim),
            gbh: Tensor::zeros(1, hidden_dim),
            cache: Vec::new(),
            scratch: Arena::new(),
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// A forward-only view over this cell's weights for the inference
    /// path: no grad buffers, no BPTT cache, `&self` stepping. Its step
    /// is the body [`Gru::step`] runs, so the two agree bit for bit by
    /// construction.
    pub fn freeze(&self) -> FrozenGru<'_> {
        FrozenGru {
            wz: &self.wz,
            uz: &self.uz,
            bz: &self.bz,
            wr: &self.wr,
            ur: &self.ur,
            br: &self.br,
            wh: &self.wh,
            uh: &self.uh,
            bh: &self.bh,
        }
    }

    /// Recycles every cached step tensor back into the scratch pool.
    fn drain_cache(&mut self) {
        for c in std::mem::take(&mut self.cache) {
            self.scratch.recycle(c.x);
            self.scratch.recycle(c.h_prev);
            self.scratch.recycle(c.z);
            self.scratch.recycle(c.r);
            self.scratch.recycle(c.hhat);
        }
    }

    /// One forward step: returns `h_t` and caches for BPTT.
    ///
    /// The arithmetic is [`FrozenGru`]'s step body, run on this cell's
    /// scratch arena over its nine weights; only the sink differs: it
    /// keeps the gate outputs `z`, `r` and `ĥ`, with copies of `x` and
    /// `h_prev`, for [`Gru::backward_sequence`]. So a training step and
    /// a frozen step are bitwise-equal by construction, and a warm cell
    /// allocates nothing here. The returned hidden state borrows pool
    /// storage and is reclaimed by the next cache drain.
    pub fn step(&mut self, x: &Tensor, h_prev: &Tensor) -> Tensor {
        // Destructured, not `self.freeze()`: the weights are borrowed
        // shared while `cache` and `scratch` stay mutable.
        let Gru { wz, uz, bz, wr, ur, br, wh, uh, bh, cache, scratch, .. } = self;
        let frozen = FrozenGru { wz, uz, bz, wr, ur, br, wh, uh, bh };
        frozen.step_with(
            h_prev,
            scratch,
            |_, w, b, out| x.matmul_add_bias_into(w, b, out),
            |arena, [z, r, hhat]| {
                let x = arena.take_copy(x);
                let h_prev = arena.take_copy(h_prev);
                cache.push(StepCache { x, h_prev, z, r, hhat });
            },
        )
    }

    /// Runs a full sequence from `h0`, returning all hidden states
    /// `[h_1, …, h_T]`. Clears any previous cache (recycling its
    /// buffers into the scratch pool).
    pub fn forward_sequence(&mut self, xs: &[Tensor], h0: &Tensor) -> Vec<Tensor> {
        self.drain_cache();
        let _scope = crate::sanitize::scope_with(|| "Gru::forward".to_string());
        GRU_STEPS.get().add(xs.len() as u64);
        let _timer = GRU_FORWARD_US.start();
        let mut hs = Vec::with_capacity(xs.len());
        let mut h = self.scratch.take_copy(h0);
        // lint: step-loop
        for x in xs {
            let next = self.step(x, &h);
            self.scratch.recycle(std::mem::replace(&mut h, next));
            hs.push(h.clone());
        }
        self.scratch.recycle(h);
        hs
    }

    /// BPTT over the cached sequence. `grad_hs[t]` is the gradient of the
    /// loss w.r.t. hidden state `h_{t+1}` coming from the *outputs* (the
    /// recurrent contribution is handled internally). Returns per-step
    /// input gradients and the gradient w.r.t. `h0`. Consumes the cache.
    pub fn backward_sequence(&mut self, grad_hs: &[Tensor]) -> (Vec<Tensor>, Tensor) {
        assert_eq!(grad_hs.len(), self.cache.len(), "grad/cache length mismatch");
        let _scope = crate::sanitize::scope_with(|| "Gru::backward".to_string());
        let _timer = GRU_BACKWARD_US.start();
        let steps = self.cache.len();
        let batch = grad_hs.last().map(|g| g.rows()).unwrap_or(0);
        let mut dxs = vec![Tensor::zeros(0, 0); steps];
        let mut dh_next = self.scratch.take_zeroed(batch, self.hidden_dim);
        // Scratch temporaries — every buffer below comes from (and is
        // returned to) the arena, so a warm backward pass only allocates
        // the per-step `dx` tensors that escape to the caller. All
        // accumulation orders match the original allocating code: GEMM
        // temporaries start from zeros exactly as their allocating
        // counterparts did, and bias sums still go through a zeroed row
        // temp before `add_assign` (accumulating into the grad directly
        // would change the rounding order).
        // lint: step-loop
        for t in (0..steps).rev() {
            let Some(cache) = self.cache.pop() else { break };
            let StepCache { x, h_prev, z, r, hhat } = cache;
            let mut dh = self.scratch.take_copy(&grad_hs[t]);
            dh.add_assign(&dh_next);

            // dz = dh ⊙ (ĥ - h_prev); dĥ = dh ⊙ z; dh_prev = dh ⊙ (1-z)
            let mut dz = self.scratch.take_zeroed(dh.rows(), dh.cols());
            let mut dhhat = self.scratch.take_zeroed(dh.rows(), dh.cols());
            let mut dh_prev = self.scratch.take_zeroed(dh.rows(), dh.cols());
            for i in 0..dh.len() {
                let d = dh.data()[i];
                dz.data_mut()[i] = d * (hhat.data()[i] - h_prev.data()[i]);
                dhhat.data_mut()[i] = d * z.data()[i];
                dh_prev.data_mut()[i] = d * (1.0 - z.data()[i]);
            }

            // Candidate path.
            let mut dhhat_raw = self.scratch.take_zeroed(dhhat.rows(), dhhat.cols());
            for i in 0..dhhat_raw.len() {
                let y = hhat.data()[i];
                dhhat_raw.data_mut()[i] = dhhat.data()[i] * (1.0 - y * y);
            }
            let mut rh = self.scratch.take_zeroed(h_prev.rows(), h_prev.cols());
            r.hadamard_into(&h_prev, &mut rh);
            x.t_matmul_acc(&dhhat_raw, &mut self.gwh);
            rh.t_matmul_acc(&dhhat_raw, &mut self.guh);
            let mut bias_sum = self.scratch.take_zeroed(1, self.hidden_dim);
            dhhat_raw.sum_rows_into(&mut bias_sum);
            self.gbh.add_assign(&bias_sum);
            let mut drh = self.scratch.take_zeroed(dhhat_raw.rows(), self.uh.rows());
            dhhat_raw.matmul_t_acc(&self.uh, &mut drh);
            let mut dr = self.scratch.take_zeroed(drh.rows(), drh.cols());
            drh.hadamard_into(&h_prev, &mut dr);
            let mut hid_tmp = self.scratch.take_zeroed(drh.rows(), drh.cols());
            drh.hadamard_into(&r, &mut hid_tmp);
            dh_prev.add_assign(&hid_tmp);

            // Gate pre-activations.
            let mut dz_raw = self.scratch.take_zeroed(dz.rows(), dz.cols());
            for i in 0..dz_raw.len() {
                let y = z.data()[i];
                dz_raw.data_mut()[i] = dz.data()[i] * y * (1.0 - y);
            }
            let mut dr_raw = self.scratch.take_zeroed(dr.rows(), dr.cols());
            for i in 0..dr_raw.len() {
                let y = r.data()[i];
                dr_raw.data_mut()[i] = dr.data()[i] * y * (1.0 - y);
            }
            x.t_matmul_acc(&dz_raw, &mut self.gwz);
            h_prev.t_matmul_acc(&dz_raw, &mut self.guz);
            dz_raw.sum_rows_into(&mut bias_sum);
            self.gbz.add_assign(&bias_sum);
            x.t_matmul_acc(&dr_raw, &mut self.gwr);
            h_prev.t_matmul_acc(&dr_raw, &mut self.gur);
            dr_raw.sum_rows_into(&mut bias_sum);
            self.gbr.add_assign(&bias_sum);

            // Input gradient (escapes to the caller — a real allocation).
            let mut dx = dz_raw.matmul_t(&self.wz);
            let mut in_tmp = self.scratch.take_zeroed(dr_raw.rows(), self.wr.rows());
            dr_raw.matmul_t_acc(&self.wr, &mut in_tmp);
            dx.add_assign(&in_tmp);
            self.scratch.recycle(in_tmp);
            let mut in_tmp = self.scratch.take_zeroed(dhhat_raw.rows(), self.wh.rows());
            dhhat_raw.matmul_t_acc(&self.wh, &mut in_tmp);
            dx.add_assign(&in_tmp);
            self.scratch.recycle(in_tmp);
            dxs[t] = dx;

            // Recurrent gradient to the previous step.
            hid_tmp.fill(0.0);
            dz_raw.matmul_t_acc(&self.uz, &mut hid_tmp);
            dh_prev.add_assign(&hid_tmp);
            hid_tmp.fill(0.0);
            dr_raw.matmul_t_acc(&self.ur, &mut hid_tmp);
            dh_prev.add_assign(&hid_tmp);
            self.scratch.recycle(std::mem::replace(&mut dh_next, dh_prev));

            self.scratch.recycle(dh);
            self.scratch.recycle(dz);
            self.scratch.recycle(dhhat);
            self.scratch.recycle(dhhat_raw);
            self.scratch.recycle(rh);
            self.scratch.recycle(bias_sum);
            self.scratch.recycle(drh);
            self.scratch.recycle(dr);
            self.scratch.recycle(hid_tmp);
            self.scratch.recycle(dz_raw);
            self.scratch.recycle(dr_raw);
            self.scratch.recycle(x);
            self.scratch.recycle(h_prev);
            self.scratch.recycle(z);
            self.scratch.recycle(r);
            self.scratch.recycle(hhat);
        }
        let dh0 = dh_next.clone();
        self.scratch.recycle(dh_next);
        (dxs, dh0)
    }
}

impl Parameterized for Gru {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![
            &self.wz, &self.uz, &self.bz, &self.wr, &self.ur, &self.br, &self.wh, &self.uh,
            &self.bh,
        ]
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.wz, &mut self.uz, &mut self.bz, &mut self.wr, &mut self.ur, &mut self.br,
            &mut self.wh, &mut self.uh, &mut self.bh,
        ]
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.gwz, &mut self.guz, &mut self.gbz, &mut self.gwr, &mut self.gur,
            &mut self.gbr, &mut self.gwh, &mut self.guh, &mut self.gbh,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn seq_loss(gru: &mut Gru, xs: &[Tensor], h0: &Tensor) -> f32 {
        gru.forward_sequence(xs, h0)
            .iter()
            .map(|h| h.data().iter().sum::<f32>())
            .sum()
    }

    #[test]
    fn hidden_states_are_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gru = Gru::new(3, 4, &mut rng);
        let xs: Vec<Tensor> = (0..5).map(|_| Tensor::randn(2, 3, &mut rng)).collect();
        let hs = gru.forward_sequence(&xs, &Tensor::zeros(2, 4));
        assert_eq!(hs.len(), 5);
        for h in &hs {
            assert!(h.data().iter().all(|v| v.abs() <= 1.0 + 1e-5), "GRU state in (-1,1)");
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gru = Gru::new(2, 3, &mut rng);
        let xs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(1, 2, &mut rng)).collect();
        let h0 = Tensor::zeros(1, 3);
        let hs = gru.forward_sequence(&xs, &h0);
        let grads: Vec<Tensor> = hs
            .iter()
            .map(|h| Tensor::from_vec(h.rows(), h.cols(), vec![1.0; h.len()]))
            .collect();
        gru.zero_grad();
        let (dxs, _) = gru.backward_sequence(&grads);

        let eps = 1e-3f32;
        for t in 0..xs.len() {
            for i in 0..xs[t].len() {
                let mut xp: Vec<Tensor> = xs.clone();
                xp[t].data_mut()[i] += eps;
                let mut xm: Vec<Tensor> = xs.clone();
                xm[t].data_mut()[i] -= eps;
                let fp = seq_loss(&mut gru, &xp, &h0);
                let fm = seq_loss(&mut gru, &xm, &h0);
                let num = (fp - fm) / (2.0 * eps);
                let ana = dxs[t].data()[i];
                assert!(
                    (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                    "dx[{t}][{i}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gru = Gru::new(2, 3, &mut rng);
        let xs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(2, 2, &mut rng)).collect();
        let h0 = Tensor::zeros(2, 3);
        let hs = gru.forward_sequence(&xs, &h0);
        let grads: Vec<Tensor> = hs
            .iter()
            .map(|h| Tensor::from_vec(h.rows(), h.cols(), vec![1.0; h.len()]))
            .collect();
        gru.zero_grad();
        let _ = gru.backward_sequence(&grads);
        let flat = gru.flat_gradients();

        let eps = 1e-3f32;
        let n = gru.num_parameters();
        let step = (n / 20).max(1);
        for i in (0..n).step_by(step) {
            let set = |g: &mut Gru, delta: f32| {
                let mut off = 0;
                for p in g.parameters_mut() {
                    if i < off + p.len() {
                        p.data_mut()[i - off] += delta;
                        return;
                    }
                    off += p.len();
                }
            };
            set(&mut gru, eps);
            let fp = seq_loss(&mut gru, &xs, &h0);
            set(&mut gru, -2.0 * eps);
            let fm = seq_loss(&mut gru, &xs, &h0);
            set(&mut gru, eps);
            let num = (fp - fm) / (2.0 * eps);
            let ana = flat[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "param {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn h0_gradient_flows() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gru = Gru::new(2, 3, &mut rng);
        let xs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(1, 2, &mut rng)).collect();
        let h0 = Tensor::randn(1, 3, &mut rng);
        let hs = gru.forward_sequence(&xs, &h0);
        let grads: Vec<Tensor> = hs
            .iter()
            .map(|h| Tensor::from_vec(h.rows(), h.cols(), vec![1.0; h.len()]))
            .collect();
        gru.zero_grad();
        let (_, dh0) = gru.backward_sequence(&grads);
        let eps = 1e-3f32;
        for i in 0..h0.len() {
            let mut hp = h0.clone();
            hp.data_mut()[i] += eps;
            let mut hm = h0.clone();
            hm.data_mut()[i] -= eps;
            let fp = seq_loss(&mut gru, &xs, &hp);
            let fm = seq_loss(&mut gru, &xs, &hm);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dh0.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dh0[{i}]: numeric {num} vs analytic {}",
                dh0.data()[i]
            );
        }
    }
}
