//! Forward-only inference: frozen weight views and a recycling
//! activation arena.
//!
//! Training forwards pay for bookkeeping sampling never needs — every
//! [`crate::layers::Linear`] clones its input for the backward pass, the
//! GRU caches five tensors per timestep, and each intermediate activation
//! is a fresh heap allocation. This module is the sampling path without
//! any of that:
//!
//! * [`Arena`] — a pool of recycled `f32` buffers. Activations are taken
//!   from the pool and recycled back, so a warm sampler performs zero
//!   steady-state allocations per timestep.
//! * [`FrozenSequential`] / [`FrozenGru`] — immutable views over the
//!   training networks' weights (no grad buffers, no caches, `&self`
//!   forwards). [`FrozenSequential`] replays the training forward
//!   **bitwise** (same GEMM shapes, bias-seed + accumulate order and
//!   activation closures); [`crate::Gru::step`] runs [`FrozenGru`]'s own
//!   step body, so a training and a frozen step are equal by construction.
//! * [`ConstInputGru`] — a [`FrozenGru`] over one batch whose step inputs
//!   keep some trailing columns (the generator's metadata) at every step.
//!   The input products' share of those columns is computed once per
//!   batch and added back at each step
//!   ([`crate::kernel::ConstAddends`]): the same product shapes and the
//!   same per-element operations in the same order as [`FrozenGru::step`],
//!   fewer of them recomputed, so the bytes stay those of training.
//!
//! `infer_equiv` (root `tests/oracles`) checks the rest: the replayed
//! input against the plain one, and the whole frozen generator against
//! the training generator and `DoppelGanger::sample`.
//!
//! Batched multi-stream sampling falls out of the design: a frozen
//! forward over a `K × in` input advances K independent flows per GRU
//! step, amortizing every weight-matrix traversal K ways.

use crate::layers::{Activation, Node, Sequential};
use crate::tensor::Tensor;

/// A recycling pool of `f32` buffers backing inference activations.
///
/// `take_*` hands out an owned [`Tensor`] whose storage comes from the
/// pool when a large-enough buffer is available (best fit by capacity)
/// and from the global allocator otherwise; [`Arena::recycle`] returns
/// the storage. After a warm-up pass over a given shape profile, every
/// take is a reuse — the property suite in `tests/infer_arena.rs` pins
/// this, and [`Arena::allocs`]/[`Arena::reuses`] expose the counters it
/// asserts on.
///
/// Tensors that escape to a caller (sampler outputs) must **not** be
/// recycled-by-contract arena tensors unless the caller recycles them;
/// internal users recycle every intermediate before returning.
#[derive(Default)]
pub struct Arena {
    pool: Vec<Vec<f32>>,
    allocs: u64,
    reuses: u64,
}

impl Clone for Arena {
    /// Clones to a *fresh, empty* arena: pooled scratch storage is an
    /// optimization, not state, so a cloned model re-warms on first use.
    fn clone(&self) -> Self {
        Arena::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("pooled", &self.pool.len())
            .field("pooled_bytes", &self.pooled_bytes())
            .field("allocs", &self.allocs)
            .field("reuses", &self.reuses)
            .finish()
    }
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            pool: Vec::new(),
            allocs: 0,
            reuses: 0,
        }
    }

    /// Pops the smallest pooled buffer holding at least `n` elements, or
    /// allocates a fresh one. Zero-element requests never touch the pool.
    fn take_buf(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= n && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                self.reuses += 1;
                self.pool.swap_remove(i)
            }
            None => {
                self.allocs += 1;
                Vec::with_capacity(n)
            }
        }
    }

    /// A zero-filled `rows × cols` tensor backed by pooled storage.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        let mut buf = self.take_buf(n);
        buf.clear();
        buf.resize(n, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// A `rows × cols` tensor backed by pooled storage with
    /// **unspecified contents** (stale values from earlier recycles, or
    /// zeros for fresh storage). Strictly for buffers every element of
    /// which is written before it is read — overwrite-style kernels
    /// (`matmul_add_bias_into`, `hadamard_into`, `fill_randn`) and full
    /// elementwise fills qualify; accumulate-style kernels
    /// (`matmul_acc`, `matmul_t_acc`) do NOT — those need
    /// [`Arena::take_zeroed`]. Skipping the memset is worth a few
    /// percent per generate call at production batch sizes.
    pub fn take_scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        let mut buf = self.take_buf(n);
        if buf.len() > n {
            buf.truncate(n);
        } else {
            // Zero-fills only the growth past the stale prefix.
            buf.resize(n, 0.0);
        }
        Tensor::from_vec(rows, cols, buf)
    }

    /// A pooled-storage copy of `src` (same shape, same bytes).
    pub fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.take_buf(src.len());
        buf.clear();
        buf.extend_from_slice(src.data());
        Tensor::from_vec(src.rows(), src.cols(), buf)
    }

    /// Returns a tensor's storage to the pool for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        let buf = t.into_vec();
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Number of fresh heap allocations performed so far.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Number of takes satisfied from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Number of buffers currently sitting in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total capacity (bytes) currently held by the pool.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.iter().map(|b| b.capacity() * 4).sum()
    }

    /// Publishes the arena counters to telemetry (`infer.arena.*`).
    /// Counter lookups cost a registry access, so hot loops keep local
    /// counts and callers flush once per batch instead of once per take.
    pub fn publish_metrics(&self) {
        telemetry::metrics::counter("infer.arena.allocs").add(self.allocs);
        telemetry::metrics::counter("infer.arena.reuses").add(self.reuses);
        telemetry::metrics::gauge("infer.arena.pooled_bytes").set(self.pooled_bytes() as f64);
    }
}

/// One node of a [`FrozenSequential`]: a borrowed dense layer or a
/// stateless activation.
pub enum FrozenNode<'a> {
    /// Dense layer view: `y = x·w + b`.
    Linear {
        /// Weight matrix, `in × out`.
        w: &'a Tensor,
        /// Bias row vector, `1 × out`.
        b: &'a Tensor,
    },
    /// Element-wise activation.
    Activation(Activation),
}

/// A forward-only view over a [`Sequential`] MLP: borrowed weights, no
/// caches, activations applied in place on arena buffers.
pub struct FrozenSequential<'a> {
    nodes: Vec<FrozenNode<'a>>,
}

impl<'a> FrozenSequential<'a> {
    /// Builds a frozen view over `net`. Errors on convolution nodes,
    /// which the inference path does not support (the DoppelGANger
    /// generator networks are Linear/Activation stacks by construction).
    pub fn of(net: &'a Sequential) -> Result<Self, String> {
        let nodes = net.nodes();
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            match n {
                Node::Linear(l) => out.push(FrozenNode::Linear {
                    w: l.weights(),
                    b: l.bias(),
                }),
                Node::Activation(a) => out.push(FrozenNode::Activation(a.activation())),
                Node::Conv(_) => {
                    return Err(
                        "FrozenSequential supports Linear/Activation nodes only".to_string()
                    )
                }
            }
        }
        Ok(FrozenSequential { nodes: out })
    }

    /// Forward pass. Bitwise-identical to the training
    /// [`crate::Layer::forward`] on [`Sequential`]: each dense node runs
    /// the same fused bias-seed + GEMM, each activation the same
    /// element-wise map (in place here, into a fresh tensor there — same
    /// values either way).
    ///
    /// The returned tensor borrows pool storage — recycle it into
    /// `arena` when done.
    pub fn forward(&self, input: &Tensor, arena: &mut Arena) -> Tensor {
        let mut cur = arena.take_copy(input);
        for node in &self.nodes {
            match node {
                FrozenNode::Linear { w, b } => {
                    // Scratch is fine: matmul_add_bias_into overwrites
                    // every element (bias seed, then GEMM accumulate).
                    let mut out = arena.take_scratch(cur.rows(), w.cols());
                    cur.matmul_add_bias_into(w, b, &mut out);
                    arena.recycle(std::mem::replace(&mut cur, out));
                }
                FrozenNode::Activation(a) => {
                    let act = *a;
                    cur.map_inplace(|x| act.apply(x));
                }
            }
        }
        cur
    }
}

/// A forward-only view over a GRU cell's weights: the nine parameter
/// tensors of [`crate::Gru`], borrowed, with an allocation-free `step`.
/// Built via [`crate::Gru::freeze`], or field-by-field by the
/// packed-weight path.
pub struct FrozenGru<'a> {
    /// Update-gate input weights, `in × hidden`.
    pub wz: &'a Tensor,
    /// Update-gate recurrent weights, `hidden × hidden`.
    pub uz: &'a Tensor,
    /// Update-gate bias, `1 × hidden`.
    pub bz: &'a Tensor,
    /// Reset-gate input weights.
    pub wr: &'a Tensor,
    /// Reset-gate recurrent weights.
    pub ur: &'a Tensor,
    /// Reset-gate bias.
    pub br: &'a Tensor,
    /// Candidate input weights.
    pub wh: &'a Tensor,
    /// Candidate recurrent weights.
    pub uh: &'a Tensor,
    /// Candidate bias.
    pub bh: &'a Tensor,
}

impl<'a> FrozenGru<'a> {
    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.uz.rows()
    }

    /// One forward step: returns `h_t` with no cache and no grad tape.
    /// [`crate::Gru::step`] runs this same body and only keeps the gate
    /// outputs that this step recycles, so the two are bitwise-equal by
    /// construction. The returned tensor borrows pool storage.
    pub fn step(&self, x: &Tensor, h_prev: &Tensor, arena: &mut Arena) -> Tensor {
        let input = |_, w: &Tensor, b: &Tensor, out: &mut Tensor| {
            x.matmul_add_bias_into(w, b, out)
        };
        self.step_with(h_prev, arena, input, recycle_gates)
    }

    /// Steps over a batch whose inputs keep their columns `c0..` at
    /// every step, as the generator's `[noise ‖ metadata]` does: the
    /// returned stepper computes those columns' share of the three input
    /// products once, here, from `x`, and each
    /// [`ConstInputGru::step`] adds it back (see
    /// [`crate::kernel::ConstAddends`]). Its steps are bitwise equal to
    /// [`FrozenGru::step`] on the same inputs.
    pub fn with_constant_input(&self, x: &Tensor, c0: usize) -> ConstInputGru<'_, 'a> {
        let addends = |w: &Tensor| {
            crate::kernel::ConstAddends::new(x.rows(), x.cols(), w.cols(), c0, x.data(), w.data())
        };
        ConstInputGru {
            gru: self,
            addends: [addends(self.wz), addends(self.wr), addends(self.wh)],
        }
    }

    /// The GRU's one copy of its gate arithmetic. `input(gate, w, b, out)`
    /// writes `x·w + b` into `out` for gate 0 (update), 1 (reset) or 2
    /// (candidate); `keep(arena, [z, r, ĥ])` caches or recycles the gates.
    pub(crate) fn step_with(
        &self,
        h_prev: &Tensor,
        arena: &mut Arena,
        input: impl Fn(usize, &Tensor, &Tensor, &mut Tensor),
        keep: impl FnOnce(&mut Arena, [Tensor; 3]),
    ) -> Tensor {
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        let rows = h_prev.rows();
        // All five buffers here are overwrite-style (bias-seeded GEMMs,
        // hadamard_into, or a full element-wise store), so scratch
        // storage — no memset — produces the same bytes as zeroed.
        let mut z = arena.take_scratch(rows, self.wz.cols());
        input(0, self.wz, self.bz, &mut z);
        h_prev.matmul_acc(self.uz, &mut z);
        z.map_inplace(sigmoid);

        let mut r = arena.take_scratch(rows, self.wr.cols());
        input(1, self.wr, self.br, &mut r);
        h_prev.matmul_acc(self.ur, &mut r);
        r.map_inplace(sigmoid);

        let mut rh = arena.take_scratch(h_prev.rows(), h_prev.cols());
        r.hadamard_into(h_prev, &mut rh);
        let mut hhat = arena.take_scratch(rows, self.wh.cols());
        input(2, self.wh, self.bh, &mut hhat);
        rh.matmul_acc(self.uh, &mut hhat);
        hhat.map_inplace(f32::tanh);

        // h = (1-z)⊙h_prev + z⊙ĥ — every element written below.
        let mut h = arena.take_scratch(h_prev.rows(), h_prev.cols());
        for i in 0..h.len() {
            let zv = z.data()[i];
            h.data_mut()[i] = (1.0 - zv) * h_prev.data()[i] + zv * hhat.data()[i];
        }
        arena.recycle(rh);
        keep(arena, [z, r, hhat]);
        h
    }
}

/// The `keep` sink of a forward-only step: the gates go back to the pool.
fn recycle_gates(arena: &mut Arena, gates: [Tensor; 3]) {
    gates.into_iter().for_each(|g| arena.recycle(g));
}

/// A [`FrozenGru`] over one batch whose inputs hold the same values in
/// columns `c0..` at every step, made by [`FrozenGru::with_constant_input`].
/// It keeps those columns' addends of `x·Wz`, `x·Wr` and `x·Wh`, in
/// storage that returns to a process-wide pool when it is dropped.
pub struct ConstInputGru<'g, 'a> {
    gru: &'g FrozenGru<'a>,
    /// Addends for `Wz`, `Wr` and `Wh`, in that order.
    addends: [crate::kernel::ConstAddends; 3],
}

impl ConstInputGru<'_, '_> {
    /// [`FrozenGru::step`], bitwise, for an `x` whose columns `c0..`
    /// still hold the values this stepper was made from.
    pub fn step(&self, x: &Tensor, h_prev: &Tensor, arena: &mut Arena) -> Tensor {
        let input = |gate, w: &Tensor, b: &Tensor, out: &mut Tensor| {
            x.matmul_add_bias_replay_into(w, b, &self.addends[gate], out)
        };
        self.gru.step_with(h_prev, arena, input, recycle_gates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn arena_reuses_after_warmup() {
        let mut a = Arena::new();
        let t1 = a.take_zeroed(4, 8);
        let t2 = a.take_zeroed(2, 2);
        assert_eq!(a.allocs(), 2);
        a.recycle(t1);
        a.recycle(t2);
        let t3 = a.take_zeroed(4, 8);
        let t4 = a.take_zeroed(2, 2);
        assert_eq!(a.allocs(), 2, "warm takes must hit the pool");
        assert_eq!(a.reuses(), 2);
        assert!(t3.data().iter().all(|&v| v == 0.0), "recycled buffers are re-zeroed");
        drop(t4);
    }

    #[test]
    fn arena_best_fit_prefers_the_smallest_buffer() {
        let mut a = Arena::new();
        let big = a.take_zeroed(10, 10);
        let small = a.take_zeroed(2, 2);
        a.recycle(big);
        a.recycle(small);
        let t = a.take_zeroed(2, 2);
        assert_eq!(t.len(), 4);
        // The 100-element buffer must still be pooled.
        assert_eq!(a.pooled(), 1);
        assert!(a.pooled_bytes() >= 400);
    }

    #[test]
    fn frozen_sequential_matches_training_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::mlp(5, &[7, 6], 3, Activation::Relu, &mut rng);
        let x = Tensor::randn(4, 5, &mut rng);
        let reference = net.forward(&x);
        let frozen = FrozenSequential::of(&net).expect("linear-only net");
        let mut arena = Arena::new();
        let fast = frozen.forward(&x, &mut arena);
        assert_eq!(reference.data(), fast.data(), "frozen forward must be bitwise-equal");
        arena.recycle(fast);
    }

    #[test]
    fn frozen_sequential_rejects_conv() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Sequential::new();
        net.push_conv(crate::conv::Conv2d::new(1, 1, 3, 4, 4, 0, &mut rng));
        assert!(FrozenSequential::of(&net).is_err());
    }

    #[test]
    fn frozen_gru_matches_training_step_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut gru = crate::Gru::new(3, 5, &mut rng);
        let frozen = gru.freeze();
        let mut arena = Arena::new();
        let x = Tensor::randn(2, 3, &mut rng);
        let h0 = Tensor::zeros(2, 5);
        let h_fast = frozen.step(&x, &h0, &mut arena);
        let h_ref = gru.step(&x, &h0);
        assert_eq!(h_ref.data(), h_fast.data(), "frozen GRU step must be bitwise-equal");
    }
}
