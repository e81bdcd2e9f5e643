//! Allocation regression gate for the GRU step loops.
//!
//! The training forward/backward used to allocate every gate buffer
//! fresh on every timestep (~15 heap allocations per step). The scratch
//! arena hoists those: after a warm-up pass, per-step cost must stay at
//! the steady-state floor (the cached `hs` clone in the forward and the
//! escaping `dx` in the backward), not regress to per-gate allocation.
//!
//! The frozen sampler's step loop, with the generator's constant metadata
//! columns replayed, has a stricter floor: none at all once warm.
//!
//! Measured with a counting global allocator whose count is per thread,
//! so the tests of this file, which run on threads of their own, do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nnet::infer::Arena;
use nnet::{Gru, Tensor};
use rand::prelude::*;
use rand::rngs::StdRng;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator can use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// The counter is a side effect with no influence on the returned memory;
// every call delegates verbatim to `System`.
// SAFETY: System upholds the GlobalAlloc contract; this impl forwards to it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as the caller; System::alloc upholds it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: layout is the caller's, forwarded unmodified.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same (ptr, layout) pairing contract as the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was returned by System.alloc with this exact layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made so far by the calling thread.
fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One full forward + backward pass over `steps` timesteps.
fn train_pass(gru: &mut Gru, xs: &[Tensor], h0: &Tensor, grad_template: &Tensor) {
    let hs = gru.forward_sequence(xs, h0);
    let grads: Vec<Tensor> = hs.iter().map(|_| grad_template.clone()).collect();
    let _ = gru.backward_sequence(&grads);
}

/// Marginal heap allocations per extra timestep of a `batch`-row GRU
/// from `input_dim` to `hidden`, measured once its scratch is warm.
fn allocs_per_step(batch: usize, input_dim: usize, hidden: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(42);
    let mut gru = Gru::new(input_dim, hidden, &mut rng);

    let make_xs = |steps: usize, rng: &mut StdRng| -> Vec<Tensor> {
        (0..steps)
            .map(|_| {
                let mut x = Tensor::zeros(batch, input_dim);
                x.fill_randn(rng);
                x
            })
            .collect()
    };
    let h0 = Tensor::zeros(batch, hidden);
    let grad = Tensor::zeros(batch, hidden);

    let short_xs = make_xs(8, &mut rng);
    let long_xs = make_xs(32, &mut rng);

    // Warm the scratch arena at the larger shape so both measured passes
    // run on a saturated pool.
    train_pass(&mut gru, &long_xs, &h0, &grad);
    train_pass(&mut gru, &short_xs, &h0, &grad);

    let before_short = allocs_now();
    train_pass(&mut gru, &short_xs, &h0, &grad);
    let short_cost = allocs_now() - before_short;

    let before_long = allocs_now();
    train_pass(&mut gru, &long_xs, &h0, &grad);
    let long_cost = allocs_now() - before_long;

    (long_cost.saturating_sub(short_cost)) as f64 / (32 - 8) as f64
}

#[test]
fn gru_step_loops_do_not_allocate_per_gate() {
    // Steady state is ~2 real per-step allocations (the forward's `hs`
    // clone and the backward's escaping `dx`) plus the per-pass `Vec`
    // collections in this harness; the old per-gate code sat around
    // 15/step. The first shape's products all stay on the naive kernels;
    // the second is the GRU input product at the serving shape
    // (32×147·147×48), whose products take the tiled kernels, so per-call
    // scratch there would show up here too.
    for (batch, input_dim, hidden) in [(4, 6, 16), (32, 147, 48)] {
        let per_step = allocs_per_step(batch, input_dim, hidden);
        assert!(
            per_step <= 6.0,
            "GRU step loops regressed to per-step allocation at {batch}x{input_dim}->{hidden}: \
             {per_step:.2} allocs/step"
        );
    }
}

/// Heap allocations of one pass of the frozen sampler's GRU loop over
/// `steps` steps, the way `FrozenGenerator::generate` runs it: metadata
/// written once into columns `z..`, the noise columns redrawn per step.
fn frozen_pass(gru: &Gru, arena: &mut Arena, batch: usize, z: usize, steps: usize) -> u64 {
    let frozen = gru.freeze();
    let input_dim = frozen.wz.rows();
    let mut rng = StdRng::seed_from_u64(5);
    let before = allocs_now();
    let mut x = arena.take_scratch(batch, input_dim);
    x.fill_randn(&mut rng);
    let stepper = frozen.with_constant_input(&x, z);
    let mut h = arena.take_zeroed(batch, frozen.hidden_dim());
    for _ in 0..steps {
        x.fill_randn_cols(z, &mut rng);
        let next = stepper.step(&x, &h, arena);
        arena.recycle(std::mem::replace(&mut h, next));
    }
    drop(stepper);
    arena.recycle(x);
    arena.recycle(h);
    allocs_now() - before
}

#[test]
fn warm_frozen_step_loops_with_constant_input_allocate_nothing() {
    // The serving shape: 8 noise + 139 metadata columns into 48, whose
    // input products take the tiled kernel and so the replay.
    let (batch, z, input_dim, hidden) = (32, 8, 147, 48);
    let mut rng = StdRng::seed_from_u64(42);
    let gru = Gru::new(input_dim, hidden, &mut rng);
    let mut arena = Arena::new();
    assert!(frozen_pass(&gru, &mut arena, batch, z, 32) > 0, "a cold pass allocates");
    for steps in [8, 32] {
        assert_eq!(
            frozen_pass(&gru, &mut arena, batch, z, steps),
            0,
            "a warm {steps}-step pass allocated"
        );
    }
}
