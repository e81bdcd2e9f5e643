//! Allocation regression gate for the GRU step loops.
//!
//! The training forward/backward used to allocate every gate buffer
//! fresh on every timestep (~15 heap allocations per step). The scratch
//! arena hoists those: after a warm-up pass, per-step cost must stay at
//! the steady-state floor (the cached `hs` clone in the forward and the
//! escaping `dx` in the backward), not regress to per-gate allocation.
//!
//! Measured with a counting global allocator, so this file holds exactly
//! one test — parallel tests would pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nnet::{Gru, Tensor};
use rand::prelude::*;
use rand::rngs::StdRng;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counter is a side effect with no influence on the returned memory;
// every call delegates verbatim to `System`.
// SAFETY: System upholds the GlobalAlloc contract; this impl forwards to it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as the caller; System::alloc upholds it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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
