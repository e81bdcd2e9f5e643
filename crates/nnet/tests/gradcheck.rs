//! Finite-difference gradient checks for every `Parameterized` layer.
//!
//! The kernel rewrite (`nnet::kernel`) changed how every matrix product
//! is computed; this suite is the correctness gate: each layer's
//! analytic backward pass must match central finite differences of its
//! forward pass, on sizes that exercise the naive, tiled, and parallel
//! kernel paths.
//!
//! Coverage: `Linear` (dense), `Sequential` (dense + every activation),
//! `Gru` (BPTT), and `Conv2d`. That is the complete set of
//! gradient-carrying layers in `nnet` — there is no embedding layer in
//! this crate (the Ip2Vec embeddings live outside the autograd stack).

use nnet::layers::{Activation, Layer, Sequential};
use nnet::{Conv2d, Gru, Linear, Parameterized, Tensor};
use rand::prelude::*;

/// Deterministic, non-constant loss weights: a plain all-ones loss can
/// miss transpose bugs (symmetric inputs), varying weights cannot.
fn loss_weights(rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 31 + 7) % 13) as f32 / 13.0 - 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Weighted-sum loss, accumulated in f64 to keep the finite-difference
/// quotient out of f32 cancellation trouble.
fn weighted_loss(y: &Tensor, w: &Tensor) -> f64 {
    y.data()
        .iter()
        .zip(w.data())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum()
}

/// Central-difference estimate with a non-smoothness guard: when the
/// one-sided forward and backward quotients disagree, the interval
/// straddles (or sits on) a ReLU-style kink, where finite differences
/// average the two slopes while the analytic backward pass picks one —
/// report `None` so the caller skips that index.
fn stable_numeric_grad(mut f: impl FnMut(f32) -> f64, eps: f32) -> Option<f32> {
    let f0 = f(0.0);
    let fp = f(eps);
    let fm = f(-eps);
    let fwd = ((fp - f0) / eps as f64) as f32;
    let bwd = ((f0 - fm) / eps as f64) as f32;
    let central = ((fp - fm) / (2.0 * eps as f64)) as f32;
    if (fwd - bwd).abs() > 2e-2 * (1.0 + central.abs()) {
        None
    } else {
        Some(central)
    }
}

/// Checks a layer's input gradient and (spot-checked) parameter
/// gradients against central finite differences.
fn check_layer<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
    let y = layer.forward(x);
    let w = loss_weights(y.rows(), y.cols());
    layer.zero_grad();
    let gx = layer.backward(&w);
    let analytic = layer.flat_gradients();
    let mut checked = 0usize;

    // Input gradient, every element.
    for i in 0..x.len() {
        let num = stable_numeric_grad(
            |delta| {
                let mut xd = x.clone();
                xd.data_mut()[i] += delta;
                weighted_loss(&layer.forward(&xd), &w)
            },
            eps,
        );
        let Some(num) = num else { continue };
        checked += 1;
        let ana = gx.data()[i];
        assert!(
            (num - ana).abs() < tol * (1.0 + num.abs()),
            "input grad [{i}]: numeric {num} vs analytic {ana}"
        );
    }

    // Parameter gradients, a spread of indices (full sweep is O(P·F)).
    let n = layer.num_parameters();
    let step = (n / 30).max(1);
    for i in (0..n).step_by(step) {
        let set = |l: &mut L, delta: f32| {
            let mut off = 0;
            for p in l.parameters_mut() {
                if i < off + p.len() {
                    p.data_mut()[i - off] += delta;
                    return;
                }
                off += p.len();
            }
        };
        let num = stable_numeric_grad(
            |delta| {
                set(layer, delta);
                let f = weighted_loss(&layer.forward(x), &w);
                set(layer, -delta);
                f
            },
            eps,
        );
        let Some(num) = num else { continue };
        checked += 1;
        let ana = analytic[i];
        assert!(
            (num - ana).abs() < tol * (1.0 + num.abs()),
            "param grad [{i}]: numeric {num} vs analytic {ana}"
        );
    }
    assert!(checked > 0, "every index hit a non-smooth point — check is vacuous");
}

#[test]
fn linear_small_naive_path() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut l = Linear::new(3, 4, &mut rng);
    let x = Tensor::randn(2, 3, &mut rng);
    check_layer(&mut l, &x, 1e-2, 2e-2);
}

#[test]
fn linear_batch_on_tiled_kernel_path() {
    // 16 × 48 · 48 × 64 = 49k FLOPs ≥ TILE_MIN_FLOPS: tiled serial path.
    let mut rng = StdRng::seed_from_u64(11);
    let mut l = Linear::new(48, 64, &mut rng);
    let x = Tensor::randn(16, 48, &mut rng);
    check_layer(&mut l, &x, 1e-2, 3e-2);
}

#[test]
fn mlp_every_activation() {
    for (seed, act) in [
        (20u64, Activation::Tanh),
        (21, Activation::Relu),
        (22, Activation::LeakyRelu),
        (23, Activation::Sigmoid),
        (24, Activation::Identity),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::mlp(4, &[6, 5], 3, act, &mut rng);
        let x = Tensor::randn(3, 4, &mut rng);
        check_layer(&mut net, &x, 1e-2, 3e-2);
    }
}

#[test]
fn conv2d_padded_multichannel() {
    let mut rng = StdRng::seed_from_u64(30);
    let mut conv = Conv2d::new(2, 3, 3, 4, 4, 1, &mut rng);
    let x = Tensor::randn(2, conv.in_dim(), &mut rng);
    check_layer(&mut conv, &x, 1e-2, 3e-2);
}

/// GRU uses a sequence interface rather than `Layer`; check the full
/// BPTT path (input, parameter, and h0 gradients) the same way.
#[test]
fn gru_bptt_full_gradcheck() {
    let mut rng = StdRng::seed_from_u64(40);
    let mut gru = Gru::new(3, 4, &mut rng);
    let xs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(2, 3, &mut rng)).collect();
    let h0 = Tensor::randn(2, 4, &mut rng);

    let hs = gru.forward_sequence(&xs, &h0);
    let ws: Vec<Tensor> = hs.iter().map(|h| loss_weights(h.rows(), h.cols())).collect();
    gru.zero_grad();
    let (dxs, dh0) = gru.backward_sequence(&ws);
    let analytic = gru.flat_gradients();

    let loss = |g: &mut Gru, xs: &[Tensor], h0: &Tensor| -> f64 {
        g.forward_sequence(xs, h0)
            .iter()
            .zip(&ws)
            .map(|(h, w)| weighted_loss(h, w))
            .sum()
    };
    let eps = 1e-2f32;
    let tol = 3e-2f32;

    for t in 0..xs.len() {
        for i in 0..xs[t].len() {
            let mut xp = xs.to_vec();
            xp[t].data_mut()[i] += eps;
            let mut xm = xs.to_vec();
            xm[t].data_mut()[i] -= eps;
            let num = ((loss(&mut gru, &xp, &h0) - loss(&mut gru, &xm, &h0))
                / (2.0 * eps as f64)) as f32;
            let ana = dxs[t].data()[i];
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs()),
                "dx[{t}][{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    for i in 0..h0.len() {
        let mut hp = h0.clone();
        hp.data_mut()[i] += eps;
        let mut hm = h0.clone();
        hm.data_mut()[i] -= eps;
        let num =
            ((loss(&mut gru, &xs, &hp) - loss(&mut gru, &xs, &hm)) / (2.0 * eps as f64)) as f32;
        let ana = dh0.data()[i];
        assert!(
            (num - ana).abs() < tol * (1.0 + num.abs()),
            "dh0[{i}]: numeric {num} vs analytic {ana}"
        );
    }

    let n = gru.num_parameters();
    let step = (n / 30).max(1);
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
        let fp = loss(&mut gru, &xs, &h0);
        set(&mut gru, -2.0 * eps);
        let fm = loss(&mut gru, &xs, &h0);
        set(&mut gru, eps);
        let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
        let ana = analytic[i];
        assert!(
            (num - ana).abs() < tol * (1.0 + num.abs()),
            "param grad [{i}]: numeric {num} vs analytic {ana}"
        );
    }
}
