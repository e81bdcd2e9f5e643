//! Differentially-private SGD (Abadi et al., CCS 2016).
//!
//! DP-SGD makes each gradient step differentially private by (1) clipping
//! every *per-example* gradient to L2 norm at most `C`, bounding any one
//! record's influence, and (2) adding Gaussian noise `N(0, σ²C²I)` to the
//! summed gradient. The privacy cost of a run is accounted by the
//! `privacy` crate's RDP accountant from `(σ, sampling rate, steps)`.
//!
//! The paper's Insight 4 uses DP-SGD only for *fine-tuning* a model
//! pre-trained on public data, cutting the number of noisy steps needed —
//! this module is agnostic to that and simply makes steps private.

use crate::Parameterized;
use rand::prelude::*;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// DP-SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpSgdConfig {
    /// Per-example gradient clipping norm `C`.
    pub clip_norm: f32,
    /// Noise multiplier `σ`: noise stddev is `σ·C` per coordinate (on the
    /// gradient *sum*, before averaging).
    pub noise_multiplier: f32,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.1,
        }
    }
}

/// Stateful DP-SGD gradient sanitizer.
pub struct DpSgdTrainer {
    cfg: DpSgdConfig,
    rng: StdRng,
    steps: u64,
}

impl DpSgdTrainer {
    /// Builds a trainer with its own noise RNG.
    pub fn new(cfg: DpSgdConfig, seed: u64) -> Self {
        DpSgdTrainer {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
        }
    }

    /// Number of noisy gradient steps sanitized so far (feed this to the
    /// privacy accountant).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The configuration in use.
    pub fn config(&self) -> DpSgdConfig {
        self.cfg
    }

    /// Computes a sanitized (clipped, noised, averaged) gradient over
    /// `batch` and loads it into the model's gradient buffers, ready for an
    /// ordinary optimizer step.
    ///
    /// `per_example(model, i)` must run forward + backward for example `i`
    /// alone, accumulating its gradient into the (zeroed) model buffers.
    ///
    /// The per-example structure is a privacy requirement, not a
    /// performance choice: clipping must see each example's gradient in
    /// isolation. The tensor kernels may tile *within* one
    /// example's forward/backward, but examples are never batched here —
    /// `tests/oracles/dpsgd_golden.rs` pins the exact sanitized values.
    pub fn sanitize_batch<M, F>(&mut self, model: &mut M, batch: &[usize], mut per_example: F)
    where
        M: Parameterized,
        F: FnMut(&mut M, usize),
    {
        assert!(!batch.is_empty(), "DP-SGD batch must be non-empty");
        let _span = telemetry::span!("dpsgd/sanitize_batch[{}]", batch.len());
        let _timer = telemetry::metrics::scoped_timer_us("dpsgd.sanitize.us");
        let grad_norms =
            telemetry::metrics::histogram("dpsgd.grad_norm", &telemetry::metrics::NORM_EDGES);
        let dim = model.num_parameters();
        let mut sum = vec![0.0f32; dim];
        for &i in batch {
            model.zero_grad();
            per_example(model, i);
            let mut g = model.flat_gradients();
            let norm = clip_l2(&mut g, self.cfg.clip_norm);
            // lint: allow(dp-taint-flow) pre-noise clip-rate histogram is a deliberate, documented side channel outside the DP release path; see OPERATIONS.md lint triage
            grad_norms.record(norm as f64);
            for (s, gi) in sum.iter_mut().zip(&g) {
                *s += gi;
            }
        }
        // Gaussian noise on the sum, then average.
        let noise_std = self.cfg.noise_multiplier * self.cfg.clip_norm;
        if noise_std > 0.0 {
            let normal = Normal::new(0.0, noise_std as f64).unwrap(); // lint: allow(panic-in-lib) noise_std > 0 checked on the previous line (lint: allow(panic-in-lib) noise_std > 0 checked on the previous line)
            for s in sum.iter_mut() {
                *s += normal.sample(&mut self.rng) as f32;
            }
        }
        let inv = 1.0 / batch.len() as f32;
        for s in sum.iter_mut() {
            *s *= inv;
        }
        crate::sanitize::check_finite("dpsgd::sanitize_batch", &sum);
        model.set_flat_gradients(&sum);
        self.steps += 1;
        telemetry::metrics::counter("dpsgd.steps").inc();
    }
}

/// Clips a flat gradient vector to L2 norm at most `c` in place and
/// returns the pre-clip norm (telemetry records it as the per-example
/// grad-norm distribution).
pub fn clip_l2(g: &mut [f32], c: f32) -> f32 {
    let norm: f32 = g.iter().map(|&x| x * x).sum::<f32>().sqrt();
    if norm > c && norm > 0.0 {
        let scale = c / norm;
        for x in g.iter_mut() {
            *x *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Layer, Sequential};
    use crate::loss::mse;
    use crate::optim::{Optimizer, Sgd};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;

    #[test]
    fn clip_l2_caps_norm() {
        let mut g = vec![3.0, 4.0];
        clip_l2(&mut g, 1.0);
        let n: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        assert!((g[0] / g[1] - 0.75).abs() < 1e-6, "direction preserved");
    }

    #[test]
    fn clip_l2_leaves_small_vectors() {
        let mut g = vec![0.1, 0.1];
        let orig = g.clone();
        clip_l2(&mut g, 1.0);
        assert_eq!(g, orig);
    }

    fn tiny_problem() -> (Sequential, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Sequential::mlp(1, &[4], 1, Activation::Tanh, &mut rng);
        let x = Tensor::from_vec(8, 1, (0..8).map(|i| i as f32 / 8.0).collect());
        let y = x.map(|v| 0.5 * v);
        (net, x, y)
    }

    #[test]
    fn per_example_gradients_bounded_by_clip_norm() {
        let (mut net, x, y) = tiny_problem();
        // Scale inputs up so raw per-example grads exceed the clip norm.
        let big_x = x.map(|v| v * 100.0);
        let cfg = DpSgdConfig {
            clip_norm: 0.01,
            noise_multiplier: 0.0, // isolate clipping
        };
        let mut trainer = DpSgdTrainer::new(cfg, 7);
        let batch: Vec<usize> = (0..8).collect();
        trainer.sanitize_batch(&mut net, &batch, |m, i| {
            let xi = big_x.select_rows(&[i]);
            let yi = y.select_rows(&[i]);
            let pred = m.forward(&xi);
            let (_, grad) = mse(&pred, &yi);
            let _ = m.backward(&grad);
        });
        // The averaged sum of 8 clipped grads has norm ≤ clip_norm.
        let norm: f32 = net
            .flat_gradients()
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        assert!(norm <= cfg.clip_norm + 1e-6, "norm {norm}");
    }

    #[test]
    fn noise_is_added_when_sigma_positive() {
        let (mut net, x, y) = tiny_problem();
        let run = |sigma: f32, seed: u64, net: &mut Sequential, x: &Tensor, y: &Tensor| {
            let mut trainer = DpSgdTrainer::new(
                DpSgdConfig {
                    clip_norm: 1.0,
                    noise_multiplier: sigma,
                },
                seed,
            );
            trainer.sanitize_batch(net, &[0, 1, 2, 3], |m, i| {
                let xi = x.select_rows(&[i]);
                let yi = y.select_rows(&[i]);
                let pred = m.forward(&xi);
                let (_, grad) = mse(&pred, &yi);
                let _ = m.backward(&grad);
            });
            net.flat_gradients()
        };
        let clean = run(0.0, 1, &mut net.clone(), &x, &y);
        let noisy1 = run(1.0, 1, &mut net.clone(), &x, &y);
        let noisy2 = run(1.0, 2, &mut net, &x, &y);
        assert_ne!(clean, noisy1, "noise must perturb gradients");
        assert_ne!(noisy1, noisy2, "different seeds, different noise");
    }

    #[test]
    fn dp_training_still_learns_without_noise() {
        // σ=0 DP-SGD is just per-example clipping; it must still converge.
        let (mut net, x, y) = tiny_problem();
        let mut trainer = DpSgdTrainer::new(
            DpSgdConfig {
                clip_norm: 1.0,
                noise_multiplier: 0.0,
            },
            3,
        );
        let mut opt = Sgd::new(0.1);
        let batch: Vec<usize> = (0..8).collect();
        let loss_at = |net: &mut Sequential| {
            let pred = net.forward(&x);
            mse(&pred, &y).0
        };
        let before = loss_at(&mut net);
        for _ in 0..200 {
            trainer.sanitize_batch(&mut net, &batch, |m, i| {
                let xi = x.select_rows(&[i]);
                let yi = y.select_rows(&[i]);
                let pred = m.forward(&xi);
                let (_, grad) = mse(&pred, &yi);
                let _ = m.backward(&grad);
            });
            opt.step(&mut net);
        }
        let after = loss_at(&mut net);
        assert!(after < before * 0.2, "before {before}, after {after}");
        assert_eq!(trainer.steps(), 200);
    }
}
