//! # nnet
//!
//! A minimal, dependency-light neural-network training framework — the
//! deep-learning substrate of this NetShare reproduction. The paper's
//! implementation uses TensorFlow 1.15 + tensorflow-privacy; neither is
//! available as mature Rust, so this crate provides the pieces the
//! pipeline actually needs, from scratch:
//!
//! * [`Tensor`]: a row-major `f32` matrix with the linear algebra used by
//!   dense and recurrent layers;
//! * [`layers`]: `Linear`, activations, `Sequential` MLPs with hand-written
//!   forward/backward passes, plus a stride-1 [`Conv2d`] (PAC-GAN's CNN
//!   discriminator);
//! * [`gru`]: a GRU cell with full back-propagation through time, the
//!   recurrent record generator of the time-series GAN;
//! * [`loss`]: MSE, binary cross-entropy on logits, softmax cross-entropy,
//!   and the Wasserstein critic objective;
//! * [`optim`]: SGD and Adam with global-norm gradient clipping and the
//!   weight clipping used for Wasserstein training;
//! * [`dpsgd`]: differentially-private SGD — per-example gradient clipping
//!   plus calibrated Gaussian noise (Abadi et al., 2016);
//! * [`serialize`]: parameter checkpointing in an exact bit-pattern form,
//!   the mechanism behind NetShare's fine-tuning warm starts (Insights 3
//!   and 4); [`Init`] says where a new network's weights come from, so a
//!   network about to be restored from a checkpoint draws none;
//! * [`infer`]: the forward-only sampling path — frozen weight views
//!   (no grad tape) and a recycling activation [`infer::Arena`]; proven
//!   bitwise-equivalent to the training forward pass;
//! * [`sanitize`]: feature-gated (`sanitize`) runtime guards — NaN/Inf and
//!   shape checks after kernel ops, gradient-norm explosion detection,
//!   with layer attribution via a thread-local scope stack.
//!
//! Everything is deterministic given a seeded RNG, so experiments are
//! reproducible.

pub mod conv;
pub mod dpsgd;
pub mod gru;
pub mod infer;
pub mod kernel;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod sanitize;
pub mod serialize;
pub mod tensor;

pub use conv::Conv2d;
pub use dpsgd::{DpSgdConfig, DpSgdTrainer};
pub use gru::Gru;
pub use infer::{Arena, ConstInputGru, FrozenGru, FrozenNode, FrozenSequential};
pub use layers::{Activation, Init, Layer, Linear, Sequential, Unset};
pub use optim::{Adam, GradClip, Optimizer, Sgd};
pub use tensor::Tensor;

/// Objects that own trainable parameters.
///
/// Exposing parameters and their gradient buffers as parallel flat lists
/// lets optimizers, DP-SGD, checkpointing, and fine-tuning treat every
/// network uniformly.
pub trait Parameterized {
    /// Immutable views of all parameter tensors, in a stable order.
    fn parameters(&self) -> Vec<&Tensor>;
    /// Mutable views of all parameter tensors, in the same order.
    fn parameters_mut(&mut self) -> Vec<&mut Tensor>;
    /// Mutable views of the gradient buffers, matching `parameters` 1:1.
    fn gradients_mut(&mut self) -> Vec<&mut Tensor>;

    /// Zeroes every gradient buffer.
    fn zero_grad(&mut self) {
        for g in self.gradients_mut() {
            g.fill(0.0);
        }
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }

    /// Flattens all gradients into one vector (used by DP-SGD).
    fn flat_gradients(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for g in self.gradients_mut() {
            out.extend_from_slice(g.data());
        }
        out
    }

    /// Overwrites all gradient buffers from a flat vector (inverse of
    /// [`Parameterized::flat_gradients`]).
    ///
    /// # Panics
    /// Panics if `flat` has the wrong length.
    fn set_flat_gradients(&mut self, flat: &[f32]) {
        let mut offset = 0;
        for g in self.gradients_mut() {
            let n = g.len();
            g.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
    }

    /// Copies parameter values from another instance (same architecture).
    /// This is the fine-tuning warm start: seed-chunk → later chunks,
    /// public model → private model.
    fn copy_parameters_from(&mut self, other: &dyn Parameterized) {
        let src = other.parameters();
        let mut dst = self.parameters_mut();
        assert_eq!(src.len(), dst.len(), "parameter count mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            assert_eq!(d.shape(), s.shape(), "parameter shape mismatch");
            d.data_mut().copy_from_slice(s.data());
        }
    }
}
