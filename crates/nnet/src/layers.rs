//! Dense layers, activations, and sequential composition.

use crate::sanitize;
use crate::tensor::Tensor;
use crate::Parameterized;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// A differentiable layer with explicit forward/backward passes.
///
/// `forward` caches whatever the backward pass needs; `backward` consumes
/// the gradient w.r.t. the layer output, accumulates parameter gradients,
/// and returns the gradient w.r.t. the input — so layers chain into
/// networks and networks chain into GANs (generator gradients flow through
/// the frozen discriminator's `backward`).
pub trait Layer: Parameterized {
    /// Computes the layer output for a batch (rows = examples).
    fn forward(&mut self, input: &Tensor) -> Tensor;
    /// Back-propagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;
}

/// Where a new layer's weight matrices come from. Every [`Rng`] is an
/// `Init` that draws Xavier weights, one matrix after another in the
/// order the layers are built; [`Unset`] draws nothing.
pub trait Init {
    /// A `rows × cols` weight matrix.
    fn weights(&mut self, rows: usize, cols: usize) -> Tensor;
}

impl<R: Rng + ?Sized> Init for R {
    fn weights(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::xavier(rows, cols, self)
    }
}

/// All-zero weights and no draws: for a network whose every parameter is
/// about to be overwritten (a model rebuilt from a checkpoint).
#[derive(Debug, Clone, Copy)]
pub struct Unset;

impl Init for Unset {
    fn weights(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::zeros(rows, cols)
    }
}

/// Fully-connected layer: `y = x·W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Builds a layer mapping `in_dim → out_dim` with weights from `init`
    /// (Xavier for an RNG) and zero bias.
    pub fn new<I: Init + ?Sized>(in_dim: usize, out_dim: usize, init: &mut I) -> Self {
        Linear {
            w: init.weights(in_dim, out_dim),
            b: Tensor::zeros(1, out_dim),
            grad_w: Tensor::zeros(in_dim, out_dim),
            grad_b: Tensor::zeros(1, out_dim),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The weight matrix (`in × out`), for frozen inference views.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// The bias row vector (`1 × out`), for frozen inference views.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }
}

impl Parameterized for Linear {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_w, &mut self.grad_b]
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.matmul_add_bias(&self.w, &self.b);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward"); // lint: allow(panic-in-lib) documented API contract: forward precedes backward (lint: allow(panic-in-lib) documented API contract: forward precedes backward)
        // dW = xᵀ·dy (accumulated in place), db = Σ_rows dy, dx = dy·Wᵀ
        input.t_matmul_acc(grad_output, &mut self.grad_w);
        self.grad_b.add_assign(&grad_output.sum_rows());
        grad_output.matmul_t(&self.w)
    }
}

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// max(αx, x) with α = 0.2 (the GAN-literature default).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no-op; useful as a placeholder).
    Identity,
}

impl Activation {
    const LEAK: f32 = 0.2;

    /// Applies the activation to one element (shared by the training
    /// layer and the frozen inference path, which must agree bitwise).
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    Self::LEAK * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`
    /// (cheaper than re-deriving from the input for these functions).
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    Self::LEAK
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// Activation as a (parameter-free) layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivationLayer {
    act: Activation,
    cached_output: Option<Tensor>,
}

impl ActivationLayer {
    /// Wraps an activation function.
    pub fn new(act: Activation) -> Self {
        ActivationLayer {
            act,
            cached_output: None,
        }
    }

    /// The wrapped activation function, for frozen inference views.
    pub fn activation(&self) -> Activation {
        self.act
    }
}

impl Parameterized for ActivationLayer {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![]
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = input.map(|x| self.act.apply(x));
        sanitize::check_finite("activation", out.data());
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("backward called before forward"); // lint: allow(panic-in-lib) documented API contract: forward precedes backward (lint: allow(panic-in-lib) documented API contract: forward precedes backward)
        let deriv = y.map(|v| self.act.derivative_from_output(v));
        grad_output.hadamard(&deriv)
    }
}

/// Items composable into a [`Sequential`] network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// Dense layer.
    Linear(Linear),
    /// Activation layer.
    Activation(ActivationLayer),
    /// 2-D convolution layer.
    Conv(crate::conv::Conv2d),
}

impl Node {
    fn as_layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            Node::Linear(l) => l,
            Node::Activation(a) => a,
            Node::Conv(c) => c,
        }
    }

    /// Short kind name for sanitizer scope attribution.
    fn kind_name(&self) -> &'static str {
        match self {
            Node::Linear(_) => "Linear",
            Node::Activation(_) => "Activation",
            Node::Conv(_) => "Conv",
        }
    }
}

/// A stack of layers applied in order — the MLP building block used for
/// GAN generators, discriminators, and the auxiliary discriminator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    nodes: Vec<Node>,
}

impl Sequential {
    /// An empty network (identity).
    pub fn new() -> Self {
        Sequential { nodes: Vec::new() }
    }

    /// Builds the standard MLP shape `in → hidden… → out` with the given
    /// hidden activation and a final linear (no output activation).
    pub fn mlp<I: Init + ?Sized>(
        in_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        act: Activation,
        init: &mut I,
    ) -> Self {
        let mut net = Sequential::new();
        let mut prev = in_dim;
        for &h in hidden {
            net.push_linear(Linear::new(prev, h, init));
            net.push_activation(act);
            prev = h;
        }
        net.push_linear(Linear::new(prev, out_dim, init));
        net
    }

    /// Appends a dense layer.
    pub fn push_linear(&mut self, l: Linear) {
        self.nodes.push(Node::Linear(l));
    }

    /// Appends an activation.
    pub fn push_activation(&mut self, a: Activation) {
        self.nodes.push(Node::Activation(ActivationLayer::new(a)));
    }

    /// Appends a 2-D convolution.
    pub fn push_conv(&mut self, c: crate::conv::Conv2d) {
        self.nodes.push(Node::Conv(c));
    }

    /// Number of nodes (layers + activations).
    pub fn depth(&self) -> usize {
        self.nodes.len()
    }

    /// The node list, for frozen inference views over this network.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Sequential::new()
    }
}

impl Parameterized for Sequential {
    fn parameters(&self) -> Vec<&Tensor> {
        self.nodes
            .iter()
            .flat_map(|n| match n {
                Node::Linear(l) => l.parameters(),
                Node::Activation(a) => a.parameters(),
                Node::Conv(c) => c.parameters(),
            })
            .collect()
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        self.nodes
            .iter_mut()
            .flat_map(|n| match n {
                Node::Linear(l) => l.parameters_mut(),
                Node::Activation(a) => a.parameters_mut(),
                Node::Conv(c) => c.parameters_mut(),
            })
            .collect()
    }
    fn gradients_mut(&mut self) -> Vec<&mut Tensor> {
        self.nodes
            .iter_mut()
            .flat_map(|n| match n {
                Node::Linear(l) => l.gradients_mut(),
                Node::Activation(a) => a.gradients_mut(),
                Node::Conv(c) => c.gradients_mut(),
            })
            .collect()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let kind = node.kind_name();
            let _scope = sanitize::scope_with(|| format!("seq[{i}]:{kind}"));
            x = node.as_layer_mut().forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for (i, node) in self.nodes.iter_mut().enumerate().rev() {
            let kind = node.kind_name();
            let _scope = sanitize::scope_with(|| format!("seq[{i}]:{kind}/backward"));
            g = node.as_layer_mut().backward(&g);
        }
        g
    }
}

/// Applies a row-wise softmax over the column range `[start, end)` of a
/// tensor in place. Used to turn generator logits for categorical fields
/// into simplex-valued "soft one-hots" (the DoppelGANger approach to
/// discrete outputs).
pub fn softmax_cols_inplace(x: &mut Tensor, start: usize, end: usize) {
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        let slice = &mut row[start..end];
        let max = slice.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in slice.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in slice.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    /// Finite-difference check of an entire network's input gradient.
    fn check_input_gradient(net: &mut Sequential, x: &Tensor) {
        let y = net.forward(x);
        // Loss = sum of outputs → grad_output = ones.
        let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]);
        net.zero_grad();
        let gx = net.backward(&ones);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = net.forward(&xp).data().iter().sum();
            let fm: f32 = net.forward(&xm).data().iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "input grad {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Finite-difference check of parameter gradients.
    fn check_param_gradients(net: &mut Sequential, x: &Tensor) {
        let y = net.forward(x);
        let ones = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]);
        net.zero_grad();
        let _ = net.backward(&ones);
        let grads: Vec<f32> = net.flat_gradients();
        let eps = 1e-3f32;
        let n = net.num_parameters();
        // Spot-check a spread of parameter indices (full check is O(P·F)).
        let step = (n / 25).max(1);
        for i in (0..n).step_by(step) {
            let orig = {
                let mut flat_i = 0;
                let mut val = 0.0;
                for p in net.parameters_mut() {
                    if i < flat_i + p.len() {
                        val = p.data()[i - flat_i];
                        break;
                    }
                    flat_i += p.len();
                }
                val
            };
            let perturb = |net: &mut Sequential, delta: f32| {
                let mut flat_i = 0;
                for p in net.parameters_mut() {
                    if i < flat_i + p.len() {
                        p.data_mut()[i - flat_i] = orig + delta;
                        return;
                    }
                    flat_i += p.len();
                }
            };
            perturb(net, eps);
            let fp: f32 = net.forward(x).data().iter().sum();
            perturb(net, -eps);
            let fm: f32 = net.forward(x).data().iter().sum();
            perturb(net, 0.0);
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "param grad {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.parameters_mut()[0].data_mut().copy_from_slice(&[1., 2., 3., 4.]);
        l.parameters_mut()[1].data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(1, 2, vec![1., 1.]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::mlp(3, &[5, 4], 2, Activation::Tanh, &mut rng);
        let x = Tensor::randn(2, 3, &mut rng);
        check_input_gradient(&mut net, &x);
        check_param_gradients(&mut net, &x);
    }

    #[test]
    fn gradients_match_finite_differences_leaky_relu() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::mlp(4, &[6], 3, Activation::LeakyRelu, &mut rng);
        let x = Tensor::randn(3, 4, &mut rng);
        check_input_gradient(&mut net, &x);
        check_param_gradients(&mut net, &x);
    }

    #[test]
    fn gradients_match_finite_differences_sigmoid() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::mlp(2, &[4], 1, Activation::Sigmoid, &mut rng);
        // Sigmoid only on hidden; add one on the output too.
        net.push_activation(Activation::Sigmoid);
        let x = Tensor::randn(2, 2, &mut rng);
        check_input_gradient(&mut net, &x);
    }

    #[test]
    fn softmax_cols_is_simplex() {
        let mut x = Tensor::from_vec(2, 4, vec![1., 2., 3., 9., -1., 0., 1., 9.]);
        softmax_cols_inplace(&mut x, 0, 3);
        for r in 0..2 {
            let s: f32 = x.row(r)[..3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!((x.row(r)[3] - 9.0).abs() < 1e-6, "untouched outside range");
        }
    }

    #[test]
    fn copy_parameters_transfers_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let src = Sequential::mlp(3, &[4], 2, Activation::Relu, &mut rng);
        let mut dst = Sequential::mlp(3, &[4], 2, Activation::Relu, &mut rng);
        assert_ne!(src.parameters()[0].data(), dst.parameters()[0].data());
        dst.copy_parameters_from(&src);
        for (a, b) in src.parameters().iter().zip(dst.parameters()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn an_rng_draws_xavier_weights_and_unset_draws_nothing() {
        let drawn = Sequential::mlp(3, &[4], 2, Activation::Relu, &mut StdRng::seed_from_u64(7));
        let mut rng = StdRng::seed_from_u64(7);
        let first = Tensor::xavier(3, 4, &mut rng);
        assert_eq!(drawn.parameters()[0].data(), first.data());
        assert_eq!(drawn.parameters()[2].data(), Tensor::xavier(4, 2, &mut rng).data());
        let unset = Sequential::mlp(3, &[4], 2, Activation::Relu, &mut Unset);
        assert_eq!(unset.num_parameters(), drawn.num_parameters());
        assert!(unset.parameters().iter().all(|t| t.data().iter().all(|&x| x.to_bits() == 0)));
    }

    #[test]
    fn num_parameters_counts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = Sequential::mlp(3, &[5], 2, Activation::Relu, &mut rng);
        assert_eq!(net.num_parameters(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
