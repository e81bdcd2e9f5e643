//! Row-major `f32` matrices and the linear algebra the layers need.
//!
//! Matrix products are backed by the kernels in [`crate::kernel`]:
//! [`Tensor::matmul`], [`Tensor::t_matmul`], and [`Tensor::matmul_t`]
//! dispatch between a naive loop and a cache-tiled kernel based on the
//! product's FLOP count, and never start a thread. The `*_serial` and
//! `*_tiled` variants pin one of the two (equivalence tests,
//! benchmarks), and [`Tensor::matmul_parallel`] is the tiled kernel over
//! rayon row bands, a reference no dispatch reaches; the fused helpers
//! ([`Tensor::matmul_add_bias`], [`Tensor::matmul_acc`],
//! [`Tensor::t_matmul_acc`], [`Tensor::map_inplace`], [`Tensor::axpy`])
//! merge a GEMM with the surrounding element-wise pass so layer code
//! makes one sweep over memory instead of two.

use crate::kernel;
use crate::sanitize;
use rand::prelude::*;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`. A batch of activations is a tensor
/// with one row per example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Tensor { rows, cols, data }
    }

    /// A single-row tensor from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Tensor::from_vec(1, data.len(), data.to_vec())
    }

    /// Xavier/Glorot-normal initialization, suitable for tanh/sigmoid nets.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let std = (2.0 / (rows + cols) as f64).sqrt();
        let dist = Normal::new(0.0, std).expect("valid normal"); // lint: allow(panic-in-lib) std is finite and positive by construction (lint: allow(panic-in-lib) std is finite and positive by construction)
        Tensor {
            rows,
            cols,
            data: (0..rows * cols).map(|_| dist.sample(rng) as f32).collect(),
        }
    }

    /// He-normal initialization, suitable for ReLU nets.
    pub fn he<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let dist = Normal::new(0.0, std).expect("valid normal"); // lint: allow(panic-in-lib) std is finite and positive by construction (lint: allow(panic-in-lib) std is finite and positive by construction)
        Tensor {
            rows,
            cols,
            data: (0..rows * cols).map(|_| dist.sample(rng) as f32).collect(),
        }
    }

    /// Standard-normal noise tensor (the GAN latent input).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let dist = Normal::new(0.0, 1.0).unwrap(); // lint: allow(panic-in-lib) constant (0,1) parameters are valid (lint: allow(panic-in-lib) constant (0,1) parameters are valid)
        Tensor {
            rows,
            cols,
            data: (0..rows * cols).map(|_| dist.sample(rng) as f32).collect(),
        }
    }

    /// Refills every element with standard-normal noise, drawing from
    /// `rng` in the same element order as [`Tensor::randn`] — an
    /// allocation-free refresh for reused latent buffers. A tensor
    /// filled this way is bitwise-identical to a fresh
    /// `Tensor::randn(rows, cols, rng)` from the same RNG state.
    pub fn fill_randn<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let dist = Normal::new(0.0, 1.0).unwrap(); // lint: allow(panic-in-lib) constant (0,1) parameters are valid (lint: allow(panic-in-lib) constant (0,1) parameters are valid)
        self.data.iter_mut().for_each(|x| *x = dist.sample(rng) as f32);
    }

    /// Refills columns `0..k` of every row with standard-normal noise,
    /// drawing row 0's `k` values first, then row 1's, and so on — the
    /// exact element order of `Tensor::randn(rows, k, rng)`. Lets a
    /// latent slice live inside a wider input buffer (columns `k..` are
    /// untouched) without perturbing the RNG stream relative to filling
    /// a standalone `rows × k` tensor.
    pub fn fill_randn_cols<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) {
        assert!(k <= self.cols, "fill_randn_cols: k out of range"); // lint: allow(panic-in-lib) caller passes a latent width <= the buffer width by construction
        let dist = Normal::new(0.0, 1.0).unwrap(); // lint: allow(panic-in-lib) constant (0,1) parameters are valid (lint: allow(panic-in-lib) constant (0,1) parameters are valid)
        let cols = self.cols;
        for r in 0..self.rows {
            self.data[r * cols..r * cols + k]
                .iter_mut()
                .for_each(|x| *x = dist.sample(rng) as f32);
        }
    }

    /// Consumes the tensor, returning its backing storage (the arena
    /// recycling path in [`crate::infer`]).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    #[inline]
    fn assert_matmul_dims(&self, other: &Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// Matrix product `self · other`, dispatched between the naive and
    /// tiled kernels by problem size.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.assert_matmul_dims(other);
        let mut out = Tensor::zeros(self.rows, other.cols);
        kernel::gemm_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        sanitize::check_finite("matmul", &out.data);
        out
    }

    /// `self · other` on the naive reference kernel (the original
    /// i-k-j loop), regardless of size. Baseline for equivalence tests
    /// and benchmarks.
    pub fn matmul_serial(&self, other: &Tensor) -> Tensor {
        self.assert_matmul_dims(other);
        let mut out = Tensor::zeros(self.rows, other.cols);
        kernel::gemm_naive(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        out
    }

    /// `self · other` on the cache-tiled serial kernel, regardless of size.
    pub fn matmul_tiled(&self, other: &Tensor) -> Tensor {
        self.assert_matmul_dims(other);
        let mut out = Tensor::zeros(self.rows, other.cols);
        kernel::gemm_tiled(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        out
    }

    /// `self · other` on the tiled kernel over rayon row bands,
    /// regardless of size. Bitwise identical to [`Tensor::matmul_tiled`];
    /// a reference for tests and benchmarks, never chosen by
    /// [`Tensor::matmul`].
    pub fn matmul_parallel(&self, other: &Tensor) -> Tensor {
        self.assert_matmul_dims(other);
        let mut out = Tensor::zeros(self.rows, other.cols);
        kernel::gemm_parallel(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        out
    }

    /// Fused `self · other + bias` (bias broadcast to every row): the
    /// output is seeded with the bias so the GEMM accumulates on top of
    /// it, saving the separate broadcast pass over the output.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch or if `bias` is not a
    /// `1 × other.cols` row vector.
    pub fn matmul_add_bias(&self, other: &Tensor, bias: &Tensor) -> Tensor {
        self.assert_matmul_dims(other);
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, other.cols, "bias width mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            out.data[r * other.cols..(r + 1) * other.cols].copy_from_slice(&bias.data);
        }
        kernel::gemm_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        sanitize::check_finite("matmul_add_bias", &out.data);
        out
    }

    /// [`Tensor::matmul_add_bias`] into a caller-provided output buffer:
    /// `out` is overwritten with the broadcast bias, then the GEMM
    /// accumulates on top. Bitwise-identical to the allocating variant
    /// (same seed-then-accumulate kernel on the same shapes) — the
    /// inference arena path relies on that.
    ///
    /// # Panics
    /// Panics on an inner-dimension, bias, or `out` shape mismatch.
    pub fn matmul_add_bias_into(&self, other: &Tensor, bias: &Tensor, out: &mut Tensor) {
        self.assert_matmul_dims(other);
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, other.cols, "bias width mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_add_bias_into shape mismatch");
        for r in 0..self.rows {
            out.data[r * other.cols..(r + 1) * other.cols].copy_from_slice(&bias.data);
        }
        kernel::gemm_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        sanitize::check_finite("matmul_add_bias", &out.data);
    }

    /// [`Tensor::matmul_add_bias_into`] for an input whose trailing
    /// columns are those `addends` was computed from (with the same
    /// `other`): the kernel adds their stored addends instead of
    /// recomputing them, and the bytes are the same (see
    /// [`kernel::ConstAddends`]).
    ///
    /// # Panics
    /// Panics on a bias or `out` shape mismatch, or if `addends` belongs
    /// to another shape of product.
    pub fn matmul_add_bias_replay_into(
        &self,
        other: &Tensor,
        bias: &Tensor,
        addends: &kernel::ConstAddends,
        out: &mut Tensor,
    ) {
        self.assert_matmul_dims(other);
        assert_eq!(addends.shape(), (self.rows, self.cols, other.cols), "addends shape mismatch");
        assert_eq!(bias.shape(), (1, other.cols), "bias must be a 1 × out row vector");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_add_bias_replay_into shape mismatch");
        for r in 0..self.rows {
            out.data[r * other.cols..(r + 1) * other.cols].copy_from_slice(&bias.data);
        }
        addends.gemm(&self.data, &other.data, &mut out.data);
        sanitize::check_finite("matmul_add_bias", &out.data);
    }

    /// Fused `acc += self · other`, accumulating straight into an
    /// existing tensor (gradient buffers) without a temporary.
    ///
    /// # Panics
    /// Panics on a dimension mismatch with `acc`.
    pub fn matmul_acc(&self, other: &Tensor, acc: &mut Tensor) {
        self.assert_matmul_dims(other);
        sanitize::check_shape("matmul_acc", (self.rows, other.cols), acc.shape());
        assert_eq!(acc.shape(), (self.rows, other.cols), "matmul_acc shape mismatch");
        kernel::gemm_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut acc.data,
        );
        sanitize::check_finite("matmul_acc", &acc.data);
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        let mut out = Tensor::zeros(self.cols, other.cols);
        kernel::gemm_tn_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        sanitize::check_finite("t_matmul", &out.data);
        out
    }

    /// `selfᵀ · other` on the naive reference kernel (row-outer
    /// accumulation with zero-skip), regardless of size.
    pub fn t_matmul_serial(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        let mut out = Tensor::zeros(self.cols, other.cols);
        kernel::gemm_tn_naive(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut out.data,
        );
        out
    }

    /// Fused `acc += selfᵀ · other`: the weight-gradient update
    /// (`grad_w += inputᵀ · grad_out`) in one pass, no temporary.
    ///
    /// # Panics
    /// Panics on a dimension mismatch with `acc`.
    pub fn t_matmul_acc(&self, other: &Tensor, acc: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        sanitize::check_shape("t_matmul_acc", (self.cols, other.cols), acc.shape());
        assert_eq!(acc.shape(), (self.cols, other.cols), "t_matmul_acc shape mismatch");
        kernel::gemm_tn_auto(
            self.rows, self.cols, other.cols,
            &self.data, &other.data, &mut acc.data,
        );
        sanitize::check_finite("t_matmul_acc", &acc.data);
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t col mismatch");
        let mut out = Tensor::zeros(self.rows, other.rows);
        kernel::gemm_nt_auto(
            self.rows, self.cols, other.rows,
            &self.data, &other.data, &mut out.data,
        );
        sanitize::check_finite("matmul_t", &out.data);
        out
    }

    /// Fused `acc += self · otherᵀ`: on a zeroed `acc` this is
    /// bitwise-identical to [`Tensor::matmul_t`] (which also starts
    /// from zeros), letting the BPTT scratch-buffer path reuse storage
    /// without changing any rounding.
    ///
    /// # Panics
    /// Panics on a dimension mismatch with `acc`.
    pub fn matmul_t_acc(&self, other: &Tensor, acc: &mut Tensor) {
        assert_eq!(self.cols, other.cols, "matmul_t col mismatch");
        sanitize::check_shape("matmul_t_acc", (self.rows, other.rows), acc.shape());
        assert_eq!(acc.shape(), (self.rows, other.rows), "matmul_t_acc shape mismatch");
        kernel::gemm_nt_auto(
            self.rows, self.cols, other.rows,
            &self.data, &other.data, &mut acc.data,
        );
        sanitize::check_finite("matmul_t_acc", &acc.data);
    }

    /// `self · otherᵀ` on the naive reference kernel (independent dot
    /// products), regardless of size.
    pub fn matmul_t_serial(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t col mismatch");
        let mut out = Tensor::zeros(self.rows, other.rows);
        kernel::gemm_nt_naive(
            self.rows, self.cols, other.rows,
            &self.data, &other.data, &mut out.data,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise addition into `self`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// BLAS-style in-place `self += alpha * x` (alias of
    /// [`Tensor::add_scaled`] under its conventional name).
    #[inline]
    pub fn axpy(&mut self, alpha: f32, x: &Tensor) {
        self.add_scaled(x, alpha);
    }

    /// Adds a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Element-wise product into a new tensor.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect(),
        }
    }

    /// Element-wise product into a caller-provided buffer (overwritten).
    /// Same multiplications in the same order as [`Tensor::hadamard`].
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn hadamard_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        assert_eq!(self.shape(), out.shape(), "hadamard_into out shape mismatch");
        for i in 0..self.data.len() {
            out.data[i] = self.data[i] * other.data[i];
        }
    }

    /// Applies `f` element-wise into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place — the fused
    /// activation-on-output path (no fresh allocation after a GEMM).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Scales all elements in place.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Column-wise sum, as a row vector (used for bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Column-wise sum into a caller-provided `1 × cols` row vector
    /// (overwritten, then accumulated row by row — the same addition
    /// order as [`Tensor::sum_rows`], so results are bitwise-equal).
    ///
    /// # Panics
    /// Panics if `out` is not `1 × self.cols`.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (1, self.cols), "sum_rows_into shape mismatch");
        out.data.iter_mut().for_each(|x| *x = 0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Clamps every element into `[lo, hi]` (WGAN weight clipping).
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        self.data.iter_mut().for_each(|x| *x = x.clamp(lo, hi));
    }

    /// Vertically stacks tensors (all must share the column count).
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack needs at least one tensor");
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols), "vstack col mismatch");
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }

    /// Horizontally concatenates tensors (all must share the row count).
    pub fn hstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "hstack needs at least one tensor");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hstack row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * cols + offset..r * cols + offset + p.cols]
                    .copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Extracts a column range `[start, end)` into a new tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "column slice out of range");
        let mut out = Tensor::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Extracts the given rows into a new tensor (minibatch gather).
    pub fn select_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn matmul_reference() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_variants_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(4, 3, &mut rng);
        let b = Tensor::randn(4, 5, &mut rng);
        let c = Tensor::randn(6, 3, &mut rng);
        // aᵀ·b two ways
        let direct = a.transpose().matmul(&b);
        let fused = a.t_matmul(&b);
        for (x, y) in direct.data().iter().zip(fused.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a·cᵀ two ways
        let direct2 = a.matmul(&c.transpose());
        let fused2 = a.matmul_t(&c);
        for (x, y) in direct2.data().iter().zip(fused2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_shapes() {
        let mut x = Tensor::from_vec(2, 3, vec![1.; 6]);
        let bias = Tensor::row_vector(&[1., 2., 3.]);
        x.add_row_broadcast(&bias);
        assert_eq!(x.row(0), &[2., 3., 4.]);
        assert_eq!(x.row(1), &[2., 3., 4.]);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[4., 6., 8.]);
    }

    #[test]
    fn hstack_vstack_slice_round_trip() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 1, vec![5., 6.]);
        let h = Tensor::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1., 2., 5.]);
        assert_eq!(h.slice_cols(0, 2), a);
        assert_eq!(h.slice_cols(2, 3), b);
        let v = Tensor::vstack(&[&a, &a]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[3., 4.]);
    }

    #[test]
    fn select_rows_gathers() {
        let a = Tensor::from_vec(3, 2, vec![0., 1., 10., 11., 20., 21.]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[20., 21.]);
        assert_eq!(s.row(1), &[0., 1.]);
    }

    #[test]
    fn norm_and_clamp() {
        let mut a = Tensor::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        a.clamp_inplace(-3.5, 3.5);
        assert_eq!(a.data(), &[3., 3.5]);
    }

    #[test]
    fn xavier_init_has_reasonable_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Tensor::xavier(100, 100, &mut rng);
        let std = (w.data().iter().map(|x| x * x).sum::<f32>() / w.len() as f32).sqrt();
        let expected = (2.0f32 / 200.0).sqrt();
        assert!((std - expected).abs() < expected * 0.2, "std {std} vs {expected}");
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dimension_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
