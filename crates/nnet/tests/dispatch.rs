//! What `Tensor::{matmul, t_matmul, matmul_t}` dispatch to.
//!
//! Two classes, chosen by FLOP count alone: naive below
//! `TILE_MIN_FLOPS`, tiled from there up, whatever the rayon thread
//! count. The shapes sit on both sides of the 2^17-FLOP line above which
//! dispatch used to fork threads: the GRU's input and recurrent products
//! at the serving shape, the batch-32 × hidden-64 training step (2^17
//! exactly), and the output head's whole-sequence product.
//!
//! One test: it reads the process-global metrics registry.

use nnet::kernel::{self, TILE_MIN_FLOPS};
use nnet::Tensor;
use rand::prelude::*;

/// `(m, k, n)` of `A·B`; the same triple sizes `Aᵀ·B` (`A: m×k`,
/// `B: m×n`) and `A·Bᵀ` (`A: m×k`, `B: n×k`).
const SHAPES: &[(usize, usize, usize)] = &[
    (4, 6, 16),      // 384 FLOPs: naive
    (16, 15, 17),    // 4080: the last shape under TILE_MIN_FLOPS
    (16, 16, 16),    // 4096: the first on it
    (32, 48, 48),    // GRU recurrent product, 74k
    (32, 64, 64),    // 2^17 exactly
    (32, 147, 48),   // GRU input product at the serving shape, 226k
    (1024, 48, 48),  // the head over a whole sequence, 2.4M
];

type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

fn run(kernel: Kernel, (m, k, n): (usize, usize, usize), a: &Tensor, b: &Tensor, out: usize) -> Vec<f32> {
    let mut c = vec![0.0; out];
    kernel(m, k, n, a.data(), b.data(), &mut c);
    c
}

#[test]
fn auto_dispatch_is_naive_or_tiled_at_any_thread_count() {
    // More threads than cores: were any product still banded, it would
    // fork here.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let mut rng = StdRng::seed_from_u64(15);
    for &(m, k, n) in SHAPES {
        let tiled = m * k * n >= TILE_MIN_FLOPS;
        let pick = |naive: Kernel, tiled_kernel: Kernel| if tiled { tiled_kernel } else { naive };

        let (a, b) = (Tensor::randn(m, k, &mut rng), Tensor::randn(k, n, &mut rng));
        let expect = run(pick(kernel::gemm_naive, kernel::gemm_tiled), (m, k, n), &a, &b, m * n);
        assert_eq!(a.matmul(&b).data(), &expect[..], "matmul {m}x{k}x{n}");
        if tiled {
            // The banded reference still agrees with what dispatch picks.
            assert_eq!(a.matmul_parallel(&b).data(), &expect[..], "matmul_parallel {m}x{k}x{n}");
        }

        let b = Tensor::randn(m, n, &mut rng);
        let expect = run(pick(kernel::gemm_tn_naive, kernel::gemm_tn_tiled), (m, k, n), &a, &b, k * n);
        assert_eq!(a.t_matmul(&b).data(), &expect[..], "t_matmul {m}x{k}x{n}");

        let b = Tensor::randn(n, k, &mut rng);
        let expect = run(pick(kernel::gemm_nt_naive, kernel::gemm_nt_tiled), (m, k, n), &a, &b, m * n);
        assert_eq!(a.matmul_t(&b).data(), &expect[..], "matmul_t {m}x{k}x{n}");
    }

    let snap = telemetry::metrics::snapshot();
    assert_eq!(snap.counters["gemm.calls"], 3 * SHAPES.len() as u64);
    let series: Vec<&str> = snap
        .histograms
        .keys()
        .map(String::as_str)
        .filter(|name| name.starts_with("gemm.us."))
        .collect();
    assert_eq!(series, ["gemm.us.naive", "gemm.us.tiled"]);
    assert_eq!(snap.histograms["gemm.us.naive"].count, 3 * 2);
    assert_eq!(snap.histograms["gemm.us.tiled"].count, 3 * (SHAPES.len() as u64 - 2));
}
