//! Bit-equality oracles for the tiled GEMM kernels.
//!
//! The tiled kernels run their loops in fixed-width array blocks and
//! column strips so the compiler can vectorise them, but each output
//! element must still see exactly the operations, in exactly the order,
//! of the plain loops they replaced. Those loops are kept below, verbatim,
//! as test-only references (`oracle`), and every tiled kernel is checked
//! against its reference with `to_bits` equality, together with
//! `gemm_nt_naive ≡ gemm_nt_tiled`: `A·Bᵀ` has one summation order on
//! every path, so its dispatch does not change a bit.
//!
//! Inputs are built to reach the paths where bit-equality is easiest to
//! lose: whole-`KB` zero blocks and single zero values (the zero-skips),
//! `-0.0` in inputs and accumulators, subnormals, and values near
//! `f32::MAX / 4` whose products overflow. Shapes include widths under 8,
//! widths that are not a multiple of 8 or 16, and `k % 4 ≠ 0`.

use nnet::kernel::{self, KB};
use proptest::prelude::*;
use rand::prelude::*;

/// The tiled loops as they were before their vector layout, kept only as
/// references for the tests below.
mod oracle {
    use nnet::kernel::{KB, TILE_J};

    pub fn gemm_rows_tiled(rows: usize, k: usize, n: usize, a_band: &[f32], b: &[f32], c_band: &mut [f32]) {
        let kb_end = k - k % KB;
        for i in 0..rows {
            let a_row = &a_band[i * k..(i + 1) * k];
            let c_row = &mut c_band[i * n..(i + 1) * n];
            let mut jt = 0;
            while jt < n {
                let je = (jt + TILE_J).min(n);
                let mut kk = 0;
                while kk < kb_end {
                    let a0 = a_row[kk];
                    let a1 = a_row[kk + 1];
                    let a2 = a_row[kk + 2];
                    let a3 = a_row[kk + 3];
                    // Zero-skip generalizes to the block: all-zero input rows
                    // (padding, one-hot tails) skip the whole fused update.
                    if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                        let b0 = &b[kk * n + jt..kk * n + je];
                        let b1 = &b[(kk + 1) * n + jt..(kk + 1) * n + je];
                        let b2 = &b[(kk + 2) * n + jt..(kk + 2) * n + je];
                        let b3 = &b[(kk + 3) * n + jt..(kk + 3) * n + je];
                        let ct = &mut c_row[jt..je];
                        for (j, o) in ct.iter_mut().enumerate() {
                            *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                    }
                    kk += KB;
                }
                for kk in kb_end..k {
                    let av = a_row[kk];
                    if av == 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                        continue;
                    }
                    let b_row = &b[kk * n + jt..kk * n + je];
                    let ct = &mut c_row[jt..je];
                    for (o, &bv) in ct.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
                jt = je;
            }
        }
    }

    pub fn gemm_tn_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(c.len(), k * n);
        let rb_end = m - m % KB;
        for col in 0..k {
            let c_row = &mut c[col * n..(col + 1) * n];
            let mut r = 0;
            while r < rb_end {
                let a0 = a[r * k + col];
                let a1 = a[(r + 1) * k + col];
                let a2 = a[(r + 2) * k + col];
                let a3 = a[(r + 3) * k + col];
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                    let b0 = &b[r * n..(r + 1) * n];
                    let b1 = &b[(r + 1) * n..(r + 2) * n];
                    let b2 = &b[(r + 2) * n..(r + 3) * n];
                    let b3 = &b[(r + 3) * n..(r + 4) * n];
                    for (j, o) in c_row.iter_mut().enumerate() {
                        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                }
                r += KB;
            }
            for r in rb_end..m {
                let av = a[r * k + col];
                if av == 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                    continue;
                }
                let b_row = &b[r * n..(r + 1) * n];
                for (o, &bv) in c_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    pub fn gemm_nt_tiled(m: usize, k: usize, p: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(c.len(), m * p);
        let pb_end = p - p % KB;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * p..(i + 1) * p];
            let mut j = 0;
            while j < pb_end {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (kk, &av) in a_row.iter().enumerate() {
                    s0 += av * b0[kk];
                    s1 += av * b1[kk];
                    s2 += av * b2[kk];
                    s3 += av * b3[kk];
                }
                c_row[j] += s0;
                c_row[j + 1] += s1;
                c_row[j + 2] += s2;
                c_row[j + 3] += s3;
                j += KB;
            }
            for j in pb_end..p {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c_row[j] += acc;
            }
        }
    }
}

/// One value: mostly ordinary, sometimes one of the values the kernels
/// must not treat differently from the reference loops.
fn awkward(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..32) {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)) * if rng.gen::<bool>() { 1.0 } else { -1.0 },
        4 => f32::MAX / 4.0 * if rng.gen::<bool>() { 1.0 } else { -1.0 },
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

fn awkward_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| awkward(rng)).collect()
}

/// An `m×k` left operand with zeroed `KB` blocks along both of its
/// reduction directions: `a[i][kk..kk+KB]` for `A·B`, and
/// `a[r..r+KB][col]` for `Aᵀ·B`.
fn left_operand(m: usize, k: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut a = awkward_vec(m * k, rng);
    for i in 0..m {
        for kk in (0..k - k % KB).step_by(KB) {
            if rng.gen_range(0u32..4) == 0 {
                a[i * k + kk..i * k + kk + KB].fill(0.0);
            }
        }
    }
    for col in 0..k {
        for r in (0..m - m % KB).step_by(KB) {
            if rng.gen_range(0u32..4) == 0 {
                for q in 0..KB {
                    a[(r + q) * k + col] = 0.0;
                }
            }
        }
    }
    a
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// `c0 + kernel(a, b)` for a copy of the accumulator `c0`.
fn run(kernel: Kernel, (m, k, n): (usize, usize, usize), a: &[f32], b: &[f32], c0: &[f32]) -> Vec<u32> {
    let mut c = c0.to_vec();
    kernel(m, k, n, a, b, &mut c);
    bits(&c)
}

/// Every tiled kernel against its reference loop, bit for bit, on one
/// shape (`A·B: m×k·k×n`, `Aᵀ·B: (m×k)ᵀ·m×n`, `A·Bᵀ: m×k·(n×k)ᵀ`).
fn check_shape(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = (m, k, n);
    let a = left_operand(m, k, &mut rng);

    let b = awkward_vec(k * n, &mut rng);
    let c0 = awkward_vec(m * n, &mut rng);
    let tiled = run(kernel::gemm_tiled, shape, &a, &b, &c0);
    if tiled != run(oracle::gemm_rows_tiled, shape, &a, &b, &c0) {
        return Err(format!("A·B {m}x{k}x{n}: tiled differs from the reference loop"));
    }
    if tiled != run(kernel::gemm_parallel, shape, &a, &b, &c0) {
        return Err(format!("A·B {m}x{k}x{n}: row bands differ from tiled"));
    }

    let b = awkward_vec(m * n, &mut rng);
    let c0 = awkward_vec(k * n, &mut rng);
    if run(kernel::gemm_tn_tiled, shape, &a, &b, &c0) != run(oracle::gemm_tn_tiled, shape, &a, &b, &c0) {
        return Err(format!("Aᵀ·B {m}x{k}x{n}: tiled differs from the reference loop"));
    }

    let b = awkward_vec(n * k, &mut rng);
    let c0 = awkward_vec(m * n, &mut rng);
    let tiled = run(kernel::gemm_nt_tiled, shape, &a, &b, &c0);
    if tiled != run(oracle::gemm_nt_tiled, shape, &a, &b, &c0) {
        return Err(format!("A·Bᵀ {m}x{k}x{n}: tiled differs from the reference loop"));
    }
    if tiled != run(kernel::gemm_nt_naive, shape, &a, &b, &c0) {
        return Err(format!("A·Bᵀ {m}x{k}x{n}: tiled differs from naive"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_kernels_match_their_reference_loops_bit_for_bit(
        m in 1usize..71,
        k in 1usize..201,
        // Narrow widths are their own code path: draw them as often as
        // the wide ones.
        n in prop_oneof![1usize..8, 8usize..151],
        seed in any::<u64>(),
    ) {
        if let Err(why) = check_shape(m, k, n, seed) {
            prop_assert!(false, "{}", why);
        }
    }
}

/// The edges every layout has: the first and last widths of each lane
/// block and strip, the rows where `A·Bᵀ` switches to strips, and each
/// `k % KB`.
#[test]
fn tiled_kernels_match_their_reference_loops_on_edge_shapes() {
    let mut seed = 0;
    for m in [1, 2, 3, 4, 5, 8, 9] {
        for k in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            for n in [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 127, 128, 129, 136] {
                seed += 1;
                check_shape(m, k, n, seed).unwrap();
            }
        }
    }
}

/// A row of exact zeros meeting a `-0.0` accumulator: a skipped block
/// leaves `-0.0`, while an added `+0.0` would turn it into `+0.0`. The
/// tiled kernels must skip exactly where the reference loops do.
#[test]
fn skipped_blocks_keep_negative_zero_accumulators() {
    let (m, k, n) = (5, 9, 19);
    let mut a = vec![0.0f32; m * k];
    a[3] = 1.0; // one live term in the first block of row 0
    let b = vec![1.0f32; k * n]; // k > m, so it also holds Aᵀ·B's m×n
    let c0 = vec![-0.0f32; m * n];
    let shape = (m, k, n);
    let tiled = run(kernel::gemm_tiled, shape, &a, &b, &c0);
    assert_eq!(tiled, run(oracle::gemm_rows_tiled, shape, &a, &b, &c0));
    assert!(tiled[n..].iter().all(|&x| x == (-0.0f32).to_bits()), "skipped rows stay -0.0");
    let c0 = vec![-0.0f32; k * n];
    assert_eq!(
        run(kernel::gemm_tn_tiled, shape, &a, &b[..m * n], &c0),
        run(oracle::gemm_tn_tiled, shape, &a, &b[..m * n], &c0),
    );
}
