//! GEMM kernels behind [`crate::Tensor`]'s matrix products.
//!
//! Two implementations per product shape (`A·B`, `Aᵀ·B`, `A·Bᵀ`), and
//! they are the two dispatch classes:
//!
//! * **naive** — the original i-k-j reference loop with the zero-skip
//!   fast path. Kept callable (`*_naive`) as the correctness baseline for
//!   equivalence tests and benchmarks.
//! * **tiled** — the same products laid out for the vector unit. `A·B`
//!   and `Aᵀ·B` fuse [`KB`] reduction terms into one update of the output
//!   row (one read-modify-write per block instead of per term), over
//!   [`TILE_J`]-wide output tiles so the hot output slice and the `KB`
//!   streamed input rows stay in L1, and run that update in fixed-width
//!   array blocks. `A·Bᵀ` transposes `b` one 16-column strip at a time and
//!   keeps one register accumulator per output column of the strip.
//!
//! A third form of `A·B`, [`ConstAddends`], serves products whose left
//! operand keeps some trailing columns from call to call (the GRU's
//! metadata inputs): it is the tiled kernel with those columns' addends
//! computed once.
//!
//! Dispatch ([`gemm_auto`] and friends) picks between them from the
//! product's FLOP count alone, so layer code never chooses: small
//! recurrent steps stay on the low-overhead naive loop, everything else
//! tiles. Dispatch never starts a thread. The products here are a few
//! hundred kFLOP (tens of microseconds), which is less than forking and
//! joining threads costs, and the callers are already parallel one level
//! up: training runs one job per worker and serving one producer thread
//! per stream, so threads inside a product would only compete with them.
//!
//! [`gemm_parallel`] (the tiled `A·B` kernel over contiguous row bands of
//! the output via `rayon::par_chunks_mut`) is a reference, not a dispatch
//! target: only [`crate::Tensor::matmul_parallel`] calls it, for the
//! equivalence tests and benchmarks that pin it against the tiled kernel.
//!
//! # Numeric contract
//!
//! Each output element gets a fixed sequence of IEEE operations that
//! depends only on absolute indices: never on row bands, column tiles,
//! thread count or the vector width the compiler picks.
//!
//! * `A·B` and `Aᵀ·B`, tiled: the reduction runs in `KB`-term blocks
//!   anchored at index 0. Each block adds `((a0·b0 + a1·b1) + a2·b2) +
//!   a3·b3` to the output, then the `k % KB` leftover terms are added one
//!   at a time. A block whose four `a` values are all exactly zero is
//!   skipped, as is a zero leftover term. Naive adds every term on its own,
//!   so naive and tiled differ by reassociation (the tests bound it at
//!   1e-4 relative). That is why [`TILE_MIN_FLOPS`] is part of the
//!   contract: moving a shape across it changes generated bytes.
//! * `A·Bᵀ`: every path sums `a[i][kk]·b[j][kk]` from zero in `kk` order
//!   and adds the sum to the output once. Naive and tiled are bitwise
//!   equal, so the `A·Bᵀ` dispatch is free to move.
//! * [`ConstAddends`], the constant-column replay of tiled `A·B`: a block
//!   sum or leftover product whose `a` values do not change between calls
//!   is computed once, with the same expression, and added later in the
//!   same place in the element's sequence. Same operands, operations and
//!   order, so it is bitwise equal to tiled, not a reassociation of it,
//!   and it falls back to naive exactly where tiled would.
//!
//! Vector lanes run across output columns, never along the reduction.
//! Lanes along `k` would split each sum into partial sums, which
//! reassociates it; the compiler will not do that by itself, which is why
//! a dot-product loop stays scalar. Laid across columns, each lane is one
//! output element running exactly its scalar sequence, so the bytes are
//! the same at any vector width. Fused multiply-add would round once where
//! the contract rounds twice, so no kernel may use it.

use rayon::slice::ParallelSliceMut;
use std::cell::RefCell;
use telemetry::metrics::{LazyCounter, LazyTimerUs, ScopedTimer};

/// k-direction micro-block: output rows are updated once per `KB`
/// accumulated terms.
pub const KB: usize = 4;

/// Output-column tile width: one output tile plus `KB` input-row tiles is
/// ~2.5 KiB, comfortably inside L1 alongside the streamed operands.
pub const TILE_J: usize = 128;

/// Products below this many FLOPs (`m·k·n`) stay on the naive loop.
pub const TILE_MIN_FLOPS: usize = 1 << 12;

/// Width of the array blocks the tiled `A·B` / `Aᵀ·B` updates run in.
const LANES: usize = 8;

/// Output columns one tiled `A·Bᵀ` strip covers, one accumulator each.
const NT_LANES: usize = 16;

/// Rows from which tiled `A·Bᵀ` runs in strips: with fewer, the
/// transpose of `b` costs more than the strips save (1×48×147 was 1.6×
/// slower that way).
const NT_LANE_MIN_ROWS: usize = 4;

static GEMM_CALLS: LazyCounter = LazyCounter::new("gemm.calls");
static GEMM_US_NAIVE: LazyTimerUs = LazyTimerUs::new("gemm.us.naive");
static GEMM_US_TILED: LazyTimerUs = LazyTimerUs::new("gemm.us.tiled");

/// Whether a product of `flops` (`m·k·n`) takes the tiled kernel; also
/// counts the dispatch and starts a per-call µs timer on the chosen
/// class's histogram (`gemm.us.naive|tiled`). The handles are resolved
/// once per process, so a call costs two atomic adds and two clock
/// reads.
fn dispatch(flops: usize) -> (bool, ScopedTimer) {
    GEMM_CALLS.get().inc();
    let tiled = flops >= TILE_MIN_FLOPS;
    let timer = if tiled { &GEMM_US_TILED } else { &GEMM_US_NAIVE };
    (tiled, timer.start())
}

// ------------------------------------------------------------------ A·B

/// `c += a·b` for row-major `a: m×k`, `b: k×n`, `c: m×n`; original
/// reference loop (i-k-j with zero-skip).
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let out_row = &mut c[i * n..(i + 1) * n];
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// One [`KB`] block of the tiled `A·B` / `Aᵀ·B` update:
/// `out[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]`, evaluated left
/// to right, for every `j`. `WIDE` products (at least `LANES` columns)
/// run it in `LANES`-wide array blocks, narrower ones in one 4-wide block
/// (a plain loop that short stays scalar); a scalar tail finishes both.
/// Each element sees the same operations whichever part of the row it
/// falls in.
#[inline(always)]
fn fused_block<const WIDE: bool>(a: [f32; KB], b: [&[f32]; KB], out: &mut [f32]) {
    let [a0, a1, a2, a3] = a;
    let [b0, b1, b2, b3] = b;
    let n = out.len();
    let blocked = if WIDE {
        let end = n - n % LANES;
        // An indexed loop, not an iterator over `as_chunks`: the compiler
        // vectorises that across chunks instead of within them, which
        // measured half the speed.
        let mut j = 0;
        while j < end {
            let o: &mut [f32; LANES] = chunk_mut(out, j);
            let [x0, x1, x2, x3]: [&[f32; LANES]; KB] = [chunk(b0, j), chunk(b1, j), chunk(b2, j), chunk(b3, j)];
            for l in 0..LANES {
                o[l] += a0 * x0[l] + a1 * x1[l] + a2 * x2[l] + a3 * x3[l];
            }
            j += LANES;
        }
        end
    } else if n >= 4 {
        let o: &mut [f32; 4] = chunk_mut(out, 0);
        let [x0, x1, x2, x3]: [&[f32; 4]; KB] = [chunk(b0, 0), chunk(b1, 0), chunk(b2, 0), chunk(b3, 0)];
        for l in 0..4 {
            o[l] += a0 * x0[l] + a1 * x1[l] + a2 * x2[l] + a3 * x3[l];
        }
        4
    } else {
        0
    };
    let tail = out[blocked..]
        .iter_mut()
        .zip(&b0[blocked..])
        .zip(&b1[blocked..])
        .zip(&b2[blocked..])
        .zip(&b3[blocked..]);
    for ((((o, &x0), &x1), &x2), &x3) in tail {
        *o += a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
    }
}

/// `s[j..j + L]` as an array, the form the compiler keeps in vector
/// registers.
#[inline(always)]
fn chunk<const L: usize>(s: &[f32], j: usize) -> &[f32; L] {
    // lint: allow(panic-in-lib) a slice of exactly L elements always converts to [f32; L]
    s[j..j + L].try_into().expect("L-element slice")
}

/// [`chunk`] for the output row.
#[inline(always)]
fn chunk_mut<const L: usize>(s: &mut [f32], j: usize) -> &mut [f32; L] {
    // lint: allow(panic-in-lib) a slice of exactly L elements always converts to [f32; L]
    (&mut s[j..j + L]).try_into().expect("L-element slice")
}

/// Tiled row-band kernel: `c_band += a_band·b` for `rows` output rows.
///
/// Accumulation order per output element depends only on absolute k/j
/// indices, never on the band split. Row `i` of `a_band` starts at
/// `i·lda`, and only its first `k` columns enter the product: `lda` is `k`
/// except in [`ConstAddends::gemm`], which runs the per-call prefix of a
/// wider product.
fn gemm_rows_tiled(rows: usize, k: usize, lda: usize, n: usize, a_band: &[f32], b: &[f32], c_band: &mut [f32]) {
    if n >= LANES {
        rows_tiled::<true>(rows, k, lda, n, a_band, b, c_band)
    } else {
        rows_tiled::<false>(rows, k, lda, n, a_band, b, c_band)
    }
}

/// [`gemm_rows_tiled`] for one width class, each compiled on its own:
/// with both in one body, products under `LANES` columns (the output
/// head's 48×5) ran at 0.8× the speed of the plain loop they replace.
#[inline(never)]
fn rows_tiled<const WIDE: bool>(rows: usize, k: usize, lda: usize, n: usize, a_band: &[f32], b: &[f32], c_band: &mut [f32]) {
    let kb_end = k - k % KB;
    for i in 0..rows {
        let a_row = &a_band[i * lda..i * lda + k];
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
                    let b_at = |q: usize| &b[(kk + q) * n + jt..(kk + q) * n + je];
                    fused_block::<WIDE>([a0, a1, a2, a3], [b_at(0), b_at(1), b_at(2), b_at(3)], &mut c_row[jt..je]);
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

/// `c += a·b`, tiled serial path.
pub fn gemm_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(c.len(), m * n);
    gemm_rows_tiled(m, k, k, n, a, b, c);
}

/// `c += a·b`, tiled kernel over parallel row bands. Bitwise identical
/// to [`gemm_tiled`] for any thread count. A reference for tests and
/// benchmarks; [`gemm_auto`] never calls it.
pub fn gemm_parallel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    let band_rows = m.div_ceil(rayon::current_num_threads()).max(1);
    c.par_chunks_mut(band_rows * n)
        .enumerate()
        .for_each(|(band, c_band)| {
            let row0 = band * band_rows;
            let rows = c_band.len() / n;
            gemm_rows_tiled(rows, k, k, n, &a[row0 * k..(row0 + rows) * k], b, c_band);
        });
}

/// `c += a·b` with size-based path dispatch.
pub fn gemm_auto(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (tiled, _timer) = dispatch(m * k * n);
    if tiled {
        gemm_tiled(m, k, n, a, b, c)
    } else {
        gemm_naive(m, k, n, a, b, c)
    }
}

// ------------------------------------------- A·B with constant columns

/// The addends one [`ConstAddends`] keeps: `slots` rows of `n` values
/// per output row `i`, of which the first `counts[i]` are live.
#[derive(Default)]
struct AddendStore {
    counts: Vec<usize>,
    sums: Vec<f32>,
}

/// Addend storage between batches, shared by every thread of the
/// process: a serving session thread may live for one pull, and a model
/// per data chunk may each sample once, so storage held per thread or per
/// model would be resident many times over. The lock is taken when a
/// [`ConstAddends`] is built and when it is dropped.
static ADDEND_STORES: std::sync::Mutex<Vec<AddendStore>> = std::sync::Mutex::new(Vec::new());

impl AddendStore {
    /// The pooled store with the smallest `sums` capacity of at least
    /// `len`; failing that the largest, which then grows. Either way the
    /// pool holds no more stores than were ever live at once.
    fn take(len: usize) -> Self {
        let mut pool = ADDEND_STORES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cap = |i: usize| pool[i].sums.capacity();
        let fit = (0..pool.len()).filter(|&i| cap(i) >= len).min_by_key(|&i| cap(i));
        match fit.or_else(|| (0..pool.len()).max_by_key(|&i| cap(i))) {
            Some(i) => pool.swap_remove(i),
            None => AddendStore::default(),
        }
    }

    fn give_back(self) {
        ADDEND_STORES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(self);
    }
}

/// The addends of a tiled `c += a·b` (`a: m×k`, `b: k×n`) that depend
/// only on `a`'s columns `c0..k`, computed once so that products whose
/// `a` keeps those columns ([`crate::infer::FrozenGru`]'s step input
/// `[noise ‖ metadata]`) add them again instead of recomputing them.
///
/// Per output element the tiled kernel adds one sum per `KB` block and
/// then one product per leftover column (see the numeric contract). A
/// block whose four columns all lie in `c0..k`, and a leftover column in
/// `c0..k`, adds the same value at every call; it is stored here, in the
/// kernel's order, and skipped blocks and zero leftovers are not stored
/// at all. [`ConstAddends::gemm`] runs the tiled kernel over the columns
/// before them (the noise, and a block straddling `c0`), then adds the
/// stored values in order. Each element thus sees the same IEEE
/// operations as [`gemm_tiled`], so the result is bitwise equal to it.
///
/// Storage comes from a process-wide pool and goes back to it on drop.
/// Products under [`TILE_MIN_FLOPS`] keep nothing: they run the naive
/// loop, as [`gemm_auto`] would.
pub struct ConstAddends {
    m: usize,
    k: usize,
    n: usize,
    /// Columns `0..split` are computed at every call: `c0` rounded up to
    /// its block, or `c0` itself when it is past the last whole block.
    split: usize,
    /// Addend rows kept per output row.
    slots: usize,
    store: Option<AddendStore>,
}

impl ConstAddends {
    /// Computes the addends of `a`'s columns `c0..k` for `b`. Only those
    /// columns of `a` are read.
    pub fn new(m: usize, k: usize, n: usize, c0: usize, a: &[f32], b: &[f32]) -> Self {
        debug_assert!(c0 <= k);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        let kb_end = k - k % KB;
        let split = if c0 <= kb_end { c0.next_multiple_of(KB) } else { c0 };
        let slots = kb_end.saturating_sub(split) / KB + (k - split.max(kb_end));
        let mut me = ConstAddends { m, k, n, split, slots, store: None };
        if m * k * n < TILE_MIN_FLOPS {
            return me;
        }
        let mut store = AddendStore::take(m * slots * n);
        store.counts.clear();
        store.sums.resize(m * slots * n, 0.0);
        let wide = n >= LANES;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let row_sums = &mut store.sums[i * slots * n..(i + 1) * slots * n];
            let mut live = 0;
            for kk in (split..kb_end).step_by(KB) {
                let av = [a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]];
                if av.iter().all(|&v| v == 0.0) { // lint: allow(float-eq) the tiled kernel's block zero-skip, mirrored: a skipped block adds nothing
                    continue;
                }
                // `-0.0 + s` is `s` for every sum `s`, so the block's sum
                // is stored with the kernel's own expression.
                let slot = &mut row_sums[live * n..(live + 1) * n];
                slot.fill(-0.0);
                let b_at = |q: usize| &b[(kk + q) * n..(kk + q + 1) * n];
                let bs = [b_at(0), b_at(1), b_at(2), b_at(3)];
                if wide {
                    fused_block::<true>(av, bs, slot)
                } else {
                    fused_block::<false>(av, bs, slot)
                }
                live += 1;
            }
            for kk in split.max(kb_end)..k {
                let av = a_row[kk];
                if av == 0.0 { // lint: allow(float-eq) the tiled kernel's leftover zero-skip, mirrored
                    continue;
                }
                let slot = &mut row_sums[live * n..(live + 1) * n];
                for (s, &bv) in slot.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                    *s = av * bv;
                }
                live += 1;
            }
            store.counts.push(live);
        }
        me.store = Some(store);
        me
    }

    /// `(m, k, n)` of the product the addends belong to.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.m, self.k, self.n)
    }

    /// `c += a·b`, bitwise equal to [`gemm_auto`] provided `a`'s columns
    /// `c0..k` and `b` are those the addends were computed from. Counted
    /// and timed as one dispatch of the product's class.
    pub fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(c.len(), m * n);
        let (tiled, _timer) = dispatch(m * k * n);
        debug_assert_eq!(tiled, self.store.is_some());
        let Some(store) = &self.store else {
            return gemm_naive(m, k, n, a, b, c);
        };
        gemm_rows_tiled(m, self.split, k, n, a, b, c);
        for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
            let row_sums = &store.sums[i * self.slots * n..(i * self.slots + store.counts[i]) * n];
            add_in_order(c_row, row_sums);
        }
    }
}

/// `out[j] += s[j]` for each `n`-wide slot `s` of `sums` in turn, with
/// `LANES` outputs held in registers across all the slots.
#[inline(never)]
fn add_in_order(out: &mut [f32], sums: &[f32]) {
    let n = out.len();
    let end = n - n % LANES;
    let mut j = 0;
    while j < end {
        let mut o: [f32; LANES] = *chunk(out, j);
        let mut s = j;
        while s < sums.len() {
            let x: &[f32; LANES] = chunk(sums, s);
            for l in 0..LANES {
                o[l] += x[l];
            }
            s += n;
        }
        *chunk_mut(out, j) = o;
        j += LANES;
    }
    for (j, o) in out.iter_mut().enumerate().skip(end) {
        for slot in sums.chunks_exact(n) {
            *o += slot[j];
        }
    }
}

impl Drop for ConstAddends {
    fn drop(&mut self) {
        if let Some(store) = self.store.take() {
            store.give_back();
        }
    }
}

// ----------------------------------------------------------------- Aᵀ·B

/// `c += aᵀ·b` for `a: m×k`, `b: m×n`, `c: k×n`; original reference loop
/// (row-outer accumulation of outer products, zero-skip).
pub fn gemm_tn_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    for r in 0..m {
        let a_row = &a[r * k..(r + 1) * k];
        let b_row = &b[r * n..(r + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 { // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip the FMA, bitwise-identical to the dense path
                continue;
            }
            let out_row = &mut c[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `c += aᵀ·b`, tiled serial path: each output row (a column `col` of
/// `a`) accumulates over example rows `r` in absolute `KB` blocks.
pub fn gemm_tn_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(c.len(), k * n);
    if n >= LANES {
        tn_tiled::<true>(m, k, n, a, b, c)
    } else {
        tn_tiled::<false>(m, k, n, a, b, c)
    }
}

/// [`gemm_tn_tiled`] for one width class (see [`rows_tiled`]).
#[inline(never)]
fn tn_tiled<const WIDE: bool>(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
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
                let b_at = |q: usize| &b[(r + q) * n..(r + q + 1) * n];
                fused_block::<WIDE>([a0, a1, a2, a3], [b_at(0), b_at(1), b_at(2), b_at(3)], c_row);
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

/// `c += aᵀ·b` with size-based path dispatch.
pub fn gemm_tn_auto(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (tiled, _timer) = dispatch(m * k * n);
    if tiled {
        gemm_tn_tiled(m, k, n, a, b, c)
    } else {
        gemm_tn_naive(m, k, n, a, b, c)
    }
}

// ----------------------------------------------------------------- A·Bᵀ

/// `c += a·bᵀ` for `a: m×k`, `b: p×k`, `c: m×p`; original reference loop
/// (independent dot products).
pub fn gemm_nt_naive(m: usize, k: usize, p: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), p * k);
    debug_assert_eq!(c.len(), m * p);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..p {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            c[i * p + j] += acc;
        }
    }
}

thread_local! {
    /// One `NT_LANES`-column strip of the running tiled `A·Bᵀ`'s `b`,
    /// transposed: entry `kk` holds `b[j0 + l][kk]` in lane `l`. It grows to
    /// the largest `k` the thread has multiplied and is then reused, so a
    /// warm thread's products allocate nothing.
    static NT_STRIP: RefCell<Vec<[f32; NT_LANES]>> = const { RefCell::new(Vec::new()) };
}

/// `c += a·bᵀ`, tiled serial path. From `NT_LANE_MIN_ROWS` rows, `b` is
/// transposed one `NT_LANES`-column strip at a time, and each output row
/// of the strip is `NT_LANES` register accumulators that start at zero,
/// add `a[i][kk]·b[j][kk]` in `kk` order and are then added to `c`: the
/// dot product [`gemm_nt_naive`] computes, one output column per lane.
pub fn gemm_nt_tiled(m: usize, k: usize, p: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(c.len(), m * p);
    if m < NT_LANE_MIN_ROWS {
        nt_dot_rows(m, k, p, a, b, c);
        return;
    }
    NT_STRIP.with(|strip| {
        let mut strip = strip.borrow_mut();
        strip.resize(k, [0.0; NT_LANES]);
        let mut j0 = 0;
        while j0 < p {
            let w = (p - j0).min(NT_LANES);
            for (kk, lanes) in strip.iter_mut().enumerate() {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    // Lanes past the last column compute zeros nobody stores.
                    *lane = if l < w { b[(j0 + l) * k + kk] } else { 0.0 };
                }
            }
            for i in 0..m {
                let mut acc = [0.0f32; NT_LANES];
                for (&av, lanes) in a[i * k..(i + 1) * k].iter().zip(strip.iter()) {
                    for l in 0..NT_LANES {
                        acc[l] += av * lanes[l];
                    }
                }
                for (o, s) in c[i * p + j0..i * p + j0 + w].iter_mut().zip(&acc) {
                    *o += s;
                }
            }
            j0 += w;
        }
    });
}

/// Tiled `A·Bᵀ` below `NT_LANE_MIN_ROWS` rows, where transposing `b`
/// costs more than it saves: a 1×[`KB`] micro-kernel shares each `a` load
/// across `KB` simultaneous dot products.
fn nt_dot_rows(m: usize, k: usize, p: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
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

/// `c += a·bᵀ` with size-based path dispatch.
pub fn gemm_nt_auto(m: usize, k: usize, p: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (tiled, _timer) = dispatch(m * k * p);
    if tiled {
        gemm_nt_tiled(m, k, p, a, b, c)
    } else {
        gemm_nt_naive(m, k, p, a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn randv(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_close(x: &[f32], y: &[f32]) {
        assert_eq!(x.len(), y.len());
        for (a, b) in x.iter().zip(y) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn all_paths_agree_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (5, 1, 9),
            (3, 4, 5),
            (17, 23, 9),
            (33, 65, 31),
        ] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            let mut naive = vec![0.0; m * n];
            let mut tiled = vec![0.0; m * n];
            let mut par = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut naive);
            gemm_tiled(m, k, n, &a, &b, &mut tiled);
            gemm_parallel(m, k, n, &a, &b, &mut par);
            assert_close(&naive, &tiled);
            assert_eq!(tiled, par, "parallel must be bitwise identical to tiled");

            let bt = randv(m * n, &mut rng);
            let mut tn_naive = vec![0.0; k * n];
            let mut tn_tiled = vec![0.0; k * n];
            gemm_tn_naive(m, k, n, &a, &bt, &mut tn_naive);
            gemm_tn_tiled(m, k, n, &a, &bt, &mut tn_tiled);
            assert_close(&tn_naive, &tn_tiled);

            let bp = randv(n * k, &mut rng);
            let mut nt_naive = vec![0.0; m * n];
            let mut nt_tiled = vec![0.0; m * n];
            gemm_nt_naive(m, k, n, &a, &bp, &mut nt_naive);
            gemm_nt_tiled(m, k, n, &a, &bp, &mut nt_tiled);
            assert_eq!(bits(&nt_naive), bits(&nt_tiled), "A·Bᵀ naive and tiled must be bitwise equal");
        }
    }

    #[test]
    fn accumulates_instead_of_overwriting() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [100.0f32];
        gemm_auto(1, 2, 1, &a, &b, &mut c);
        assert_eq!(c[0], 100.0 + 11.0);
    }

    #[test]
    fn zero_rows_are_skipped_not_wrong() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, k, n) = (9, 12, 7);
        let mut a = randv(m * k, &mut rng);
        for x in a[2 * k..4 * k].iter_mut() {
            *x = 0.0; // two all-zero input rows
        }
        let b = randv(k * n, &mut rng);
        let mut naive = vec![0.0; m * n];
        let mut tiled = vec![0.0; m * n];
        gemm_naive(m, k, n, &a, &b, &mut naive);
        gemm_tiled(m, k, n, &a, &b, &mut tiled);
        assert_close(&naive, &tiled);
        assert!(naive[2 * n..4 * n].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn degenerate_dims_do_nothing() {
        gemm_parallel(0, 4, 4, &[], &randv(16, &mut StdRng::seed_from_u64(1)), &mut []);
        let mut c = vec![0.0; 4];
        gemm_auto(2, 0, 2, &[], &[], &mut c);
        assert!(c.iter().all(|&x| x == 0.0));
    }
}
