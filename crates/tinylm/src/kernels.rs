//! The hot numeric kernels behind the tape's sequence-batched ops.
//!
//! PR 5 fixed the *graph shape* (one tape node per layer per sequence);
//! this module fixes the *kernels*: every inner loop the training fast
//! path spends its time in — the forward matmul dots, the backward
//! rank-1 updates, the fused bias+log-softmax — lives here as a plain
//! function over slices, written so the compiler can keep the work in
//! registers and vector lanes instead of bouncing through
//! `Vec<Vec<f32>>` double indexing.
//!
//! # Two modes, one contract
//!
//! Every kernel runs in one of two [`KernelMode`]s:
//!
//! * [`KernelMode::Reference`] (default) is **bit-identical** to the
//!   scalar loops it replaced. The speedup comes only from
//!   transformations that leave every output element's f32 operation
//!   sequence unchanged: blocking across *independent* output elements
//!   (8 forward dots advance together, each still a left-to-right
//!   fold), splitting interleaved accumulations into per-buffer passes
//!   (different destinations never interact), and replacing indexed
//!   `Vec<Vec<f32>>` walks with slice iteration the compiler can
//!   bounds-check once and vectorize. The existing byte-equality CI
//!   gates and the proptests in this module (blocked vs. retained naive
//!   kernels, ragged shapes included) enforce the contract.
//! * [`KernelMode::Fast`] is allowed to **reassociate**: dots accumulate
//!   in 8 interleaved lanes that are only combined at the end, and — on
//!   builds with hardware FMA — multiply-adds fuse into
//!   [`f32::mul_add`] (one rounding instead of two). Results differ
//!   from reference in the low bits, and may differ *per build* (the
//!   FMA fusion is compile-time gated on the `fma` target feature) —
//!   the deviation is
//!   bounded by tolerance tests here and by the `kernel_gate` CI gate,
//!   not by byte equality.
//!
//! The mode is a process-global default ([`set_mode`]/[`mode`]) captured
//! by each [`crate::tape::Tape`] when it is created or reset, so
//! thread-local workspaces on pool workers pick up the configured mode
//! without any signature changes along the hot path.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which arithmetic the tape kernels use. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum KernelMode {
    /// Bit-identical to the original scalar loops (the default): only
    /// transformations that preserve each output element's exact f32
    /// operation sequence are allowed.
    #[default]
    Reference,
    /// Reassociated 8-lane accumulation and FMA fusion: faster, and
    /// within a tested tolerance of reference instead of bit-identical.
    Fast,
}

impl KernelMode {
    /// Parses the CLI spelling (`reference` / `fast`).
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s {
            "reference" => Some(KernelMode::Reference),
            "fast" => Some(KernelMode::Fast),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelMode::Reference => write!(f, "reference"),
            KernelMode::Fast => write!(f, "fast"),
        }
    }
}

/// Process-global default kernel mode, captured by [`crate::tape::Tape`]
/// at creation/reset time. An atomic (same pattern as obskit's global
/// recorder switch) so the pipeline can set it once before training and
/// every pool worker's thread-local workspace observes it.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global default [`KernelMode`].
pub fn set_mode(mode: KernelMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The process-global default [`KernelMode`].
pub fn mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Fast,
        _ => KernelMode::Reference,
    }
}

/// The sequential dot product every matrix op on the tape is built from:
/// a left-to-right fold starting at `0.0`. Centralizing it pins the
/// accumulation order, which is what makes the batched `Tape::matmul`
/// bit-identical to per-position `Tape::matvec` calls (and the packed
/// LoRA-merge kernel in `model.rs` bit-identical to the naive triple
/// loop it replaced).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Number of independent accumulator lanes the blocked kernels run:
/// eight in-flight f32 chains hide the 4-cycle add latency on every
/// current x86/ARM core without spilling registers.
const LANES: usize = 8;

/// Fused multiply-add for the fast kernels — but only when the build
/// actually has hardware FMA. Without the `fma` target feature,
/// [`f32::mul_add`] lowers to a correctly-rounded *software* fma (a
/// libm call per element), roughly an order of magnitude slower than
/// the multiply it fuses — the opposite of a fast mode. The fallback
/// takes the two roundings; fast mode is tolerance-gated rather than
/// bit-pinned precisely so this lowering choice is free.
#[inline(always)]
fn fma(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Reassociated dot: 8 interleaved lanes of [`fma`] combined by
/// a balanced tree at the end, scalar remainder folded in last. Fast
/// mode only — the lane split reorders the additions.
#[inline]
fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for i in 0..chunks {
        let av = &a[i * LANES..(i + 1) * LANES];
        let bv = &b[i * LANES..(i + 1) * LANES];
        for j in 0..LANES {
            acc[j] = fma(av[j], bv[j], acc[j]);
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..n {
        tail = fma(a[i], b[i], tail);
    }
    let pairs = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    ((pairs[0] + pairs[2]) + (pairs[1] + pairs[3])) + tail
}

/// Mode-dispatched dot product.
#[inline]
pub(crate) fn dot_in(a: &[f32], b: &[f32], mode: KernelMode) -> f32 {
    match mode {
        KernelMode::Reference => dot(a, b),
        KernelMode::Fast => dot_fast(a, b),
    }
}

/// `out += s · a`, the rank-1-update inner loop of every backward
/// matmul. Element-independent, so the reference version vectorizes
/// without reassociating anything; fast fuses the multiply-add.
#[inline]
pub(crate) fn axpy(out: &mut [f32], s: f32, a: &[f32], mode: KernelMode) {
    match mode {
        KernelMode::Reference => {
            for (o, &v) in out.iter_mut().zip(a) {
                *o += s * v;
            }
        }
        KernelMode::Fast => {
            for (o, &v) in out.iter_mut().zip(a) {
                *o = fma(s, v, *o);
            }
        }
    }
}

/// `out += a`, elementwise.
#[inline]
pub(crate) fn add_assign(out: &mut [f32], a: &[f32]) {
    for (o, &v) in out.iter_mut().zip(a) {
        *o += v;
    }
}

/// Eight forward dots advanced together: `rows` packs 8 row slices, and
/// each lane's accumulator sees the exact left-to-right [`dot`] fold —
/// blocking is across *independent* outputs, so reference mode stays
/// bit-identical while the 8 chains fill the FPU pipeline.
#[inline]
fn dot_block8(rows: [&[f32]; LANES], x: &[f32]) -> [f32; LANES] {
    // Pin every lane to x's length so the indexing below is provably in
    // bounds and the checks vanish.
    let rows = rows.map(|r| &r[..x.len()]);
    let mut acc = [0.0f32; LANES];
    for (c, &xv) in x.iter().enumerate() {
        for j in 0..LANES {
            acc[j] += rows[j][c] * xv;
        }
    }
    acc
}

/// Forward matmul: `out[p·rows + r] = dot(M_r, x_p)` for `n` packed
/// column-vectors. Reference mode walks rows in blocks of [`LANES`]
/// (scalar [`dot`] remainder); fast mode uses [`dot_fast`] per output.
pub(crate) fn matmul_forward(
    out: &mut [f32],
    m: &[f32],
    x: &[f32],
    rows: usize,
    cols: usize,
    n: usize,
    mode: KernelMode,
) {
    debug_assert_eq!(out.len(), n * rows);
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), n * cols);
    let full = rows - rows % LANES;
    for p in 0..n {
        let xp = &x[p * cols..(p + 1) * cols];
        let op = &mut out[p * rows..(p + 1) * rows];
        match mode {
            KernelMode::Reference => {
                let mut r = 0;
                while r < full {
                    let block = dot_block8(
                        [
                            &m[r * cols..(r + 1) * cols],
                            &m[(r + 1) * cols..(r + 2) * cols],
                            &m[(r + 2) * cols..(r + 3) * cols],
                            &m[(r + 3) * cols..(r + 4) * cols],
                            &m[(r + 4) * cols..(r + 5) * cols],
                            &m[(r + 5) * cols..(r + 6) * cols],
                            &m[(r + 6) * cols..(r + 7) * cols],
                            &m[(r + 7) * cols..(r + 8) * cols],
                        ],
                        xp,
                    );
                    op[r..r + LANES].copy_from_slice(&block);
                    r += LANES;
                }
                for (rr, o) in op.iter_mut().enumerate().skip(full) {
                    *o = dot(&m[rr * cols..(rr + 1) * cols], xp);
                }
            }
            KernelMode::Fast => {
                for (rr, o) in op.iter_mut().enumerate() {
                    *o = dot_fast(&m[rr * cols..(rr + 1) * cols], xp);
                }
            }
        }
    }
}

/// Backward matmul: `gm[r] += Σ_p(rev) g[p,r] · x_p` and
/// `gx_p += Σ_r g[p,r] · M_r`.
///
/// Bit-exactness: positions walk in **reverse** (the unbatched graph's
/// reverse node-order walk reaches per-position matvecs
/// last-position-first) and the `g == 0.0` skip of the scalar loop is
/// preserved (it changes `-0.0`/NaN propagation, so it is part of the
/// pinned sequence). The old loop interleaved the `gm` and `gx` updates
/// per column; splitting them into two [`axpy`] passes touches each
/// destination element in the same order as before — the interleave only
/// ever alternated between *different* buffers — and turns both passes
/// into vectorizable slice updates.
// ALLOW: the argument list is the matmul gradient problem statement (two
// outputs, three inputs, three dims, mode); a parameter struct would
// just rename it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_backward(
    gm: &mut [f32],
    gx: &mut [f32],
    g: &[f32],
    m: &[f32],
    x: &[f32],
    rows: usize,
    cols: usize,
    n: usize,
    mode: KernelMode,
) {
    debug_assert_eq!(g.len(), n * rows);
    debug_assert_eq!(gm.len(), rows * cols);
    debug_assert_eq!(gx.len(), n * cols);
    for p in (0..n).rev() {
        let gp = &g[p * rows..(p + 1) * rows];
        let xp = &x[p * cols..(p + 1) * cols];
        let gxp = &mut gx[p * cols..(p + 1) * cols];
        for (r, &gr) in gp.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            axpy(&mut gm[r * cols..(r + 1) * cols], gr, xp, mode);
            axpy(gxp, gr, &m[r * cols..(r + 1) * cols], mode);
        }
    }
}

/// Forward fused bias + numerically stable log-softmax per chunk:
/// `out_p = log_softmax(a_p + b)`. Identical arithmetic in both modes —
/// the cost here is `exp`, which no reassociation removes — and exactly
/// the composition of the unfused add + log-softmax ops.
pub(crate) fn bias_log_softmax_forward(out: &mut [f32], a: &[f32], b: &[f32], n: usize) {
    let len = b.len();
    debug_assert_eq!(out.len(), n * len);
    debug_assert_eq!(a.len(), n * len);
    for p in 0..n {
        let chunk = &mut out[p * len..(p + 1) * len];
        let ac = &a[p * len..(p + 1) * len];
        for ((c, &av), &bv) in chunk.iter_mut().zip(ac).zip(b) {
            *c = av + bv;
        }
        let max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_z = max + chunk.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
        for c in chunk.iter_mut() {
            *c -= log_z;
        }
    }
}

/// Backward of the fused bias+log-softmax: per chunk (in **reverse**
/// position order, for the shared bias gradient's accumulation order)
/// both `ga` and `gb` receive `g[j] − (Σg)·softmax_j` — the single f32
/// expression the unfused pair produces. Identical in both modes.
pub(crate) fn bias_log_softmax_backward(
    ga: &mut [f32],
    gb: &mut [f32],
    g: &[f32],
    y: &[f32],
    n: usize,
) {
    let len = gb.len();
    debug_assert_eq!(ga.len(), n * len);
    debug_assert_eq!(g.len(), n * len);
    debug_assert_eq!(y.len(), n * len);
    for p in (0..n).rev() {
        let gc = &g[p * len..(p + 1) * len];
        let yc = &y[p * len..(p + 1) * len];
        let gac = &mut ga[p * len..(p + 1) * len];
        let gsum: f32 = gc.iter().sum();
        for j in 0..len {
            let d = gc[j] - gsum * yc[j].exp();
            gac[j] += d;
            gb[j] += d;
        }
    }
}

/// Backward of chunk-wise broadcast add: in reverse position order,
/// `ga_p += g_p` and `gb += g_p`. The old loop interleaved the two per
/// element; the split passes touch each destination in the same order.
pub(crate) fn broadcast_add_backward(ga: &mut [f32], gb: &mut [f32], g: &[f32], n: usize) {
    let len = gb.len();
    debug_assert_eq!(ga.len(), n * len);
    debug_assert_eq!(g.len(), n * len);
    for p in (0..n).rev() {
        let gc = &g[p * len..(p + 1) * len];
        add_assign(&mut ga[p * len..(p + 1) * len], gc);
        add_assign(gb, gc);
    }
}

/// Forward gather-sum: `Σ_p a[p·chunk + targets[p]]`, folded
/// left-to-right from the first picked component — the same chain of
/// scalar adds the per-position index+add graph performs.
pub(crate) fn gather_sum_forward(a: &[f32], chunk: usize, targets: &[usize]) -> f32 {
    let mut acc = a[targets[0]];
    for (p, &t) in targets.iter().enumerate().skip(1) {
        acc += a[p * chunk + t];
    }
    acc
}

/// Backward gather-sum: scatter `g` into the picked components.
pub(crate) fn gather_sum_backward(ga: &mut [f32], g: f32, chunk: usize, targets: &[usize]) {
    for (p, &t) in targets.iter().enumerate() {
        ga[p * chunk + t] += g;
    }
}

/// Backward of the embedding pack: `gshared` accumulates in **reverse**
/// position order (matching the reverse node-order walk over the
/// per-position concat nodes of the unbatched graph); `gtable`
/// accumulates in **forward** `(position, slot)` order (matching the
/// unbatched graph's final embedding scatter).
pub(crate) fn pack_inputs_backward(
    gshared: &mut [f32],
    gtable: &mut [f32],
    g: &[f32],
    dim: usize,
    k: usize,
    indices: &[usize],
) {
    let n = indices.len() / k.max(1);
    let shared_len = gshared.len();
    let stride = shared_len + k * dim;
    for p in (0..n).rev() {
        add_assign(gshared, &g[p * stride..p * stride + shared_len]);
    }
    for (p, pos) in indices.chunks(k).enumerate() {
        for (slot, &idx) in pos.iter().enumerate() {
            let src = p * stride + shared_len + slot * dim;
            add_assign(&mut gtable[idx * dim..(idx + 1) * dim], &g[src..src + dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The retained naive forward kernel: one scalar fold per output,
    /// rows-outer — exactly the pre-kernels `Tape::matmul` loop.
    fn naive_matmul_forward(m: &[f32], x: &[f32], rows: usize, cols: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * rows];
        for r in 0..rows {
            let row = &m[r * cols..(r + 1) * cols];
            for p in 0..n {
                out[p * rows + r] = dot(row, &x[p * cols..(p + 1) * cols]);
            }
        }
        out
    }

    /// The retained naive backward kernel: the pre-kernels interleaved
    /// per-column loop, indexed exactly as `backward_into` indexed it.
    #[allow(clippy::needless_range_loop)] // ALLOW: mirrors the historical indexed loop verbatim.
    fn naive_matmul_backward(
        g: &[f32],
        m: &[f32],
        x: &[f32],
        rows: usize,
        cols: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut gm = vec![0.0f32; rows * cols];
        let mut gx = vec![0.0f32; n * cols];
        for p in (0..n).rev() {
            for r in 0..rows {
                let gr = g[p * rows + r];
                if gr == 0.0 {
                    continue;
                }
                for c in 0..cols {
                    gm[r * cols + c] += gr * x[p * cols + c];
                    gx[p * cols + c] += gr * m[r * cols + c];
                }
            }
        }
        (gm, gx)
    }

    fn wave(len: usize, f: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * f).sin()).collect()
    }

    proptest! {
        /// Blocked forward is bit-identical to the naive kernel across
        /// ragged shapes: rows below/at/above the lane width, zero-length
        /// packs, single positions.
        #[test]
        fn blocked_forward_is_bit_identical(
            rows in 1usize..21,
            cols in 1usize..19,
            n in 0usize..5,
            seed in 0u32..50,
        ) {
            let f = 0.13 + seed as f32 * 0.017;
            let m = wave(rows * cols, f);
            let x = wave(n * cols, f + 0.31);
            let naive = naive_matmul_forward(&m, &x, rows, cols, n);
            let mut blocked = vec![0.0f32; n * rows];
            matmul_forward(&mut blocked, &m, &x, rows, cols, n, KernelMode::Reference);
            for (i, (a, b)) in blocked.iter().zip(&naive).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "out[{}]: {} vs {}", i, a, b);
            }
        }

        /// Split-pass backward is bit-identical to the naive interleaved
        /// loop, including the `g == 0.0` skip path.
        #[test]
        fn split_backward_is_bit_identical(
            rows in 1usize..13,
            cols in 1usize..11,
            n in 1usize..5,
            zero_every in 1usize..5,
            seed in 0u32..50,
        ) {
            let f = 0.19 + seed as f32 * 0.023;
            let m = wave(rows * cols, f);
            let x = wave(n * cols, f + 0.41);
            let mut g = wave(n * rows, f + 0.07);
            for (i, gi) in g.iter_mut().enumerate() {
                if i % zero_every == 0 {
                    *gi = 0.0;
                }
            }
            let (gm_naive, gx_naive) = naive_matmul_backward(&g, &m, &x, rows, cols, n);

            let mut gm = vec![0.0f32; rows * cols];
            let mut gx = vec![0.0f32; n * cols];
            matmul_backward(&mut gm, &mut gx, &g, &m, &x, rows, cols, n, KernelMode::Reference);
            for (a, b) in gm.iter().zip(&gm_naive) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gx.iter().zip(&gx_naive) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Fast-mode dots stay within a tight tolerance of the reference
        /// fold (reassociation only reorders additions of like-scale
        /// terms here).
        #[test]
        fn fast_dot_within_tolerance(
            len in 0usize..70,
            seed in 0u32..50,
        ) {
            let a = wave(len, 0.11 + seed as f32 * 0.013);
            let b = wave(len, 0.29 + seed as f32 * 0.007);
            let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
            let reference = dot(&a, &b);
            let fast = dot_fast(&a, &b);
            let tol = 1e-5 * (len.max(1) as f32);
            prop_assert!((fast - reference).abs() <= tol,
                "fast {} vs reference {} (len {})", fast, reference, len);
            // And both are close to the f64 ground truth.
            prop_assert!((f64::from(fast) - exact).abs() <= f64::from(tol));
        }
    }

    #[test]
    fn mode_parse_and_display_roundtrip() {
        for m in [KernelMode::Reference, KernelMode::Fast] {
            assert_eq!(KernelMode::parse(&m.to_string()), Some(m));
        }
        assert_eq!(KernelMode::parse("nonsense"), None);
        assert_eq!(KernelMode::default(), KernelMode::Reference);
    }

    #[test]
    fn fast_forward_matches_fast_dots() {
        let (rows, cols, n) = (9, 11, 3);
        let m = wave(rows * cols, 0.21);
        let x = wave(n * cols, 0.17);
        let mut out = vec![0.0f32; n * rows];
        matmul_forward(&mut out, &m, &x, rows, cols, n, KernelMode::Fast);
        for p in 0..n {
            for r in 0..rows {
                let want = dot_fast(&m[r * cols..(r + 1) * cols], &x[p * cols..(p + 1) * cols]);
                assert_eq!(out[p * rows + r].to_bits(), want.to_bits());
            }
        }
    }
}
