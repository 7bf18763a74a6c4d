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
//! # One contract: bit-identical to the scalar loops
//!
//! Every kernel here is **bit-identical** to the scalar loops it
//! replaced. The speedup comes only from transformations that leave
//! every output element's f32 operation sequence unchanged: blocking
//! across *independent* output elements (8 forward dots advance
//! together, each still a left-to-right fold), splitting interleaved
//! accumulations into per-buffer passes (different destinations never
//! interact), and replacing indexed `Vec<Vec<f32>>` walks with slice
//! iteration the compiler can bounds-check once and vectorize. The
//! existing byte-equality CI gates and the proptests in this module
//! (blocked vs. retained naive kernels, ragged shapes included) enforce
//! the contract.

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

/// `out += s · a`, the rank-1-update inner loop of every backward
/// matmul. Element-independent, so it vectorizes without reassociating
/// anything.
#[inline]
pub(crate) fn axpy(out: &mut [f32], s: f32, a: &[f32]) {
    for (o, &v) in out.iter_mut().zip(a) {
        *o += s * v;
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
/// blocking is across *independent* outputs, so the result stays
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
/// column-vectors, walking rows in blocks of [`LANES`] with a scalar
/// [`dot`] remainder.
pub(crate) fn matmul_forward(
    out: &mut [f32],
    m: &[f32],
    x: &[f32],
    rows: usize,
    cols: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), n * rows);
    debug_assert_eq!(m.len(), rows * cols);
    debug_assert_eq!(x.len(), n * cols);
    let full = rows - rows % LANES;
    for p in 0..n {
        let xp = &x[p * cols..(p + 1) * cols];
        let op = &mut out[p * rows..(p + 1) * rows];
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
}

/// Backward matmul: `gm[r] += Σ_p(rev) g[p,r] · x_p` and
/// `gx_p += Σ_r g[p,r] · M_r`. Either destination may be `None` when no
/// trainable leaf reads it (a constant matrix or input); the other is
/// computed exactly as when both are requested.
///
/// Bit-exactness: positions walk in **reverse** (the unbatched graph's
/// reverse node-order walk reaches per-position matvecs
/// last-position-first) and the `g == 0.0` skip of the scalar loop is
/// preserved (it changes `-0.0`/NaN propagation, so it is part of the
/// pinned sequence). The old loop interleaved the `gm` and `gx` updates
/// per column; splitting them into two [`axpy`] passes touches each
/// destination element in the same order as before — the interleave only
/// ever alternated between *different* buffers — and turns both passes
/// into vectorizable slice updates. The same independence is why
/// dropping one destination leaves the other's bits unchanged.
// ALLOW: the argument list is the matmul gradient problem statement (two
// outputs, three inputs, three dims); a parameter struct would just
// rename it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_backward(
    mut gm: Option<&mut [f32]>,
    mut gx: Option<&mut [f32]>,
    g: &[f32],
    m: &[f32],
    x: &[f32],
    rows: usize,
    cols: usize,
    n: usize,
) {
    debug_assert_eq!(g.len(), n * rows);
    debug_assert!(gm.as_ref().is_none_or(|gm| gm.len() == rows * cols));
    debug_assert!(gx.as_ref().is_none_or(|gx| gx.len() == n * cols));
    for p in (0..n).rev() {
        let gp = &g[p * rows..(p + 1) * rows];
        let xp = &x[p * cols..(p + 1) * cols];
        let mut gxp = gx
            .as_deref_mut()
            .map(|gx| &mut gx[p * cols..(p + 1) * cols]);
        for (r, &gr) in gp.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            if let Some(gm) = gm.as_deref_mut() {
                axpy(&mut gm[r * cols..(r + 1) * cols], gr, xp);
            }
            if let Some(gxp) = gxp.as_deref_mut() {
                axpy(gxp, gr, &m[r * cols..(r + 1) * cols]);
            }
        }
    }
}

/// Forward fused bias + numerically stable log-softmax per chunk:
/// `out_p = log_softmax(a_p + b)`: exactly the composition of the
/// unfused add + log-softmax ops.
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
/// expression the unfused pair produces. A `None` destination is skipped; the other receives the same bits.
pub(crate) fn bias_log_softmax_backward(
    mut ga: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
    g: &[f32],
    y: &[f32],
    n: usize,
) {
    let len = g.len() / n.max(1);
    debug_assert_eq!(g.len(), n * len);
    debug_assert_eq!(y.len(), n * len);
    debug_assert!(ga.as_ref().is_none_or(|ga| ga.len() == n * len));
    debug_assert!(n == 0 || gb.as_ref().is_none_or(|gb| gb.len() == len));
    for p in (0..n).rev() {
        let gc = &g[p * len..(p + 1) * len];
        let yc = &y[p * len..(p + 1) * len];
        let mut gac = ga.as_deref_mut().map(|ga| &mut ga[p * len..(p + 1) * len]);
        let gsum: f32 = gc.iter().sum();
        for j in 0..len {
            let d = gc[j] - gsum * yc[j].exp();
            if let Some(gac) = gac.as_deref_mut() {
                gac[j] += d;
            }
            if let Some(gb) = gb.as_deref_mut() {
                gb[j] += d;
            }
        }
    }
}

/// Backward of chunk-wise broadcast add: in reverse position order,
/// `ga_p += g_p` and `gb += g_p`. The old loop interleaved the two per
/// element; the split passes touch each destination in the same order,
/// so either may be `None` without changing the other.
pub(crate) fn broadcast_add_backward(
    mut ga: Option<&mut [f32]>,
    mut gb: Option<&mut [f32]>,
    g: &[f32],
    n: usize,
) {
    let len = g.len() / n.max(1);
    debug_assert_eq!(g.len(), n * len);
    for p in (0..n).rev() {
        let gc = &g[p * len..(p + 1) * len];
        if let Some(ga) = ga.as_deref_mut() {
            add_assign(&mut ga[p * len..(p + 1) * len], gc);
        }
        if let Some(gb) = gb.as_deref_mut() {
            add_assign(gb, gc);
        }
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
/// unbatched graph's final embedding scatter). Either may be `None`.
pub(crate) fn pack_inputs_backward(
    gshared: Option<&mut [f32]>,
    gtable: Option<&mut [f32]>,
    g: &[f32],
    shared_len: usize,
    dim: usize,
    k: usize,
    indices: &[usize],
) {
    let n = indices.len() / k.max(1);
    let stride = shared_len + k * dim;
    if let Some(gshared) = gshared {
        for p in (0..n).rev() {
            add_assign(gshared, &g[p * stride..p * stride + shared_len]);
        }
    }
    if let Some(gtable) = gtable {
        for (p, pos) in indices.chunks(k).enumerate() {
            for (slot, &idx) in pos.iter().enumerate() {
                let src = p * stride + shared_len + slot * dim;
                add_assign(&mut gtable[idx * dim..(idx + 1) * dim], &g[src..src + dim]);
            }
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
            matmul_forward(&mut blocked, &m, &x, rows, cols, n);
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
            matmul_backward(Some(&mut gm), Some(&mut gx), &g, &m, &x, rows, cols, n);
            for (a, b) in gm.iter().zip(&gm_naive) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gx.iter().zip(&gx_naive) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Each backward kernel's two destinations are independent: with
        /// one of them `None`, the other comes out bit-identical to the
        /// call that fills both, for ragged shapes.
        #[test]
        fn dropping_one_backward_output_keeps_the_other(
            rows in 1usize..13,
            cols in 1usize..11,
            n in 0usize..5,
            zero_every in 1usize..5,
            seed in 0u32..50,
        ) {
            let f = 0.23 + seed as f32 * 0.019;
            let m = wave(rows * cols, f);
            let x = wave(n * cols, f + 0.37);
            let mut g = wave(n * rows, f + 0.05);
            for (i, gi) in g.iter_mut().enumerate() {
                if i % zero_every == 0 {
                    *gi = 0.0;
                }
            }
            // Destinations start non-zero: the kernels accumulate.
            let (gm0, gx0) = (wave(rows * cols, f + 0.9), wave(n * cols, f + 1.1));
            let (mut gm, mut gx) = (gm0.clone(), gx0.clone());
            matmul_backward(Some(&mut gm), Some(&mut gx), &g, &m, &x, rows, cols, n);
            let mut gm_only = gm0.clone();
            matmul_backward(Some(&mut gm_only), None, &g, &m, &x, rows, cols, n);
            let mut gx_only = gx0.clone();
            matmul_backward(None, Some(&mut gx_only), &g, &m, &x, rows, cols, n);
            prop_assert_eq!(bits(&gm_only), bits(&gm));
            prop_assert_eq!(bits(&gx_only), bits(&gx));

            // Chunk-wise kernels: `n` chunks of width `cols`.
            let g = wave(n * cols, f + 0.61);
            let y: Vec<f32> = g.iter().map(|v| v - 2.0).collect();
            let (ga0, gb0) = (wave(n * cols, f + 1.7), wave(cols, f + 2.3));
            type Kernel = fn(Option<&mut [f32]>, Option<&mut [f32]>, &[f32], &[f32], usize);
            let kernels: [Kernel; 2] = [
                |ga, gb, g, _, n| broadcast_add_backward(ga, gb, g, n),
                |ga, gb, g, y, n| bias_log_softmax_backward(ga, gb, g, y, n),
            ];
            for kernel in kernels {
                let (mut ga, mut gb) = (ga0.clone(), gb0.clone());
                kernel(Some(&mut ga), Some(&mut gb), &g, &y, n);
                let mut ga_only = ga0.clone();
                kernel(Some(&mut ga_only), None, &g, &y, n);
                let mut gb_only = gb0.clone();
                kernel(None, Some(&mut gb_only), &g, &y, n);
                prop_assert_eq!(bits(&ga_only), bits(&ga));
                prop_assert_eq!(bits(&gb_only), bits(&gb));
            }
        }
    }
}
