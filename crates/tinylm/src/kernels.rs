//! The hot numeric kernels behind the tape's sequence-batched ops.
//!
//! Every inner loop the language model spends its time in lives here as
//! a plain function over slices: the forward matmul, the backward
//! rank-1 updates, the fused bias+log-softmax. Each is written so the
//! compiler keeps the work in registers and vector lanes.
//!
//! # One contract: bit-identical to the scalar loops
//!
//! Every kernel here is **bit-identical** to the scalar loop it
//! replaced. The speedup comes only from transformations that leave
//! every output element's f32 operation sequence unchanged: blocking
//! across *independent* output elements, splitting interleaved
//! accumulations into per-buffer passes (different destinations never
//! interact), and slice iteration the compiler can bounds-check once and
//! vectorize. Rust never contracts a multiply and an add into an FMA, so
//! vector lanes compute exactly what scalar code would. The byte-equality
//! CI gates and the proptests in this module (packed/split kernels vs.
//! retained naive loops, ragged shapes included) enforce the contract.
//!
//! # The forward matmul reads packed panels
//!
//! [`matmul_forward`] reads its matrix in one packed layout, built by
//! [`Packed::pack`] (the packing idea of Goto & van de Geijn, *Anatomy of
//! High-Performance Matrix Multiplication*, TOMS 2008, restricted to
//! transformations that keep each output's fold):
//!
//! - rows in 8-row panels, column-interleaved:
//!   `panel[c·8 + j] = M[r0 + j][c]`, so one contiguous load feeds the 8
//!   row dots of a column;
//! - then at most one 4-row panel in the same layout (`c·4 + j`), which
//!   covers the rank-4 LoRA factors;
//! - then the last `rows % 4` rows, row-major, each a scalar [`dot`].
//!
//! A panel advances 4 positions together, so each panel load serves 4
//! independent accumulator sets. Every output is still the left-to-right
//! fold from `+0.0` that [`dot`] computes. Packing is a permutation of
//! the matrix, so a packed matrix is exactly `rows · cols` floats.
//! Whoever owns a matrix that many calls read packs it once:
//! `Merged` per model version, the tape once per matmul call.

/// The sequential dot product every matrix op is built from: a
/// left-to-right fold starting at `+0.0`. Centralizing it pins the
/// accumulation order, which is what makes the batched `Tape::matmul`
/// bit-identical to per-position `Tape::matvec` calls (and the LoRA
/// merge in `model.rs` bit-identical to the naive triple loop it
/// replaced). The explicit `fold` pins the sign of zero too:
/// `Iterator::sum` starts from `-0.0`, which an all-`-0.0` sum (or an
/// empty one) would keep, while every packed panel lane starts from
/// `+0.0`.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Rows per full panel: eight in-flight f32 chains hide the add latency
/// and fill one 256-bit vector.
const LANES: usize = 8;

/// Rows of the one narrow panel after the full ones.
const HALF: usize = 4;

/// Positions a panel advances together, sharing each panel load.
const POSITIONS: usize = 4;

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

/// A `rows×cols` matrix in the forward kernel's packed layout (see the
/// module docs). The buffer is reused across [`Packed::pack`] calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Packed {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Packed {
    /// `m` (`rows×cols`, row-major) packed into a new buffer.
    pub(crate) fn new(m: &[f32], rows: usize, cols: usize) -> Self {
        let mut packed = Packed::default();
        packed.pack(m, rows, cols);
        packed
    }

    /// Repacks this buffer with `m` (`rows×cols`, row-major), keeping
    /// its capacity. Counts the floats packed in `tinylm.packed_floats`.
    pub(crate) fn pack(&mut self, m: &[f32], rows: usize, cols: usize) {
        assert_eq!(m.len(), rows * cols, "matrix size mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(m.len(), 0.0);
        let mut r0 = 0;
        while rows - r0 >= LANES {
            let span = r0 * cols..(r0 + LANES) * cols;
            pack_panel::<LANES>(&mut self.data[span.clone()], &m[span], cols);
            r0 += LANES;
        }
        if rows - r0 >= HALF {
            let span = r0 * cols..(r0 + HALF) * cols;
            pack_panel::<HALF>(&mut self.data[span.clone()], &m[span], cols);
            r0 += HALF;
        }
        self.data[r0 * cols..].copy_from_slice(&m[r0 * cols..]);
        if obskit::enabled() {
            obskit::counter_add("tinylm.packed_floats", m.len() as u64);
        }
    }
}

/// Interleaves `W` consecutive rows of `m` column by column into `dst`.
#[inline]
fn pack_panel<const W: usize>(dst: &mut [f32], m: &[f32], cols: usize) {
    let rows: [&[f32]; W] = std::array::from_fn(|j| &m[j * cols..(j + 1) * cols]);
    for (c, lane) in dst.as_chunks_mut::<W>().0.iter_mut().enumerate() {
        for (l, row) in lane.iter_mut().zip(&rows) {
            *l = row[c];
        }
    }
}

/// Forward matmul: `out[p·rows + r] = dot(M_r, x_p)` for the `n` packed
/// column-vectors of `x`, with `M` in the packed layout.
pub(crate) fn matmul_forward(out: &mut [f32], m: &Packed, x: &[f32], n: usize) {
    let (rows, cols) = (m.rows, m.cols);
    debug_assert_eq!(out.len(), n * rows);
    debug_assert_eq!(x.len(), n * cols);
    let mut r0 = 0;
    while rows - r0 >= LANES {
        let panel = &m.data[r0 * cols..(r0 + LANES) * cols];
        panel_forward::<LANES>(out, panel.as_chunks().0, x, rows, r0, n);
        r0 += LANES;
    }
    if rows - r0 >= HALF {
        let panel = &m.data[r0 * cols..(r0 + HALF) * cols];
        panel_forward::<HALF>(out, panel.as_chunks().0, x, rows, r0, n);
        r0 += HALF;
    }
    for r in r0..rows {
        let row = &m.data[r * cols..(r + 1) * cols];
        for p in 0..n {
            out[p * rows + r] = dot(row, &x[p * cols..(p + 1) * cols]);
        }
    }
}

/// Output rows `r0..r0 + W` of every position from one `W`-row panel
/// (one `[f32; W]` per column): [`POSITIONS`] positions at a time, then
/// one at a time. Each lane is its own left-to-right fold from `+0.0`.
#[inline]
fn panel_forward<const W: usize>(
    out: &mut [f32],
    panel: &[[f32; W]],
    x: &[f32],
    rows: usize,
    r0: usize,
    n: usize,
) {
    let cols = panel.len();
    let mut p = 0;
    while p + POSITIONS <= n {
        let xs: [&[f32]; POSITIONS] =
            std::array::from_fn(|q| &x[(p + q) * cols..(p + q + 1) * cols]);
        let mut acc = [[0.0f32; W]; POSITIONS];
        for (c, lane) in panel.iter().enumerate() {
            for (acc, xq) in acc.iter_mut().zip(&xs) {
                let xv = xq[c];
                for (a, &m) in acc.iter_mut().zip(lane) {
                    *a += m * xv;
                }
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            let at = (p + q) * rows + r0;
            out[at..at + W].copy_from_slice(acc);
        }
        p += POSITIONS;
    }
    for p in p..n {
        let mut acc = [0.0f32; W];
        for (lane, &xv) in panel.iter().zip(&x[p * cols..(p + 1) * cols]) {
            for (a, &m) in acc.iter_mut().zip(lane) {
                *a += m * xv;
            }
        }
        let at = p * rows + r0;
        out[at..at + W].copy_from_slice(&acc);
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
// The argument list is the matmul gradient problem statement (two
// outputs, three inputs, three dims); a parameter struct would just
// rename it.
#[allow(clippy::too_many_arguments, reason = "the matmul gradient problem")]
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

    /// The naive forward kernel: one scalar fold from `+0.0` per output,
    /// rows-outer, on the row-major matrix.
    fn naive_matmul_forward(m: &[f32], x: &[f32], rows: usize, cols: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * rows];
        for r in 0..rows {
            for p in 0..n {
                let mut acc = 0.0f32;
                for c in 0..cols {
                    acc += m[r * cols + c] * x[p * cols + c];
                }
                out[p * rows + r] = acc;
            }
        }
        out
    }

    /// The retained naive backward kernel: the pre-kernels interleaved
    /// per-column loop, indexed exactly as `backward_into` indexed it.
    #[allow(clippy::needless_range_loop, reason = "mirrors the historical loop")]
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

    /// Every forward path starts its fold at `+0.0`: the 8-row and 4-row
    /// panels, the scalar tail rows and [`dot`] itself give `+0.0` when
    /// every product is `-0.0`, and so does an empty fold.
    #[test]
    fn zero_input_gives_positive_zero_on_every_path() {
        assert_eq!(dot(&[], &[]).to_bits(), 0.0f32.to_bits());
        assert_eq!(dot(&[-1.0, -2.0], &[0.0, 0.0]).to_bits(), 0.0f32.to_bits());
        // 15 rows: one 8-row panel, one 4-row panel, three tail rows.
        for (rows, cols) in [(15, 3), (15, 0)] {
            let m = vec![-1.5f32; rows * cols];
            for n in [1, 4, 5] {
                let x = vec![0.0f32; n * cols];
                let mut out = vec![f32::NAN; n * rows];
                matmul_forward(&mut out, &Packed::new(&m, rows, cols), &x, n);
                assert_eq!(bits(&out), vec![0u32; n * rows], "{rows}x{cols}, n = {n}");
            }
        }
    }

    /// One buffer repacked for matrices of other shapes forwards each
    /// exactly as a fresh pack does.
    #[test]
    fn repacking_reuses_the_buffer_exactly() {
        let mut packed = Packed::default();
        for (rows, cols) in [(21, 7), (4, 68), (3, 2), (48, 4)] {
            let m = wave(rows * cols, 0.29);
            let x = wave(5 * cols, 0.53);
            packed.pack(&m, rows, cols);
            assert_eq!(packed, Packed::new(&m, rows, cols));
            let mut out = vec![0.0f32; 5 * rows];
            matmul_forward(&mut out, &packed, &x, 5);
            assert_eq!(
                bits(&out),
                bits(&naive_matmul_forward(&m, &x, rows, cols, 5))
            );
        }
    }

    proptest! {
        /// The packed forward is bit-identical to the naive kernel across
        /// ragged shapes: rows crossing both panel widths, zero columns,
        /// zero-length packs, single positions, and an all-zero input
        /// against a negative matrix (every product `-0.0`, so only the
        /// fold's `+0.0` start decides the sign).
        #[test]
        fn blocked_forward_is_bit_identical(
            rows in 1usize..=21,
            cols in 0usize..19,
            n in 0usize..7,
            zero_input in 0u32..4,
            seed in 0u32..50,
        ) {
            let f = 0.13 + seed as f32 * 0.017;
            let mut m = wave(rows * cols, f);
            let mut x = wave(n * cols, f + 0.31);
            if zero_input == 0 {
                m.iter_mut().for_each(|v| *v = -v.abs() - 0.5);
                x.iter_mut().for_each(|v| *v = 0.0);
            }
            let naive = naive_matmul_forward(&m, &x, rows, cols, n);
            let mut packed = vec![f32::NAN; n * rows];
            matmul_forward(&mut packed, &Packed::new(&m, rows, cols), &x, n);
            prop_assert_eq!(bits(&packed), bits(&naive));
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
