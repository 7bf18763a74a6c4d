//! The hot numeric kernels behind the tape's sequence-batched ops.
//!
//! Every inner loop the language model spends its time in lives here as
//! a plain function over slices: the forward matmul, the backward
//! matmul's register passes, the elementwise gradient updates, the fused
//! bias+log-softmax and `tanh`. Each is written so the compiler keeps
//! the work in registers and vector lanes.
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
//!
//! # The backward matmul keeps its destinations in registers
//!
//! [`matmul_backward`] makes one pass per destination, and each pass
//! holds its destination elements in registers for as long as their own
//! accumulation runs, then stores them once:
//!
//! - a narrow matrix's gradient (`cols <= 8`, the rank-r LoRA factors)
//!   in blocks of 8 rows across the reverse position walk, with the
//!   `g == 0.0` skip as a select so the 8 rows share one walk;
//! - the input gradient one whole position row at a time across the
//!   ascending row walk, for the narrow widths and the headline model's
//!   64 and 68 (one instantiation per width, chosen by `cols`).
//!
//! Everything else stays an [`axpy`] sweep. Each element still receives
//! the scalar loop's terms in the scalar loop's order, onto its prior
//! value, so the passes are bit-identical to it.
//!
//! # `tanh`: glibc's bits, without its branches
//!
//! [`tanh`] replaced the platform libm's `f32::tanh`, which cost 15–22
//! ns per call on a 2-vCPU Xeon, 64 calls per position at the
//! headline's shapes. It
//! transcribes glibc 2.36's `s_tanhf.c` and the `s_expm1f.c` it calls
//! (both fdlibm) operation for operation in `f32`, so it returns that
//! libm's bits on every input whatever libm the platform has; `exp`
//! and `ln` still come from the platform. Each `if` of the original
//! became a per-lane select: every branch's value is computed from the
//! same operands by the same operations and the one the input's range
//! takes is kept. The values a lane throws away cannot reach its
//! result, and IEEE operations do not trap, so the selected value has
//! the scalar code's bits and the loop vectorizes. The transcription
//! folds branches only where the IEEE operations agree exactly: the
//! two ranges `|x| >= 1` and `|x| < 1` call `expm1f` on `±2|x|` and
//! divide once; the `k = ±1` reduction is the general one at `t = ±1`
//! (`x - (±1)·ln2_hi` is `x ∓ ln2_hi`); `(int)` truncation becomes
//! `trunc`, whose integer the exponent arithmetic reads out of the
//! mantissa. The unit tests compare the kernel with an in-test
//! branch-for-branch transcription of fdlibm and with `f32::tanh` at
//! every branch threshold and over a sweep; an ignored test does so on
//! all 2^32 bit patterns.

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

/// `out += a · c`: [`axpy`] with the product's operands in the order
/// the tape's `Scale` backward has always multiplied them.
#[inline]
pub(crate) fn add_scaled(out: &mut [f32], a: &[f32], c: f32) {
    for (o, &v) in out.iter_mut().zip(a) {
        *o += v * c;
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
/// computed exactly as when both are requested. The buffers are
/// disjoint: the tape rejects a matmul whose operands are one node.
///
/// Bit-exactness: every destination element keeps the scalar loop's
/// f32 sequence. `gm[r][c]` adds `g[p,r] · x[p][c]` over positions in
/// **reverse** (the unbatched graph's reverse node-order walk reaches
/// per-position matvecs last-position-first), `gx[p][c]` adds
/// `g[p,r] · M[r][c]` over ascending rows, both onto the destination's
/// prior value, and a `g == 0.0` term is skipped (the skip changes
/// `-0.0`/NaN propagation, so it is part of the pinned sequence). The
/// old loop interleaved the two updates per column; it only ever
/// alternated between *different* buffers, so two separate passes touch
/// each element in the same order, and dropping one destination leaves
/// the other's bits unchanged. Within a pass, elements are independent,
/// so a pass may hold them in registers (see the module docs):
/// [`gm_narrow`] for a narrow `gm`, [`gx_rows`] for a `gx` whose width
/// [`gx_rows_pass`] lists, and an [`axpy`] sweep for the rest.
// The argument list is the matmul gradient problem statement (two
// outputs, three inputs, three dims); a parameter struct would just
// rename it.
#[allow(clippy::too_many_arguments, reason = "the matmul gradient problem")]
pub(crate) fn matmul_backward(
    gm: Option<&mut [f32]>,
    gx: Option<&mut [f32]>,
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
    // No term to add (and `chunks_exact` takes no zero width).
    if g.is_empty() || cols == 0 {
        return;
    }
    if let Some(gm) = gm {
        match gm_narrow_pass(cols) {
            Some(pass) => pass(gm, g, x, rows),
            None => {
                for (gp, xp) in g.chunks_exact(rows).zip(x.chunks_exact(cols)).rev() {
                    for (gmr, &gr) in gm.chunks_exact_mut(cols).zip(gp) {
                        if gr != 0.0 {
                            axpy(gmr, gr, xp);
                        }
                    }
                }
            }
        }
    }
    if let Some(gx) = gx {
        match gx_rows_pass(cols) {
            Some(pass) => pass(gx, g, m, rows),
            None => {
                for (gxp, gp) in gx.chunks_exact_mut(cols).zip(g.chunks_exact(rows)) {
                    for (mr, &gr) in m.chunks_exact(cols).zip(gp) {
                        if gr != 0.0 {
                            axpy(gxp, gr, mr);
                        }
                    }
                }
            }
        }
    }
}

/// A register pass over one destination: `(dst, g, operand, rows)`.
type Pass = fn(&mut [f32], &[f32], &[f32], usize);

/// The register-resident `gm` pass for a narrow matrix, if `cols` is one.
fn gm_narrow_pass(cols: usize) -> Option<Pass> {
    Some(match cols {
        1 => gm_narrow::<1>,
        2 => gm_narrow::<2>,
        3 => gm_narrow::<3>,
        4 => gm_narrow::<4>,
        5 => gm_narrow::<5>,
        6 => gm_narrow::<6>,
        7 => gm_narrow::<7>,
        8 => gm_narrow::<8>,
        _ => return None,
    })
}

/// The whole-row `gx` pass for `cols`, if that width has one: the
/// narrow widths and the headline model's hidden (64) and input (68)
/// widths. Each width is its own instantiation because only a
/// compile-time width lets the row live in registers.
fn gx_rows_pass(cols: usize) -> Option<Pass> {
    Some(match cols {
        1 => gx_rows::<1>,
        2 => gx_rows::<2>,
        3 => gx_rows::<3>,
        4 => gx_rows::<4>,
        5 => gx_rows::<5>,
        6 => gx_rows::<6>,
        7 => gx_rows::<7>,
        8 => gx_rows::<8>,
        64 => gx_rows::<64>,
        68 => gx_rows::<68>,
        _ => return None,
    })
}

/// `gm += Σ_p(rev) g[p,r] · x_p` for a `C`-column matrix: [`LANES`]
/// rows at a time, then the last `rows % LANES` one by one.
fn gm_narrow<const C: usize>(gm: &mut [f32], g: &[f32], x: &[f32], rows: usize) {
    let xs = x.as_chunks::<C>().0;
    let (blocks, tail) = gm.as_chunks_mut::<C>().0.as_chunks_mut::<LANES>();
    for (b, block) in blocks.iter_mut().enumerate() {
        gm_block(block, &g[b * LANES..], xs, rows);
    }
    let r0 = blocks.len() * LANES;
    for (j, row) in tail.iter_mut().enumerate() {
        gm_block(std::array::from_mut(row), &g[r0 + j..], xs, rows);
    }
}

/// `R` rows of a narrow `gm`, held in registers across the reverse
/// position walk: `R` independent chains hide the add latency. `g`
/// starts at the block's first row of position 0.
#[inline(always)]
fn gm_block<const C: usize, const R: usize>(
    dst: &mut [[f32; C]; R],
    g: &[f32],
    xs: &[[f32; C]],
    rows: usize,
) {
    let mut acc = *dst;
    for (p, xp) in xs.iter().enumerate().rev() {
        for (row, &gr) in acc.iter_mut().zip(&g[p * rows..p * rows + R]) {
            for (a, &v) in row.iter_mut().zip(xp) {
                let sum = *a + gr * v;
                // The `g == 0.0` skip as a select, so the block's rows
                // share one branch-free walk.
                *a = if gr == 0.0 { *a } else { sum };
            }
        }
    }
    *dst = acc;
}

/// `gx_p += Σ_r g[p,r] · M_r` for a `W`-column matrix, each position's
/// `W`-wide row held in registers across the ascending row walk.
fn gx_rows<const W: usize>(gx: &mut [f32], g: &[f32], m: &[f32], rows: usize) {
    let ms = m.as_chunks::<W>().0;
    for (dst, gp) in gx
        .as_chunks_mut::<W>()
        .0
        .iter_mut()
        .zip(g.chunks_exact(rows))
    {
        let mut acc = *dst;
        for (mr, &gr) in ms.iter().zip(gp) {
            if gr != 0.0 {
                for (a, &v) in acc.iter_mut().zip(mr) {
                    *a += gr * v;
                }
            }
        }
        *dst = acc;
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

/// `v[i] = tanh(v[i])` in place, bit for bit what glibc 2.36's `tanhf`
/// returns on every `f32` (NaN payloads included): a per-lane
/// transcription of its `s_tanhf.c` and `s_expm1f.c` (fdlibm). See the
/// module docs for how the branches became selects.
pub(crate) fn tanh(v: &mut [f32]) {
    for x in v {
        *x = tanh_lane(*x);
    }
}

/// One lane of [`tanh`]: `s_tanhf.c` with every branch computed and the
/// one the input's range takes selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    let ax = f32::from_bits(ix);
    let sign = if neg { -1.0 } else { 1.0 };
    // 2**-55 <= |x| < 22: both ranges share one expm1f, on ±2|x|, and
    // one division, `1 - two/(t+two)` for |x| >= 1 and `-t/(t+two)`
    // below. ±inf and NaN, `one/x ± one`, share the division too.
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax });
    let special = ix >= 0x7f80_0000;
    let (num, den) = if special {
        (1.0, x)
    } else if big {
        (2.0, t + 2.0)
    } else {
        (-t, t + 2.0)
    };
    let q = num / den;
    let z = if big { 1.0 - q } else { q };
    // |x| >= 22: `one - tiny` rounds to 1.
    let z = if ix < 0x41b0_0000 { z } else { 1.0 };
    let z = if neg { -z } else { z };
    // |x| < 2**-55, ±0 included: `x*(one+x)`.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    if special {
        q + sign
    } else {
        z
    }
}

/// `s_expm1f.c`'s constants, by bit pattern: `ln2` split in a high
/// part with a short mantissa and the rest, `1/ln2`, and `Q1..Q5`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `1.5·2**23`: adding it to an integral `|t| < 2**22` puts `t` in the
/// low mantissa bits of the sum.
const KEY: f32 = 12_582_912.0;

/// `s_expm1f.c` on the arguments [`tanh_lane`] passes it, `2|x|` for
/// `1 <= |x| < 22` and `-2|x|` for `2**-55 <= |x| < 1`, as selects.
/// There the reduction's `k` is `0`, `-1`, `-2`, `-3` or in `3..=63`,
/// so the overflow, `-1` saturation and `k == 1` branches of the
/// original are unreachable and left out. Lanes outside that domain
/// compute garbage that `tanh_lane` never selects, without panicking.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // k = 0 up to ln2/2, ±1 up to 1.5·ln2, else `(int)(x/ln2 ± 0.5)`,
    // kept as the float `t = k`: the `k = ±1` reduction `x ∓ ln2_hi`,
    // `±ln2_lo` is the general one at `t = ±1`, and at `t = 0` the
    // general one leaves x as it is. `trunc` instead of an `as i32`
    // round trip keeps the lane in vector registers.
    let t = if hx <= 0x3eb1_7218 {
        0.0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        (INVLN2 * x + if neg { -0.5 } else { 0.5 }).trunc()
    };
    // The integer k, read out of the sum's mantissa.
    let k = (t + KEY).to_bits().wrapping_sub(KEY.to_bits()) as i32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let at_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let at_km1 = 0.5 * (r - e) - 0.5;
    // `y` with `k` added to its exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let at_far = scale(1.0 - (e - r)) - 1.0;
    // `1 - 2**-k` and `2**-k`, each built from its bit pattern.
    let one_less = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let below_23 = scale(one_less - (e - r));
    let pow = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let from_23 = scale((r - (e + pow)) + 1.0);
    let y = if k == 0 {
        at_k0
    } else if k == -1 {
        at_km1
    } else if k <= -2 || k > 56 {
        at_far
    } else if k < 23 {
        below_23
    } else {
        from_23
    };
    // |x| < 2**-25 returns x itself.
    if hx < 0x3300_0000 {
        x
    } else {
        y
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
    /// per-column loop, indexed exactly as `backward_into` indexed it,
    /// accumulating onto `gm` and `gx`.
    #[allow(clippy::needless_range_loop, reason = "mirrors the historical loop")]
    #[allow(clippy::too_many_arguments, reason = "the matmul gradient problem")]
    fn naive_matmul_backward(
        gm: &mut [f32],
        gx: &mut [f32],
        g: &[f32],
        m: &[f32],
        x: &[f32],
        rows: usize,
        cols: usize,
        n: usize,
    ) {
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
    }

    /// Widths on both sides of every backward path: the narrow register
    /// passes (1–8) and the axpy sweep just past them (9), the axpy
    /// widths around the whole-row `gx` passes and those passes (64,
    /// 68).
    const BACKWARD_WIDTHS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 66, 67, 68, 69];

    /// A backward matmul problem of the given shape: the matrix, the
    /// input, an upstream gradient whose every `zero_every`-th entry is
    /// a zero (alternately `+0.0` and `-0.0`, the skip path), and
    /// starting destinations that are non-zero (the kernel accumulates)
    /// except for every fifth entry, a `-0.0` that only a skipped term
    /// keeps.
    struct BackwardCase {
        m: Vec<f32>,
        x: Vec<f32>,
        g: Vec<f32>,
        gm0: Vec<f32>,
        gx0: Vec<f32>,
    }

    impl BackwardCase {
        fn new(rows: usize, cols: usize, n: usize, zero_every: usize, f: f32) -> Self {
            let mut g = wave(n * rows, f + 0.07);
            for (i, gi) in g.iter_mut().step_by(zero_every).enumerate() {
                *gi = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            let start = |len, f| {
                let mut v = wave(len, f);
                v.iter_mut().step_by(5).for_each(|v| *v = -0.0);
                v
            };
            BackwardCase {
                m: wave(rows * cols, f),
                x: wave(n * cols, f + 0.41),
                g,
                gm0: start(rows * cols, f + 0.9),
                gx0: start(n * cols, f + 1.1),
            }
        }
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

        /// The register and axpy backward passes are bit-identical to the
        /// naive interleaved loop at every width of [`BACKWARD_WIDTHS`]:
        /// rows past one 8-row block and ragged row tails, `+0.0` and
        /// `-0.0` gradient entries (the skip path), and destinations
        /// that start non-zero.
        #[test]
        fn split_backward_is_bit_identical(
            rows in 1usize..=21,
            n in 0usize..=9,
            zero_every in 1usize..5,
            seed in 0u32..50,
        ) {
            let f = 0.19 + seed as f32 * 0.023;
            for cols in BACKWARD_WIDTHS {
                let case = BackwardCase::new(rows, cols, n, zero_every, f);
                let (mut gm_naive, mut gx_naive) = (case.gm0.clone(), case.gx0.clone());
                naive_matmul_backward(
                    &mut gm_naive, &mut gx_naive, &case.g, &case.m, &case.x, rows, cols, n,
                );
                let (mut gm, mut gx) = (case.gm0.clone(), case.gx0.clone());
                matmul_backward(
                    Some(&mut gm), Some(&mut gx), &case.g, &case.m, &case.x, rows, cols, n,
                );
                prop_assert_eq!(bits(&gm), bits(&gm_naive), "gm, {}x{}, n = {}", rows, cols, n);
                prop_assert_eq!(bits(&gx), bits(&gx_naive), "gx, {}x{}, n = {}", rows, cols, n);
            }
        }

        /// Each backward kernel's two destinations are independent: with
        /// one of them `None`, the other comes out bit-identical to the
        /// call that fills both, at every backward width and for ragged
        /// chunk-wise shapes.
        #[test]
        fn dropping_one_backward_output_keeps_the_other(
            rows in 1usize..=21,
            n in 0usize..=9,
            chunk in 1usize..11,
            zero_every in 1usize..5,
            seed in 0u32..50,
        ) {
            let f = 0.23 + seed as f32 * 0.019;
            for cols in BACKWARD_WIDTHS {
                let BackwardCase { m, x, g, gm0, gx0 } =
                    BackwardCase::new(rows, cols, n, zero_every, f);
                let (mut gm, mut gx) = (gm0.clone(), gx0.clone());
                matmul_backward(Some(&mut gm), Some(&mut gx), &g, &m, &x, rows, cols, n);
                let mut gm_only = gm0.clone();
                matmul_backward(Some(&mut gm_only), None, &g, &m, &x, rows, cols, n);
                let mut gx_only = gx0.clone();
                matmul_backward(None, Some(&mut gx_only), &g, &m, &x, rows, cols, n);
                prop_assert_eq!(bits(&gm_only), bits(&gm));
                prop_assert_eq!(bits(&gx_only), bits(&gx));
            }

            // Chunk-wise kernels: `n` chunks of width `chunk`.
            let g = wave(n * chunk, f + 0.61);
            let y: Vec<f32> = g.iter().map(|v| v - 2.0).collect();
            let (ga0, gb0) = (wave(n * chunk, f + 1.7), wave(chunk, f + 2.3));
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

    /// glibc 2.36's `sysdeps/ieee754/flt-32/s_tanhf.c`, branch for
    /// branch. The oracle that holds on any libm.
    fn fdlibm_tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z = if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = fdlibm_expm1f(2.0 * x.abs());
                1.0 - 2.0 / (t + 2.0)
            } else {
                let t = fdlibm_expm1f(-2.0 * x.abs());
                -t / (t + 2.0)
            }
        } else {
            1.0 - 1.0e-30
        };
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// glibc 2.36's `sysdeps/ieee754/flt-32/s_expm1f.c`, branch for
    /// branch, with its decimal constants (errno and the inexact flag
    /// aside).
    #[allow(
        clippy::excessive_precision,
        reason = "the constants as fdlibm spells them"
    )]
    fn fdlibm_expm1f(mut x: f32) -> f32 {
        const HUGE: f32 = 1.0e+30;
        const TINY: f32 = 1.0e-30;
        const O_THRESHOLD: f32 = 8.8721679688e+01;
        const LN2_HI: f32 = 6.9313812256e-01;
        const LN2_LO: f32 = 9.0580006145e-06;
        const INVLN2: f32 = 1.4426950216e+00;
        const Q1: f32 = -3.3333335072e-02;
        const Q2: f32 = 1.5873016091e-03;
        const Q3: f32 = -7.9365076090e-05;
        const Q4: f32 = 4.0082177293e-06;
        const Q5: f32 = -2.0109921195e-07;
        let xsb = x.to_bits() & 0x8000_0000;
        let hx = x.to_bits() & 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if xsb != 0 {
                return TINY - 1.0;
            }
        }
        let (k, c);
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if xsb == 0 {
                    (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
                } else {
                    (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
                }
            } else {
                k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            (k, c) = (0, 0.0);
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        let add_k = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
        if k <= -2 || k > 56 {
            return add_k(1.0 - (e - x)) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
            add_k(t - (e - x))
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            add_k(x - (e + t) + 1.0)
        }
    }

    /// Runs the slice kernel over `inputs` and returns every input whose
    /// output differs from either oracle (NaN counts as equal to NaN),
    /// with the three results. The fdlibm transcription is the oracle on
    /// any platform; `f32::tanh` agrees where the libm is glibc 2.36, the
    /// one the committed artifacts were recorded with.
    fn tanh_mismatches(inputs: &[f32]) -> Vec<(u32, u32, u32, u32)> {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut out = inputs.to_vec();
        tanh(&mut out);
        inputs
            .iter()
            .zip(&out)
            .filter_map(|(&x, &y)| {
                let (fdlibm, libm) = (fdlibm_tanhf(x), x.tanh());
                (!same(y, fdlibm) || !same(y, libm))
                    .then(|| (x.to_bits(), y.to_bits(), fdlibm.to_bits(), libm.to_bits()))
            })
            .collect()
    }

    fn assert_no_mismatches(bad: &[(u32, u32, u32, u32)]) {
        assert!(
            bad.is_empty(),
            "{} mismatches (x, kernel, fdlibm, libm bits), first: {:#x?}",
            bad.len(),
            &bad[..bad.len().min(8)]
        );
    }

    /// The first `|x|` bit pattern in `lo..hi` whose `expm1f` reduction
    /// of `±2|x|` (the sign `tanhf` gives it) has `k >= target`, or
    /// `k <= target` for a negative target: where `k` crosses over.
    fn k_crossing(lo: u32, hi: u32, target: i32) -> u32 {
        let crossed = |bits: u32| {
            let ax = f32::from_bits(bits);
            if target > 0 {
                (INVLN2 * (2.0 * ax) + 0.5) as i32 >= target
            } else {
                (INVLN2 * (-2.0 * ax) - 0.5) as i32 <= target
            }
        };
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if crossed(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Special values, every branch threshold of `tanhf` and of the
    /// `expm1f` it calls (as `|x|` bit patterns: the argument `±2|x|`
    /// sits one exponent higher) with its neighbours, both signs, and a
    /// strided sweep of about 2^20 bit patterns: the kernel matches the
    /// fdlibm transcription and this platform's `f32::tanh` on each.
    #[test]
    fn tanh_matches_fdlibm_and_libm_at_every_branch() {
        let mut thresholds = vec![
            0x0000_0000, // ±0
            0x0000_0001, // least subnormal
            0x007f_ffff, // greatest subnormal
            0x0080_0000, // least normal
            0x2400_0000, // tanhf: 2**-55
            0x3280_0000, // expm1f: |2x| < 2**-25
            0x3e31_7218, // expm1f: |2x| <= ln2/2 (k = 0)
            0x3f05_1592, // expm1f: |2x| < 1.5·ln2 (k = -1)
            0x3f80_0000, // tanhf: |x| >= 1
            0x41b0_0000, // tanhf: |x| >= 22
            0x7f7f_ffff, // greatest finite
            0x7f80_0000, // inf
            0x7f80_0001, // signalling NaN
            0x7fc0_0000, // quiet NaN
            0x7fff_ffff, // NaN, every payload bit
        ];
        thresholds.extend([
            k_crossing(0x3f05_1592, 0x3f80_0000, -2),
            k_crossing(0x3f05_1592, 0x3f80_0000, -3),
            k_crossing(0x3f80_0000, 0x41b0_0000, 23),
            k_crossing(0x3f80_0000, 0x41b0_0000, 57),
        ]);
        let mut inputs = Vec::new();
        for &t in &thresholds {
            for bits in t.saturating_sub(16)..=t.saturating_add(16).min(0x7fff_ffff) {
                inputs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
            }
        }
        inputs.extend((0..=u32::MAX).step_by(4093).map(f32::from_bits));
        assert!(inputs.len() > 1 << 20);
        let bad = tanh_mismatches(&inputs);
        assert_no_mismatches(&bad);
    }

    /// All 2^32 bit patterns, in chunks through the slice kernel, one
    /// chunk sequence per thread.
    #[test]
    #[ignore = "exhaustive: about a minute in release"]
    fn tanh_matches_fdlibm_and_libm_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        let bad: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        let mut inputs = Vec::with_capacity(CHUNK as usize);
                        for chunk in (w..chunks).step_by(threads as usize) {
                            inputs.clear();
                            let start = chunk * CHUNK;
                            inputs.extend((start..start + CHUNK).map(|b| f32::from_bits(b as u32)));
                            bad.extend(tanh_mismatches(&inputs));
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert_no_mismatches(&bad);
    }
}
