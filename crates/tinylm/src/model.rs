use crate::kernels::{self, Packed};
use crate::tape::{dot, GradArena, Tape};
use crate::tokenizer::{Token, BOS, EOS};
use obskit::json::{DecodeError, FromJson, ToJson, Value};
use rand::Rng;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Which parameters fine-tuning is allowed to update.
///
/// Mirrors the paper's Appendix E: full fine-tuning updates every weight;
/// LoRA holds each base matrix `W` constant and trains a low-rank product
/// `A·B` so that the effective weight is `W + A·B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptMode {
    /// All parameters are trainable.
    Full,
    /// Only low-rank adapters on the two MLP matrices are trainable.
    Lora {
        /// Adapter rank `k ≪ d`.
        rank: usize,
    },
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmConfig {
    /// Vocabulary size (including `BOS`/`EOS`/`<unk>`).
    pub vocab_size: usize,
    /// Number of distinct task prompts the model can condition on.
    pub num_tasks: usize,
    /// Token embedding dimension.
    pub token_dim: usize,
    /// Task embedding dimension.
    pub task_dim: usize,
    /// Context window: number of previous tokens fed to the MLP.
    pub context: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Which parameters are trainable.
    pub adapt: AdaptMode,
    /// Scale applied to the LoRA delta (`W + scale · A·B`).
    pub lora_scale: f32,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            vocab_size: 0,
            num_tasks: 0,
            token_dim: 12,
            task_dim: 8,
            context: 4,
            hidden: 48,
            adapt: AdaptMode::Lora { rank: 4 },
            lora_scale: 1.0,
        }
    }
}

impl LmConfig {
    /// MLP input width: task embedding plus `context` token embeddings.
    pub fn input_dim(&self) -> usize {
        self.task_dim + self.context * self.token_dim
    }
}

/// Errors from language-model queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LmError {
    /// Task id exceeds `num_tasks`.
    TaskOutOfRange(usize),
    /// A token id exceeds the vocabulary.
    TokenOutOfRange(Token),
}

impl fmt::Display for LmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmError::TaskOutOfRange(t) => write!(f, "task id {t} out of range"),
            LmError::TokenOutOfRange(t) => write!(f, "token id {t} out of range"),
        }
    }
}

impl std::error::Error for LmError {}

/// Gradient of a scalar objective with respect to the model's trainable
/// parameters: entry `i` belongs to `params()[trainable().start + i]`
/// (see [`CondLm::trainable`]). Frozen parameters have no entry.
#[derive(Debug, Clone, PartialEq)]
pub struct GradBuffer(pub Vec<f32>);

impl GradBuffer {
    /// An all-zero gradient for a model's trainable segment.
    pub fn zeros(model: &CondLm) -> Self {
        GradBuffer(vec![0.0; model.trainable().len()])
    }

    /// `self += c · other`.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn add_scaled(&mut self, other: &GradBuffer, c: f32) {
        assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += c * b;
        }
    }

    /// `self *= c`.
    pub fn scale(&mut self, c: f32) {
        for a in &mut self.0 {
            *a *= c;
        }
    }

    /// Euclidean norm (useful for clipping and diagnostics).
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Reusable buffers for sequence scoring and gradients: a recyclable
/// [`Tape`] plus a [`GradArena`], so the hot training loop stops paying
/// an allocation storm per sequence. [`CondLm::log_prob_grad`] uses a
/// shared workspace automatically; hot loops that want explicit
/// control can hold one and call [`CondLm::log_prob_grad_in`].
#[derive(Debug, Default)]
pub struct SeqWorkspace {
    tape: Tape,
    arena: GradArena,
}

impl SeqWorkspace {
    /// A fresh workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a workspace from a process-wide free list and puts
    /// it back afterwards. Workspaces outlive the threads that use them,
    /// so a short-lived `parkit` helper reuses warm buffers instead of
    /// growing its own; the list holds at most one workspace per thread
    /// that ever ran `f` concurrently.
    pub fn with_shared<R>(f: impl FnOnce(&mut SeqWorkspace) -> R) -> R {
        static FREE: Mutex<Vec<SeqWorkspace>> = Mutex::new(Vec::new());
        let free = || FREE.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ws = free().pop().unwrap_or_default();
        let out = f(&mut ws);
        free().push(ws);
        out
    }

    /// Clears the tape for a new round of [`CondLm::seq_forward_in`]
    /// graphs (value and gradient buffers are recycled, not freed).
    pub fn reset(&mut self) {
        self.tape.reset();
    }
}

/// Handles into a sequence graph built by [`CondLm::seq_forward_in`]:
/// the sequence log-likelihood plus the parameter nodes
/// [`CondLm::seq_grad_in`] needs to scatter gradients back into the flat
/// parameter layout. Under LoRA the base nodes are tape constants and
/// only the adapter handles are read.
#[derive(Debug, Clone)]
pub struct SeqGraph {
    value: f32,
    root: crate::tape::VarId,
    w1: crate::tape::VarId,
    b1: crate::tape::VarId,
    w2: crate::tape::VarId,
    b2: crate::tape::VarId,
    task: usize,
    task_leaf: crate::tape::VarId,
    tok_table: crate::tape::VarId,
    lora: Option<(
        crate::tape::VarId,
        crate::tape::VarId,
        crate::tape::VarId,
        crate::tape::VarId,
    )>,
}

impl SeqGraph {
    /// The sequence log-likelihood `log P(response, EOS | task)`.
    pub fn value(&self) -> f32 {
        self.value
    }
}

/// Adds `scale · A·B` (`A`: `rows×rank`, `B`: `rank×cols`) into the
/// row-major `rows×cols` matrix `w`.
///
/// `B` is transposed into a scratch buffer once so every `(r, c)` entry
/// is a contiguous [`dot`] over `k` — cache-friendly instead of striding
/// `B` by `cols`, and bit-identical to the naive
/// `for k { dot += a[r·rank+k] · b[k·cols+c] }` triple loop it replaced
/// (same left-to-right fold over `k` from `0.0`).
fn merge_lora(
    w: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: usize,
    cols: usize,
    rank: usize,
    scale: f32,
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(a.len(), rows * rank);
    debug_assert_eq!(b.len(), rank * cols);
    let mut b_t = vec![0.0f32; rank * cols];
    for k in 0..rank {
        for c in 0..cols {
            b_t[c * rank + k] = b[k * cols + c];
        }
    }
    for r in 0..rows {
        let a_row = &a[r * rank..(r + 1) * rank];
        let w_row = &mut w[r * cols..(r + 1) * cols];
        for (c, w_rc) in w_row.iter_mut().enumerate() {
            *w_rc += scale * dot(a_row, &b_t[c * rank..(c + 1) * rank]);
        }
    }
}

/// Sampling options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOptions {
    /// Softmax temperature (1.0 = untempered; higher = more diverse).
    pub temperature: f32,
    /// Hard cap on generated tokens (`EOS` not counted).
    pub max_len: usize,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            temperature: 1.0,
            max_len: 80,
        }
    }
}

/// One scoring position: the context window and the target token.
#[cfg(test)]
type ScoredPosition = (Vec<Token>, Token);

/// Parameter ranges of the four LoRA matrices `(A1, B1, A2, B2)`.
type LoraSegments = (Range<usize>, Range<usize>, Range<usize>, Range<usize>);

/// Index ranges of each parameter segment in the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segments {
    tok_emb: Range<usize>,
    task_emb: Range<usize>,
    w1: Range<usize>,
    b1: Range<usize>,
    w2: Range<usize>,
    b2: Range<usize>,
    /// `(a1, b1l, a2, b2l)` when LoRA is enabled: `W1 += s·A1·B1`,
    /// `W2 += s·A2·B2`.
    lora: Option<LoraSegments>,
}

impl Segments {
    /// The layout of a model with configuration `cfg`: the segments in
    /// order, back to back from index 0. `None` when the parameter count
    /// overflows `usize`.
    fn new(cfg: &LmConfig) -> Option<Segments> {
        let v = cfg.vocab_size;
        let h = cfg.hidden;
        let input = cfg
            .context
            .checked_mul(cfg.token_dim)?
            .checked_add(cfg.task_dim)?;
        let mut offset = 0usize;
        let mut range = |rows: usize, cols: usize| {
            let start = offset;
            offset = offset.checked_add(rows.checked_mul(cols)?)?;
            Some(start..offset)
        };
        Some(Segments {
            tok_emb: range(v, cfg.token_dim)?,
            task_emb: range(cfg.num_tasks, cfg.task_dim)?,
            w1: range(h, input)?,
            b1: range(h, 1)?,
            w2: range(v, h)?,
            b2: range(v, 1)?,
            lora: match cfg.adapt {
                AdaptMode::Full => None,
                AdaptMode::Lora { rank } => Some((
                    range(h, rank)?,
                    range(rank, input)?,
                    range(v, rank)?,
                    range(rank, h)?,
                )),
            },
        })
    }

    /// Total parameter count: the end of the last segment.
    fn len(&self) -> usize {
        self.lora
            .as_ref()
            .map_or(self.b2.end, |(_, _, _, b2l)| b2l.end)
    }
}

/// A conditional n-gram MLP language model.
///
/// `P(next | task, last k tokens) = softmax(W2 · tanh(W1 · x + b1) + b2)`
/// where `x` concatenates a learned task embedding with the embeddings of
/// the last `k` tokens. See the crate docs for why this stands in for the
/// paper's Llama2-7B.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use tinylm::{AdaptMode, CondLm, LmConfig, SampleOptions};
///
/// let cfg = LmConfig {
///     vocab_size: 16,
///     num_tasks: 2,
///     adapt: AdaptMode::Lora { rank: 2 },
///     ..LmConfig::default()
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let model = CondLm::new(cfg, &mut rng);
/// let response = model.sample(0, &mut rng, SampleOptions::default())?;
/// let lp = model.log_prob(0, &response)?;
/// assert!(lp <= 0.0);
/// # Ok::<(), tinylm::LmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CondLm {
    cfg: LmConfig,
    params: Vec<f32>,
    seg: Segments,
}

impl CondLm {
    /// Initializes a model with small random weights (LoRA `B` matrices
    /// start at zero, so the adapter's initial delta is zero).
    pub fn new(cfg: LmConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.vocab_size > 2, "vocabulary must include specials");
        assert!(cfg.num_tasks > 0, "at least one task required");
        let input = cfg.input_dim();
        let h = cfg.hidden;
        let Some(seg) = Segments::new(&cfg) else {
            panic!("parameter count overflows usize");
        };

        let mut params = vec![0.0f32; seg.len()];
        let init = |slice: &mut [f32], scale: f32, rng: &mut dyn rand::RngCore| {
            for p in slice {
                *p = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        };
        init(&mut params[seg.tok_emb.clone()], 0.5, rng);
        init(&mut params[seg.task_emb.clone()], 0.5, rng);
        init(
            &mut params[seg.w1.clone()],
            1.0 / (input as f32).sqrt(),
            rng,
        );
        init(&mut params[seg.w2.clone()], 1.0 / (h as f32).sqrt(), rng);
        if let Some((a1, _b1l, a2, _b2l)) = &seg.lora {
            init(&mut params[a1.clone()], 0.02, rng);
            init(&mut params[a2.clone()], 0.02, rng);
            // B matrices stay zero: initial adapter delta is zero.
        }
        CondLm { cfg, params, seg }
    }

    /// The model's configuration.
    pub fn config(&self) -> &LmConfig {
        &self.cfg
    }

    /// The flat parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable access for optimizers.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The parameters fine-tuning may update, as one range of
    /// [`CondLm::params`]: everything under [`AdaptMode::Full`], the
    /// adapter matrices (which sit last) under LoRA. [`GradBuffer`]s and
    /// optimizers cover exactly this segment.
    pub fn trainable(&self) -> Range<usize> {
        match &self.seg.lora {
            Some((a1, _, _, b2l)) => a1.start..b2l.end,
            None => 0..self.params.len(),
        }
    }

    /// Number of trainable parameters.
    pub fn num_trainable(&self) -> usize {
        self.trainable().len()
    }

    fn tok_row(&self, t: Token) -> &[f32] {
        let d = self.cfg.token_dim;
        let base = self.seg.tok_emb.start + t as usize * d;
        &self.params[base..base + d]
    }

    fn task_row(&self, task: usize) -> &[f32] {
        let d = self.cfg.task_dim;
        let base = self.seg.task_emb.start + task * d;
        &self.params[base..base + d]
    }

    fn check_task(&self, task: usize) -> Result<(), LmError> {
        if task >= self.cfg.num_tasks {
            return Err(LmError::TaskOutOfRange(task));
        }
        Ok(())
    }

    fn check_tokens(&self, tokens: &[Token]) -> Result<(), LmError> {
        for &t in tokens {
            if t as usize >= self.cfg.vocab_size {
                return Err(LmError::TokenOutOfRange(t));
            }
        }
        Ok(())
    }

    /// Effective weight `base + s·A·B` of a `rows×cols` matrix; the base
    /// itself when there are no adapters.
    fn w_eff(
        &self,
        base: &Range<usize>,
        lora: Option<(&Range<usize>, &Range<usize>)>,
        rows: usize,
        cols: usize,
    ) -> Cow<'_, [f32]> {
        let base = &self.params[base.clone()];
        let (Some((a, b)), AdaptMode::Lora { rank }) = (lora, self.cfg.adapt) else {
            return Cow::Borrowed(base);
        };
        let mut w = base.to_vec();
        merge_lora(
            &mut w,
            &self.params[a.clone()],
            &self.params[b.clone()],
            rows,
            cols,
            rank,
            self.cfg.lora_scale,
        );
        Cow::Owned(w)
    }

    /// The model with its LoRA adapters merged into `W1` and `W2` and
    /// both packed for the forward kernel, once, for tape-free scoring
    /// and sampling. Build one per model version and reuse it: every
    /// call on it skips the merge and the packing.
    pub fn merged(&self) -> Merged<'_> {
        let (cfg, seg) = (&self.cfg, &self.seg);
        let (input, h, v) = (cfg.input_dim(), cfg.hidden, cfg.vocab_size);
        let lora1 = seg.lora.as_ref().map(|(a1, b1l, _, _)| (a1, b1l));
        let lora2 = seg.lora.as_ref().map(|(_, _, a2, b2l)| (a2, b2l));
        Merged {
            lm: self,
            w1: Packed::new(&self.w_eff(&seg.w1, lora1, h, input), h, input),
            w2: Packed::new(&self.w_eff(&seg.w2, lora2, v, h), v, h),
        }
    }

    /// Tape-free next-token log-probabilities given a task and the last
    /// `context` tokens (`ctx.len() == context`). Merges the adapters for
    /// this one call; see [`CondLm::merged`] to merge once for many.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.len() != config().context`.
    pub fn next_log_probs(&self, task: usize, ctx: &[Token]) -> Result<Vec<f32>, LmError> {
        self.merged().next_log_probs(task, ctx)
    }

    /// The padded context windows and targets for scoring a response:
    /// predict `response[0]`, …, `response[n-1]`, then `EOS`. Returns the
    /// `n · context` packed window token ids and the `n` targets.
    fn windows(&self, response: &[Token]) -> (Vec<usize>, Vec<usize>) {
        let k = self.cfg.context;
        let n = response.len() + 1;
        let mut padded = vec![BOS; k];
        padded.extend_from_slice(response);
        padded.push(EOS);
        let mut indices = Vec::with_capacity(n * k);
        let mut targets = Vec::with_capacity(n);
        for t in 0..n {
            indices.extend(padded[t..t + k].iter().map(|&tok| tok as usize));
            targets.push(padded[t + k] as usize);
        }
        (indices, targets)
    }

    /// [`CondLm::windows`] as one `(context, target)` pair per position.
    #[cfg(test)]
    fn positions(&self, response: &[Token]) -> Vec<ScoredPosition> {
        let (indices, targets) = self.windows(response);
        indices
            .chunks(self.cfg.context)
            .zip(targets)
            .map(|(ctx, t)| (ctx.iter().map(|&i| i as Token).collect(), t as Token))
            .collect()
    }

    /// Exact sequence log-likelihood
    /// `log P(response, EOS | task) = Σ_t log P(y_t | task, ctx_t)`.
    /// Merges the adapters for this one call; see [`CondLm::merged`].
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn log_prob(&self, task: usize, response: &[Token]) -> Result<f32, LmError> {
        self.merged().log_prob(task, response)
    }

    /// Sequence log-likelihood and its gradient with respect to the
    /// trainable parameters ([`CondLm::trainable`]).
    ///
    /// Uses this thread's shared [`SeqWorkspace`], so repeated calls
    /// recycle tape and gradient buffers automatically.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn log_prob_grad(
        &self,
        task: usize,
        response: &[Token],
    ) -> Result<(f32, GradBuffer), LmError> {
        SeqWorkspace::with_shared(|ws| self.log_prob_grad_in(task, response, ws))
    }

    /// [`CondLm::log_prob_grad`] into an explicit workspace.
    ///
    /// The whole sequence is evaluated through the sequence-batched tape
    /// ops ([`Tape::matmul`], [`Tape::bias_log_softmax`], …): one tape
    /// node per layer instead of one per layer *per position*, with
    /// buffers recycled across calls. Values and gradients are
    /// bit-identical to the per-position graph — each batched op keeps
    /// the per-output accumulation order of its unbatched counterpart
    /// (see the op docs in [`crate::tape`] and the
    /// `batched_grad_is_bitwise_equal_to_reference` property test).
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn log_prob_grad_in(
        &self,
        task: usize,
        response: &[Token],
        ws: &mut SeqWorkspace,
    ) -> Result<(f32, GradBuffer), LmError> {
        ws.reset();
        let graph = self.seq_forward_in(task, response, ws)?;
        let grad = self.seq_grad_in(&graph, ws);
        Ok((graph.value, grad))
    }

    /// Builds the batched forward graph for one sequence on the
    /// workspace tape and returns its handles. Several graphs may share
    /// one tape (e.g. a DPO pair's winner and loser); call
    /// [`SeqWorkspace::reset`] before the first of a round. Splitting
    /// forward from [`CondLm::seq_grad_in`] lets callers time the two
    /// phases separately.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn seq_forward_in(
        &self,
        task: usize,
        response: &[Token],
        ws: &mut SeqWorkspace,
    ) -> Result<SeqGraph, LmError> {
        self.check_task(task)?;
        self.check_tokens(response)?;
        let cfg = &self.cfg;
        let input = cfg.input_dim();
        let h = cfg.hidden;
        let v = cfg.vocab_size;
        let k = cfg.context;
        let n = response.len() + 1;
        let (indices, targets) = self.windows(response);

        let tape = &mut ws.tape;
        // Shared parameter nodes. Under LoRA the base is frozen, so it
        // goes on the tape as constants and backward never differentiates
        // it: W1's whole backward, W2's matrix gradient, both bias
        // gradients and the embedding scatter drop out.
        let frozen = self.seg.lora.is_some();
        let mut base = |val: &[f32]| {
            if frozen {
                tape.constant_from(val)
            } else {
                tape.leaf_from(val)
            }
        };
        let w1 = base(&self.params[self.seg.w1.clone()]);
        let b1 = base(&self.params[self.seg.b1.clone()]);
        let w2 = base(&self.params[self.seg.w2.clone()]);
        let b2 = base(&self.params[self.seg.b2.clone()]);
        let task_leaf = base(self.task_row(task));
        let tok_table = base(&self.params[self.seg.tok_emb.clone()]);
        let lora_leaves = self.seg.lora.as_ref().map(|(a1, b1l, a2, b2l)| {
            (
                tape.leaf_from(&self.params[a1.clone()]),
                tape.leaf_from(&self.params[b1l.clone()]),
                tape.leaf_from(&self.params[a2.clone()]),
                tape.leaf_from(&self.params[b2l.clone()]),
            )
        });
        let rank = match cfg.adapt {
            AdaptMode::Lora { rank } => rank,
            AdaptMode::Full => 0,
        };

        let x = tape.pack_inputs(task_leaf, tok_table, cfg.token_dim, k, indices);
        let mut pre = tape.matmul(w1, h, input, x, n);
        if let Some((a1, b1l, _, _)) = lora_leaves {
            let bx = tape.matmul(b1l, rank, input, x, n);
            let abx = tape.matmul(a1, h, rank, bx, n);
            let scaled = tape.scale(abx, cfg.lora_scale);
            pre = tape.add(pre, scaled);
        }
        let pre_b = tape.broadcast_add(pre, b1, n);
        let hid = tape.tanh(pre_b);
        let mut logits = tape.matmul(w2, v, h, hid, n);
        if let Some((_, _, a2, b2l)) = lora_leaves {
            let bh = tape.matmul(b2l, rank, h, hid, n);
            let abh = tape.matmul(a2, v, rank, bh, n);
            let scaled = tape.scale(abh, cfg.lora_scale);
            logits = tape.add(logits, scaled);
        }
        let ls = tape.bias_log_softmax(logits, b2, n);
        let root = tape.gather_sum(ls, v, targets);
        let value = tape.scalar(root);

        if obskit::enabled() {
            obskit::counter_add("tape.nodes", tape.len() as u64);
        }
        Ok(SeqGraph {
            value,
            root,
            w1,
            b1,
            w2,
            b2,
            task,
            task_leaf,
            tok_table,
            lora: lora_leaves,
        })
    }

    /// Backpropagates through a graph built by [`CondLm::seq_forward_in`]
    /// and scatters the trainable leaves' gradients into a
    /// [`GradBuffer`].
    ///
    /// # Panics
    ///
    /// Panics if `graph` did not come from this workspace's tape.
    pub fn seq_grad_in(&self, graph: &SeqGraph, ws: &mut SeqWorkspace) -> GradBuffer {
        let reuses_before = ws.arena.reuses();
        ws.tape.backward_into(graph.root, &mut ws.arena);
        if obskit::enabled() {
            obskit::counter_add("tape.grad_buffer_reuses", ws.arena.reuses() - reuses_before);
        }

        // Scatter into the trainable segment, whose offset is `start`.
        let arena = &ws.arena;
        let start = self.trainable().start;
        let mut grad = vec![0.0f32; self.num_trainable()];
        let mut put = |range: &Range<usize>, leaf| {
            grad[range.start - start..range.end - start].copy_from_slice(arena.grad(leaf));
        };
        match (&self.seg.lora, graph.lora) {
            (Some((a1r, b1r, a2r, b2r)), Some((a1, b1l, a2, b2l))) => {
                put(a1r, a1);
                put(b1r, b1l);
                put(a2r, a2);
                put(b2r, b2l);
            }
            _ => {
                put(&self.seg.w1, graph.w1);
                put(&self.seg.b1, graph.b1);
                put(&self.seg.w2, graph.w2);
                put(&self.seg.b2, graph.b2);
                put(&self.seg.tok_emb, graph.tok_table);
                let base = self.seg.task_emb.start + graph.task * self.cfg.task_dim;
                put(&(base..base + self.cfg.task_dim), graph.task_leaf);
            }
        }
        GradBuffer(grad)
    }

    /// The original per-position tape graph, kept as the bit-exactness
    /// oracle for the batched path. Every parameter is a gradient-carrying
    /// leaf here, whatever the [`AdaptMode`], and the gradient covers the
    /// full parameter vector: its `trainable()` slice is what the batched
    /// path must reproduce.
    // The position walk always visits at least the EOS slot, so `total`
    // is `Some` by construction; a panic here is a bug in this method.
    #[cfg(test)]
    fn log_prob_grad_reference(
        &self,
        task: usize,
        response: &[Token],
    ) -> Result<(f32, GradBuffer), LmError> {
        self.check_task(task)?;
        self.check_tokens(response)?;
        let cfg = &self.cfg;
        let input = cfg.input_dim();
        let h = cfg.hidden;
        let v = cfg.vocab_size;

        let mut tape = Tape::new();
        // Shared parameter leaves.
        let w1 = tape.leaf(self.params[self.seg.w1.clone()].to_vec());
        let b1 = tape.leaf(self.params[self.seg.b1.clone()].to_vec());
        let w2 = tape.leaf(self.params[self.seg.w2.clone()].to_vec());
        let b2 = tape.leaf(self.params[self.seg.b2.clone()].to_vec());
        let task_leaf = tape.leaf(self.task_row(task).to_vec());
        let lora_leaves = self.seg.lora.as_ref().map(|(a1, b1l, a2, b2l)| {
            (
                tape.leaf(self.params[a1.clone()].to_vec()),
                tape.leaf(self.params[b1l.clone()].to_vec()),
                tape.leaf(self.params[a2.clone()].to_vec()),
                tape.leaf(self.params[b2l.clone()].to_vec()),
            )
        });
        let rank = match cfg.adapt {
            AdaptMode::Lora { rank } => rank,
            AdaptMode::Full => 0,
        };

        // One embedding leaf per (position, slot); grads scatter back.
        let positions = self.positions(response);
        let mut emb_leaves: Vec<(Token, crate::tape::VarId)> = Vec::new();
        let mut total: Option<crate::tape::VarId> = None;
        for (ctx, target) in &positions {
            let mut parts = vec![task_leaf];
            for &t in ctx {
                let leaf = tape.leaf(self.tok_row(t).to_vec());
                emb_leaves.push((t, leaf));
                parts.push(leaf);
            }
            let x = tape.concat(&parts);
            let mut pre = tape.matvec(w1, h, input, x);
            if let Some((a1, b1l, _, _)) = lora_leaves {
                let bx = tape.matvec(b1l, rank, input, x);
                let abx = tape.matvec(a1, h, rank, bx);
                let scaled = tape.scale(abx, cfg.lora_scale);
                pre = tape.add(pre, scaled);
            }
            let pre_b = tape.add(pre, b1);
            let hid = tape.tanh(pre_b);
            let mut logits = tape.matvec(w2, v, h, hid);
            if let Some((_, _, a2, b2l)) = lora_leaves {
                let bh = tape.matvec(b2l, rank, h, hid);
                let abh = tape.matvec(a2, v, rank, bh);
                let scaled = tape.scale(abh, cfg.lora_scale);
                logits = tape.add(logits, scaled);
            }
            let logits_b = tape.add(logits, b2);
            let ls = tape.log_softmax(logits_b);
            let picked = tape.index(ls, *target as usize);
            total = Some(match total {
                None => picked,
                Some(acc) => tape.add(acc, picked),
            });
        }
        let root = total.expect("at least the EOS position exists");
        let value = tape.scalar(root);
        let node_grads = tape.backward(root);

        // Scatter into the flat layout.
        let mut grad = vec![0.0f32; self.params.len()];
        grad[self.seg.w1.clone()].copy_from_slice(&node_grads[w1.index()]);
        grad[self.seg.b1.clone()].copy_from_slice(&node_grads[b1.index()]);
        grad[self.seg.w2.clone()].copy_from_slice(&node_grads[w2.index()]);
        grad[self.seg.b2.clone()].copy_from_slice(&node_grads[b2.index()]);
        {
            let d = cfg.task_dim;
            let base = self.seg.task_emb.start + task * d;
            for (i, g) in node_grads[task_leaf.index()].iter().enumerate() {
                grad[base + i] += g;
            }
        }
        for (t, leaf) in emb_leaves {
            let d = cfg.token_dim;
            let base = self.seg.tok_emb.start + t as usize * d;
            for (i, g) in node_grads[leaf.index()].iter().enumerate() {
                grad[base + i] += g;
            }
        }
        if let (Some((a1r, b1r, a2r, b2r)), Some((a1, b1l, a2, b2l))) =
            (self.seg.lora.clone(), lora_leaves)
        {
            grad[a1r].copy_from_slice(&node_grads[a1.index()]);
            grad[b1r].copy_from_slice(&node_grads[b1l.index()]);
            grad[a2r].copy_from_slice(&node_grads[a2.index()]);
            grad[b2r].copy_from_slice(&node_grads[b2l.index()]);
        }
        Ok((value, GradBuffer(grad)))
    }

    /// Perplexity of the model on a corpus of `(task, response)` pairs:
    /// `exp(−Σ log P / Σ tokens)` (the `EOS` position counts).
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn perplexity(&self, corpus: &[(usize, Vec<Token>)]) -> Result<f64, LmError> {
        let merged = self.merged();
        let mut log_sum = 0.0f64;
        let mut tokens = 0usize;
        for (task, response) in corpus {
            log_sum += f64::from(merged.log_prob(*task, response)?);
            tokens += response.len() + 1;
        }
        if tokens == 0 {
            return Ok(1.0);
        }
        Ok((-log_sum / tokens as f64).exp())
    }

    /// Returns a copy of this model under a different [`AdaptMode`],
    /// preserving the base weights and embeddings.
    ///
    /// The standard workflow pretrains with [`AdaptMode::Full`], then
    /// converts to LoRA for fine-tuning: the base becomes frozen and
    /// fresh adapters (initial delta zero) become the trainable set, so
    /// the converted model's distribution is identical to the original's.
    pub fn convert_adapt(&self, adapt: AdaptMode, rng: &mut impl Rng) -> CondLm {
        let cfg = LmConfig { adapt, ..self.cfg };
        let mut out = CondLm::new(cfg, rng);
        // Shared segments (everything up to the LoRA block) have identical
        // layout in both models.
        let shared = self.seg.b2.end;
        out.params[..shared].copy_from_slice(&self.params[..shared]);
        out
    }

    /// Samples a response autoregressively until `EOS` or `max_len`.
    /// Merges the adapters once for the whole response; see
    /// [`CondLm::merged`] to merge once for many responses.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TaskOutOfRange`] for an unknown task.
    pub fn sample(
        &self,
        task: usize,
        rng: &mut impl Rng,
        options: SampleOptions,
    ) -> Result<Vec<Token>, LmError> {
        self.merged().sample(task, rng, options)
    }
}

/// A [`CondLm`] with its LoRA adapters merged into the effective `W1` and
/// `W2`, which it owns packed for the forward kernel (see
/// [`CondLm::merged`]). Scoring and sampling through it compute exactly
/// what the model's own methods compute, bit for bit; they just skip the
/// merge and the packing.
#[derive(Debug, Clone)]
pub struct Merged<'a> {
    lm: &'a CondLm,
    w1: Packed,
    w2: Packed,
}

impl Merged<'_> {
    /// Next-token log-probabilities given a task and the last `context`
    /// tokens (`ctx.len() == context`).
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.len() != config().context`.
    pub fn next_log_probs(&self, task: usize, ctx: &[Token]) -> Result<Vec<f32>, LmError> {
        self.lm.check_task(task)?;
        self.lm.check_tokens(ctx)?;
        assert_eq!(ctx.len(), self.lm.cfg.context, "context length mismatch");
        let indices: Vec<usize> = ctx.iter().map(|&t| t as usize).collect();
        Ok(self.log_softmax_rows(task, &indices))
    }

    /// Exact sequence log-likelihood
    /// `log P(response, EOS | task) = Σ_t log P(y_t | task, ctx_t)`,
    /// every position in one batched pass.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn log_prob(&self, task: usize, response: &[Token]) -> Result<f32, LmError> {
        self.lm.check_task(task)?;
        self.lm.check_tokens(response)?;
        let (indices, targets) = self.lm.windows(response);
        let v = self.lm.cfg.vocab_size;
        let lp = self.log_softmax_rows(task, &indices);
        let mut total = 0.0;
        for (row, t) in lp.chunks(v).zip(targets) {
            total += row[t];
        }
        Ok(total)
    }

    /// Samples a response autoregressively until `EOS` or `max_len`.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::TaskOutOfRange`] for an unknown task.
    pub fn sample(
        &self,
        task: usize,
        rng: &mut impl Rng,
        options: SampleOptions,
    ) -> Result<Vec<Token>, LmError> {
        self.lm.check_task(task)?;
        let mut ctx = vec![BOS as usize; self.lm.cfg.context];
        let mut out = Vec::new();
        for _ in 0..options.max_len {
            let lp = self.log_softmax_rows(task, &ctx);
            let next = sample_from_log_probs(&lp, options, rng);
            if next == EOS {
                break;
            }
            out.push(next);
            ctx.rotate_left(1);
            let last = ctx.len() - 1;
            ctx[last] = next as usize;
        }
        Ok(out)
    }

    /// `log_softmax(W2 · tanh(W1 · x_p + b1) + b2)` for each position `p`
    /// whose `context` token ids `windows` packs, one `vocab`-wide row
    /// each. Ids must be validated by the caller.
    ///
    /// Both layers run through [`kernels::matmul_forward`] on the packed
    /// weights, which folds each output on its own, left to right from
    /// `+0.0`, and the fused bias + log-softmax is the tape's own kernel.
    /// So a row's bits do not depend on how many positions share the
    /// call.
    fn log_softmax_rows(&self, task: usize, windows: &[usize]) -> Vec<f32> {
        let lm = self.lm;
        let cfg = &lm.cfg;
        let (input, h, v) = (cfg.input_dim(), cfg.hidden, cfg.vocab_size);
        let n = windows.len() / cfg.context;
        let mut x = Vec::with_capacity(n * input);
        for ctx in windows.chunks(cfg.context) {
            x.extend_from_slice(lm.task_row(task));
            for &t in ctx {
                x.extend_from_slice(lm.tok_row(t as Token));
            }
        }
        let mut hid = vec![0.0f32; n * h];
        kernels::matmul_forward(&mut hid, &self.w1, &x, n);
        let b1 = &lm.params[lm.seg.b1.clone()];
        for row in hid.chunks_mut(h) {
            kernels::add_assign(row, b1);
        }
        kernels::tanh(&mut hid);
        let mut logits = vec![0.0f32; n * v];
        kernels::matmul_forward(&mut logits, &self.w2, &hid, n);
        let mut out = vec![0.0f32; n * v];
        let b2 = &lm.params[lm.seg.b2.clone()];
        kernels::bias_log_softmax_forward(&mut out, &logits, b2, n);
        out
    }
}

// The artifact encoding of a model: `{"cfg", "params", "seg"}`, with
// `adapt` as `"Full"` or `{"Lora": {"rank": k}}`. It lives here because
// the fields are private; `from_json` validates what `new` would assert.

impl ToJson for AdaptMode {
    fn to_json(&self) -> Value {
        match self {
            AdaptMode::Full => Value::Str("Full".to_owned()),
            AdaptMode::Lora { rank } => {
                Value::obj([("Lora", Value::obj([("rank", rank.to_json())]))])
            }
        }
    }
}

impl FromJson for AdaptMode {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        match v.as_str() {
            Some("Full") => Ok(AdaptMode::Full),
            Some(other) => Err(DecodeError(format!("unknown adapt mode `{other}`"))),
            None => Ok(AdaptMode::Lora {
                rank: v.field("Lora")?.field_as("rank")?,
            }),
        }
    }
}

obskit::json_struct!(
    LmConfig,
    [vocab_size, num_tasks, token_dim, task_dim, context, hidden, adapt, lora_scale]
);

impl ToJson for Segments {
    fn to_json(&self) -> Value {
        let lora = self
            .lora
            .as_ref()
            .map_or(Value::Null, |(a1, b1l, a2, b2l)| {
                Value::Arr(vec![
                    a1.to_json(),
                    b1l.to_json(),
                    a2.to_json(),
                    b2l.to_json(),
                ])
            });
        Value::obj([
            ("tok_emb", self.tok_emb.to_json()),
            ("task_emb", self.task_emb.to_json()),
            ("w1", self.w1.to_json()),
            ("b1", self.b1.to_json()),
            ("w2", self.w2.to_json()),
            ("b2", self.b2.to_json()),
            ("lora", lora),
        ])
    }
}

impl ToJson for CondLm {
    fn to_json(&self) -> Value {
        Value::obj([
            ("cfg", self.cfg.to_json()),
            ("params", self.params.to_json()),
            ("seg", self.seg.to_json()),
        ])
    }
}

/// Accepts only a model [`CondLm::new`] could have built: a
/// configuration that passes its checks, the segment layout that
/// configuration implies, and exactly that many parameters.
impl FromJson for CondLm {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let cfg: LmConfig = v.field_as("cfg")?;
        let seg = Segments::new(&cfg)
            .filter(|_| cfg.vocab_size > 2 && cfg.num_tasks > 0)
            .ok_or_else(|| DecodeError("cfg: not a configuration `new` accepts".to_owned()))?;
        if v.field("seg")? != &seg.to_json() {
            return Err(DecodeError("seg: not the layout cfg implies".to_owned()));
        }
        let params: Vec<f32> = v.field_as("params")?;
        if params.len() != seg.len() {
            return Err(DecodeError(format!(
                "params: expected {} values, found {}",
                seg.len(),
                params.len()
            )));
        }
        Ok(CondLm { cfg, params, seg })
    }
}

/// Samples an index from tempered log-probabilities.
fn sample_from_log_probs(log_probs: &[f32], options: SampleOptions, rng: &mut impl Rng) -> Token {
    let temp = options.temperature.max(1e-4);
    let scaled: Vec<f32> = log_probs.iter().map(|&l| l / temp).collect();
    let max = scaled.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f32> = scaled.iter().map(|&l| (l - max).exp()).collect();
    let total: f32 = weights.iter().sum();
    let mut draw = rng.gen::<f32>() * total;
    for (i, w) in weights.iter().enumerate() {
        draw -= w;
        if *w > 0.0 && draw <= 0.0 {
            return i as Token;
        }
    }
    // Fall back to the most likely token.
    weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as Token)
        .unwrap_or(EOS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg(adapt: AdaptMode) -> LmConfig {
        LmConfig {
            vocab_size: 10,
            num_tasks: 3,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 6,
            adapt,
            lora_scale: 1.0,
        }
    }

    fn model(adapt: AdaptMode, seed: u64) -> CondLm {
        let mut rng = StdRng::seed_from_u64(seed);
        CondLm::new(tiny_cfg(adapt), &mut rng)
    }

    #[test]
    fn log_probs_normalize() {
        let m = model(AdaptMode::Full, 1);
        let lp = m.next_log_probs(0, &[BOS, 3]).unwrap();
        let total: f32 = lp.iter().map(|l| l.exp()).sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sequence_log_prob_is_sum_of_positions() {
        let m = model(AdaptMode::Full, 2);
        let resp = vec![3, 4, 5];
        let manual: f32 = m
            .positions(&resp)
            .iter()
            .map(|(ctx, tgt)| m.next_log_probs(1, ctx).unwrap()[*tgt as usize])
            .sum();
        assert!((m.log_prob(1, &resp).unwrap() - manual).abs() < 1e-5);
    }

    #[test]
    fn grad_value_matches_fast_path() {
        for adapt in [AdaptMode::Full, AdaptMode::Lora { rank: 2 }] {
            let m = model(adapt, 3);
            let resp = vec![4, 7, 3, 3];
            let fast = m.log_prob(2, &resp).unwrap();
            let (taped, _) = m.log_prob_grad(2, &resp).unwrap();
            assert!((fast - taped).abs() < 1e-4, "{adapt:?}: {fast} vs {taped}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference_full() {
        let m = model(AdaptMode::Full, 4);
        let resp = vec![5, 2];
        let (_, grad) = m.log_prob_grad(0, &resp).unwrap();
        // Probe a handful of parameters across segments.
        let probes = [0usize, 11, 57, m.params().len() - 3];
        for &i in &probes {
            let h = 1e-2f32;
            let mut mp = m.clone();
            mp.params_mut()[i] += h;
            let mut mm = m.clone();
            mm.params_mut()[i] -= h;
            let num = (mp.log_prob(0, &resp).unwrap() - mm.log_prob(0, &resp).unwrap()) / (2.0 * h);
            assert!(
                (num - grad.0[i]).abs() < 3e-2,
                "param {i}: numeric {num} vs analytic {}",
                grad.0[i]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference_lora() {
        let m = model(AdaptMode::Lora { rank: 2 }, 5);
        let resp = vec![6, 8, 2];
        let (_, grad) = m.log_prob_grad(1, &resp).unwrap();
        let trainable = m.trainable();
        assert_eq!(grad.0.len(), trainable.len());
        // Probe trainable (LoRA) entries: the first of each adapter
        // matrix, and a few more.
        let Some((a1, b1l, a2, b2l)) = m.seg.lora.clone() else {
            panic!("lora model");
        };
        let idxs = [
            a1.start,
            a1.start + 1,
            b1l.start,
            b1l.start + 3,
            a2.start,
            b2l.end - 1,
        ];
        for i in idxs {
            let h = 1e-2f32;
            let mut mp = m.clone();
            mp.params_mut()[i] += h;
            let mut mm = m.clone();
            mm.params_mut()[i] -= h;
            let num = (mp.log_prob(1, &resp).unwrap() - mm.log_prob(1, &resp).unwrap()) / (2.0 * h);
            let ana = grad.0[i - trainable.start];
            assert!(
                (num - ana).abs() < 3e-2,
                "param {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Under LoRA the gradient covers exactly the adapters, which sit
    /// last, and an Adam step over that segment leaves every frozen
    /// parameter bit-identical while moving the adapters.
    #[test]
    fn lora_freezes_base_weights() {
        let mut m = perturbed_lora_model(6);
        let (_, grad) = m.log_prob_grad(0, &[3, 4]).unwrap();
        let trainable = m.trainable();
        let Some((a1, _, _, b2l)) = m.seg.lora.clone() else {
            panic!("lora model");
        };
        assert_eq!(trainable, a1.start..b2l.end);
        assert_eq!(trainable.end, m.params().len());
        assert!(m.num_trainable() > 0);
        assert!(m.num_trainable() < m.params().len());
        assert_eq!(grad.0.len(), m.num_trainable());
        assert!(grad.norm() > 0.0);

        let before = m.params().to_vec();
        let mut adam = crate::optim::Adam::new(0.01, trainable.len());
        adam.step(&mut m.params_mut()[trainable.clone()], &grad.0);
        for (i, (a, b)) in before.iter().zip(m.params()).enumerate() {
            if !trainable.contains(&i) {
                assert_eq!(a.to_bits(), b.to_bits(), "frozen param {i} moved");
            }
        }
        assert_ne!(&before[trainable.clone()], &m.params()[trainable]);
    }

    #[test]
    fn full_mode_trains_every_parameter() {
        let m = model(AdaptMode::Full, 6);
        assert_eq!(m.trainable(), 0..m.params().len());
        let (_, grad) = m.log_prob_grad(0, &[3, 4]).unwrap();
        assert_eq!(grad.0.len(), m.params().len());
    }

    #[test]
    fn lora_initial_delta_is_zero() {
        // With B initialized to zero, the LoRA model's distribution equals
        // a Full model with the same base weights... construct by copying.
        let m = model(AdaptMode::Lora { rank: 2 }, 7);
        // Effective weights equal base weights at init.
        let merged = m.merged();
        let (input, h, v) = (m.cfg.input_dim(), m.cfg.hidden, m.cfg.vocab_size);
        assert_eq!(
            merged.w1,
            Packed::new(&m.params[m.seg.w1.clone()], h, input)
        );
        assert_eq!(merged.w2, Packed::new(&m.params[m.seg.w2.clone()], v, h));
    }

    #[test]
    fn perplexity_positive_and_improves_with_fit() {
        let m = model(AdaptMode::Full, 17);
        let corpus = vec![(0usize, vec![3, 4, 5]), (1usize, vec![5, 4])];
        let ppl = m.perplexity(&corpus).unwrap();
        assert!(ppl > 1.0);
        // An untrained model is near-uniform: perplexity ≈ vocab size.
        assert!(ppl < 50.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_bounded() {
        let m = model(AdaptMode::Full, 8);
        let opts = SampleOptions {
            temperature: 1.2,
            max_len: 12,
        };
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let s1 = m.sample(0, &mut r1, opts).unwrap();
        let s2 = m.sample(0, &mut r2, opts).unwrap();
        assert_eq!(s1, s2);
        assert!(s1.len() <= 12);
        assert!(s1
            .iter()
            .all(|&t| (t as usize) < 10 && t != BOS && t != EOS));
    }

    #[test]
    fn errors_on_out_of_range() {
        let m = model(AdaptMode::Full, 9);
        assert!(matches!(
            m.log_prob(99, &[3]),
            Err(LmError::TaskOutOfRange(99))
        ));
        assert!(matches!(
            m.log_prob(0, &[99]),
            Err(LmError::TokenOutOfRange(99))
        ));
    }

    #[test]
    fn task_conditioning_changes_distribution() {
        let m = model(AdaptMode::Full, 10);
        let a = m.next_log_probs(0, &[BOS, BOS]).unwrap();
        let b = m.next_log_probs(1, &[BOS, BOS]).unwrap();
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-3, "tasks should induce different distributions");
    }

    #[test]
    fn convert_adapt_preserves_distribution() {
        let mut rng = StdRng::seed_from_u64(20);
        let full = CondLm::new(tiny_cfg(AdaptMode::Full), &mut rng);
        let lora = full.convert_adapt(AdaptMode::Lora { rank: 3 }, &mut rng);
        for task in 0..3 {
            let a = full.next_log_probs(task, &[BOS, 4]).unwrap();
            let b = lora.next_log_probs(task, &[BOS, 4]).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-5);
            }
        }
        // And the converted model trains only its adapters.
        assert!(lora.num_trainable() < lora.params().len());
    }

    /// Nonzero LoRA weights everywhere, so merge/gradient comparisons
    /// exercise the adapter path for real.
    fn perturbed_lora_model(seed: u64) -> CondLm {
        let mut m = model(AdaptMode::Lora { rank: 2 }, seed);
        for (i, p) in m.params_mut().iter_mut().enumerate() {
            *p += ((i as f32 * 0.619).sin()) * 0.05;
        }
        m
    }

    #[test]
    fn merge_lora_matches_naive_triple_loop() {
        let m = perturbed_lora_model(30);
        let Some((a1, b1l, _, _)) = &m.seg.lora else {
            panic!("lora model");
        };
        let rank = 2;
        let input = m.cfg.input_dim();
        let h = m.cfg.hidden;
        let a = &m.params[a1.clone()];
        let b = &m.params[b1l.clone()];
        let mut naive = m.params[m.seg.w1.clone()].to_vec();
        for r in 0..h {
            for c in 0..input {
                let mut dot = 0.0;
                for k in 0..rank {
                    dot += a[r * rank + k] * b[k * input + c];
                }
                naive[r * input + c] += m.cfg.lora_scale * dot;
            }
        }
        assert_eq!(
            m.merged().w1,
            Packed::new(&naive, h, input),
            "blocked merge must be bit-identical"
        );
    }

    /// `Merged::log_prob` runs every position through one batched pass;
    /// it must equal the per-position `next_log_probs` sum bit for bit,
    /// on a LoRA model whose `B` matrices are non-zero.
    #[test]
    fn merged_log_prob_equals_per_position_sum() {
        let m = perturbed_lora_model(31);
        let merged = m.merged();
        for (task, resp) in [
            (1, vec![3, 7, 1, 4]),
            (0, vec![]),
            (2, vec![9, 9, 2, 5, 5, 6, 1]),
        ] {
            let manual: f32 = m
                .positions(&resp)
                .iter()
                .map(|(ctx, tgt)| m.next_log_probs(task, ctx).unwrap()[*tgt as usize])
                .sum();
            let batched = merged.log_prob(task, &resp).unwrap();
            assert_eq!(batched.to_bits(), manual.to_bits(), "task {task} {resp:?}");
            assert_eq!(m.log_prob(task, &resp).unwrap().to_bits(), manual.to_bits());
        }
        assert!(matches!(
            merged.log_prob(5, &[3]),
            Err(LmError::TaskOutOfRange(5))
        ));
        assert!(matches!(
            merged.log_prob(0, &[10]),
            Err(LmError::TokenOutOfRange(10))
        ));
    }

    /// `Merged::sample` emits the tokens a per-token loop over
    /// `next_log_probs` draws from the same seeded RNG, on a LoRA model
    /// whose `B` matrices are non-zero.
    #[test]
    fn merged_sample_matches_per_token_loop() {
        let m = perturbed_lora_model(34);
        let merged = m.merged();
        let opts = SampleOptions {
            temperature: 1.3,
            max_len: 15,
        };
        for (task, seed) in [(0, 1u64), (1, 2), (2, 3), (1, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ctx = vec![BOS; m.cfg.context];
            let mut want = Vec::new();
            for _ in 0..opts.max_len {
                let lp = m.next_log_probs(task, &ctx).unwrap();
                let next = sample_from_log_probs(&lp, opts, &mut rng);
                if next == EOS {
                    break;
                }
                want.push(next);
                ctx.rotate_left(1);
                *ctx.last_mut().unwrap() = next;
            }
            let got = merged
                .sample(task, &mut StdRng::seed_from_u64(seed), opts)
                .unwrap();
            assert_eq!(got, want, "task {task} seed {seed}");
            let direct = m
                .sample(task, &mut StdRng::seed_from_u64(seed), opts)
                .unwrap();
            assert_eq!(direct, want);
        }
    }

    /// A model whose every weight matrix crosses the forward kernel's
    /// panel kinds: `vocab = 23` and `hidden = 13` rows give 8-row
    /// panels, a 4-row panel and scalar tail rows, and rank 6 gives the
    /// LoRA factors a 4-row panel and tail rows too.
    fn ragged_model(adapt: AdaptMode, seed: u64) -> CondLm {
        let cfg = LmConfig {
            vocab_size: 23,
            hidden: 13,
            ..tiny_cfg(adapt)
        };
        let mut m = CondLm::new(cfg, &mut StdRng::seed_from_u64(seed));
        for (i, p) in m.params_mut().iter_mut().enumerate() {
            *p += ((i as f32 * 0.377).sin()) * 0.05;
        }
        m
    }

    /// The scalar oracle of `Merged::log_prob`: row-major effective
    /// weights and one fold from `+0.0` per output.
    fn naive_log_prob(m: &CondLm, task: usize, response: &[Token]) -> f32 {
        let cfg = &m.cfg;
        let (input, h, v) = (cfg.input_dim(), cfg.hidden, cfg.vocab_size);
        let lora1 = m.seg.lora.as_ref().map(|(a1, b1l, _, _)| (a1, b1l));
        let lora2 = m.seg.lora.as_ref().map(|(_, _, a2, b2l)| (a2, b2l));
        let w1 = m.w_eff(&m.seg.w1, lora1, h, input);
        let w2 = m.w_eff(&m.seg.w2, lora2, v, h);
        let matvec = |w: &[f32], x: &[f32], rows: usize| -> Vec<f32> {
            (0..rows)
                .map(|r| {
                    let mut acc = 0.0f32;
                    for (c, &xc) in x.iter().enumerate() {
                        acc += w[r * x.len() + c] * xc;
                    }
                    acc
                })
                .collect()
        };
        let (b1, b2) = (&m.params[m.seg.b1.clone()], &m.params[m.seg.b2.clone()]);
        let mut total = 0.0f32;
        for (ctx, target) in m.positions(response) {
            let mut x = m.task_row(task).to_vec();
            for t in ctx {
                x.extend_from_slice(m.tok_row(t));
            }
            let hid: Vec<f32> = matvec(&w1, &x, h)
                .iter()
                .zip(b1)
                .map(|(o, b)| (o + b).tanh())
                .collect();
            let mut lp = vec![0.0f32; v];
            kernels::bias_log_softmax_forward(&mut lp, &matvec(&w2, &hid, v), b2, 1);
            total += lp[target as usize];
        }
        total
    }

    /// One `merged()` serves many calls with the bits of the per-call
    /// `CondLm::log_prob`/`sample` and of the scalar oracle, under both
    /// adapt modes and on shapes that run every panel kind.
    #[test]
    fn one_merged_matches_per_call_scoring_and_sampling() {
        for adapt in [AdaptMode::Full, AdaptMode::Lora { rank: 6 }] {
            let m = ragged_model(adapt, 41);
            let merged = m.merged();
            for (task, resp) in [
                (0, vec![]),
                (1, vec![3, 7, 1, 4]),
                (2, vec![9, 22, 2, 5, 5, 6, 1, 17, 3]),
            ] {
                let once = merged.log_prob(task, &resp).unwrap();
                assert_eq!(once.to_bits(), m.log_prob(task, &resp).unwrap().to_bits());
                assert_eq!(once.to_bits(), naive_log_prob(&m, task, &resp).to_bits());
            }
            let opts = SampleOptions {
                temperature: 1.5,
                max_len: 12,
            };
            for seed in 0..6u64 {
                let task = seed as usize % 3;
                let once = merged.sample(task, &mut StdRng::seed_from_u64(seed), opts);
                let per_call = m.sample(task, &mut StdRng::seed_from_u64(seed), opts);
                assert_eq!(once.unwrap(), per_call.unwrap(), "{adapt:?} seed {seed}");
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bit_exact() {
        let m = perturbed_lora_model(32);
        let mut ws = SeqWorkspace::new();
        for resp in [vec![3, 4, 5], vec![1], vec![7, 7, 2, 2, 6], vec![]] {
            let (v_ws, g_ws) = m.log_prob_grad_in(0, &resp, &mut ws).unwrap();
            let (v_fresh, g_fresh) = m
                .log_prob_grad_in(0, &resp, &mut SeqWorkspace::new())
                .unwrap();
            assert_eq!(v_ws.to_bits(), v_fresh.to_bits());
            assert_eq!(g_ws, g_fresh);
        }
    }

    /// Two graphs built on one tape (the DPO pair layout) must not
    /// disturb each other: the first graph's gradient is bit-identical
    /// whether or not a second graph was appended before backward.
    /// Regression test — `seq_forward_in` once reset the tape itself,
    /// silently aliasing the first graph's node ids into the second's.
    #[test]
    fn shared_tape_graphs_are_independent() {
        let m = perturbed_lora_model(33);
        let mut solo = SeqWorkspace::new();
        let g_solo = m.seq_forward_in(1, &[3, 4, 5], &mut solo).unwrap();
        let grad_solo = m.seq_grad_in(&g_solo, &mut solo);

        let mut dual = SeqWorkspace::new();
        let g_first = m.seq_forward_in(1, &[3, 4, 5], &mut dual).unwrap();
        let g_second = m.seq_forward_in(1, &[6, 7], &mut dual).unwrap();
        let grad_first = m.seq_grad_in(&g_first, &mut dual);
        let grad_second = m.seq_grad_in(&g_second, &mut dual);

        assert_eq!(g_solo.value().to_bits(), g_first.value().to_bits());
        assert_eq!(grad_solo, grad_first);

        let mut solo2 = SeqWorkspace::new();
        let g_solo2 = m.seq_forward_in(1, &[6, 7], &mut solo2).unwrap();
        let grad_solo2 = m.seq_grad_in(&g_solo2, &mut solo2);
        assert_eq!(g_solo2.value().to_bits(), g_second.value().to_bits());
        assert_eq!(grad_solo2, grad_second);
    }

    /// Under `AdaptMode::Full` every parameter is a gradient-carrying
    /// leaf, so every node of the sequence graph needs a gradient and
    /// nothing is skipped.
    #[test]
    fn full_graph_marks_every_node_as_needing_grad() {
        let m = model(AdaptMode::Full, 35);
        let mut ws = SeqWorkspace::new();
        m.seq_forward_in(1, &[3, 4, 5], &mut ws).unwrap();
        assert!(!ws.tape.is_empty());
        assert!(ws.tape.grad_flags().iter().all(|&needs| needs));
    }

    /// Under LoRA the base weights, embeddings and the nodes they alone
    /// feed (the packed input, `W1·x`) are constants: backward leaves
    /// their gradient buffers empty.
    #[test]
    fn lora_graph_keeps_the_base_constant() {
        let m = perturbed_lora_model(36);
        let mut ws = SeqWorkspace::new();
        let graph = m.seq_forward_in(1, &[3, 4, 5], &mut ws).unwrap();
        let tape = &ws.tape;
        for id in [
            graph.w1,
            graph.b1,
            graph.w2,
            graph.b2,
            graph.task_leaf,
            graph.tok_table,
        ] {
            assert!(!tape.needs_grad(id));
        }
        let Some((a1, b1l, a2, b2l)) = graph.lora else {
            panic!("lora graph");
        };
        for id in [a1, b1l, a2, b2l, graph.root] {
            assert!(tape.needs_grad(id));
        }
        // w1..tok_table, pack_inputs and W1·x are the constant nodes.
        let constant = tape.grad_flags().iter().filter(|&&needs| !needs).count();
        assert_eq!(constant, 8);
        m.seq_grad_in(&graph, &mut ws);
        for id in [
            graph.w1,
            graph.b1,
            graph.w2,
            graph.b2,
            graph.task_leaf,
            graph.tok_table,
        ] {
            assert!(ws.arena.grad(id).is_empty());
        }
    }

    /// At the headline's shapes every backward matmul takes a register
    /// pass: the rank-4 factors the narrow ones, and `gx` of `W2`
    /// (64-wide) and, under `Full`, of `W1` (68-wide input) the
    /// whole-row ones. The batched gradient keeps the per-position
    /// oracle's bits under both adapt modes. The oracle runs the same
    /// kernels one position at a time, so this pins the batching (the
    /// reverse position walk of every `gm`); the kernel proptests pin
    /// each pass against the naive loops.
    #[test]
    fn headline_shapes_grad_is_bitwise_equal_to_reference() {
        for adapt in [AdaptMode::Full, AdaptMode::Lora { rank: 4 }] {
            let cfg = LmConfig {
                vocab_size: 68,
                num_tasks: 3,
                token_dim: 12,
                task_dim: 8,
                context: 5,
                hidden: 64,
                adapt,
                lora_scale: 1.0,
            };
            assert_eq!(cfg.input_dim(), 68);
            let mut m = CondLm::new(cfg, &mut StdRng::seed_from_u64(11));
            // LoRA's `A` starts at zero; perturb so every factor carries
            // a gradient.
            for (i, p) in m.params_mut().iter_mut().enumerate() {
                *p += ((i as f32 * 0.377).sin()) * 0.05;
            }
            let resp: Vec<Token> = (0..13).map(|i| (i * 29 + 5) % 68).collect();
            let (v_new, g_new) = m.log_prob_grad(1, &resp).unwrap();
            let (v_ref, g_ref) = m.log_prob_grad_reference(1, &resp).unwrap();
            assert_eq!(v_new.to_bits(), v_ref.to_bits(), "{adapt:?}");
            let g_ref = &g_ref.0[m.trainable()];
            assert_eq!(g_new.0.len(), g_ref.len());
            for (i, (a, b)) in g_new.0.iter().zip(g_ref).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{adapt:?} grad[{i}]: {a} vs {b}");
            }
        }
    }

    proptest::proptest! {
        /// The batched sequence graph is bit-for-bit identical to the
        /// original per-position graph: same value bits, same gradient
        /// bits, for random sequences under both adapt modes. Under LoRA
        /// the batched graph holds the base as tape constants and the
        /// oracle holds it as leaves, so this also pins that skipping the
        /// frozen gradients leaves the adapters' bits alone.
        #[test]
        fn batched_grad_is_bitwise_equal_to_reference(
            resp in proptest::collection::vec(0u32..10, 0..8),
            task in 0usize..3,
            lora in 0usize..2,
            seed in 0u64..64,
        ) {
            let adapt = if lora == 1 { AdaptMode::Lora { rank: 2 } } else { AdaptMode::Full };
            let mut m = model(adapt, seed);
            for (i, p) in m.params_mut().iter_mut().enumerate() {
                *p += ((i as f32 * 0.377 + seed as f32).sin()) * 0.05;
            }
            let (v_new, g_new) = m.log_prob_grad(task, &resp).unwrap();
            let (v_ref, g_ref) = m.log_prob_grad_reference(task, &resp).unwrap();
            proptest::prop_assert_eq!(v_new.to_bits(), v_ref.to_bits());
            // The oracle differentiates every parameter; its trainable
            // slice is what the batched path computes.
            let g_ref = &g_ref.0[m.trainable()];
            proptest::prop_assert_eq!(g_new.0.len(), g_ref.len());
            for (i, (a, b)) in g_new.0.iter().zip(g_ref).enumerate() {
                proptest::prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "grad[{}] differs: {} vs {}", i, a, b
                );
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = model(AdaptMode::Lora { rank: 2 }, 11);
        let json = m.to_json().to_json();
        let back = CondLm::from_json(&obskit::json::parse(&json).unwrap()).unwrap();
        assert_eq!(m, back);
        assert_eq!(
            m.log_prob(0, &[3, 4]).unwrap(),
            back.log_prob(0, &[3, 4]).unwrap()
        );
    }

    /// Loading checks the stored model against the layout its config
    /// implies, so a damaged file is an error instead of a later
    /// out-of-bounds panic in `next_log_probs`.
    #[test]
    fn from_json_rejects_models_new_could_not_build() {
        let m = model(AdaptMode::Lora { rank: 2 }, 12);
        let load = |m: &CondLm| CondLm::from_json(&m.to_json());
        let mut broken = vec![m.clone(), m.clone()];
        broken[0].params.truncate(100);
        broken[1].seg.w1.end -= 1;
        let edits: [fn(&mut LmConfig); 5] = [
            |c| c.vocab_size = 2,
            |c| c.num_tasks = 0,
            |c| c.context += 1,
            |c| c.hidden = usize::MAX,
            |c| c.adapt = AdaptMode::Full,
        ];
        for edit in edits {
            let mut bad = m.clone();
            edit(&mut bad.cfg);
            broken.push(bad);
        }
        for bad in &broken {
            assert!(load(bad).is_err(), "{:?}", bad.cfg);
        }
    }
}
