use crate::tape::{dot, GradArena, Tape};
use crate::tokenizer::{Token, BOS, EOS};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Which parameters fine-tuning is allowed to update.
///
/// Mirrors the paper's Appendix E: full fine-tuning updates every weight;
/// LoRA holds each base matrix `W` constant and trains a low-rank product
/// `A·B` so that the effective weight is `W + A·B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Gradient of a scalar objective with respect to the model's full
/// parameter vector (same layout as [`CondLm::params`]; frozen entries are
/// zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradBuffer(pub Vec<f32>);

impl GradBuffer {
    /// An all-zero gradient for a model.
    pub fn zeros(model: &CondLm) -> Self {
        GradBuffer(vec![0.0; model.params().len()])
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
/// thread-local workspace automatically; hot loops that want explicit
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

    /// A fresh workspace whose tape is pinned to `mode` (the shared and
    /// default-constructed workspaces follow the process-global
    /// [`crate::kernels::mode`] instead). Used by tests that must not
    /// depend on — or race with — the global.
    pub fn with_mode(mode: crate::kernels::KernelMode) -> Self {
        SeqWorkspace {
            tape: Tape::with_mode(mode),
            arena: GradArena::default(),
        }
    }

    /// Runs `f` with this thread's shared workspace.
    pub fn with_tls<R>(f: impl FnOnce(&mut SeqWorkspace) -> R) -> R {
        thread_local! {
            static WS: RefCell<SeqWorkspace> = RefCell::new(SeqWorkspace::new());
        }
        WS.with(|ws| f(&mut ws.borrow_mut()))
    }

    /// Clears the tape for a new round of [`CondLm::seq_forward_in`]
    /// graphs (value and gradient buffers are recycled, not freed).
    pub fn reset(&mut self) {
        self.tape.reset();
    }
}

/// Handles into a sequence graph built by [`CondLm::seq_forward_in`]:
/// the sequence log-likelihood plus the leaf nodes
/// [`CondLm::seq_grad_in`] needs to scatter gradients back into the flat
/// parameter layout.
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleOptions {
    /// Softmax temperature (1.0 = untempered; higher = more diverse).
    pub temperature: f32,
    /// Hard cap on generated tokens (`EOS` not counted).
    pub max_len: usize,
    /// Keep only the `k` most likely tokens before sampling
    /// (`None` = no truncation).
    pub top_k: Option<usize>,
    /// Nucleus sampling: keep the smallest prefix of tokens whose
    /// cumulative probability reaches `p` (`None` = no truncation).
    pub top_p: Option<f32>,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            temperature: 1.0,
            max_len: 80,
            top_k: None,
            top_p: None,
        }
    }
}

/// One scoring position: the context window and the target token.
type ScoredPosition = (Vec<Token>, Token);

/// Parameter ranges of the four LoRA matrices `(A1, B1, A2, B2)`.
type LoraSegments = (Range<usize>, Range<usize>, Range<usize>, Range<usize>);

/// Byte ranges of each parameter segment in the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        let v = cfg.vocab_size;
        let input = cfg.input_dim();
        let h = cfg.hidden;

        let mut offset = 0usize;
        let mut range = |len: usize| {
            let r = offset..offset + len;
            offset += len;
            r
        };
        let tok_emb = range(v * cfg.token_dim);
        let task_emb = range(cfg.num_tasks * cfg.task_dim);
        let w1 = range(h * input);
        let b1 = range(h);
        let w2 = range(v * h);
        let b2 = range(v);
        let lora = match cfg.adapt {
            AdaptMode::Full => None,
            AdaptMode::Lora { rank } => {
                let a1 = range(h * rank);
                let b1l = range(rank * input);
                let a2 = range(v * rank);
                let b2l = range(rank * h);
                Some((a1, b1l, a2, b2l))
            }
        };
        let seg = Segments {
            tok_emb,
            task_emb,
            w1,
            b1,
            w2,
            b2,
            lora,
        };

        let mut params = vec![0.0f32; offset];
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

    /// `true` at positions fine-tuning may update. Under
    /// [`AdaptMode::Full`] every position is trainable; under LoRA only
    /// the adapter matrices are.
    pub fn trainable_mask(&self) -> Vec<bool> {
        let mut mask = vec![matches!(self.cfg.adapt, AdaptMode::Full); self.params.len()];
        if let Some((a1, b1l, a2, b2l)) = &self.seg.lora {
            for r in [a1, b1l, a2, b2l] {
                for m in &mut mask[r.clone()] {
                    *m = true;
                }
            }
        }
        mask
    }

    /// Number of trainable parameters.
    pub fn num_trainable(&self) -> usize {
        self.trainable_mask().iter().filter(|&&m| m).count()
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

    /// Effective `W1` (base plus LoRA delta), materialized.
    fn w1_eff(&self) -> Vec<f32> {
        let mut w = self.params[self.seg.w1.clone()].to_vec();
        if let Some((a1, b1l, _, _)) = &self.seg.lora {
            let AdaptMode::Lora { rank } = self.cfg.adapt else {
                unreachable!("lora segments imply lora mode");
            };
            merge_lora(
                &mut w,
                &self.params[a1.clone()],
                &self.params[b1l.clone()],
                self.cfg.hidden,
                self.cfg.input_dim(),
                rank,
                self.cfg.lora_scale,
            );
        }
        w
    }

    /// Effective `W2`.
    fn w2_eff(&self) -> Vec<f32> {
        let mut w = self.params[self.seg.w2.clone()].to_vec();
        if let Some((_, _, a2, b2l)) = &self.seg.lora {
            let AdaptMode::Lora { rank } = self.cfg.adapt else {
                unreachable!("lora segments imply lora mode");
            };
            merge_lora(
                &mut w,
                &self.params[a2.clone()],
                &self.params[b2l.clone()],
                self.cfg.vocab_size,
                self.cfg.hidden,
                rank,
                self.cfg.lora_scale,
            );
        }
        w
    }

    /// Fast (tape-free) next-token log-probabilities given a task and the
    /// last `context` tokens (`ctx.len() == context`).
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.len() != config().context`.
    pub fn next_log_probs(&self, task: usize, ctx: &[Token]) -> Result<Vec<f32>, LmError> {
        self.check_task(task)?;
        self.check_tokens(ctx)?;
        Ok(self.next_log_probs_merged(&self.w1_eff(), &self.w2_eff(), task, ctx))
    }

    /// [`CondLm::next_log_probs`] with the effective weights already
    /// merged — lets sequence scoring pay the LoRA merge once instead of
    /// once per position. Callers must have validated `task`/`ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.len() != config().context`.
    fn next_log_probs_merged(
        &self,
        w1: &[f32],
        w2: &[f32],
        task: usize,
        ctx: &[Token],
    ) -> Vec<f32> {
        assert_eq!(ctx.len(), self.cfg.context, "context length mismatch");
        let input = self.cfg.input_dim();
        let h = self.cfg.hidden;
        let v = self.cfg.vocab_size;

        let mut x = Vec::with_capacity(input);
        x.extend_from_slice(self.task_row(task));
        for &t in ctx {
            x.extend_from_slice(self.tok_row(t));
        }
        // Sampling is tape-free, so the mode is read per call from the
        // process global instead of a tape capture.
        let mode = crate::kernels::mode();
        let b1 = &self.params[self.seg.b1.clone()];
        let mut hid = vec![0.0f32; h];
        for (r, hid_r) in hid.iter_mut().enumerate() {
            let row = &w1[r * input..(r + 1) * input];
            *hid_r = (crate::kernels::dot_in(row, &x, mode) + b1[r]).tanh();
        }
        let b2 = &self.params[self.seg.b2.clone()];
        let mut logits = vec![0.0f32; v];
        for (r, logit) in logits.iter_mut().enumerate() {
            let row = &w2[r * h..(r + 1) * h];
            *logit = crate::kernels::dot_in(row, &hid, mode) + b2[r];
        }
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_z = max + logits.iter().map(|l| (l - max).exp()).sum::<f32>().ln();
        for l in &mut logits {
            *l -= log_z;
        }
        logits
    }

    /// Builds the padded context windows and targets for scoring a
    /// response: predict `response[0]`, …, `response[n-1]`, then `EOS`.
    fn positions(&self, response: &[Token]) -> Vec<ScoredPosition> {
        let k = self.cfg.context;
        let mut padded = vec![BOS; k];
        padded.extend_from_slice(response);
        padded.push(EOS);
        (0..response.len() + 1)
            .map(|t| (padded[t..t + k].to_vec(), padded[t + k]))
            .collect()
    }

    /// Exact sequence log-likelihood
    /// `log P(response, EOS | task) = Σ_t log P(y_t | task, ctx_t)`.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] for out-of-range ids.
    pub fn log_prob(&self, task: usize, response: &[Token]) -> Result<f32, LmError> {
        self.check_task(task)?;
        self.check_tokens(response)?;
        // Merge the LoRA deltas once for the whole sequence; the
        // per-position arithmetic is unchanged, so values are identical
        // to calling `next_log_probs` per position.
        let w1 = self.w1_eff();
        let w2 = self.w2_eff();
        let mut total = 0.0;
        for (ctx, target) in self.positions(response) {
            let lp = self.next_log_probs_merged(&w1, &w2, task, &ctx);
            total += lp[target as usize];
        }
        Ok(total)
    }

    /// Sequence log-likelihood and its gradient with respect to the full
    /// parameter vector (frozen entries zeroed per [`AdaptMode`]).
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
        SeqWorkspace::with_tls(|ws| self.log_prob_grad_in(task, response, ws))
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

        // Packed context indices and targets, mirroring `positions`.
        let mut padded = vec![BOS; k];
        padded.extend_from_slice(response);
        padded.push(EOS);
        let mut indices = Vec::with_capacity(n * k);
        let mut targets = Vec::with_capacity(n);
        for t in 0..n {
            indices.extend(padded[t..t + k].iter().map(|&tok| tok as usize));
            targets.push(padded[t + k] as usize);
        }

        let tape = &mut ws.tape;
        // Shared parameter leaves.
        let w1 = tape.leaf_from(&self.params[self.seg.w1.clone()]);
        let b1 = tape.leaf_from(&self.params[self.seg.b1.clone()]);
        let w2 = tape.leaf_from(&self.params[self.seg.w2.clone()]);
        let b2 = tape.leaf_from(&self.params[self.seg.b2.clone()]);
        let task_leaf = tape.leaf_from(self.task_row(task));
        let tok_table = tape.leaf_from(&self.params[self.seg.tok_emb.clone()]);
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
    /// and scatters leaf gradients into the flat parameter layout
    /// (frozen entries zeroed per [`AdaptMode`]).
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

        // Scatter into the flat layout.
        let arena = &ws.arena;
        let mut grad = vec![0.0f32; self.params.len()];
        grad[self.seg.w1.clone()].copy_from_slice(arena.grad(graph.w1));
        grad[self.seg.b1.clone()].copy_from_slice(arena.grad(graph.b1));
        grad[self.seg.w2.clone()].copy_from_slice(arena.grad(graph.w2));
        grad[self.seg.b2.clone()].copy_from_slice(arena.grad(graph.b2));
        grad[self.seg.tok_emb.clone()].copy_from_slice(arena.grad(graph.tok_table));
        {
            let d = self.cfg.task_dim;
            let base = self.seg.task_emb.start + graph.task * d;
            grad[base..base + d].copy_from_slice(arena.grad(graph.task_leaf));
        }
        if let (Some((a1r, b1r, a2r, b2r)), Some((a1, b1l, a2, b2l))) =
            (self.seg.lora.clone(), graph.lora)
        {
            grad[a1r].copy_from_slice(arena.grad(a1));
            grad[b1r].copy_from_slice(arena.grad(b1l));
            grad[a2r].copy_from_slice(arena.grad(a2));
            grad[b2r].copy_from_slice(arena.grad(b2l));
        }

        // Zero frozen entries.
        let mask = self.trainable_mask();
        for (g, m) in grad.iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        GradBuffer(grad)
    }

    /// The original per-position tape graph, kept as the bit-exactness
    /// oracle for the batched path.
    // The position walk always visits at least the EOS slot, so `total`
    // is `Some` by construction; a panic here is a bug in this method.
    #[cfg(test)]
    #[allow(clippy::expect_used)] // ALLOW: test helper; a panic here is a bug in this method.
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

        // Zero frozen entries.
        let mask = self.trainable_mask();
        for (g, m) in grad.iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
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
        let mut log_sum = 0.0f64;
        let mut tokens = 0usize;
        for (task, response) in corpus {
            log_sum += f64::from(self.log_prob(*task, response)?);
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
        self.check_task(task)?;
        let k = self.cfg.context;
        let mut ctx = vec![BOS; k];
        let mut out = Vec::new();
        for _ in 0..options.max_len {
            let lp = self.next_log_probs(task, &ctx)?;
            let next = sample_from_log_probs(&lp, options, rng);
            if next == EOS {
                break;
            }
            out.push(next);
            ctx.rotate_left(1);
            let last = ctx.len() - 1;
            ctx[last] = next;
        }
        Ok(out)
    }
}

/// Samples an index from tempered log-probabilities with optional top-k
/// and nucleus truncation.
fn sample_from_log_probs(log_probs: &[f32], options: SampleOptions, rng: &mut impl Rng) -> Token {
    let temp = options.temperature.max(1e-4);
    let scaled: Vec<f32> = log_probs.iter().map(|&l| l / temp).collect();
    let max = scaled.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut weights: Vec<f32> = scaled.iter().map(|&l| (l - max).exp()).collect();

    if options.top_k.is_some() || options.top_p.is_some() {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        let total: f32 = weights.iter().sum();
        let mut keep = vec![false; weights.len()];
        let mut cumulative = 0.0f32;
        for (rank, &i) in order.iter().enumerate() {
            if let Some(k) = options.top_k {
                if rank >= k {
                    break;
                }
            }
            // Always keep at least the most likely token; stop once the
            // nucleus mass is reached.
            if rank > 0 {
                if let Some(p) = options.top_p {
                    if cumulative >= p * total {
                        break;
                    }
                }
            }
            keep[i] = true;
            cumulative += weights[i];
        }
        for (w, k) in weights.iter_mut().zip(keep) {
            if !k {
                *w = 0.0;
            }
        }
    }

    let total: f32 = weights.iter().sum();
    let mut draw = rng.gen::<f32>() * total;
    for (i, w) in weights.iter().enumerate() {
        draw -= w;
        if *w > 0.0 && draw <= 0.0 {
            return i as Token;
        }
    }
    // Fall back to the most likely kept token.
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
        let mask = m.trainable_mask();
        // Probe trainable (LoRA) entries.
        let idxs: Vec<usize> = (0..m.params().len()).filter(|&i| mask[i]).take(6).collect();
        for &i in &idxs {
            let h = 1e-2f32;
            let mut mp = m.clone();
            mp.params_mut()[i] += h;
            let mut mm = m.clone();
            mm.params_mut()[i] -= h;
            let num = (mp.log_prob(1, &resp).unwrap() - mm.log_prob(1, &resp).unwrap()) / (2.0 * h);
            assert!(
                (num - grad.0[i]).abs() < 3e-2,
                "param {i}: numeric {num} vs analytic {}",
                grad.0[i]
            );
        }
    }

    #[test]
    fn lora_freezes_base_weights() {
        let m = model(AdaptMode::Lora { rank: 2 }, 6);
        let (_, grad) = m.log_prob_grad(0, &[3, 4]).unwrap();
        let mask = m.trainable_mask();
        assert!(m.num_trainable() > 0);
        assert!(m.num_trainable() < m.params().len());
        for (g, m) in grad.0.iter().zip(mask) {
            if !m {
                assert_eq!(*g, 0.0);
            }
        }
    }

    #[test]
    fn lora_initial_delta_is_zero() {
        // With B initialized to zero, the LoRA model's distribution equals
        // a Full model with the same base weights... construct by copying.
        let m = model(AdaptMode::Lora { rank: 2 }, 7);
        // Effective weights equal base weights at init.
        assert_eq!(m.w1_eff(), m.params[m.seg.w1.clone()].to_vec());
        assert_eq!(m.w2_eff(), m.params[m.seg.w2.clone()].to_vec());
    }

    #[test]
    fn top_k_restricts_support() {
        let m = model(AdaptMode::Full, 15);
        let lp = m.next_log_probs(0, &[BOS, BOS]).unwrap();
        // The two most likely tokens.
        let mut order: Vec<usize> = (0..lp.len()).collect();
        order.sort_by(|&a, &b| lp[b].partial_cmp(&lp[a]).unwrap());
        let allowed: Vec<Token> = order[..2].iter().map(|&i| i as Token).collect();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let opts = SampleOptions {
                top_k: Some(2),
                max_len: 1,
                ..SampleOptions::default()
            };
            let out = m.sample(0, &mut rng, opts).unwrap();
            if let Some(&t) = out.first() {
                assert!(allowed.contains(&t), "token {t} outside top-2 {allowed:?}");
            } else {
                // EOS sampled — must itself be in the top-2.
                assert!(allowed.contains(&EOS));
            }
        }
    }

    #[test]
    fn top_p_one_keeps_full_support_and_tiny_p_is_greedy() {
        let m = model(AdaptMode::Full, 16);
        let mut rng = StdRng::seed_from_u64(1);
        // p → 0 degenerates to greedy decoding: deterministic output.
        let greedy = SampleOptions {
            top_p: Some(1e-6),
            max_len: 8,
            ..SampleOptions::default()
        };
        let a = m.sample(1, &mut rng, greedy).unwrap();
        let b = m.sample(1, &mut rng, greedy).unwrap();
        assert_eq!(a, b);
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
            ..SampleOptions::default()
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
        assert_eq!(m.w1_eff(), naive, "blocked merge must be bit-identical");
    }

    #[test]
    fn log_prob_unchanged_by_hoisted_merge() {
        // The hoisted-merge sequence path must equal per-position
        // `next_log_probs` summation exactly.
        let m = perturbed_lora_model(31);
        let resp = vec![3, 7, 1, 4];
        let manual: f32 = m
            .positions(&resp)
            .iter()
            .map(|(ctx, tgt)| m.next_log_probs(1, ctx).unwrap()[*tgt as usize])
            .sum();
        assert_eq!(m.log_prob(1, &resp).unwrap().to_bits(), manual.to_bits());
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

    proptest::proptest! {
        /// The batched sequence graph is bit-for-bit identical to the
        /// original per-position graph: same value bits, same gradient
        /// bits, for random sequences under both adapt modes.
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
            for (i, (a, b)) in g_new.0.iter().zip(&g_ref.0).enumerate() {
                proptest::prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "grad[{}] differs: {} vs {}", i, a, b
                );
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let m = model(AdaptMode::Lora { rank: 2 }, 11);
        let json = serde_json::to_string(&m).unwrap();
        let back: CondLm = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        assert_eq!(
            m.log_prob(0, &[3, 4]).unwrap(),
            back.log_prob(0, &[3, 4]).unwrap()
        );
    }
}
