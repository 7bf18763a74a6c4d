//! Cross-entropy pretraining — produces the "pre-trained language model"
//! that DPO-AF starts from.
//!
//! The paper begins with Llama2-7B, which already knows how to describe
//! driving maneuvers (imperfectly, mixing compliant and non-compliant
//! phrasings). We reproduce that starting point by pretraining [`CondLm`]
//! on a corpus of `(task, response)` pairs that deliberately mixes good
//! and sloppy instruction styles; the resulting model satisfies roughly
//! the fraction of specifications the corpus mixture dictates — the ~60%
//! baseline the paper reports before fine-tuning.

use crate::model::{CondLm, GradBuffer};
use crate::optim::Adam;
use crate::tokenizer::Token;
use rand::seq::SliceRandom;
use rand::Rng;

/// Pretraining hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainOptions {
    /// Full passes over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sequences per gradient step.
    pub batch_size: usize,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        PretrainOptions {
            epochs: 6,
            lr: 0.01,
            batch_size: 16,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainStats {
    /// Mean negative log-likelihood per sequence, by epoch.
    pub nll_per_epoch: Vec<f32>,
}

/// Pretrains a model in place with Adam on next-token cross-entropy.
///
/// # Panics
///
/// Panics if the corpus is empty.
// The corpus is rendered from the model's own tokenizer, so gradient
// calls cannot see out-of-vocabulary ids; a panic here is a caller bug
// worth failing loudly on during training.
#[allow(clippy::expect_used)] // ALLOW: out-of-vocabulary ids are a caller bug worth failing loudly on.
pub fn pretrain(
    model: &mut CondLm,
    corpus: &[(usize, Vec<Token>)],
    options: PretrainOptions,
    rng: &mut impl Rng,
) -> PretrainStats {
    pretrain_in(model, corpus, options, rng, None)
}

/// [`pretrain`] with the per-sequence gradient computations of each
/// batch fanned out across `pool` (when given and wider than one
/// thread).
///
/// Parallelism never changes the math: the RNG-driven epoch shuffle
/// stays sequential, per-sequence gradients are independent pure
/// functions of the frozen pre-step parameters, and the batch reduction
/// folds them **in batch order** — the same float additions in the same
/// order as the sequential loop, so trained weights are byte-identical
/// at any thread count.
///
/// # Panics
///
/// Panics if the corpus is empty.
// The corpus is rendered from the model's own tokenizer, so gradient
// calls cannot see out-of-vocabulary ids; a panic here is a caller bug
// worth failing loudly on during training.
#[allow(clippy::expect_used)] // ALLOW: out-of-vocabulary ids are a caller bug worth failing loudly on.
pub fn pretrain_in(
    model: &mut CondLm,
    corpus: &[(usize, Vec<Token>)],
    options: PretrainOptions,
    rng: &mut impl Rng,
    pool: Option<&parkit::ThreadPool>,
) -> PretrainStats {
    assert!(!corpus.is_empty(), "pretraining corpus must be non-empty");
    let started = std::time::Instant::now();
    let mut adam = Adam::new(options.lr, model.params().len());
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut nll_per_epoch = Vec::with_capacity(options.epochs);
    let mut tokens_seen = 0u64;
    for epoch in 0..options.epochs {
        order.shuffle(rng);
        let mut epoch_nll = 0.0f64;
        for batch in order.chunks(options.batch_size) {
            let mut grad = GradBuffer::zeros(model);
            let per_seq: Vec<(f32, GradBuffer)> = match pool {
                Some(pool) if pool.threads() > 1 => {
                    let frozen: &CondLm = model;
                    pool.map(batch, |_, &i| {
                        let (task, ref tokens) = corpus[i];
                        frozen
                            .log_prob_grad(task, tokens)
                            .expect("corpus uses model vocabulary")
                    })
                }
                _ => batch
                    .iter()
                    .map(|&i| {
                        let (task, ref tokens) = corpus[i];
                        model
                            .log_prob_grad(task, tokens)
                            .expect("corpus uses model vocabulary")
                    })
                    .collect(),
            };
            for (&i, (lp, g)) in batch.iter().zip(&per_seq) {
                tokens_seen += corpus[i].1.len() as u64;
                epoch_nll -= f64::from(*lp);
                // Maximize log-likelihood = descend on −logP.
                grad.add_scaled(g, -1.0 / batch.len() as f32);
            }
            adam.step(model.params_mut(), &grad.0);
        }
        let nll = (epoch_nll / corpus.len() as f64) as f32;
        nll_per_epoch.push(nll);
        obskit::event(
            "pretrain.epoch",
            vec![("epoch", epoch.into()), ("nll", nll.into())],
        );
        // Pretraining epochs are a flight-recorder beat (throttled).
        obskit::recorder::tick();
    }
    if obskit::enabled() {
        obskit::counter_add("pretrain.tokens", tokens_seen);
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            obskit::gauge_set("pretrain.tokens_per_sec", tokens_seen as f64 / secs);
        }
    }
    PretrainStats { nll_per_epoch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptMode, LmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pretraining_reduces_nll_and_learns_pattern() {
        let cfg = LmConfig {
            vocab_size: 8,
            num_tasks: 2,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 8,
            adapt: AdaptMode::Full,
            lora_scale: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut model = CondLm::new(cfg, &mut rng);
        // Task 0 always says "3 4 5"; task 1 always says "5 4 3".
        let corpus: Vec<(usize, Vec<Token>)> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    (0, vec![3, 4, 5])
                } else {
                    (1, vec![5, 4, 3])
                }
            })
            .collect();
        let stats = pretrain(
            &mut model,
            &corpus,
            PretrainOptions {
                epochs: 30,
                lr: 0.02,
                batch_size: 8,
            },
            &mut rng,
        );
        assert!(stats.nll_per_epoch.first().unwrap() > stats.nll_per_epoch.last().unwrap());
        // The model now strongly prefers each task's sequence.
        let lp_good = model.log_prob(0, &[3, 4, 5]).unwrap();
        let lp_bad = model.log_prob(0, &[5, 4, 3]).unwrap();
        assert!(
            lp_good > lp_bad + 1.0,
            "task conditioning not learned: {lp_good} vs {lp_bad}"
        );
    }

    /// Pooled gradient accumulation is a pure reordering of *where*
    /// gradients are computed, never of how they are reduced: weights
    /// after training are bit-identical to the sequential path.
    #[test]
    fn pooled_pretraining_is_bit_identical() {
        let cfg = LmConfig {
            vocab_size: 10,
            num_tasks: 2,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 8,
            adapt: AdaptMode::Full,
            lora_scale: 1.0,
        };
        let corpus: Vec<(usize, Vec<Token>)> = (0..37)
            .map(|i| (i % 2, vec![3 + (i % 5) as Token, 4, 5 + (i % 3) as Token]))
            .collect();
        let opts = PretrainOptions {
            epochs: 3,
            lr: 0.02,
            batch_size: 8,
        };

        let mut rng = StdRng::seed_from_u64(9);
        let mut serial = CondLm::new(cfg, &mut rng);
        let stats_serial = pretrain(&mut serial, &corpus, opts, &mut rng);

        for threads in [2, 4] {
            let pool = parkit::ThreadPool::new(threads);
            let mut rng = StdRng::seed_from_u64(9);
            let mut pooled = CondLm::new(cfg, &mut rng);
            let stats_pooled = pretrain_in(&mut pooled, &corpus, opts, &mut rng, Some(&pool));
            assert_eq!(
                serial.params(),
                pooled.params(),
                "weights diverged at {threads} threads"
            );
            assert_eq!(stats_serial.nll_per_epoch, stats_pooled.nll_per_epoch);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_corpus_panics() {
        let cfg = LmConfig {
            vocab_size: 4,
            num_tasks: 1,
            token_dim: 2,
            task_dim: 2,
            context: 2,
            hidden: 4,
            adapt: AdaptMode::Full,
            lora_scale: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = CondLm::new(cfg, &mut rng);
        pretrain(&mut model, &[], PretrainOptions::default(), &mut rng);
    }
}
