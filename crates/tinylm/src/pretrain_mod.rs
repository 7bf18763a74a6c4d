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
// calls cannot see out-of-vocabulary ids.
#[allow(clippy::expect_used, reason = "out-of-vocabulary ids are a caller bug")]
pub fn pretrain(
    model: &mut CondLm,
    corpus: &[(usize, Vec<Token>)],
    options: PretrainOptions,
    rng: &mut impl Rng,
) -> PretrainStats {
    assert!(!corpus.is_empty(), "pretraining corpus must be non-empty");
    let started = std::time::Instant::now();
    let trainable = model.trainable();
    let mut adam = Adam::new(options.lr, trainable.len());
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut nll_per_epoch = Vec::with_capacity(options.epochs);
    let mut tokens_seen = 0u64;
    for epoch in 0..options.epochs {
        order.shuffle(rng);
        let mut epoch_nll = 0.0f64;
        for batch in order.chunks(options.batch_size) {
            let mut grad = GradBuffer::zeros(model);
            for &i in batch {
                let (task, ref tokens) = corpus[i];
                let (lp, g) = model
                    .log_prob_grad(task, tokens)
                    .expect("corpus uses model vocabulary");
                tokens_seen += tokens.len() as u64;
                epoch_nll -= f64::from(lp);
                // Maximize log-likelihood = descend on −logP.
                grad.add_scaled(&g, -1.0 / batch.len() as f32);
            }
            adam.step(&mut model.params_mut()[trainable.clone()], &grad.0);
        }
        let nll = (epoch_nll / corpus.len() as f64) as f32;
        nll_per_epoch.push(nll);
        obskit::event(
            "pretrain.epoch",
            vec![("epoch", epoch.into()), ("nll", nll.into())],
        );
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
