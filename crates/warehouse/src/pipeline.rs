//! The miniature DPO-AF loop for the warehouse domain, assembled from
//! the generic crates (no `dpo-af` dependency — this is the recipe,
//! re-instantiated).

use crate::domain::WarehouseDomain;
use crate::feedback::score_warehouse_response;
use dpo::{DpoTrainer, PreferenceDataset, TrainOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinylm::{pretrain, AdaptMode, CondLm, LmConfig, Merged, PretrainOptions, SampleOptions};

/// Configuration for [`run_mini`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniConfig {
    /// Master seed.
    pub seed: u64,
    /// Pretraining corpus size.
    pub corpus_size: usize,
    /// Pretraining epochs.
    pub pretrain_epochs: usize,
    /// Responses sampled per task per collection round.
    pub responses_per_task: usize,
    /// Collection rounds.
    pub rounds: usize,
    /// DPO epochs.
    pub epochs: usize,
    /// Responses per task for before/after evaluation.
    pub eval_samples: usize,
}

impl Default for MiniConfig {
    fn default() -> Self {
        MiniConfig {
            seed: 5,
            corpus_size: 600,
            pretrain_epochs: 6,
            responses_per_task: 6,
            rounds: 3,
            epochs: 80,
            eval_samples: 8,
        }
    }
}

impl MiniConfig {
    /// A reduced configuration for tests.
    pub fn smoke() -> Self {
        MiniConfig {
            corpus_size: 120,
            pretrain_epochs: 2,
            responses_per_task: 3,
            rounds: 1,
            epochs: 6,
            eval_samples: 2,
            ..MiniConfig::default()
        }
    }
}

/// What the mini pipeline reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniOutcome {
    /// Mean rules satisfied (of 8) before fine-tuning.
    pub before: f64,
    /// Mean rules satisfied (of 8) after fine-tuning.
    pub after: f64,
    /// Preference pairs trained on.
    pub pairs: usize,
    /// A sample decoded response from each model for task 0.
    pub sample_before: String,
    /// See `sample_before`.
    pub sample_after: String,
}

#[allow(clippy::expect_used, reason = "domain-made ids are in range")]
fn evaluate(d: &WarehouseDomain, lm: &Merged<'_>, samples: usize, rng: &mut impl Rng) -> f64 {
    let opts = SampleOptions {
        temperature: 0.6,
        max_len: 40,
    };
    let mut total = 0usize;
    let mut count = 0usize;
    for task in &d.tasks {
        for _ in 0..samples {
            let tokens = lm.sample(task.id, rng, opts).expect("task in range");
            total += score_warehouse_response(d, task, &d.tokenizer.decode(&tokens));
            count += 1;
        }
    }
    total as f64 / count.max(1) as f64
}

/// Runs the warehouse DPO-AF loop end to end.
#[allow(clippy::expect_used, reason = "domain-made ids are in range")]
pub fn run_mini(config: MiniConfig) -> MiniOutcome {
    let domain = WarehouseDomain::new();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // 1. Pretrain on the mixed corpus, then attach LoRA adapters.
    let cfg = LmConfig {
        vocab_size: domain.tokenizer.vocab_size(),
        num_tasks: domain.tasks.len(),
        adapt: AdaptMode::Full,
        hidden: 48,
        context: 4,
        ..LmConfig::default()
    };
    let mut base = CondLm::new(cfg, &mut rng);
    let corpus = domain.corpus(config.corpus_size, &mut rng);
    pretrain(
        &mut base,
        &corpus,
        PretrainOptions {
            epochs: config.pretrain_epochs,
            lr: 0.01,
            batch_size: 16,
        },
        &mut rng,
    );
    let reference = base.convert_adapt(AdaptMode::Lora { rank: 4 }, &mut rng);
    let reference_lm = reference.merged();

    // 2. Collect verification-ranked preferences.
    let opts = SampleOptions {
        temperature: 1.1,
        max_len: 40,
    };
    let mut dataset = PreferenceDataset::new();
    for _ in 0..config.rounds {
        for task in &domain.tasks {
            let scored: Vec<(Vec<tinylm::Token>, usize)> = (0..config.responses_per_task)
                .map(|_| {
                    let tokens = reference_lm
                        .sample(task.id, &mut rng, opts)
                        .expect("in range");
                    let score =
                        score_warehouse_response(&domain, task, &domain.tokenizer.decode(&tokens));
                    (tokens, score)
                })
                .collect();
            dataset.add_scored(task.id, &scored);
        }
    }

    // 3. DPO.
    let mut policy = reference.clone();
    if !dataset.is_empty() {
        let trainer = DpoTrainer::new(TrainOptions {
            beta: 0.6,
            lr: 1.5e-3,
            batch_size: 8,
            epochs: config.epochs,
            pairs_per_epoch: Some(32),
        });
        trainer
            .train(&mut policy, &reference, &dataset, &mut rng, |_, _| {})
            .expect("dataset in vocabulary");
    }

    // 4. Evaluate.
    let mut eval_rng = StdRng::seed_from_u64(config.seed ^ 0xbeef);
    let policy_lm = policy.merged();
    let before = evaluate(&domain, &reference_lm, config.eval_samples, &mut eval_rng);
    let after = evaluate(&domain, &policy_lm, config.eval_samples, &mut eval_rng);

    let sample_opts = SampleOptions {
        temperature: 0.5,
        max_len: 40,
    };
    let mut sample_rng = StdRng::seed_from_u64(config.seed ^ 0xcafe);
    let sample_before = domain.tokenizer.decode(
        &reference_lm
            .sample(0, &mut sample_rng, sample_opts)
            .expect("task 0"),
    );
    let sample_after = domain.tokenizer.decode(
        &policy_lm
            .sample(0, &mut sample_rng, sample_opts)
            .expect("task 0"),
    );

    MiniOutcome {
        before,
        after,
        pairs: dataset.len(),
        sample_before,
        sample_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_well_formed() {
        let outcome = run_mini(MiniConfig::smoke());
        assert!((0.0..=8.0).contains(&outcome.before));
        assert!((0.0..=8.0).contains(&outcome.after));
        assert!(!outcome.sample_before.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_mini(MiniConfig::smoke());
        let b = run_mini(MiniConfig::smoke());
        assert_eq!(a, b);
    }
}
