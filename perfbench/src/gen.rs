//! Seeded input generators. Every workload's inputs come from here and
//! depend only on the seed: the program under test receives the
//! generated responses and preference pairs, nothing else.

use dpo::{PreferenceDataset, PreferencePair};
use dpo_af::domain::{DomainBundle, Style};
use dpo_af::DpoAf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinylm::{CondLm, SampleOptions};

/// Seed the feedback workload's model is pretrained with: the headline
/// run's, so that the model is the one `DpoAf::run` starts from and only
/// the sampling varies with `--seed`. Models pretrained with other seeds
/// differ in the share of their responses that score 0 (33% to 34% for
/// seeds 1, 2 and 3, 28% for seed 7), which would move the verifier's
/// load by seed.
pub const MODEL_SEED: u64 = 7;

/// One scoring request: a task id and a response text for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into `DomainBundle::tasks`.
    pub task: usize,
    /// The decoded response text.
    pub text: String,
}

/// The model the feedback workload samples from: `af`'s pretrained model
/// at [`MODEL_SEED`].
pub fn feedback_model(af: &DpoAf) -> CondLm {
    af.pretrained_lm(&mut StdRng::seed_from_u64(MODEL_SEED))
}

/// `per_task` responses for each training task, sampled from `lm` and
/// decoded exactly as `DpoAf::collect_dataset` does, repeats included.
pub fn sample_responses(
    af: &DpoAf,
    lm: &CondLm,
    per_task: usize,
    rng: &mut StdRng,
) -> Vec<Request> {
    let opts = SampleOptions {
        temperature: af.config.temperature,
        max_len: 60,
        ..SampleOptions::default()
    };
    let mut out = Vec::new();
    for task in af.training_tasks() {
        for _ in 0..per_task {
            let tokens = lm
                .sample(task, rng, opts)
                .expect("training task ids are in range");
            let text = af.bundle.decode(&tokens);
            out.push(Request { task, text });
        }
    }
    out
}

/// `n` preference pairs over `tasks`: the winner is a careful or
/// incomplete response, the loser a hasty, reckless, wrong-action or
/// unalignable one to the same task — the orderings formal feedback
/// produces, without running the verifier.
pub fn preference_pairs(
    bundle: &DomainBundle,
    tasks: &[usize],
    n: usize,
    rng: &mut StdRng,
) -> PreferenceDataset {
    const WINNERS: [Style; 2] = [Style::Careful, Style::Incomplete];
    const LOSERS: [Style; 4] = [
        Style::Hasty,
        Style::Reckless,
        Style::WrongAction,
        Style::Unalignable,
    ];
    (0..n)
        .map(|_| {
            let task = &bundle.tasks[tasks[rng.gen_range(0..tasks.len())]];
            let winner = WINNERS[rng.gen_range(0..WINNERS.len())];
            let loser = LOSERS[rng.gen_range(0..LOSERS.len())];
            PreferencePair {
                task: task.id,
                winner: bundle.sample_response_tokens(task, winner, rng),
                loser: bundle.sample_response_tokens(task, loser, rng),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpo_af::PipelineConfig;
    use std::collections::HashSet;

    /// Share of `requests` whose cache key repeats an earlier one.
    fn repeat_share(af: &DpoAf, requests: &[Request]) -> f64 {
        let mut keys = HashSet::new();
        let repeats = requests
            .iter()
            .filter(|r| !keys.insert((af.bundle.tasks[r.task].scenario, r.text.as_str())))
            .count();
        repeats as f64 / requests.len() as f64
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let af = DpoAf::new(PipelineConfig::smoke());
        let lm = feedback_model(&af);
        let rng = |seed| StdRng::seed_from_u64(seed);
        let batch = |seed| sample_responses(&af, &lm, 4, &mut rng(seed));
        assert_eq!(batch(1), batch(1));
        assert_ne!(batch(1), batch(2));
        let pairs = |seed| preference_pairs(&af.bundle, &[0, 1, 2], 50, &mut rng(seed));
        assert_eq!(pairs(1), pairs(1));
        assert_ne!(pairs(1), pairs(2));
    }

    /// A batch of the workload's size, sampled from the headline model,
    /// repeats about as often as the headline run's verifications hit
    /// the cache (40%; batches range from 30% to 50%).
    #[test]
    fn batches_repeat_like_the_pipeline() {
        let af = DpoAf::new(PipelineConfig::default());
        let lm = feedback_model(&af);
        let tasks = af.training_tasks().len();
        for seed in [1, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let batch = sample_responses(&af, &lm, crate::FEEDBACK_PER_TASK, &mut rng);
            assert_eq!(batch.len(), tasks * crate::FEEDBACK_PER_TASK);
            let share = repeat_share(&af, &batch);
            assert!((0.25..=0.55).contains(&share), "seed {seed}: {share}");
        }
    }

    #[test]
    fn preference_pairs_use_the_model_vocabulary() {
        let bundle = DomainBundle::new();
        let pairs = preference_pairs(&bundle, &[0, 3], 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(pairs.len(), 100);
        let vocab = bundle.tokenizer.vocab_size() as u32;
        for pair in &pairs.pairs {
            assert!([0, 3].contains(&pair.task));
            assert_ne!(pair.winner, pair.loser);
            assert!(pair.winner.iter().chain(&pair.loser).all(|&t| t < vocab));
        }
    }
}
