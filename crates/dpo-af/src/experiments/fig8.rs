//! Figure 8: DPO fine-tuning statistics — loss, accuracy and marginal
//! preference per epoch, aggregated over random seeds.
//!
//! As in the paper, every seed starts from the *same* pre-trained
//! parameters and the same preference dataset; only the data order (and
//! per-epoch subsampling) differs between seeds, which is why the
//! between-seed variance is small.

use crate::pipeline::DpoAf;
use dpo::{DpoTrainer, EpochStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One aggregated epoch point: mean, min and max over seeds for each of
/// the three panels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Epoch index.
    pub epoch: usize,
    /// Mean / min / max DPO loss.
    pub loss: (f32, f32, f32),
    /// Mean / min / max accuracy.
    pub accuracy: (f32, f32, f32),
    /// Mean / min / max marginal preference.
    pub margin: (f32, f32, f32),
}

/// The full Figure 8 result.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Raw per-seed series.
    pub per_seed: Vec<Vec<EpochStats>>,
    /// Aggregated series (one point per epoch).
    pub aggregated: Vec<Fig8Point>,
    /// Number of preference pairs in the shared dataset.
    pub dataset_size: usize,
}

/// Runs the Figure 8 experiment: one shared pre-trained reference and
/// dataset, `seeds.len()` independent DPO runs.
pub fn run(pipeline: &DpoAf, seeds: &[u64]) -> Fig8Result {
    let mut rng = StdRng::seed_from_u64(pipeline.config.seed);
    let reference = pipeline.pretrained_lm(&mut rng);
    let dataset = pipeline.collect_dataset(&reference, &mut rng);
    assert!(!dataset.is_empty(), "no preference pairs collected");

    let trainer = DpoTrainer::new(pipeline.config.train);
    let per_seed: Vec<Vec<EpochStats>> = seeds
        .iter()
        .map(|&seed| {
            let mut policy = reference.clone();
            let mut seed_rng = StdRng::seed_from_u64(seed);
            #[allow(clippy::expect_used, reason = "dataset tokens come from this model")]
            trainer
                .train(&mut policy, &reference, &dataset, &mut seed_rng, |_, _| {})
                .expect("dataset uses model vocabulary")
        })
        .collect();

    let epochs = per_seed[0].len();
    let aggregated = (0..epochs)
        .map(|e| {
            let agg = |f: fn(&EpochStats) -> f32| -> (f32, f32, f32) {
                let vals: Vec<f32> = per_seed.iter().map(|s| f(&s[e])).collect();
                let mean = vals.iter().sum::<f32>() / vals.len() as f32;
                let min = vals.iter().copied().fold(f32::INFINITY, f32::min);
                let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                (mean, min, max)
            };
            Fig8Point {
                epoch: e,
                loss: agg(|s| s.loss),
                accuracy: agg(|s| s.accuracy),
                margin: agg(|s| s.margin),
            }
        })
        .collect();

    Fig8Result {
        per_seed,
        aggregated,
        dataset_size: dataset.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    #[test]
    fn aggregates_over_seeds_with_expected_shape() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let result = run(&pipeline, &[1, 2]);
        assert_eq!(result.per_seed.len(), 2);
        assert_eq!(result.aggregated.len(), pipeline.config.train.epochs);
        for p in &result.aggregated {
            assert!(p.loss.1 <= p.loss.0 && p.loss.0 <= p.loss.2);
            assert!((0.0..=1.0).contains(&p.accuracy.0));
        }
        // The DPO loss decreases from its ln 2 start.
        let first = result.aggregated.first().unwrap();
        let last = result.aggregated.last().unwrap();
        assert!(last.loss.0 < first.loss.0);
    }
}
