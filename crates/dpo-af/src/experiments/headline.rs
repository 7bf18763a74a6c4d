//! The headline claim (abstract / §1): DPO-AF raises the percentage of
//! specifications satisfied by synthesized controllers from roughly 60%
//! to above 90%.

use crate::pipeline::RunArtifacts;

/// The headline numbers extracted from a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineResult {
    /// Percentage of specifications satisfied before fine-tuning
    /// (training and validation tasks pooled).
    pub before_pct: f64,
    /// Percentage after fine-tuning.
    pub after_pct: f64,
    /// Number of preference pairs the run trained on.
    pub dataset_size: usize,
}

/// Extracts the headline numbers from a run's checkpoint series: the
/// epoch-0 point is "before", the final checkpoint is "after". Scores are
/// averaged over training and validation tasks (they are reported per
/// split in Figure 9; the abstract pools them).
// ALLOW: `run()` always records the epoch-0 checkpoint before returning.
#[allow(clippy::expect_used)]
pub fn from_artifacts(artifacts: &RunArtifacts) -> HeadlineResult {
    let first = artifacts
        .checkpoint_evals
        .first()
        .expect("runs record the epoch-0 point");
    let last = artifacts
        .checkpoint_evals
        .last()
        .expect("runs record at least one point");
    let pct =
        |e: &crate::pipeline::CheckpointEval| (e.train_score + e.val_score) / 2.0 / 15.0 * 100.0;
    HeadlineResult {
        before_pct: pct(first),
        after_pct: pct(last),
        dataset_size: artifacts.dataset_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DpoAf, PipelineConfig};

    #[test]
    fn percentages_are_bounded() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let artifacts = pipeline.run();
        let headline = from_artifacts(&artifacts);
        assert!((0.0..=100.0).contains(&headline.before_pct));
        assert!((0.0..=100.0).contains(&headline.after_pct));
        assert!(headline.dataset_size > 0);
    }
}
