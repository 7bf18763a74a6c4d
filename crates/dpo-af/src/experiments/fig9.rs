//! Figure 9: number of specifications satisfied (of 15) by controllers
//! synthesized from checkpoint models, as a function of the DPO training
//! epoch, split into training and validation tasks.

use crate::pipeline::{CheckpointEval, DpoAf, RunArtifacts};

/// The Figure 9 result: the checkpoint evaluation series plus the run's
/// artifacts for reuse by downstream experiments.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// `(epoch, training-task score, validation-task score)` series.
    pub series: Vec<CheckpointEval>,
    /// The artifacts of the underlying run.
    pub artifacts: RunArtifacts,
}

/// Runs the pipeline end-to-end and extracts the Figure 9 series.
pub fn run(pipeline: &DpoAf) -> Fig9Result {
    let artifacts = pipeline.run();
    Fig9Result {
        series: artifacts.checkpoint_evals.clone(),
        artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    #[test]
    fn series_starts_at_epoch_zero_and_is_bounded() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let result = run(&pipeline);
        assert_eq!(result.series[0].epoch, 0);
        for point in &result.series {
            assert!((0.0..=15.0).contains(&point.train_score));
            assert!((0.0..=15.0).contains(&point.val_score));
        }
    }
}
