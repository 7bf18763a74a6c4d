//! Figure 12: detector confidence→accuracy mappings in simulation vs the
//! real world, per object class.
//!
//! The paper's transfer argument (Section 5.3) needs the perception stack
//! to behave consistently across domains. This experiment reproduces the
//! measurement with the synthetic `vision` crate: a Grounded-SAM-like
//! detector is run over a sim dataset and a real dataset, detections are
//! binned by confidence, and the per-class curves are compared. A
//! deliberately domain-biased detector is measured alongside as the
//! negative control.

use vision::{
    calibrate, consistency_gap, generate_dataset, CalibrationCurve, Detector, Domain, ObjectClass,
};

/// Calibration curves for one object class.
#[derive(Debug, Clone)]
pub struct ClassCurves {
    /// Object class.
    pub class: ObjectClass,
    /// Confidence→accuracy curve on simulator frames.
    pub sim: CalibrationCurve,
    /// Confidence→accuracy curve on real frames.
    pub real: CalibrationCurve,
    /// Count-weighted mean absolute accuracy gap between the curves.
    pub gap: f32,
}

/// The Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Per-class curves for the consistent detector.
    pub consistent: Vec<ClassCurves>,
    /// Per-class gap for the domain-biased negative control.
    pub biased_gaps: Vec<(ObjectClass, f32)>,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Config {
    /// Frames per domain.
    pub frames: usize,
    /// Confidence bins.
    pub bins: usize,
    /// Accuracy penalty of the biased negative-control detector.
    pub bias: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config {
            frames: 1500,
            bins: 10,
            bias: 0.25,
            seed: 31,
        }
    }
}

/// Runs the Figure 12 experiment.
pub fn run(cfg: Fig12Config) -> Fig12Result {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sim_frames = generate_dataset(Domain::Sim, cfg.frames, &mut rng);
    let real_frames = generate_dataset(Domain::Real, cfg.frames, &mut rng);

    let run_detector = |det: &Detector, rng: &mut StdRng| -> Vec<ClassCurves> {
        let sim_dets = det.detect_all(&sim_frames, rng);
        let real_dets = det.detect_all(&real_frames, rng);
        ObjectClass::all()
            .into_iter()
            .map(|class| {
                let sim: Vec<_> = sim_dets
                    .iter()
                    .filter(|d| d.class == class)
                    .copied()
                    .collect();
                let real: Vec<_> = real_dets
                    .iter()
                    .filter(|d| d.class == class)
                    .copied()
                    .collect();
                let sim_curve = calibrate(&sim, cfg.bins);
                let real_curve = calibrate(&real, cfg.bins);
                let gap = consistency_gap(&sim_curve, &real_curve);
                ClassCurves {
                    class,
                    sim: sim_curve,
                    real: real_curve,
                    gap,
                }
            })
            .collect()
    };

    let consistent = run_detector(&Detector::grounded_sam_like(), &mut rng);
    let biased = run_detector(&Detector::domain_biased(cfg.bias), &mut rng);
    let biased_gaps = biased.into_iter().map(|c| (c.class, c.gap)).collect();

    Fig12Result {
        consistent,
        biased_gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_detector_has_small_gap_biased_has_large() {
        let result = run(Fig12Config {
            frames: 800,
            ..Fig12Config::default()
        });
        assert_eq!(result.consistent.len(), 4);
        for c in &result.consistent {
            assert!(
                c.gap < 0.12,
                "{:?}: consistent detector gap too large: {}",
                c.class,
                c.gap
            );
            assert!(c.sim.count() > 100);
        }
        let mean_consistent: f32 = result.consistent.iter().map(|c| c.gap).sum::<f32>() / 4.0;
        let mean_biased: f32 = result.biased_gaps.iter().map(|&(_, g)| g).sum::<f32>() / 4.0;
        assert!(
            mean_biased > mean_consistent + 0.05,
            "bias should widen the gap: {mean_consistent} vs {mean_biased}"
        );
    }

    #[test]
    fn calibration_is_monotone_in_populated_bins() {
        // Higher-confidence bins should not be dramatically less accurate.
        let result = run(Fig12Config::default());
        for c in &result.consistent {
            let populated: Vec<_> = c.sim.bins.iter().filter(|b| b.count >= 30).collect();
            for w in populated.windows(2) {
                assert!(
                    w[1].accuracy >= w[0].accuracy - 0.15,
                    "{:?}: accuracy collapsed between bins {w:?}",
                    c.class
                );
            }
        }
    }
}
