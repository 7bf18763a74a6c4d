//! Figure 13: detector performance under different weather and light
//! conditions, simulator vs real world.
//!
//! The paper's Figure 13 is a qualitative grid of detections on Carla
//! and NuImages frames under varying conditions; this reproduction
//! quantifies the same comparison — per-condition detection accuracy and
//! mean confidence in both domains. The paper's claim survives if the
//! per-condition accuracies track each other across domains (conditions
//! are harder or easier *for both*, rather than one domain degrading).

use vision::{generate_frame, Condition, Detector, Domain};

/// Detection statistics for one (condition, domain) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Fraction of detections that were correct.
    pub accuracy: f32,
    /// Mean confidence score.
    pub mean_confidence: f32,
    /// Number of detections.
    pub count: usize,
}

/// One row of the Figure 13 table: a condition with its sim and real
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Row {
    /// Weather/light condition.
    pub condition: Condition,
    /// Statistics on simulator frames.
    pub sim: CellStats,
    /// Statistics on real frames.
    pub real: CellStats,
}

/// The Figure 13 result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// One row per condition.
    pub rows: Vec<Fig13Row>,
}

/// Runs the per-condition comparison with `frames` frames per cell.
pub fn run(frames: usize, seed: u64) -> Fig13Result {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let detector = Detector::grounded_sam_like();

    let mut rows = Vec::new();
    for condition in Condition::all() {
        let cell = |domain: Domain, rng: &mut StdRng| -> CellStats {
            let mut correct = 0usize;
            let mut conf_sum = 0.0f32;
            let mut count = 0usize;
            for _ in 0..frames {
                let frame = generate_frame(domain, condition, rng);
                for obj in &frame.objects {
                    let det = detector.detect(obj, domain, rng);
                    if det.correct {
                        correct += 1;
                    }
                    conf_sum += det.confidence;
                    count += 1;
                }
            }
            CellStats {
                accuracy: correct as f32 / count.max(1) as f32,
                mean_confidence: conf_sum / count.max(1) as f32,
                count,
            }
        };
        rows.push(Fig13Row {
            condition,
            sim: cell(Domain::Sim, &mut rng),
            real: cell(Domain::Real, &mut rng),
        });
    }
    Fig13Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harder_conditions_reduce_accuracy_in_both_domains() {
        let result = run(400, 3);
        let get = |c: Condition| {
            result
                .rows
                .iter()
                .find(|r| r.condition == c)
                .copied()
                .expect("all conditions present")
        };
        let day = get(Condition::ClearDay);
        let night = get(Condition::Night);
        assert!(day.sim.accuracy > night.sim.accuracy);
        assert!(day.real.accuracy > night.real.accuracy);
        // Consistency: per-condition accuracies track across domains
        // (the sim frames are slightly easier — less occlusion — so allow
        // a modest margin).
        for row in &result.rows {
            assert!(
                (row.sim.accuracy - row.real.accuracy).abs() < 0.15,
                "{:?}: sim {} vs real {}",
                row.condition,
                row.sim.accuracy,
                row.real.accuracy
            );
        }
    }

    #[test]
    fn confidence_tracks_accuracy() {
        let result = run(400, 4);
        for row in &result.rows {
            for cell in [row.sim, row.real] {
                assert!(
                    (cell.mean_confidence - cell.accuracy).abs() < 0.1,
                    "{:?}: confidence {} vs accuracy {}",
                    row.condition,
                    cell.mean_confidence,
                    cell.accuracy
                );
            }
        }
    }
}
