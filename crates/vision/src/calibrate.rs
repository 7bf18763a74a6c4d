use crate::detector::Detection;

/// One confidence bin of a calibration curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalBin {
    /// Bin center in `[0, 1]`.
    pub confidence: f32,
    /// Empirical accuracy of detections falling in the bin (`NaN`-free:
    /// empty bins report 0 accuracy with 0 count).
    pub accuracy: f32,
    /// Number of detections in the bin.
    pub count: usize,
}

/// A confidence→accuracy mapping, the artifact of the paper's Figure 12
/// (following the confidence-calibration method of Yang et al., 2023).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCurve {
    /// Equal-width bins over `[0, 1]`.
    pub bins: Vec<CalBin>,
}

impl CalibrationCurve {
    /// Expected calibration error: the count-weighted mean absolute gap
    /// between bin confidence and bin accuracy.
    pub fn ece(&self) -> f32 {
        let total: usize = self.bins.iter().map(|b| b.count).sum();
        if total == 0 {
            return 0.0;
        }
        self.bins
            .iter()
            .map(|b| (b.count as f32 / total as f32) * (b.confidence - b.accuracy).abs())
            .sum()
    }

    /// Total number of detections.
    pub fn count(&self) -> usize {
        self.bins.iter().map(|b| b.count).sum()
    }
}

/// Bins detections by confidence into `num_bins` equal-width bins and
/// computes per-bin accuracy.
///
/// # Panics
///
/// Panics if `num_bins == 0`.
///
/// # Example
///
/// ```
/// use vision::{calibrate, Detection, Domain, ObjectClass};
///
/// let detections = vec![
///     Detection { class: ObjectClass::Car, domain: Domain::Sim, confidence: 0.9, correct: true },
///     Detection { class: ObjectClass::Car, domain: Domain::Sim, confidence: 0.1, correct: false },
/// ];
/// let curve = calibrate(&detections, 10);
/// assert_eq!(curve.count(), 2);
/// assert_eq!(curve.bins.len(), 10);
/// ```
pub fn calibrate(detections: &[Detection], num_bins: usize) -> CalibrationCurve {
    assert!(num_bins > 0, "at least one bin required");
    let mut counts = vec![0usize; num_bins];
    let mut hits = vec![0usize; num_bins];
    for d in detections {
        let mut bin = (d.confidence * num_bins as f32) as usize;
        if bin >= num_bins {
            bin = num_bins - 1;
        }
        counts[bin] += 1;
        if d.correct {
            hits[bin] += 1;
        }
    }
    let bins = (0..num_bins)
        .map(|i| CalBin {
            confidence: (i as f32 + 0.5) / num_bins as f32,
            accuracy: if counts[i] == 0 {
                0.0
            } else {
                hits[i] as f32 / counts[i] as f32
            },
            count: counts[i],
        })
        .collect();
    CalibrationCurve { bins }
}

/// Count-weighted mean absolute accuracy gap between two calibration
/// curves over bins populated in **both** — the consistency measure for
/// the paper's "approximately equal under all confidence levels" claim.
///
/// Returns `0.0` when no bin is shared.
///
/// # Panics
///
/// Panics if the curves have different bin counts.
pub fn consistency_gap(a: &CalibrationCurve, b: &CalibrationCurve) -> f32 {
    assert_eq!(a.bins.len(), b.bins.len(), "bin counts must match");
    let mut weighted = 0.0f32;
    let mut weight = 0.0f32;
    for (ba, bb) in a.bins.iter().zip(&b.bins) {
        if ba.count > 0 && bb.count > 0 {
            let w = (ba.count.min(bb.count)) as f32;
            weighted += w * (ba.accuracy - bb.accuracy).abs();
            weight += w;
        }
    }
    if weight == 0.0 {
        0.0
    } else {
        weighted / weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, ObjectClass};
    use proptest::prelude::*;

    fn det(conf: f32, correct: bool) -> Detection {
        Detection {
            class: ObjectClass::Car,
            domain: Domain::Sim,
            confidence: conf,
            correct,
        }
    }

    #[test]
    fn binning_assigns_to_correct_bins() {
        let d = vec![det(0.05, true), det(0.95, true), det(1.0, false)];
        let curve = calibrate(&d, 10);
        assert_eq!(curve.bins[0].count, 1);
        assert_eq!(curve.bins[9].count, 2);
        assert!((curve.bins[9].accuracy - 0.5).abs() < 1e-6);
        assert_eq!(curve.count(), 3);
    }

    #[test]
    fn perfectly_calibrated_curve_has_zero_ece() {
        // Confidence 0.75 bin with 75% accuracy.
        let mut d = Vec::new();
        for i in 0..100 {
            d.push(det(0.75, i % 4 != 0));
        }
        let curve = calibrate(&d, 2);
        assert!(curve.ece() < 0.01, "ece = {}", curve.ece());
    }

    #[test]
    fn consistency_gap_zero_for_identical() {
        let d: Vec<Detection> = (0..50).map(|i| det(i as f32 / 50.0, i % 2 == 0)).collect();
        let curve = calibrate(&d, 10);
        assert_eq!(consistency_gap(&curve, &curve), 0.0);
    }

    #[test]
    fn consistency_gap_detects_divergence() {
        let good: Vec<Detection> = (0..200).map(|i| det(0.8, i % 5 != 0)).collect(); // 80%
        let bad: Vec<Detection> = (0..200).map(|i| det(0.8, i % 2 == 0)).collect(); // 50%
        let gap = consistency_gap(&calibrate(&good, 10), &calibrate(&bad, 10));
        assert!((gap - 0.3).abs() < 0.02, "gap = {gap}");
    }

    #[test]
    #[should_panic(expected = "bin counts")]
    fn mismatched_bins_panic() {
        let d = vec![det(0.5, true)];
        let _ = consistency_gap(&calibrate(&d, 5), &calibrate(&d, 10));
    }

    proptest! {
        /// Bin counts always sum to the number of detections, and
        /// accuracies stay in [0, 1].
        #[test]
        fn bins_partition_detections(
            confs in proptest::collection::vec(0.0f32..=1.0, 0..64),
        ) {
            let d: Vec<Detection> = confs
                .iter()
                .enumerate()
                .map(|(i, &c)| det(c, i % 3 == 0))
                .collect();
            let curve = calibrate(&d, 8);
            prop_assert_eq!(curve.count(), d.len());
            for b in &curve.bins {
                prop_assert!((0.0..=1.0).contains(&b.accuracy));
            }
        }
    }
}
