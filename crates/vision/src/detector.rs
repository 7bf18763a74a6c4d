use crate::scene::{Frame, ObjectClass, SceneObject};
use crate::Domain;
use rand::Rng;

/// One detection attempt on one annotated object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The object's ground-truth class.
    pub class: ObjectClass,
    /// The domain the frame came from.
    pub domain: Domain,
    /// The detector's confidence score in `[0, 1]`.
    pub confidence: f32,
    /// Whether the predicted label/box matched the ground truth.
    pub correct: bool,
}

/// A stochastic stand-in for an open-set object detector (the paper uses
/// Grounded SAM = Grounding DINO + SAM).
///
/// The detector's confidence is a noisy logistic function of the object's
/// latent detectability, and correctness is Bernoulli in the *same*
/// detectability — so confidence is (approximately) calibrated, and the
/// calibration is a property of the detector, independent of the domain.
/// The optional `domain_bias` breaks that independence to model a
/// detector that overfits one domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    /// Logistic slope from detectability to correctness probability.
    pub sharpness: f32,
    /// Standard deviation of confidence noise.
    pub confidence_noise: f32,
    /// Accuracy penalty applied in the `Real` domain only (0 = consistent
    /// detector).
    pub domain_bias: f32,
}

impl Detector {
    /// A consistent, well-calibrated detector — the behaviour the paper
    /// measures for Grounded SAM.
    pub fn grounded_sam_like() -> Detector {
        Detector {
            sharpness: 6.0,
            confidence_noise: 0.06,
            domain_bias: 0.0,
        }
    }

    /// A detector that performs worse on real imagery at the same
    /// confidence — the failure case that would invalidate the paper's
    /// sim-to-real transfer argument.
    pub fn domain_biased(bias: f32) -> Detector {
        Detector {
            domain_bias: bias,
            ..Detector::grounded_sam_like()
        }
    }

    /// Domain-independent correctness probability (what the detector's
    /// confidence head has learned).
    fn p_base(&self, obj: &SceneObject) -> f32 {
        let x = obj.detectability();
        let logit = self.sharpness * (x - 0.35);
        (1.0 / (1.0 + (-logit).exp())).clamp(0.01, 0.995)
    }

    /// Actual probability the detection is correct, including any domain
    /// bias.
    fn p_correct(&self, obj: &SceneObject, domain: Domain) -> f32 {
        let bias = if domain == Domain::Real {
            self.domain_bias
        } else {
            0.0
        };
        (self.p_base(obj) - bias).clamp(0.01, 0.995)
    }

    /// Runs the detector on one object.
    pub fn detect(&self, obj: &SceneObject, domain: Domain, rng: &mut impl Rng) -> Detection {
        let p = self.p_correct(obj, domain);
        let correct = rng.gen::<f32>() < p;
        // Confidence tracks the detector's *learned* (domain-independent)
        // correctness probability with noise. A domain-biased detector is
        // therefore overconfident on real imagery — the miscalibration
        // the paper's consistency check would catch.
        let noise = (rng.gen::<f32>() - 0.5) * 2.0 * self.confidence_noise;
        let confidence = (self.p_base(obj) + noise).clamp(0.0, 1.0);
        Detection {
            class: obj.class,
            domain,
            confidence,
            correct,
        }
    }

    /// Runs the detector over a whole dataset, one detection per object.
    pub fn detect_all(&self, frames: &[Frame], rng: &mut impl Rng) -> Vec<Detection> {
        frames
            .iter()
            .flat_map(|f| {
                f.objects
                    .iter()
                    .map(|o| self.detect(o, f.domain, rng))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::generate_dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn confidence_in_unit_interval() {
        let det = Detector::grounded_sam_like();
        let mut rng = StdRng::seed_from_u64(0);
        let frames = generate_dataset(Domain::Real, 50, &mut rng);
        for d in det.detect_all(&frames, &mut rng) {
            assert!((0.0..=1.0).contains(&d.confidence));
        }
    }

    #[test]
    fn easy_objects_are_detected_more_reliably() {
        let det = Detector::grounded_sam_like();
        let mut rng = StdRng::seed_from_u64(1);
        let easy = SceneObject {
            class: ObjectClass::Car,
            size: 0.95,
            occlusion: 0.05,
            contrast: 0.95,
        };
        let hard = SceneObject {
            class: ObjectClass::Car,
            size: 0.08,
            occlusion: 0.7,
            contrast: 0.25,
        };
        let rate = |obj: &SceneObject, rng: &mut StdRng| {
            (0..500)
                .filter(|_| det.detect(obj, Domain::Sim, rng).correct)
                .count() as f32
                / 500.0
        };
        assert!(rate(&easy, &mut rng) > rate(&hard, &mut rng) + 0.3);
    }

    #[test]
    fn domain_bias_hurts_real_only() {
        let det = Detector::domain_biased(0.3);
        let obj = SceneObject {
            class: ObjectClass::Pedestrian,
            size: 0.6,
            occlusion: 0.2,
            contrast: 0.7,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let rate = |domain: Domain, rng: &mut StdRng| {
            (0..800)
                .filter(|_| det.detect(&obj, domain, rng).correct)
                .count() as f32
                / 800.0
        };
        let sim = rate(Domain::Sim, &mut rng);
        let real = rate(Domain::Real, &mut rng);
        assert!(sim > real + 0.15, "sim {sim} vs real {real}");
    }

    #[test]
    fn detect_all_covers_every_object() {
        let det = Detector::grounded_sam_like();
        let mut rng = StdRng::seed_from_u64(3);
        let frames = generate_dataset(Domain::Sim, 20, &mut rng);
        let total: usize = frames.iter().map(|f| f.objects.len()).sum();
        assert_eq!(det.detect_all(&frames, &mut rng).len(), total);
    }
}
