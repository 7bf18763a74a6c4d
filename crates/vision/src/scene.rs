use rand::Rng;

/// Which imaging domain a frame comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Rendered simulator frames (the paper's Carla dataset).
    Sim,
    /// Real-world driving footage (the paper's NuImages dataset).
    Real,
}

/// Object classes the detector is queried for — the categories of the
/// paper's Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Vehicles.
    Car,
    /// Pedestrians.
    Pedestrian,
    /// Traffic lights.
    TrafficLight,
    /// Stop signs.
    StopSign,
}

impl ObjectClass {
    /// All classes.
    pub fn all() -> [ObjectClass; 4] {
        [
            ObjectClass::Car,
            ObjectClass::Pedestrian,
            ObjectClass::TrafficLight,
            ObjectClass::StopSign,
        ]
    }
}

/// Weather / lighting condition of a frame — the qualitative axis of the
/// paper's Figure 13 ("different weather or light conditions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Clear daylight.
    ClearDay,
    /// Overcast sky.
    Overcast,
    /// Rain on the lens, wet roads.
    Rain,
    /// Night driving.
    Night,
}

impl Condition {
    /// All conditions.
    pub fn all() -> [Condition; 4] {
        [
            Condition::ClearDay,
            Condition::Overcast,
            Condition::Rain,
            Condition::Night,
        ]
    }

    /// Contrast range objects are drawn from under this condition.
    fn contrast_range(self) -> (f32, f32) {
        match self {
            Condition::ClearDay => (0.6, 1.0),
            Condition::Overcast => (0.4, 0.9),
            Condition::Rain => (0.25, 0.75),
            Condition::Night => (0.1, 0.55),
        }
    }
}

/// One annotated object in a frame, described by the latent factors that
/// drive detectability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneObject {
    /// Class label (ground truth).
    pub class: ObjectClass,
    /// Apparent size in `[0, 1]` (fraction of frame height).
    pub size: f32,
    /// Occlusion in `[0, 1]` (0 = fully visible).
    pub occlusion: f32,
    /// Local contrast in `[0, 1]` (lighting/weather dependent).
    pub contrast: f32,
}

impl SceneObject {
    /// Scalar detectability in `[0, 1]`: how easy this object is for any
    /// reasonable detector.
    pub fn detectability(&self) -> f32 {
        (0.45 * self.size + 0.3 * (1.0 - self.occlusion) + 0.25 * self.contrast).clamp(0.0, 1.0)
    }
}

/// One frame: a bag of annotated objects from one domain under one
/// weather/light condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The imaging domain.
    pub domain: Domain,
    /// Weather / lighting condition.
    pub condition: Condition,
    /// The frame's objects.
    pub objects: Vec<SceneObject>,
}

/// Generates a dataset of annotated frames with a domain-typical mixture
/// of weather/light conditions.
///
/// The domains differ in their latent-factor distributions — the real
/// domain has more occlusion and a harsher condition mixture (rain,
/// night) while the simulator renders cleaner, more uniform scenes. This
/// mirrors the qualitative gap between Carla and NuImages the paper
/// illustrates in its Figure 13.
pub fn generate_dataset(domain: Domain, frames: usize, rng: &mut impl Rng) -> Vec<Frame> {
    let conditions: &[(Condition, f64)] = match domain {
        Domain::Sim => &[
            (Condition::ClearDay, 0.55),
            (Condition::Overcast, 0.25),
            (Condition::Rain, 0.10),
            (Condition::Night, 0.10),
        ],
        Domain::Real => &[
            (Condition::ClearDay, 0.35),
            (Condition::Overcast, 0.25),
            (Condition::Rain, 0.20),
            (Condition::Night, 0.20),
        ],
    };
    (0..frames)
        .map(|_| {
            let mut draw: f64 = rng.gen();
            let mut condition = Condition::ClearDay;
            for &(c, w) in conditions {
                if draw < w {
                    condition = c;
                    break;
                }
                draw -= w;
            }
            generate_frame(domain, condition, rng)
        })
        .collect()
}

/// Generates one frame under an explicit condition.
pub fn generate_frame(domain: Domain, condition: Condition, rng: &mut impl Rng) -> Frame {
    let (occl_max, objects_per_frame) = match domain {
        Domain::Sim => (0.5, 3..7),
        Domain::Real => (0.8, 2..9),
    };
    let (c_min, c_max) = condition.contrast_range();
    let count = rng.gen_range(objects_per_frame);
    let objects = (0..count)
        .map(|_| {
            let class = match rng.gen_range(0..4) {
                0 => ObjectClass::Car,
                1 => ObjectClass::Pedestrian,
                2 => ObjectClass::TrafficLight,
                _ => ObjectClass::StopSign,
            };
            SceneObject {
                class,
                size: rng.gen_range(0.05f32..1.0),
                occlusion: rng.gen_range(0.0f32..occl_max),
                contrast: rng.gen_range(c_min..c_max),
            }
        })
        .collect();
    Frame {
        domain,
        condition,
        objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dataset_has_requested_size_and_domain() {
        let mut rng = StdRng::seed_from_u64(0);
        let frames = generate_dataset(Domain::Sim, 25, &mut rng);
        assert_eq!(frames.len(), 25);
        assert!(frames.iter().all(|f| f.domain == Domain::Sim));
        assert!(frames.iter().all(|f| !f.objects.is_empty()));
    }

    #[test]
    fn real_domain_is_harder_on_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let sim = generate_dataset(Domain::Sim, 300, &mut rng);
        let real = generate_dataset(Domain::Real, 300, &mut rng);
        let mean_detect = |frames: &[Frame]| -> f32 {
            let objs: Vec<f32> = frames
                .iter()
                .flat_map(|f| f.objects.iter().map(SceneObject::detectability))
                .collect();
            objs.iter().sum::<f32>() / objs.len() as f32
        };
        assert!(mean_detect(&sim) > mean_detect(&real) + 0.02);
    }

    #[test]
    fn conditions_order_contrast() {
        let mut rng = StdRng::seed_from_u64(5);
        let mean_contrast = |condition: Condition, rng: &mut StdRng| -> f32 {
            let objs: Vec<f32> = (0..200)
                .flat_map(|_| {
                    generate_frame(Domain::Real, condition, rng)
                        .objects
                        .into_iter()
                        .map(|o| o.contrast)
                        .collect::<Vec<_>>()
                })
                .collect();
            objs.iter().sum::<f32>() / objs.len() as f32
        };
        let day = mean_contrast(Condition::ClearDay, &mut rng);
        let rain = mean_contrast(Condition::Rain, &mut rng);
        let night = mean_contrast(Condition::Night, &mut rng);
        assert!(day > rain && rain > night, "{day} {rain} {night}");
    }

    #[test]
    fn real_mixture_is_harsher() {
        let mut rng = StdRng::seed_from_u64(6);
        let frac_harsh = |domain: Domain, rng: &mut StdRng| -> f64 {
            let frames = generate_dataset(domain, 600, rng);
            frames
                .iter()
                .filter(|f| matches!(f.condition, Condition::Rain | Condition::Night))
                .count() as f64
                / 600.0
        };
        assert!(frac_harsh(Domain::Real, &mut rng) > frac_harsh(Domain::Sim, &mut rng) + 0.05);
    }

    #[test]
    fn detectability_bounded_and_monotone() {
        let base = SceneObject {
            class: ObjectClass::Car,
            size: 0.5,
            occlusion: 0.5,
            contrast: 0.5,
        };
        let easy = SceneObject {
            size: 0.9,
            occlusion: 0.1,
            contrast: 0.9,
            ..base
        };
        assert!(easy.detectability() > base.detectability());
        assert!((0.0..=1.0).contains(&base.detectability()));
        assert!((0.0..=1.0).contains(&easy.detectability()));
    }
}
