//! The paper's fifteen driving-rule specifications Φ₁..Φ₁₅ (Appendix C),
//! expressed over the [`autokit::presets::DrivingDomain`] vocabulary.
//!
//! The bare proposition `pedestrian` in Φ₁ abbreviates "a pedestrian is
//! present anywhere", i.e. `pedestrian at left ∨ pedestrian at right ∨
//! pedestrian in front`, matching the paper's usage.

use crate::Ltl;
use autokit::presets::DrivingDomain;

/// A named specification with a human-readable gloss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Short identifier, `"phi_1"` … `"phi_15"`.
    pub name: String,
    /// What the rule says, in English.
    pub description: String,
    /// The LTL formula.
    pub formula: Ltl,
}

/// Builds the full 15-specification suite over a driving domain.
///
/// # Example
///
/// ```
/// use autokit::presets::DrivingDomain;
/// use ltlcheck::specs::driving_specs;
///
/// let domain = DrivingDomain::new();
/// let specs = driving_specs(&domain);
/// assert_eq!(specs.len(), 15);
/// assert_eq!(specs[0].name, "phi_1");
/// ```
pub fn driving_specs(d: &DrivingDomain) -> Vec<Spec> {
    let pedestrian = Ltl::any([
        Ltl::prop(d.ped_left),
        Ltl::prop(d.ped_right),
        Ltl::prop(d.ped_front),
    ]);
    let green_tl = Ltl::prop(d.green_tl);
    let green_ll = Ltl::prop(d.green_ll);
    let opposite = Ltl::prop(d.opposite_car);
    let car_left = Ltl::prop(d.car_left);
    let car_right = Ltl::prop(d.car_right);
    let ped_right = Ltl::prop(d.ped_right);
    let ped_front = Ltl::prop(d.ped_front);
    let stop_sign = Ltl::prop(d.stop_sign);
    let stop = Ltl::act(d.stop);
    let turn_left = Ltl::act(d.turn_left);
    let turn_right = Ltl::act(d.turn_right);
    let go_straight = Ltl::act(d.go_straight);

    let spec = |name: &str, description: &str, formula: Ltl| Spec {
        name: name.to_owned(),
        description: description.to_owned(),
        formula,
    };

    vec![
        spec(
            "phi_1",
            "a pedestrian anywhere eventually forces a stop",
            // Φ₁ = □(pedestrian → ◇ stop)
            Ltl::always(Ltl::implies(
                pedestrian.clone(),
                Ltl::eventually(stop.clone()),
            )),
        ),
        spec(
            "phi_2",
            "no left turn against oncoming traffic without a protected signal",
            // Φ₂ = □(opposite car ∧ ¬green left-turn light → ¬turn left)
            Ltl::always(Ltl::implies(
                Ltl::and(opposite.clone(), Ltl::not(green_ll.clone())),
                Ltl::not(turn_left.clone()),
            )),
        ),
        spec(
            "phi_3",
            "never go straight without a green traffic light",
            // Φ₃ = □(¬green traffic light → ¬go straight)
            Ltl::always(Ltl::implies(
                Ltl::not(green_tl.clone()),
                Ltl::not(go_straight.clone()),
            )),
        ),
        spec(
            "phi_4",
            "a stop sign eventually forces a stop",
            // Φ₄ = □(stop sign → ◇ stop)
            Ltl::always(Ltl::implies(
                stop_sign.clone(),
                Ltl::eventually(stop.clone()),
            )),
        ),
        spec(
            "phi_5",
            "no right turn while a car approaches from the left or a pedestrian is at the right",
            // Φ₅ = □(car from left ∨ pedestrian at right → ¬turn right)
            Ltl::always(Ltl::implies(
                Ltl::or(car_left.clone(), ped_right.clone()),
                Ltl::not(turn_right.clone()),
            )),
        ),
        spec(
            "phi_6",
            "the controller always commits to some action",
            // Φ₆ = □(stop ∨ go straight ∨ turn left ∨ turn right)
            Ltl::always(Ltl::any([
                stop.clone(),
                go_straight.clone(),
                turn_left.clone(),
                turn_right.clone(),
            ])),
        ),
        spec(
            "phi_7",
            "if a green light eventually shows, the vehicle does not stop forever",
            // Φ₇ = ◇(green traffic light ∨ green left-turn light) → ◇¬stop
            Ltl::implies(
                Ltl::eventually(Ltl::or(green_tl.clone(), green_ll.clone())),
                Ltl::eventually(Ltl::not(stop.clone())),
            ),
        ),
        spec(
            "phi_8",
            "without a green light the vehicle eventually stops",
            // Φ₈ = □(¬green traffic light → ◇ stop)
            Ltl::always(Ltl::implies(
                Ltl::not(green_tl.clone()),
                Ltl::eventually(stop.clone()),
            )),
        ),
        spec(
            "phi_9",
            "never turn while a car approaches from the left",
            // Φ₉ = □(car from left → ¬(turn left ∨ turn right))
            Ltl::always(Ltl::implies(
                car_left.clone(),
                Ltl::not(Ltl::or(turn_left.clone(), turn_right.clone())),
            )),
        ),
        spec(
            "phi_10",
            "a green traffic light eventually releases the stop",
            // Φ₁₀ = □(green traffic light → ◇¬stop)
            Ltl::always(Ltl::implies(
                green_tl.clone(),
                Ltl::eventually(Ltl::not(stop.clone())),
            )),
        ),
        spec(
            "phi_11",
            "a right turn on red requires no car from the left",
            // Φ₁₁ = □((turn right ∧ ¬green traffic light) → ¬car from left)
            Ltl::always(Ltl::implies(
                Ltl::and(turn_right.clone(), Ltl::not(green_tl.clone())),
                Ltl::not(car_left.clone()),
            )),
        ),
        spec(
            "phi_12",
            "an unprotected left turn requires clear traffic in all directions",
            // Φ₁₂ = □((turn left ∧ ¬green left-turn light) →
            //          (¬car from right ∧ ¬car from left ∧ ¬opposite car))
            Ltl::always(Ltl::implies(
                Ltl::and(turn_left.clone(), Ltl::not(green_ll.clone())),
                Ltl::all([
                    Ltl::not(car_right.clone()),
                    Ltl::not(car_left.clone()),
                    Ltl::not(opposite.clone()),
                ]),
            )),
        ),
        spec(
            "phi_13",
            "at a clear stop sign the vehicle eventually proceeds",
            // Φ₁₃ = □((stop sign ∧ ¬car from left ∧ ¬car from right) → ◇¬stop)
            Ltl::always(Ltl::implies(
                Ltl::all([
                    stop_sign.clone(),
                    Ltl::not(car_left.clone()),
                    Ltl::not(car_right.clone()),
                ]),
                Ltl::eventually(Ltl::not(stop.clone())),
            )),
        ),
        spec(
            "phi_14",
            "never go straight into a pedestrian",
            // Φ₁₄ = □(go straight → ¬pedestrian in front)
            Ltl::always(Ltl::implies(
                go_straight.clone(),
                Ltl::not(ped_front.clone()),
            )),
        ),
        spec(
            "phi_15",
            "a right turn at a stop sign requires no car from the left",
            // Φ₁₅ = □((turn right ∧ stop sign) → ¬car from left)
            Ltl::always(Ltl::implies(
                Ltl::and(turn_right.clone(), stop_sign.clone()),
                Ltl::not(car_left.clone()),
            )),
        ),
    ]
}

/// The first five specifications — the subset the paper reports simulator
/// satisfaction rates for (its Figure 11).
pub fn headline_specs(d: &DrivingDomain) -> Vec<Spec> {
    driving_specs(d).into_iter().take(5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite;
    use autokit::{ActSet, PropSet, Step, Trace};

    #[test]
    fn suite_has_fifteen_named_specs() {
        let d = DrivingDomain::new();
        let specs = driving_specs(&d);
        assert_eq!(specs.len(), 15);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.name, format!("phi_{}", i + 1));
            assert!(!s.description.is_empty());
            assert!(s.formula.size() > 1);
        }
    }

    #[test]
    fn headline_specs_are_first_five() {
        let d = DrivingDomain::new();
        assert_eq!(
            headline_specs(&d)
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>(),
            vec!["phi_1", "phi_2", "phi_3", "phi_4", "phi_5"]
        );
    }

    #[test]
    fn phi5_violated_by_turning_into_traffic() {
        let d = DrivingDomain::new();
        let phi5 = &driving_specs(&d)[4].formula;
        let mut bad = Trace::new();
        bad.push(Step::new(
            PropSet::singleton(d.car_left),
            ActSet::singleton(d.turn_right),
        ));
        assert!(!finite::satisfies(&bad, phi5));
        let mut good = Trace::new();
        good.push(Step::new(
            PropSet::singleton(d.car_left),
            ActSet::singleton(d.stop),
        ));
        good.push(Step::new(PropSet::empty(), ActSet::singleton(d.turn_right)));
        assert!(finite::satisfies(&good, phi5));
    }

    #[test]
    fn phi1_any_pedestrian_triggers() {
        let d = DrivingDomain::new();
        let phi1 = &driving_specs(&d)[0].formula;
        for ped in [d.ped_left, d.ped_right, d.ped_front] {
            let mut ignored = Trace::new();
            ignored.push(Step::new(
                PropSet::singleton(ped),
                ActSet::singleton(d.go_straight),
            ));
            assert!(!finite::satisfies(&ignored, phi1), "ped ignored");
            let mut heeded = Trace::new();
            heeded.push(Step::new(
                PropSet::singleton(ped),
                ActSet::singleton(d.stop),
            ));
            assert!(finite::satisfies(&heeded, phi1));
        }
    }

    #[test]
    fn phi14_direct_conflict() {
        let d = DrivingDomain::new();
        let phi14 = &driving_specs(&d)[13].formula;
        let mut t = Trace::new();
        t.push(Step::new(
            PropSet::singleton(d.ped_front),
            ActSet::singleton(d.go_straight),
        ));
        assert!(!finite::satisfies(&t, phi14));
    }

    #[test]
    fn phi7_vacuous_without_green() {
        let d = DrivingDomain::new();
        let phi7 = &driving_specs(&d)[6].formula;
        // No green light ever: antecedent false, spec holds even while
        // stopped forever.
        let mut t = Trace::new();
        for _ in 0..5 {
            t.push(Step::new(PropSet::empty(), ActSet::singleton(d.stop)));
        }
        assert!(finite::satisfies(&t, phi7));
    }
}
