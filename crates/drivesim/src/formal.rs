//! The formal-verification side of each scenario: its world model and
//! its justice (weak-fairness) assumptions.
//!
//! This is the single source of truth for the scenario → model and
//! scenario → justice mappings. `dpo-af`'s feedback stage, `speclint`'s
//! presets and `certkit`'s certification gate all consume it, so the
//! model a controller is verified against is — by construction — the
//! model its verdicts are certified against.

use crate::ScenarioKind;
use autokit::presets::DrivingDomain;
use autokit::WorldModel;
use ltlcheck::{Justice, Ltl};

/// The scenario's world model (paper Figures 5, 6, 15, 16, 17).
pub fn scenario_model(d: &DrivingDomain, kind: ScenarioKind) -> WorldModel {
    match kind {
        ScenarioKind::TrafficLight => d.traffic_light_model(),
        ScenarioKind::LeftTurnSignal => d.left_turn_light_model(),
        ScenarioKind::WideMedian => d.wide_median_model(),
        ScenarioKind::TwoWayStop => d.two_way_stop_model(),
        ScenarioKind::Roundabout => d.roundabout_model(),
    }
}

/// The scenario's justice assumptions: infinitely often, the intersection
/// is clear (and its light, if any, is green) — i.e. the environment
/// eventually gives the vehicle a chance to move.
///
/// Mirrors NuSMV `JUSTICE` declarations; without them the liveness rules
/// Φ₇/Φ₁₀/Φ₁₃ are unsatisfiable against a fully adversarial environment.
#[allow(clippy::expect_used, reason = "justice conditions are propositional")]
pub fn scenario_justice(d: &DrivingDomain, kind: ScenarioKind) -> Vec<Justice> {
    let clear_of = |props: &[autokit::PropId]| -> Ltl {
        Ltl::all(props.iter().map(|&p| Ltl::not(Ltl::prop(p))))
    };
    let condition = match kind {
        ScenarioKind::TrafficLight => Ltl::and(
            Ltl::prop(d.green_tl),
            clear_of(&[d.car_left, d.opposite_car, d.ped_right, d.ped_front]),
        ),
        ScenarioKind::LeftTurnSignal => Ltl::and(
            Ltl::prop(d.green_ll),
            clear_of(&[d.opposite_car, d.ped_front]),
        ),
        ScenarioKind::WideMedian => clear_of(&[d.car_left, d.car_right]),
        ScenarioKind::TwoWayStop => clear_of(&[d.car_left, d.car_right, d.ped_front]),
        ScenarioKind::Roundabout => clear_of(&[d.car_left, d.ped_left, d.ped_right]),
    };
    vec![Justice::new("way eventually clears", condition).expect("propositional by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario's justice condition is realizable in its own model:
    /// some state satisfies it, so fairness never vacuously discharges
    /// the whole rule book.
    #[test]
    fn justice_realizable_in_every_scenario() {
        let d = DrivingDomain::new();
        for kind in ScenarioKind::all() {
            let model = scenario_model(&d, kind);
            let justice = scenario_justice(&d, kind);
            let witness = model.states().any(|s| {
                justice
                    .iter()
                    .all(|j| j.holds(model.label(s), autokit::ActSet::empty()))
            });
            assert!(witness, "justice unrealizable in {kind:?}");
        }
    }
}
