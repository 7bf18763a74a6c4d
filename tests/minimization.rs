//! Bisimulation minimization must never change a verification verdict.

use dpo_af::domain::DomainBundle;
use dpo_af::experiments::demo::{
    LEFT_TURN_AFTER, LEFT_TURN_BEFORE, RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE,
};
use dpo_af::feedback::{justice_for, scenario_model};
use drivesim::ScenarioKind;
use glm2fsa::synthesize;
use ltlcheck::specs::driving_specs;
use ltlcheck::verify_all_fair;

#[test]
fn quotient_preserves_all_fifteen_verdicts() {
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let specs = driving_specs(d);
    let cases: [(&[&str], ScenarioKind); 4] = [
        (&RIGHT_TURN_BEFORE, ScenarioKind::TrafficLight),
        (&RIGHT_TURN_AFTER, ScenarioKind::TrafficLight),
        (&LEFT_TURN_BEFORE, ScenarioKind::LeftTurnSignal),
        (&LEFT_TURN_AFTER, ScenarioKind::LeftTurnSignal),
    ];
    for (steps, kind) in cases {
        let ctrl = synthesize("demo", steps, &bundle.lexicon).expect("paper demo steps align");
        let min = ctrl.bisimulation_quotient();
        assert!(min.num_states() <= ctrl.num_states());

        let model = scenario_model(d, kind);
        let justice = justice_for(d, kind);
        let full = verify_all_fair(
            &model,
            &ctrl,
            specs.iter().map(|s| (s.name.as_str(), &s.formula)),
            &justice,
        );
        let reduced = verify_all_fair(
            &model,
            &min,
            specs.iter().map(|s| (s.name.as_str(), &s.formula)),
            &justice,
        );
        for (a, b) in full.results.iter().zip(&reduced.results) {
            assert_eq!(
                a.verdict.holds(),
                b.verdict.holds(),
                "{kind:?} / {}: verdict changed by minimization",
                a.name
            );
        }
    }
}

#[test]
fn quotient_shrinks_repeated_step_controllers() {
    // A language model sometimes emits the same instruction twice; the
    // two states are bisimilar (each turns under the same guard and
    // otherwise waits), so the quotient merges them — pure verification
    // speedup with identical behaviour.
    let bundle = DomainBundle::new();
    let steps = [
        "if no car from the left, turn right",
        "if no car from the left, turn right",
    ];
    let ctrl = synthesize("stuttered", &steps, &bundle.lexicon).expect("steps align");
    let min = ctrl.bisimulation_quotient();
    assert_eq!(ctrl.num_states(), 2);
    assert_eq!(min.num_states(), 1, "duplicated steps should merge");
}
