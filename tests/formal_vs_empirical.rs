//! Cross-crate consistency: Theorem 1 of the paper states that when the
//! world model captures the system, formal verification implies empirical
//! satisfaction (`M ⊗ C ⊨ Φ ⟹ G(C, S) ⊨ Φ`). The simulator's dynamics
//! are a subset of the scenario models' (single-change arrivals, phased
//! lights), so a formally verified safety property must never be violated
//! by any simulated trace.

use dpo_af::domain::DomainBundle;
use dpo_af::experiments::demo::{RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE};
use dpo_af::feedback::{justice_for, scenario_model};
use drivesim::{ground_many, Scenario, ScenarioConfig, ScenarioKind};
use glm2fsa::synthesize;
use ltlcheck::specs::driving_specs;
use ltlcheck::{verify_all_fair, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Safety specifications (pure invariants): formal pass ⟹ no finite
/// trace can violate them. Liveness specs are excluded because a finite
/// trace can end mid-wait without witnessing the eventuality.
const SAFETY_SPECS: [&str; 7] = [
    "phi_2", "phi_3", "phi_5", "phi_9", "phi_11", "phi_14", "phi_15",
];

#[test]
fn formally_verified_safety_holds_on_every_simulated_trace() {
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let specs = driving_specs(d);
    let model = scenario_model(d, ScenarioKind::TrafficLight);
    let justice = justice_for(d, ScenarioKind::TrafficLight);
    let mut rng = StdRng::seed_from_u64(99);

    for steps in [&RIGHT_TURN_BEFORE[..], &RIGHT_TURN_AFTER[..]] {
        let ctrl = synthesize("turn right", steps, &bundle.lexicon).expect("demo steps align");
        let report = verify_all_fair(
            &model,
            &ctrl,
            specs.iter().map(|s| (s.name.as_str(), &s.formula)),
            &justice,
        );
        let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let traces = ground_many(&ctrl, &mut scenario, d, &mut rng, 50, 40);

        for result in &report.results {
            if !SAFETY_SPECS.contains(&result.name.as_str()) {
                continue;
            }
            if matches!(result.verdict, Verdict::Holds) {
                let spec = specs
                    .iter()
                    .find(|s| s.name == result.name)
                    .expect("same suite");
                let rate = ltlcheck::finite::satisfaction_rate(traces.iter(), &spec.formula);
                assert_eq!(
                    rate, 1.0,
                    "{}: formally verified but empirically violated (rate {rate})",
                    result.name
                );
            }
        }
    }
}

#[test]
fn counterexamples_describe_realizable_environment_behaviour() {
    // Every counterexample's observation sequence must be a path of the
    // scenario world model — the checker cannot invent dynamics.
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let model = scenario_model(d, ScenarioKind::TrafficLight);
    let specs = driving_specs(d);
    let ctrl = synthesize("turn right", &RIGHT_TURN_BEFORE, &bundle.lexicon).expect("demo aligns");
    let report = verify_all_fair(
        &model,
        &ctrl,
        specs.iter().map(|s| (s.name.as_str(), &s.formula)),
        &justice_for(d, ScenarioKind::TrafficLight),
    );
    let mut found_cex = false;
    for result in &report.results {
        let Verdict::Fails(cex) = &result.verdict else {
            continue;
        };
        found_cex = true;
        let all_steps: Vec<_> = cex.stem.iter().chain(&cex.cycle).collect();
        for pair in all_steps.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                model.has_transition(a.state.model, b.state.model),
                "{}: counterexample uses impossible transition p{} → p{}",
                result.name,
                a.state.model,
                b.state.model
            );
        }
    }
    assert!(found_cex, "the before-FT controller should fail something");
}
