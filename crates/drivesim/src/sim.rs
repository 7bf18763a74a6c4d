use crate::Scenario;
use autokit::{presets::DrivingDomain, ActSet, Controller, Step, Trace};
use rand::seq::SliceRandom;
use rand::Rng;

/// How the executor resolves controller non-determinism when several
/// transitions are enabled under one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Pick uniformly at random among enabled transitions (default; the
    /// paper runs controllers "multiple times" and aggregates).
    #[default]
    UniformRandom,
    /// Always take the first enabled transition in declaration order.
    FirstMatch,
}

/// The grounding function `G(C, S)` of the paper's Section 4.2: operates
/// controller `ctrl` in scenario `scenario` for `steps` ticks and returns
/// the observation/action trace in `(2^P × 2^{P_A})^N`.
///
/// Each tick:
/// 1. the vehicle perceives `σ = scenario.observe()`,
/// 2. the controller takes an enabled transition (resolving
///    non-determinism uniformly at random), emitting its action — or `ε`
///    while staying put if no transition is enabled,
/// 3. `(σ, a)` is recorded and the environment advances.
pub fn ground(
    ctrl: &Controller,
    scenario: &mut Scenario,
    domain: &DrivingDomain,
    rng: &mut impl Rng,
    steps: usize,
) -> Trace {
    ground_with_policy(
        ctrl,
        scenario,
        domain,
        rng,
        steps,
        ExecutionPolicy::default(),
    )
}

/// [`ground`] with an explicit non-determinism policy.
pub fn ground_with_policy(
    ctrl: &Controller,
    scenario: &mut Scenario,
    domain: &DrivingDomain,
    rng: &mut impl Rng,
    steps: usize,
    policy: ExecutionPolicy,
) -> Trace {
    let mut trace = Trace::new();
    let mut q = ctrl.initial();
    let mut epsilon_ticks = 0u64;
    for _ in 0..steps {
        let sigma = scenario.observe(domain);
        let enabled: Vec<_> = ctrl.enabled(q, sigma).collect();
        let (action, next) = match policy {
            ExecutionPolicy::UniformRandom => match enabled.choose(rng) {
                Some(t) => (t.action, t.to),
                None => (ActSet::empty(), q),
            },
            ExecutionPolicy::FirstMatch => match enabled.first() {
                Some(t) => (t.action, t.to),
                None => (ActSet::empty(), q),
            },
        };
        if enabled.is_empty() {
            epsilon_ticks += 1;
        }
        trace.push(Step::new(sigma, action));
        q = next;
        scenario.advance(rng);
    }
    if obskit::enabled() {
        obskit::counter_add("drivesim.episodes", 1);
        obskit::counter_add("drivesim.ticks", steps as u64);
        obskit::counter_add("drivesim.epsilon_ticks", epsilon_ticks);
    }
    trace
}

/// Runs `runs` independent episodes (scenario reset each time) and
/// returns their traces — the sample set over which the paper computes
/// per-specification satisfaction rates.
pub fn ground_many(
    ctrl: &Controller,
    scenario: &mut Scenario,
    domain: &DrivingDomain,
    rng: &mut impl Rng,
    steps: usize,
    runs: usize,
) -> Vec<Trace> {
    let _rollout = obskit::span("drivesim.rollout");
    (0..runs)
        .map(|_| {
            scenario.reset();
            ground(ctrl, scenario, domain, rng, steps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioConfig, ScenarioKind};
    use autokit::{ControllerBuilder, Guard};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn domain() -> DrivingDomain {
        DrivingDomain::new()
    }

    /// Stop on red / go on green.
    fn light_follower(d: &DrivingDomain) -> Controller {
        ControllerBuilder::new("follower", 1)
            .initial(0)
            .transition(
                0,
                Guard::always().requires(d.green_tl),
                ActSet::singleton(d.go_straight),
                0,
            )
            .transition(
                0,
                Guard::always().forbids(d.green_tl),
                ActSet::singleton(d.stop),
                0,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn trace_has_requested_length_and_valid_steps() {
        let d = domain();
        let ctrl = light_follower(&d);
        let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let trace = ground(&ctrl, &mut scenario, &d, &mut rng, 60);
        assert_eq!(trace.len(), 60);
        // The follower's action always matches the light.
        for step in &trace {
            if step.props.contains(d.green_tl) {
                assert!(step.acts.contains(d.go_straight));
            } else {
                assert!(step.acts.contains(d.stop));
            }
        }
    }

    #[test]
    fn deadlocked_controller_emits_epsilon() {
        let d = domain();
        // No transitions at all: always ε, never moves.
        let ctrl = ControllerBuilder::new("stuck", 1)
            .initial(0)
            .build()
            .unwrap();
        let mut scenario = Scenario::new(ScenarioKind::WideMedian, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let trace = ground(&ctrl, &mut scenario, &d, &mut rng, 10);
        assert!(trace.iter().all(|s| s.acts.is_empty()));
    }

    #[test]
    fn ground_many_resets_between_runs() {
        let d = domain();
        let ctrl = light_follower(&d);
        let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let traces = ground_many(&ctrl, &mut scenario, &d, &mut rng, 15, 8);
        assert_eq!(traces.len(), 8);
        // Every episode starts at the initial (green, clear) state.
        for t in &traces {
            let first = t.steps()[0];
            assert!(first.props.contains(d.green_tl));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = domain();
        let ctrl = light_follower(&d);
        let run = |seed| {
            let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            ground(&ctrl, &mut scenario, &d, &mut rng, 30)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn first_match_policy_is_deterministic_in_controller_order() {
        let d = domain();
        // Two always-enabled transitions; FirstMatch must take the first.
        let ctrl = ControllerBuilder::new("dual", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(d.stop), 0)
            .transition(0, Guard::always(), ActSet::singleton(d.go_straight), 0)
            .build()
            .unwrap();
        let mut scenario = Scenario::new(ScenarioKind::WideMedian, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let trace = ground_with_policy(
            &ctrl,
            &mut scenario,
            &d,
            &mut rng,
            20,
            ExecutionPolicy::FirstMatch,
        );
        assert!(trace.iter().all(|s| s.acts.contains(d.stop)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Traces have the requested length, observations are legal
            /// for the scenario, and actions come from the controller's
            /// alphabet.
            #[test]
            fn trace_invariants(
                seed in any::<u64>(),
                steps in 0usize..50,
                kind_idx in 0usize..5,
            ) {
                let d = domain();
                let ctrl = light_follower(&d);
                let kind = ScenarioKind::all()[kind_idx];
                let mut scenario = Scenario::new(kind, ScenarioConfig::default());
                let mut rng = StdRng::seed_from_u64(seed);
                let trace = ground(&ctrl, &mut scenario, &d, &mut rng, steps);
                prop_assert_eq!(trace.len(), steps);
                let alphabet = ctrl.action_alphabet();
                for step in &trace {
                    prop_assert!(alphabet.is_superset(step.acts));
                    if kind == ScenarioKind::TwoWayStop {
                        prop_assert!(step.props.contains(d.stop_sign));
                    }
                    if kind == ScenarioKind::Roundabout {
                        prop_assert_eq!(
                            step.props.contains(d.ped_left),
                            step.props.contains(d.ped_right)
                        );
                    }
                }
            }

            /// Scenario observations always stay within the scenario's
            /// world-model label set (the simulator respects the model).
            #[test]
            fn observations_are_model_labels(
                seed in any::<u64>(),
                kind_idx in 0usize..5,
            ) {
                let d = domain();
                let kind = ScenarioKind::all()[kind_idx];
                // The matching preset world model.
                let model = match kind {
                    ScenarioKind::TrafficLight => d.traffic_light_model(),
                    ScenarioKind::LeftTurnSignal => d.left_turn_light_model(),
                    ScenarioKind::WideMedian => d.wide_median_model(),
                    ScenarioKind::TwoWayStop => d.two_way_stop_model(),
                    ScenarioKind::Roundabout => d.roundabout_model(),
                };
                let labels: std::collections::HashSet<u32> =
                    model.states().map(|s| model.label(s).bits()).collect();
                let mut scenario = Scenario::new(kind, ScenarioConfig::default());
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..60 {
                    let obs = scenario.observe(&d);
                    prop_assert!(
                        labels.contains(&obs.bits()),
                        "{kind:?}: observation {:?} is not a model label",
                        obs
                    );
                    scenario.advance(&mut rng);
                }
            }
        }
    }

    #[test]
    fn finite_monitoring_integrates() {
        // End-to-end: sim traces → LTLf satisfaction rates.
        let d = domain();
        let ctrl = light_follower(&d);
        let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let traces = ground_many(&ctrl, &mut scenario, &d, &mut rng, 40, 20);
        let specs = ltlcheck::specs::driving_specs(&d);
        // Φ₃ = □(¬green → ¬go straight): the follower always satisfies it.
        let phi3 = &specs[2].formula;
        let rate = ltlcheck::finite::satisfaction_rate(traces.iter(), phi3);
        assert_eq!(rate, 1.0);
        // Φ₁₄ = □(go straight → ¬ped in front): the follower ignores
        // pedestrians, so some traces should violate it.
        let phi14 = &specs[13].formula;
        let rate14 = ltlcheck::finite::satisfaction_rate(traces.iter(), phi14);
        assert!(
            rate14 < 1.0,
            "follower should sometimes hit phi_14: {rate14}"
        );
    }
}
