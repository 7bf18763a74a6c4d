//! Multi-leg routes: drive through a sequence of scenarios, one
//! synthesized controller per leg.
//!
//! The paper's Section 5.3 argues verified controllers transfer to
//! real operation; a route is the operational composition of that claim —
//! an actual drive is a chain of intersections, stops and merges, each
//! handled by the controller synthesized for that situation. A leg
//! completes when the controller performs the leg's maneuver; a leg that
//! never completes within its tick budget stalls the mission.

use crate::incident::{detect_incidents_for, Incident};
use crate::{Scenario, ScenarioConfig, ScenarioKind};
use autokit::{presets::DrivingDomain, ActSet, Controller, Step, Trace};
use rand::seq::SliceRandom;
use rand::Rng;

/// One leg of a route: a scenario plus the action that completes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteLeg {
    /// Where this leg takes place.
    pub scenario: ScenarioKind,
    /// Performing any action in this set completes the leg (e.g.
    /// `turn right` at the first intersection).
    pub completes_on: ActSet,
}

/// A planned route.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// The legs, in driving order.
    pub legs: Vec<RouteLeg>,
}

/// The outcome of driving a route.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// Legs completed before the mission ended or stalled.
    pub legs_completed: usize,
    /// `true` iff every leg completed.
    pub completed: bool,
    /// Incidents across the whole drive, with the leg they occurred on.
    pub incidents: Vec<(usize, Incident)>,
    /// The concatenated observation/action trace.
    pub trace: Trace,
}

/// Drives a route: `controllers[i]` handles `route.legs[i]`.
///
/// Each leg runs in a fresh scenario instance for at most
/// `max_ticks_per_leg` ticks; the leg completes at the first tick whose
/// action intersects `completes_on`. A timed-out leg ends the mission
/// (the vehicle is stuck).
///
/// # Panics
///
/// Panics if `controllers.len() != route.legs.len()`.
pub fn drive_route(
    route: &Route,
    controllers: &[Controller],
    domain: &DrivingDomain,
    config: ScenarioConfig,
    rng: &mut impl Rng,
    max_ticks_per_leg: usize,
) -> MissionOutcome {
    assert_eq!(
        controllers.len(),
        route.legs.len(),
        "one controller per leg required"
    );
    let mut trace = Trace::new();
    let mut incidents = Vec::new();
    let mut legs_completed = 0;

    'legs: for (leg_idx, (leg, ctrl)) in route.legs.iter().zip(controllers).enumerate() {
        let mut scenario = Scenario::new(leg.scenario, config);
        let mut q = ctrl.initial();
        let leg_start = trace.len();
        for _ in 0..max_ticks_per_leg {
            let sigma = scenario.observe(domain);
            let enabled: Vec<_> = ctrl.enabled(q, sigma).collect();
            let (action, next) = match enabled.choose(rng) {
                Some(t) => (t.action, t.to),
                None => (ActSet::empty(), q),
            };
            trace.push(Step::new(sigma, action));
            q = next;
            scenario.advance(rng);
            if !action.is_disjoint(leg.completes_on) {
                // Leg done; attribute this leg's incidents and move on.
                attribute_incidents(
                    &trace,
                    leg_start,
                    leg_idx,
                    leg.scenario,
                    domain,
                    &mut incidents,
                );
                legs_completed += 1;
                continue 'legs;
            }
        }
        // Timed out: stuck on this leg.
        attribute_incidents(
            &trace,
            leg_start,
            leg_idx,
            leg.scenario,
            domain,
            &mut incidents,
        );
        break;
    }

    MissionOutcome {
        legs_completed,
        completed: legs_completed == route.legs.len(),
        incidents,
        trace,
    }
}

fn attribute_incidents(
    trace: &Trace,
    leg_start: usize,
    leg_idx: usize,
    scenario: crate::ScenarioKind,
    domain: &DrivingDomain,
    out: &mut Vec<(usize, Incident)>,
) {
    let leg_trace: Trace = trace.iter().skip(leg_start).copied().collect();
    for incident in detect_incidents_for(&leg_trace, domain, scenario) {
        out.push((
            leg_idx,
            Incident {
                step: leg_start + incident.step,
                kind: incident.kind,
            },
        ));
    }
}

impl Route {
    /// A representative commute: traffic light, stop sign, wide median,
    /// roundabout, protected left turn.
    pub fn commute(d: &DrivingDomain) -> Route {
        Route {
            legs: vec![
                RouteLeg {
                    scenario: ScenarioKind::TrafficLight,
                    completes_on: ActSet::singleton(d.turn_right),
                },
                RouteLeg {
                    scenario: ScenarioKind::TwoWayStop,
                    completes_on: ActSet::singleton(d.go_straight),
                },
                RouteLeg {
                    scenario: ScenarioKind::WideMedian,
                    completes_on: ActSet::singleton(d.go_straight),
                },
                RouteLeg {
                    scenario: ScenarioKind::Roundabout,
                    completes_on: ActSet::singleton(d.turn_right),
                },
                RouteLeg {
                    scenario: ScenarioKind::LeftTurnSignal,
                    completes_on: ActSet::singleton(d.turn_left),
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::{ControllerBuilder, Guard};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn domain() -> DrivingDomain {
        DrivingDomain::new()
    }

    /// A controller that performs `act` as soon as the way is clear.
    fn eager(d: &DrivingDomain, act: autokit::ActId) -> Controller {
        ControllerBuilder::new("eager", 1)
            .initial(0)
            .transition(
                0,
                Guard::always().forbids(d.car_left).forbids(d.ped_front),
                ActSet::singleton(act),
                0,
            )
            .transition(
                0,
                Guard::always().requires(d.car_left),
                ActSet::singleton(d.stop),
                0,
            )
            .transition(
                0,
                Guard::always().requires(d.ped_front),
                ActSet::singleton(d.stop),
                0,
            )
            .build()
            .unwrap()
    }

    /// A controller that only ever stops.
    fn frozen(d: &DrivingDomain) -> Controller {
        ControllerBuilder::new("frozen", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(d.stop), 0)
            .build()
            .unwrap()
    }

    #[test]
    fn eager_controllers_complete_the_commute() {
        let d = domain();
        let route = Route::commute(&d);
        let controllers: Vec<Controller> = route
            .legs
            .iter()
            .map(|leg| eager(&d, leg.completes_on.iter().next().unwrap()))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = drive_route(
            &route,
            &controllers,
            &d,
            ScenarioConfig::default(),
            &mut rng,
            60,
        );
        assert!(outcome.completed, "{outcome:?}");
        assert_eq!(outcome.legs_completed, 5);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn frozen_controller_stalls_the_mission() {
        let d = domain();
        let route = Route::commute(&d);
        let controllers: Vec<Controller> = route.legs.iter().map(|_| frozen(&d)).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = drive_route(
            &route,
            &controllers,
            &d,
            ScenarioConfig::default(),
            &mut rng,
            20,
        );
        assert_eq!(outcome.legs_completed, 0);
        assert!(!outcome.completed);
        // The trace covers exactly the stalled first leg.
        assert_eq!(outcome.trace.len(), 20);
    }

    #[test]
    fn incidents_are_attributed_to_their_leg() {
        let d = domain();
        // A reckless second leg: turns right unconditionally.
        let route = Route {
            legs: vec![
                RouteLeg {
                    scenario: ScenarioKind::WideMedian,
                    completes_on: ActSet::singleton(d.go_straight),
                },
                RouteLeg {
                    scenario: ScenarioKind::TrafficLight,
                    // Completion requires going straight, which the
                    // reckless controller never does — it spends the whole
                    // tick budget turning right into arriving hazards.
                    completes_on: ActSet::singleton(d.go_straight),
                },
            ],
        };
        let reckless = ControllerBuilder::new("reckless", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(d.turn_right), 0)
            .build()
            .unwrap();
        let go = ControllerBuilder::new("go", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(d.go_straight), 0)
            .build()
            .unwrap();
        // Run many seeds until a hazard coincides with the reckless turn.
        let mut attributed = false;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = drive_route(
                &route,
                &[go.clone(), reckless.clone()],
                &d,
                ScenarioConfig {
                    arrival: 0.9,
                    ..ScenarioConfig::default()
                },
                &mut rng,
                30,
            );
            if let Some(&(leg, inc)) = outcome.incidents.first() {
                assert_eq!(leg, 1, "incident on the reckless leg");
                assert!(inc.step >= 1, "leg 2 starts after leg 1's single tick");
                attributed = true;
                break;
            }
        }
        assert!(attributed, "high arrival rate should produce an incident");
    }

    #[test]
    #[should_panic(expected = "one controller per leg")]
    fn mismatched_controllers_panic() {
        let d = domain();
        let route = Route::commute(&d);
        let mut rng = StdRng::seed_from_u64(0);
        drive_route(&route, &[], &d, ScenarioConfig::default(), &mut rng, 10);
    }
}
