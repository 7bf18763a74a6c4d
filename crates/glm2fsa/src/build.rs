use crate::{ParsedStep, StepKind};
use autokit::{ActId, ActSet, Controller, ControllerBuilder};

/// Builds an FSA controller from parsed steps, following GLM2FSA: one
/// state per step (the first is initial), the last step looping back to
/// the first so the task repeats and the controller has the infinite
/// behaviours LTL is checked over. A step's transition fires when its
/// guard matches, emitting the step's action.
///
/// `idle` is the domain's idle action (driving `stop`, warehouse
/// `wait`). The paper's NuSMV encodings (Appendix D) give the agent an
/// action at *every* step, so wherever a step emits no action of its
/// own — an observation, or waiting for a guard — the controller emits
/// `idle`; specifications like Φ₆ (*"always commit to some action"*)
/// are unsatisfiable without it. When the guard is false, a step whose
/// action is `idle` is *reactive* and **skips** to the next step
/// (`"if the light is not green, stop"` does not apply while it is
/// green); every other step is *blocking* and **waits** in place
/// (`"if the way is clear, turn right"` waits for the way to clear).
///
/// # Example
///
/// ```
/// use autokit::{presets::DrivingDomain, ActSet, Guard, PropSet};
/// use glm2fsa::{build_controller, ParsedStep, StepKind};
///
/// let d = DrivingDomain::new();
/// let steps = [
///     ParsedStep {
///         guard: Guard::always(),
///         kind: StepKind::Observe(PropSet::singleton(d.green_tl)),
///     },
///     ParsedStep {
///         guard: Guard::always().requires(d.green_tl),
///         kind: StepKind::Act(ActSet::singleton(d.go_straight)),
///     },
/// ];
/// let ctrl = build_controller("cross", &steps, d.stop);
/// assert_eq!(ctrl.num_states(), 2);
/// assert_eq!(ctrl.initial(), 0);
/// assert!(ctrl.transitions().iter().all(|t| !t.action.is_empty()));
/// ```
pub fn build_controller(name: &str, steps: &[ParsedStep], idle: ActId) -> Controller {
    let idle = ActSet::singleton(idle);
    let n = steps.len().max(1);
    let mut builder = ControllerBuilder::new(name, n).initial(0);
    for (i, step) in steps.iter().enumerate() {
        let next = if i + 1 < n { i + 1 } else { 0 };
        let (action, reactive) = match step.kind {
            StepKind::Act(a) if !a.is_empty() => (a, a == idle),
            _ => (idle, false),
        };
        builder = builder.transition(i, step.guard, action, next);
        // Else-branch: one transition per negated literal of the guard.
        for neg in step.guard.negation() {
            builder = builder.transition(i, neg, idle, if reactive { next } else { i });
        }
    }
    #[allow(clippy::expect_used, reason = "indices are in range by construction")]
    builder
        .build()
        .expect("construction is structurally valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::presets::DrivingDomain;
    use autokit::{CtrlTransition, Guard, PropSet};

    fn steps(d: &DrivingDomain) -> Vec<ParsedStep> {
        vec![
            ParsedStep {
                guard: Guard::always(),
                kind: StepKind::Observe(PropSet::singleton(d.green_tl)),
            },
            ParsedStep {
                guard: Guard::always().requires(d.green_tl),
                kind: StepKind::Act(ActSet::singleton(d.go_straight)),
            },
            ParsedStep {
                guard: Guard::always().forbids(d.car_left).forbids(d.ped_right),
                kind: StepKind::Act(ActSet::singleton(d.turn_right)),
            },
        ]
    }

    #[test]
    fn one_state_per_step() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), d.stop);
        assert_eq!(ctrl.num_states(), 3);
        assert_eq!(ctrl.initial(), 0);
    }

    #[test]
    fn restart_loops_to_initial() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), d.stop);
        let last_main = ctrl
            .transitions()
            .iter()
            .find(|t| t.from == 2 && t.action.contains(d.turn_right))
            .unwrap();
        assert_eq!(last_main.to, 0);
    }

    #[test]
    fn guarded_steps_wait() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), d.stop);
        // Step 1 (requires green): when ¬green, an idling self-loop exists.
        let sigma_red = PropSet::empty();
        let enabled: Vec<_> = ctrl.enabled(1, sigma_red).collect();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].to, 1);
        assert_eq!(enabled[0].action, ActSet::singleton(d.stop));
        // When green, the main transition fires.
        let sigma_green = PropSet::singleton(d.green_tl);
        let enabled: Vec<_> = ctrl.enabled(1, sigma_green).collect();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].to, 2);
    }

    #[test]
    fn no_deadlock_under_any_observation() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), d.stop);
        // The guard + its negation disjuncts cover every symbol.
        for bits in 0..(1u32 << d.vocab.num_props()) {
            let sigma = PropSet::from_bits(bits);
            for q in 0..ctrl.num_states() {
                assert!(ctrl.has_enabled(q, sigma), "deadlock at q{q}, σ={bits:b}");
            }
        }
    }

    /// Observe, blocking act, reactive idle act: the whole transition
    /// list, in insertion order. No transition is `ε`; the observation
    /// and the blocking step's wait emit `stop`, and the reactive `stop`
    /// step's else-branch skips to the next step.
    #[test]
    fn transitions_of_observe_blocking_and_reactive_steps() {
        let d = DrivingDomain::new();
        let stop = ActSet::singleton(d.stop);
        let turn = ActSet::singleton(d.turn_left);
        let steps = [
            ParsedStep {
                guard: Guard::always(),
                kind: StepKind::Observe(PropSet::singleton(d.green_ll)),
            },
            ParsedStep {
                guard: Guard::always().forbids(d.green_ll),
                kind: StepKind::Act(stop),
            },
            ParsedStep {
                guard: Guard::always().requires(d.green_ll).forbids(d.opposite_car),
                kind: StepKind::Act(turn),
            },
        ];
        let ctrl = build_controller("left turn", &steps, d.stop);
        let t = |from, guard, action, to| CtrlTransition {
            from,
            guard,
            action,
            to,
        };
        let green = Guard::always().requires(d.green_ll);
        let not_green = Guard::always().forbids(d.green_ll);
        let car = Guard::always().requires(d.opposite_car);
        assert_eq!(
            ctrl.transitions(),
            [
                t(0, Guard::always(), stop, 1),
                t(1, not_green, stop, 2),
                t(1, green, stop, 2),
                t(2, green.forbids(d.opposite_car), turn, 0),
                t(2, not_green, stop, 2),
                t(2, car, stop, 2),
            ]
        );
    }

    #[test]
    fn empty_step_list_yields_single_idle_state() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("idle", &[], d.stop);
        assert_eq!(ctrl.num_states(), 1);
        assert!(ctrl.transitions().is_empty());
    }
}
