use crate::{ParsedStep, StepKind};
use autokit::{ActId, ActSet, Controller, ControllerBuilder};

/// Where the controller goes after its final step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnComplete {
    /// Loop back to the first step — the task repeats (an intersection is
    /// handled, the next one comes up). This yields the infinite
    /// behaviours LTL model checking is defined over and is the default.
    #[default]
    Restart,
    /// Stay in the final state forever (self-loop with `ε`).
    SelfLoop,
}

/// Options for FSA construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsaOptions {
    /// Behaviour after the last step.
    pub on_complete: OnComplete,
    /// Actions whose conditional steps are *reactive* rather than
    /// *blocking*: when the guard of a step emitting one of these actions
    /// is false, the controller moves on to the next step instead of
    /// waiting.
    ///
    /// `"if the light is not green, stop"` is reactive — when the light
    /// *is* green the instruction simply does not apply and the next step
    /// takes over. `"if the way is clear, turn right"` is blocking — the
    /// vehicle waits for the way to clear. Driving pipelines pass
    /// `{stop}` here.
    pub non_blocking: ActSet,
}

/// Builds an FSA controller from parsed steps, following GLM2FSA: one
/// state per step (the first is initial); a step's transition fires when
/// its guard matches, emitting the step's action (or `ε` for
/// observations). When the guard is false, blocking steps **wait** (stay
/// in place with `ε`) while steps emitting a
/// [`non_blocking`](FsaOptions::non_blocking) action **skip** to the next
/// step.
///
/// # Example
///
/// ```
/// use autokit::{presets::DrivingDomain, ActSet, Guard, PropSet};
/// use glm2fsa::{build_controller, FsaOptions, ParsedStep, StepKind};
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
/// let ctrl = build_controller("cross", &steps, FsaOptions::default());
/// assert_eq!(ctrl.num_states(), 2);
/// assert_eq!(ctrl.initial(), 0);
/// ```
pub fn build_controller(name: &str, steps: &[ParsedStep], options: FsaOptions) -> Controller {
    let n = steps.len().max(1);
    let mut builder = ControllerBuilder::new(name, n).initial(0);
    for (i, step) in steps.iter().enumerate() {
        let next = if i + 1 < n {
            i + 1
        } else {
            match options.on_complete {
                OnComplete::Restart => 0,
                OnComplete::SelfLoop => i,
            }
        };
        let action = match step.kind {
            StepKind::Observe(_) => ActSet::empty(),
            StepKind::Act(a) => a,
        };
        builder = builder.transition(i, step.guard, action, next);
        // Else-branch: one transition per negated literal of the guard.
        // Reactive (non-blocking-action) steps skip to the next step;
        // everything else waits in place.
        let reactive = matches!(step.kind, StepKind::Act(a)
            if !a.is_empty() && options.non_blocking.is_superset(a));
        let else_target = if reactive { next } else { i };
        for neg in step.guard.negation() {
            builder = builder.transition(i, neg, ActSet::empty(), else_target);
        }
    }
    #[allow(clippy::expect_used)] // ALLOW: indices are in range by construction
    builder
        .build()
        .expect("construction is structurally valid by construction")
}

/// Returns a copy of `ctrl` whose `ε` (empty) actions are replaced by
/// `default`.
///
/// The paper's NuSMV encodings (Appendix D) give the vehicle an action in
/// *every* step — a controller that is observing is a controller that is
/// stopped. Applying `with_default_action(ctrl, stop)` before verification
/// reproduces that encoding; specifications like Φ₆ (*"always commit to
/// some action"*) are unsatisfiable without it.
pub fn with_default_action(ctrl: &Controller, default: ActId) -> Controller {
    let mut builder =
        ControllerBuilder::new(ctrl.name(), ctrl.num_states()).initial(ctrl.initial());
    for t in ctrl.transitions() {
        let action = if t.action.is_empty() {
            ActSet::singleton(default)
        } else {
            t.action
        };
        builder = builder.transition(t.from, t.guard, action, t.to);
    }
    #[allow(clippy::expect_used)] // ALLOW: copies a valid controller's shape
    builder.build().expect("same shape as a valid controller")
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::presets::DrivingDomain;
    use autokit::{Guard, PropSet};

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
        let ctrl = build_controller("t", &steps(&d), FsaOptions::default());
        assert_eq!(ctrl.num_states(), 3);
        assert_eq!(ctrl.initial(), 0);
    }

    #[test]
    fn restart_loops_to_initial() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), FsaOptions::default());
        let last_main = ctrl
            .transitions()
            .iter()
            .find(|t| t.from == 2 && !t.action.is_empty())
            .unwrap();
        assert_eq!(last_main.to, 0);
    }

    #[test]
    fn self_loop_option() {
        let d = DrivingDomain::new();
        let ctrl = build_controller(
            "t",
            &steps(&d),
            FsaOptions {
                on_complete: OnComplete::SelfLoop,
                ..FsaOptions::default()
            },
        );
        let last_main = ctrl
            .transitions()
            .iter()
            .find(|t| t.from == 2 && !t.action.is_empty())
            .unwrap();
        assert_eq!(last_main.to, 2);
    }

    #[test]
    fn guarded_steps_wait() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), FsaOptions::default());
        // Step 1 (requires green): when ¬green, a wait self-loop exists.
        let sigma_red = PropSet::empty();
        let enabled: Vec<_> = ctrl.enabled(1, sigma_red).collect();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].to, 1);
        assert!(enabled[0].action.is_empty());
        // When green, the main transition fires.
        let sigma_green = PropSet::singleton(d.green_tl);
        let enabled: Vec<_> = ctrl.enabled(1, sigma_green).collect();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].to, 2);
    }

    #[test]
    fn no_deadlock_under_any_observation() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), FsaOptions::default());
        // The guard + its negation disjuncts cover every symbol.
        for bits in 0..(1u32 << d.vocab.num_props()) {
            let sigma = PropSet::from_bits(bits);
            for q in 0..ctrl.num_states() {
                assert!(ctrl.has_enabled(q, sigma), "deadlock at q{q}, σ={bits:b}");
            }
        }
    }

    #[test]
    fn default_action_replaces_epsilon_only() {
        let d = DrivingDomain::new();
        let ctrl = build_controller("t", &steps(&d), FsaOptions::default());
        let mapped = with_default_action(&ctrl, d.stop);
        assert_eq!(mapped.num_states(), ctrl.num_states());
        for t in mapped.transitions() {
            assert!(!t.action.is_empty());
        }
        // Real actions are preserved.
        assert!(mapped
            .transitions()
            .iter()
            .any(|t| t.action.contains(d.turn_right)));
        assert!(mapped
            .transitions()
            .iter()
            .any(|t| t.action.contains(d.go_straight)));
    }

    #[test]
    fn non_blocking_action_steps_skip_instead_of_wait() {
        let d = DrivingDomain::new();
        // "if ¬green, stop" as a reactive step, then "if green, turn".
        let steps = [
            ParsedStep {
                guard: Guard::always().forbids(d.green_ll),
                kind: StepKind::Act(ActSet::singleton(d.stop)),
            },
            ParsedStep {
                guard: Guard::always().requires(d.green_ll),
                kind: StepKind::Act(ActSet::singleton(d.turn_left)),
            },
        ];
        let opts = FsaOptions {
            non_blocking: ActSet::singleton(d.stop),
            ..FsaOptions::default()
        };
        let ctrl = build_controller("left turn", &steps, opts);
        // When the light is green at q0, the reactive stop-step SKIPS to
        // q1 (no waiting while green).
        let green = PropSet::singleton(d.green_ll);
        let at_q0: Vec<_> = ctrl.enabled(0, green).collect();
        assert_eq!(at_q0.len(), 1);
        assert_eq!(at_q0[0].to, 1);
        assert!(at_q0[0].action.is_empty());
        // The blocking turn-step still waits while the light is red.
        let red = PropSet::empty();
        let at_q1: Vec<_> = ctrl.enabled(1, red).collect();
        assert_eq!(at_q1.len(), 1);
        assert_eq!(at_q1[0].to, 1);
    }

    #[test]
    fn empty_step_list_yields_single_idle_state() {
        let ctrl = build_controller("idle", &[], FsaOptions::default());
        assert_eq!(ctrl.num_states(), 1);
        assert!(ctrl.transitions().is_empty());
    }
}
