//! Ready-made [`LintInput`]s for the shipped content: the driving and
//! warehouse rule books with their worlds and controller corpus, the
//! paper's demonstration controllers, and their step lists. The
//! `speclint` CLI, the `specsem` bench and the `dpo-af` rule-book gate
//! build their inputs here.

#![allow(clippy::expect_used, reason = "built from compile-time constants")]

use crate::semantic::{CorpusController, SemanticInput, SemanticWorld};
use crate::{ControllerInput, LintInput, StepListInput};
use autokit::presets::DrivingDomain;
use autokit::{ActSet, Controller, ControllerBuilder, Guard, PropSet, Vocab, WorldModel};
use drivesim::formal::scenario_justice;
use drivesim::ScenarioKind;
use glm2fsa::{synthesize, Lexicon};
use ltlcheck::parse;
use ltlcheck::specs::{driving_specs, Spec};
use warehouse::{warehouse_justice, warehouse_specs, WarehouseDomain};

/// The paper's §5.1 right-turn response before fine-tuning (aligned
/// form). `dpo_af::experiments::demo` re-exports all four step lists.
pub const RIGHT_TURN_BEFORE: [&str; 5] = [
    "Observe the state of the green traffic light.",
    "If the green traffic light is on, execute the action go straight.",
    "As you approach the intersection, observe the state of the car from left.",
    "If the car from left is not present, check the state of the pedestrian at right.",
    "If the pedestrian at right is not present, execute the action turn right.",
];
/// The paper's §5.1 right-turn response after fine-tuning.
pub const RIGHT_TURN_AFTER: [&str; 3] = [
    "Observe the traffic light in front of you.",
    "Check for the left approaching car and right side pedestrian.",
    "If no car from the left is approaching and no pedestrian on the right, proceed to turn right.",
];
/// The paper's Appendix C left-turn response before fine-tuning.
pub const LEFT_TURN_BEFORE: [&str; 4] = [
    "Approach the traffic light with a left-turn light.",
    "Wait for the left-turn light to turn green.",
    "When the left-turn light turns green, wait for oncoming traffic to clear before turning left.",
    "Turn left and proceed through the intersection.",
];
/// The paper's Appendix C left-turn response after fine-tuning.
pub const LEFT_TURN_AFTER: [&str; 3] = [
    "Approach the traffic light and observe the left turn light.",
    "If the left turn light is not green, then stop.",
    "If the left turn light is green, then turn left.",
];

/// Canonical careful step lists for the four warehouse tasks.
pub const WAREHOUSE_STEPS: [(&str, &[&str]); 4] = [
    (
        "pick an item from the shelf",
        &[
            "Check for the shelf detected.",
            "Observe the human nearby and the obstacle ahead.",
            "If shelf detected and no human nearby and no obstacle ahead, pick item.",
        ],
    ),
    (
        "deliver the item to the packing station",
        &[
            "Observe the human nearby and the obstacle ahead.",
            "If no human nearby and no obstacle ahead, place item.",
        ],
    ),
    (
        "patrol the aisle",
        &[
            "Observe the human nearby and the obstacle ahead.",
            "If no human nearby and no obstacle ahead, move forward.",
        ],
    ),
    (
        "recharge when the battery is low",
        &["Check for the battery low.", "If battery low, dock."],
    ),
];

/// A maximally permissive one-state controller emitting any of `acts`.
pub fn free_controller(name: &str, acts: &[ActSet]) -> Controller {
    let mut builder = ControllerBuilder::new(name, 1).initial(0);
    for &act in acts {
        builder = builder.transition(0, Guard::always(), act, 0);
    }
    builder.build().expect("one state, all endpoints in range")
}

fn labels_of(model: &WorldModel) -> Vec<PropSet> {
    model.states().map(|s| model.label(s)).collect()
}

/// The scenario's world model — re-exported from
/// [`drivesim::formal::scenario_model`], the single source of truth
/// shared with `dpo-af` and `certkit`.
pub use drivesim::formal::scenario_model;

/// The maximally permissive driving controller: any one action per step.
fn driving_free_controller(d: &DrivingDomain) -> Controller {
    free_controller(
        "free (driving)",
        &[d.stop, d.turn_left, d.turn_right, d.go_straight].map(ActSet::singleton),
    )
}

/// The five scenario worlds the driving book is verified in: each
/// scenario's model under the free controller, with its justice.
pub fn driving_worlds(d: &DrivingDomain) -> Vec<SemanticWorld> {
    let free = driving_free_controller(d);
    ScenarioKind::all()
        .into_iter()
        .map(|kind| {
            SemanticWorld::from_parts(
                format!("{kind:?}"),
                &scenario_model(d, kind),
                &free,
                scenario_justice(d, kind),
            )
        })
        .collect()
}

/// Lint input for the driving domain: the 15-rule book deployed against
/// the five scenario worlds ([`driving_worlds`]) and ranked over a corpus
/// of the free controller in each world plus the four paper
/// demonstration controllers; those controllers (with their scenario
/// observations) and the free controller for the controller lints; and
/// the demo step lists.
pub fn driving_input() -> LintInput {
    let d = DrivingDomain::new();
    let lexicon = Lexicon::driving(&d);
    let free = driving_free_controller(&d);

    let mut input = LintInput {
        book: SemanticInput {
            specs: driving_specs(&d),
            worlds: driving_worlds(&d),
            corpus: Vec::new(),
            vocab: Some(d.vocab.clone()),
        },
        ..Default::default()
    };
    for kind in ScenarioKind::all() {
        input.book.corpus.push(CorpusController::from_parts(
            format!("free (driving) @ {kind:?}"),
            format!("{kind:?}"),
            &scenario_model(&d, kind),
            &free,
            scenario_justice(&d, kind),
        ));
    }

    let demos: [(&str, &[&str], ScenarioKind); 4] = [
        (
            "turn right (before fine-tuning)",
            &RIGHT_TURN_BEFORE,
            ScenarioKind::TrafficLight,
        ),
        (
            "turn right (after fine-tuning)",
            &RIGHT_TURN_AFTER,
            ScenarioKind::TrafficLight,
        ),
        (
            "turn left (before fine-tuning)",
            &LEFT_TURN_BEFORE,
            ScenarioKind::LeftTurnSignal,
        ),
        (
            "turn left (after fine-tuning)",
            &LEFT_TURN_AFTER,
            ScenarioKind::LeftTurnSignal,
        ),
    ];
    for (name, steps, kind) in demos {
        let ctrl = synthesize(name, steps, &lexicon).expect("paper demo steps align");
        let model = scenario_model(&d, kind);
        input.book.corpus.push(CorpusController::from_parts(
            name,
            format!("{kind:?}"),
            &model,
            &ctrl,
            scenario_justice(&d, kind),
        ));
        input.controllers.push(ControllerInput {
            controller: ctrl,
            vocab: Some(d.vocab.clone()),
            observations: Some(labels_of(&model)),
        });
        input.step_lists.push(StepListInput {
            name: name.to_owned(),
            steps: steps.iter().map(|s| s.to_string()).collect(),
            lexicon: lexicon.clone(),
            vocab: d.vocab.clone(),
        });
    }
    input.controllers.push(ControllerInput {
        controller: free,
        vocab: Some(d.vocab.clone()),
        observations: None,
    });
    input
}

/// Lint input for the warehouse domain: the 8-rule book deployed against
/// the floor world and ranked over the free controller plus one
/// synthesized controller per task; those controllers for the controller
/// lints; and the canonical step lists.
pub fn warehouse_input() -> LintInput {
    let w = WarehouseDomain::new();
    let free = free_controller(
        "free (warehouse)",
        &[w.move_forward, w.pick, w.place, w.wait, w.dock].map(ActSet::singleton),
    );
    let floor = w.floor_model();
    let justice = warehouse_justice(&w);

    let mut input = LintInput {
        book: SemanticInput {
            specs: warehouse_specs(&w),
            worlds: vec![SemanticWorld::from_parts(
                "WarehouseFloor",
                &floor,
                &free,
                justice.clone(),
            )],
            corpus: vec![CorpusController::from_parts(
                "free (warehouse)",
                "WarehouseFloor",
                &floor,
                &free,
                justice.clone(),
            )],
            vocab: Some(w.vocab.clone()),
        },
        ..Default::default()
    };
    for (name, steps) in WAREHOUSE_STEPS {
        let ctrl = synthesize(name, steps, &w.lexicon).expect("canonical warehouse steps align");
        input.book.corpus.push(CorpusController::from_parts(
            name,
            "WarehouseFloor",
            &floor,
            &ctrl,
            justice.clone(),
        ));
        input.controllers.push(ControllerInput {
            controller: ctrl,
            vocab: Some(w.vocab.clone()),
            observations: Some(labels_of(&floor)),
        });
        input.step_lists.push(StepListInput {
            name: name.to_owned(),
            steps: steps.iter().map(|s| s.to_string()).collect(),
            lexicon: w.lexicon.clone(),
            vocab: w.vocab.clone(),
        });
    }
    input.controllers.push(ControllerInput {
        controller: free,
        vocab: Some(w.vocab.clone()),
        observations: None,
    });
    input
}

/// A deliberately broken rule book the analysis must reject: both rules
/// are individually satisfiable but they share no fair path under the
/// world model, so every controller is capped below a perfect score
/// (`SL303`). Used by the CLI exit-code test.
pub fn conflicting_semantic_input() -> SemanticInput {
    let mut vocab = Vocab::new();
    let at_junction = vocab.add_prop("at junction").expect("fresh vocab");
    vocab.add_act("go").expect("fresh vocab");
    vocab.add_act("wait").expect("fresh vocab");
    let go = vocab.act("go").expect("registered");
    let wait = vocab.act("wait").expect("registered");

    // A one-state world that is always at the junction.
    let mut model = WorldModel::new("junction");
    let s = model.add_state(PropSet::singleton(at_junction));
    model.add_transition(s, s);
    let free = free_controller("free", &[ActSet::singleton(go), ActSet::singleton(wait)]);

    let spec = |name: &str, description: &str, src: &str| Spec {
        name: name.to_owned(),
        description: description.to_owned(),
        formula: parse(src, &vocab).expect("preset formula parses"),
    };
    SemanticInput {
        specs: vec![
            spec("progress", "the robot keeps making progress", "G F go"),
            spec(
                "caution",
                "never proceed while at the junction",
                "G (\"at junction\" -> !go)",
            ),
        ],
        worlds: vec![SemanticWorld::from_parts(
            "junction",
            &model,
            &free,
            Vec::new(),
        )],
        corpus: Vec::new(),
        vocab: Some(vocab),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    /// The acceptance bar: shipped rule books, controllers and step lists
    /// produce no `Error` or `Warning` diagnostics, so `speclint
    /// --deny-warnings` (the CI gate) passes on shipped content.
    #[test]
    fn shipped_content_has_no_errors_or_warnings() {
        for input in [driving_input(), warehouse_input()] {
            let diags = crate::run(&input);
            let loud: Vec<_> = diags
                .iter()
                .filter(|d| d.severity != Severity::Note)
                .collect();
            assert!(loud.is_empty(), "{loud:?}");
        }
    }

    /// The pipeline's gate on the driving book skips the queries that can
    /// only yield notes: fewer checks than the worlds-only full pass's
    /// 1 026, pinned so that a change putting SL301's unconstrained
    /// queries or SL304 back into the gate fails here.
    #[test]
    fn driving_gate_runs_fewer_checks_than_the_full_pass() {
        let d = DrivingDomain::new();
        let book = SemanticInput {
            specs: driving_specs(&d),
            worlds: driving_worlds(&d),
            corpus: Vec::new(),
            vocab: Some(d.vocab.clone()),
        };
        assert_eq!(crate::semantic::analyze_timed(&book).checks, 1026);
        assert_eq!(crate::semantic::analyze_errors(&book).checks, 635);
    }

    /// The conflict demo is rejected with an `SL303` error: the
    /// motivating example for analysing a book under its worlds.
    #[test]
    fn conflict_demo_is_rejected() {
        let diags = crate::semantic::analyze(&conflicting_semantic_input());
        assert!(
            diags
                .iter()
                .any(|d| d.code.code() == "SL303" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }
}
