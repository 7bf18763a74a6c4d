//! Ready-made [`LintInput`]s for the shipped content: the driving and
//! warehouse rule books, the paper's demonstration controllers, and
//! their step lists. The `speclint` CLI and the `bench` rule-book tool
//! are thin wrappers over these.

#![allow(clippy::expect_used, reason = "built from compile-time constants")]

use crate::semantic::{CorpusController, SemanticInput, SemanticWorld};
use crate::{ControllerInput, LintInput, StepListInput};
use autokit::presets::DrivingDomain;
use autokit::{
    ActSet, Controller, ControllerBuilder, Guard, LabelGraph, Product, PropSet, Vocab, WorldModel,
};
use drivesim::formal::scenario_justice;
use drivesim::ScenarioKind;
use glm2fsa::{synthesize, with_default_action, FsaOptions, Lexicon};
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

fn graph_under(model: &WorldModel, free: &Controller) -> LabelGraph {
    Product::build(model, free).label_graph()
}

fn labels_of(model: &WorldModel) -> Vec<PropSet> {
    model.states().map(|s| model.label(s)).collect()
}

/// The scenario's world model — re-exported from
/// [`drivesim::formal::scenario_model`], the single source of truth
/// shared with `dpo-af` and `certkit`.
pub use drivesim::formal::scenario_model;

/// Lint input for the driving domain: the 15-rule book with per-scenario
/// vacuity graphs, the four paper demonstration controllers (with their
/// scenario observations), the free controller, and the demo step lists.
pub fn driving_input() -> LintInput {
    let d = DrivingDomain::new();
    let lexicon = Lexicon::driving(&d);
    let free = free_controller(
        "free (driving)",
        &[d.stop, d.turn_left, d.turn_right, d.go_straight].map(ActSet::singleton),
    );
    let options = || FsaOptions {
        non_blocking: ActSet::singleton(d.stop),
        ..FsaOptions::default()
    };

    let mut input = LintInput {
        specs: driving_specs(&d),
        spec_vocab: Some(d.vocab.clone()),
        ..Default::default()
    };
    for kind in ScenarioKind::all() {
        let model = scenario_model(&d, kind);
        input
            .spec_graphs
            .push((format!("{kind:?}"), graph_under(&model, &free)));
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
        let ctrl = synthesize(name, steps, &lexicon, options()).expect("paper demo steps align");
        let ctrl = with_default_action(&ctrl, d.stop);
        input.controllers.push(ControllerInput {
            controller: ctrl,
            vocab: Some(d.vocab.clone()),
            observations: Some(labels_of(&scenario_model(&d, kind))),
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

/// Lint input for the warehouse domain: the 8-rule book with its floor
/// vacuity graph, one synthesized controller per task, the free
/// controller, and the canonical step lists.
pub fn warehouse_input() -> LintInput {
    let w = WarehouseDomain::new();
    let free = free_controller(
        "free (warehouse)",
        &[w.move_forward, w.pick, w.place, w.wait, w.dock].map(ActSet::singleton),
    );
    let floor = w.floor_model();

    let mut input = LintInput {
        specs: warehouse_specs(&w),
        spec_vocab: Some(w.vocab.clone()),
        spec_graphs: vec![("WarehouseFloor".to_owned(), graph_under(&floor, &free))],
        ..Default::default()
    };
    for (name, steps) in WAREHOUSE_STEPS {
        let options = FsaOptions {
            non_blocking: ActSet::singleton(w.wait),
            ..FsaOptions::default()
        };
        let ctrl =
            synthesize(name, steps, &w.lexicon, options).expect("canonical warehouse steps align");
        let ctrl = with_default_action(&ctrl, w.wait);
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

/// Semantic-analysis input for the driving domain: the 15-rule book
/// deployed against all five scenario worlds (free product, scenario
/// justice), with the four paper demonstration controllers plus the free
/// controller as the discrimination corpus.
pub fn driving_semantic_input() -> SemanticInput {
    let d = DrivingDomain::new();
    let lexicon = Lexicon::driving(&d);
    let free = free_controller(
        "free (driving)",
        &[d.stop, d.turn_left, d.turn_right, d.go_straight].map(ActSet::singleton),
    );

    let mut input = SemanticInput {
        specs: driving_specs(&d),
        vocab: Some(d.vocab.clone()),
        ..Default::default()
    };
    for kind in ScenarioKind::all() {
        let model = scenario_model(&d, kind);
        let justice = scenario_justice(&d, kind);
        input.worlds.push(SemanticWorld::from_parts(
            format!("{kind:?}"),
            &model,
            &free,
            justice.clone(),
        ));
        input.corpus.push(CorpusController::from_parts(
            format!("free (driving) @ {kind:?}"),
            format!("{kind:?}"),
            &model,
            &free,
            justice,
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
        let options = FsaOptions {
            non_blocking: ActSet::singleton(d.stop),
            ..FsaOptions::default()
        };
        let ctrl = synthesize(name, steps, &lexicon, options).expect("paper demo steps align");
        let ctrl = with_default_action(&ctrl, d.stop);
        input.corpus.push(CorpusController::from_parts(
            name,
            format!("{kind:?}"),
            &scenario_model(&d, kind),
            &ctrl,
            scenario_justice(&d, kind),
        ));
    }
    input
}

/// Semantic-analysis input for the warehouse domain: the 8-rule book
/// deployed against the floor world, with the four task controllers plus
/// the free controller as the discrimination corpus.
pub fn warehouse_semantic_input() -> SemanticInput {
    let w = WarehouseDomain::new();
    let free = free_controller(
        "free (warehouse)",
        &[w.move_forward, w.pick, w.place, w.wait, w.dock].map(ActSet::singleton),
    );
    let floor = w.floor_model();
    let justice = warehouse_justice(&w);

    let mut input = SemanticInput {
        specs: warehouse_specs(&w),
        vocab: Some(w.vocab.clone()),
        worlds: vec![SemanticWorld::from_parts(
            "WarehouseFloor",
            &floor,
            &free,
            justice.clone(),
        )],
        ..Default::default()
    };
    input.corpus.push(CorpusController::from_parts(
        "free (warehouse)",
        "WarehouseFloor",
        &floor,
        &free,
        justice.clone(),
    ));
    for (name, steps) in WAREHOUSE_STEPS {
        let options = FsaOptions {
            non_blocking: ActSet::singleton(w.wait),
            ..FsaOptions::default()
        };
        let ctrl =
            synthesize(name, steps, &w.lexicon, options).expect("canonical warehouse steps align");
        let ctrl = with_default_action(&ctrl, w.wait);
        input.corpus.push(CorpusController::from_parts(
            name,
            "WarehouseFloor",
            &floor,
            &ctrl,
            justice.clone(),
        ));
    }
    input
}

/// A deliberately broken rule book the semantic gate must reject: both
/// rules are individually satisfiable (the syntactic pass stays silent)
/// but they share no fair path under the world model, so every controller
/// is capped below a perfect score (`SL303`). Used by the CLI exit-code
/// test and as a living example of what the semantic pass adds over the
/// syntactic one.
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
    /// produce **no** `Error` diagnostics.
    #[test]
    fn shipped_content_has_no_errors() {
        for input in [driving_input(), warehouse_input()] {
            let diags = crate::run(&input);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{errors:?}");
        }
    }

    /// Warnings are also absent, so `speclint --deny-warnings` (the CI
    /// gate) passes on shipped content.
    #[test]
    fn shipped_content_has_no_warnings() {
        for input in [driving_input(), warehouse_input()] {
            let diags = crate::run(&input);
            let warnings: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .collect();
            assert!(warnings.is_empty(), "{warnings:?}");
        }
    }

    /// The semantic acceptance bar: shipped rule books are free of
    /// `SL30x` errors and warnings under their deployed worlds and
    /// corpus, so the `--semantic --deny-warnings` CI gate passes.
    #[test]
    fn shipped_rule_books_are_semantically_clean() {
        for input in [driving_semantic_input(), warehouse_semantic_input()] {
            let diags = crate::semantic::analyze(&input);
            let loud: Vec<_> = diags
                .iter()
                .filter(|d| d.severity != Severity::Note)
                .collect();
            assert!(loud.is_empty(), "{loud:?}");
        }
    }

    /// The conflict demo is rejected by the semantic pass (`SL303`
    /// error) but is invisible to the syntactic one — the motivating
    /// example for the whole `SL3xx` family.
    #[test]
    fn conflict_demo_is_rejected_semantically_but_not_syntactically() {
        let input = conflicting_semantic_input();
        let diags = crate::semantic::analyze(&input);
        assert!(
            diags
                .iter()
                .any(|d| d.code.code() == "SL303" && d.severity == Severity::Error),
            "{diags:?}"
        );
        let syntactic = crate::lint_specs(&input.specs, &[], input.vocab.as_ref());
        assert!(
            !syntactic.iter().any(|d| d.severity == Severity::Error),
            "{syntactic:?}"
        );
    }
}
