//! The preset certification matrix: every shipped scenario × rule-book
//! pair, with the controllers the repo actually ships (the paper's
//! demonstration step lists plus a maximally permissive free
//! controller), ready to be certified case by case.
//!
//! Reuses `speclint::presets` for the canonical step lists and
//! `drivesim::formal` for the scenario models and justice assumptions,
//! so certification runs against exactly the artifacts the pipeline
//! verifies.

#![allow(clippy::expect_used, reason = "built from compile-time constants")]

use autokit::presets::DrivingDomain;
use autokit::{ActSet, LabelGraph, Product};
use drivesim::formal::{scenario_justice, scenario_model};
use drivesim::ScenarioKind;
use glm2fsa::{synthesize, Lexicon};
use ltlcheck::specs::{driving_specs, Spec};
use ltlcheck::Justice;
use speclint::presets::{
    free_controller, LEFT_TURN_AFTER, LEFT_TURN_BEFORE, RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE,
    WAREHOUSE_STEPS,
};
use warehouse::{warehouse_justice, warehouse_specs, WarehouseDomain};

/// One certification case: a controller implemented in a scenario,
/// checked against a rule book under justice assumptions.
#[derive(Debug, Clone)]
pub struct PresetCase {
    /// `"driving"` or `"warehouse"`.
    pub domain: &'static str,
    /// Scenario name, e.g. `"TrafficLight"`.
    pub scenario: String,
    /// Controller name, e.g. `"turn right (after fine-tuning)"`.
    pub controller: String,
    /// The product label graph `M ⊗ C`.
    pub graph: LabelGraph,
    /// The rule book to certify against.
    pub specs: Vec<Spec>,
    /// The scenario's justice assumptions.
    pub justice: Vec<Justice>,
}

/// Builds every preset scenario × rule-book case.
///
/// Driving: the four paper demonstration controllers (each in its own
/// scenario) and the free controller in all five scenarios, against the
/// 15-rule book. Warehouse: the four canonical task controllers and the
/// free controller on the floor model, against the 8-rule book. The
/// matrix deliberately mixes controllers that satisfy most rules with
/// ones that violate many, so both `Holds` and `Fails` certification
/// paths are exercised.
pub fn preset_cases() -> Vec<PresetCase> {
    let mut cases = Vec::new();

    // --- driving --------------------------------------------------------
    let d = DrivingDomain::new();
    let lexicon = Lexicon::driving(&d);
    let specs = driving_specs(&d);
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
        cases.push(PresetCase {
            domain: "driving",
            scenario: format!("{kind:?}"),
            controller: name.to_owned(),
            graph: Product::build(&model, &ctrl).label_graph(),
            specs: specs.clone(),
            justice: scenario_justice(&d, kind),
        });
    }
    let free = free_controller(
        "free (driving)",
        &[d.stop, d.turn_left, d.turn_right, d.go_straight].map(ActSet::singleton),
    );
    for kind in ScenarioKind::all() {
        let model = scenario_model(&d, kind);
        cases.push(PresetCase {
            domain: "driving",
            scenario: format!("{kind:?}"),
            controller: "free (driving)".to_owned(),
            graph: Product::build(&model, &free).label_graph(),
            specs: specs.clone(),
            justice: scenario_justice(&d, kind),
        });
    }

    // --- warehouse ------------------------------------------------------
    let w = WarehouseDomain::new();
    let wspecs = warehouse_specs(&w);
    let wjustice = warehouse_justice(&w);
    let floor = w.floor_model();
    for (name, steps) in WAREHOUSE_STEPS {
        let ctrl = synthesize(name, steps, &w.lexicon).expect("canonical warehouse steps align");
        cases.push(PresetCase {
            domain: "warehouse",
            scenario: "WarehouseFloor".to_owned(),
            controller: name.to_owned(),
            graph: Product::build(&floor, &ctrl).label_graph(),
            specs: wspecs.clone(),
            justice: wjustice.clone(),
        });
    }
    let wfree = free_controller(
        "free (warehouse)",
        &[w.move_forward, w.pick, w.place, w.wait, w.dock].map(ActSet::singleton),
    );
    cases.push(PresetCase {
        domain: "warehouse",
        scenario: "WarehouseFloor".to_owned(),
        controller: "free (warehouse)".to_owned(),
        graph: Product::build(&floor, &wfree).label_graph(),
        specs: wspecs,
        justice: wjustice,
    });

    cases
}
