//! The Section 5.1 demonstrations: controller construction and
//! verification for the right-turn task before and after fine-tuning,
//! plus the Appendix C left-turn example and the Appendix D NuSMV
//! exports.
//!
//! The step lists are the paper's own (its aligned responses), so this
//! module checks that the reproduction's GLM2FSA + model checker recover
//! the paper's findings: the pre-fine-tuning right-turn controller fails
//! Φ₅ with the "light turns red and a car arrives while waiting on
//! pedestrians" edge case, and the post-fine-tuning controller passes;
//! the pre-fine-tuning left-turn controller fails Φ₁₂.

use crate::domain::DomainBundle;
use crate::feedback::{justice_for, scenario_model};
use drivesim::ScenarioKind;
use glm2fsa::synthesize;
use ltlcheck::specs::driving_specs;
use ltlcheck::{smv, verify_all_fair, Verdict, VerificationReport};

// The paper's step lists live with speclint's shipped-content presets,
// which lint them; the demos and examples reach them through here.
pub use speclint::presets::{
    LEFT_TURN_AFTER, LEFT_TURN_BEFORE, RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE,
};

/// One before/after verification comparison.
#[derive(Debug, Clone)]
pub struct DemoComparison {
    /// Task label.
    pub task: String,
    /// Verification report of the pre-fine-tuning controller.
    pub before: VerificationReport,
    /// Verification report of the post-fine-tuning controller.
    pub after: VerificationReport,
    /// Rendered counterexample for the paper's highlighted violated
    /// specification (Φ₅ for the right turn, Φ₁₂ for the left turn).
    pub counterexample: String,
    /// NuSMV module export of both controllers (Appendix D analogue).
    pub smv_module: String,
}

#[allow(clippy::expect_used, reason = "the demo step lists always align")]
fn verify_steps(
    bundle: &DomainBundle,
    name: &str,
    steps: &[&str],
    scenario: ScenarioKind,
) -> (autokit::Controller, VerificationReport) {
    let ctrl = synthesize(name, steps, &bundle.lexicon).expect("paper demo steps align");
    let model = scenario_model(&bundle.driving, scenario);
    let justice = justice_for(&bundle.driving, scenario);
    let specs = driving_specs(&bundle.driving);
    let report = verify_all_fair(
        &model,
        &ctrl,
        specs.iter().map(|s| (s.name.as_str(), &s.formula)),
        &justice,
    );
    (ctrl, report)
}

fn render_cex(bundle: &DomainBundle, report: &VerificationReport, spec: &str) -> String {
    report
        .results
        .iter()
        .find(|r| r.name == spec)
        .and_then(|r| match &r.verdict {
            Verdict::Fails(cex) => Some(cex.display(&bundle.driving.vocab).to_string()),
            Verdict::Holds => None,
        })
        .unwrap_or_else(|| format!("({spec} holds)"))
}

/// Runs the right-turn demonstration (§5.1).
pub fn right_turn(bundle: &DomainBundle) -> DemoComparison {
    let (before_ctrl, before) = verify_steps(
        bundle,
        "turn right at traffic light (before)",
        &RIGHT_TURN_BEFORE,
        ScenarioKind::TrafficLight,
    );
    let (after_ctrl, after) = verify_steps(
        bundle,
        "turn right at traffic light (after)",
        &RIGHT_TURN_AFTER,
        ScenarioKind::TrafficLight,
    );
    let counterexample = render_cex(bundle, &before, "phi_5");
    let specs = driving_specs(&bundle.driving);
    let spec_list: Vec<(String, ltlcheck::Ltl)> = specs
        .iter()
        .map(|s| (s.name.clone(), s.formula.clone()))
        .collect();
    let smv_module = format!(
        "{}\n{}",
        smv::render_module(
            "turn_right_before_finetune",
            &before_ctrl,
            &bundle.driving.vocab,
            &spec_list
        ),
        smv::render_module(
            "turn_right_after_finetune",
            &after_ctrl,
            &bundle.driving.vocab,
            &[]
        )
    );
    DemoComparison {
        task: "turn right at the traffic light".to_owned(),
        before,
        after,
        counterexample,
        smv_module,
    }
}

/// Runs the left-turn demonstration (Appendix C).
pub fn left_turn(bundle: &DomainBundle) -> DemoComparison {
    let (before_ctrl, before) = verify_steps(
        bundle,
        "turn left at traffic light (before)",
        &LEFT_TURN_BEFORE,
        ScenarioKind::LeftTurnSignal,
    );
    let (after_ctrl, after) = verify_steps(
        bundle,
        "turn left at traffic light (after)",
        &LEFT_TURN_AFTER,
        ScenarioKind::LeftTurnSignal,
    );
    let counterexample = render_cex(bundle, &before, "phi_12");
    let smv_module = format!(
        "{}\n{}",
        smv::render_module(
            "turn_left_before_finetune",
            &before_ctrl,
            &bundle.driving.vocab,
            &[]
        ),
        smv::render_module(
            "turn_left_after_finetune",
            &after_ctrl,
            &bundle.driving.vocab,
            &[]
        )
    );
    DemoComparison {
        task: "turn left at the traffic light".to_owned(),
        before,
        after,
        counterexample,
        smv_module,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn right_turn_before_fails_phi5_after_passes() {
        let bundle = DomainBundle::new();
        let demo = right_turn(&bundle);
        let verdict_of = |r: &VerificationReport, name: &str| {
            r.results
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.verdict.holds())
                .expect("spec present")
        };
        assert!(
            !verdict_of(&demo.before, "phi_5"),
            "paper: before-FT right turn violates phi_5"
        );
        assert!(
            verdict_of(&demo.after, "phi_5"),
            "paper: after-FT right turn satisfies phi_5"
        );
        assert!(
            demo.after.num_satisfied() > demo.before.num_satisfied(),
            "after {} vs before {} (before failed {:?}, after failed {:?})",
            demo.after.num_satisfied(),
            demo.before.num_satisfied(),
            demo.before.failed(),
            demo.after.failed()
        );
        // The counterexample prose was rendered.
        assert!(demo.counterexample.contains("loop starts here"));
        // The counterexample shows a right turn while a car approaches
        // from the left or a pedestrian is on the right.
        assert!(demo.counterexample.contains("turn right"));
    }

    #[test]
    fn left_turn_before_fails_phi12_after_passes() {
        let bundle = DomainBundle::new();
        let demo = left_turn(&bundle);
        let verdict_of = |r: &VerificationReport, name: &str| {
            r.results
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.verdict.holds())
                .expect("spec present")
        };
        assert!(
            !verdict_of(&demo.before, "phi_12"),
            "paper: before-FT left turn violates phi_12; failed: {:?}",
            demo.before.failed()
        );
        assert!(
            verdict_of(&demo.after, "phi_12"),
            "paper: after-FT left turn satisfies phi_12; failed: {:?}",
            demo.after.failed()
        );
        assert!(demo.after.num_satisfied() >= demo.before.num_satisfied());
    }

    #[test]
    fn smv_exports_are_complete_modules() {
        let bundle = DomainBundle::new();
        let demo = right_turn(&bundle);
        assert!(demo
            .smv_module
            .contains("MODULE turn_right_before_finetune"));
        assert!(demo.smv_module.contains("MODULE turn_right_after_finetune"));
        assert!(demo.smv_module.contains("LTLSPEC NAME phi_5"));
    }
}
