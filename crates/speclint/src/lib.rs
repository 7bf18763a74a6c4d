//! speclint — static analysis for specifications, controllers, and parsed
//! step lists.
//!
//! The DPO-AF pipeline consumes three kinds of artifacts before any model
//! checking happens: LTL rule books, finite-state controllers, and the
//! natural-language step lists controllers are synthesized from. Each can
//! be silently broken in ways model checking only surfaces late (or never:
//! a vacuously-passing rule produces no counterexample at all). This crate
//! lints all three up front:
//!
//! * **Rule-book analysis (`SL002`, `SL3xx`)** — satisfiability,
//!   tautology, world-model vacuity, pairwise conflict under the world,
//!   subsumption, and corpus discrimination, via the ltlcheck automaton
//!   machinery ([`semantic::analyze`]); [`semantic::analyze_errors`] runs
//!   only the checks behind its `Error`s, for gates.
//! * **Controller lints (`SL1xx`)** — unreachable states, dead
//!   transitions, nondeterminism, incompleteness, sinks, unused vocabulary
//!   ([`lint_controller`]).
//! * **Step lints (`SL2xx`)** — unparseable steps, lexicon-coverage gaps,
//!   ambiguous steps ([`lint_steps`]).
//!
//! Findings are [`Diagnostic`]s with stable codes, suitable for both human
//! output and the JSON schema the `speclint` CLI emits. [`run`] lints a
//! whole [`LintInput`] bundle in one call.

pub mod controller;
pub mod diagnostics;
pub mod presets;
pub mod semantic;
pub mod steps;

pub use controller::{lint_controller, ControllerContext};
pub use diagnostics::{sort_diagnostics, Diagnostic, LintCode, Location, Severity, Tally};
pub use semantic::{analyze, analyze_errors, CorpusController, SemanticInput, SemanticWorld};
pub use steps::lint_steps;

use autokit::{Controller, PropSet, Vocab};
use glm2fsa::Lexicon;

/// A controller plus the optional context that sharpens its lints.
#[derive(Debug, Clone)]
pub struct ControllerInput {
    /// The controller to lint.
    pub controller: Controller,
    /// Vocabulary for name rendering and the unused-atom lint.
    pub vocab: Option<Vocab>,
    /// Observations the environment can produce (world-model state
    /// labels); enables the stronger dead-transition and the
    /// incomplete-state checks.
    pub observations: Option<Vec<PropSet>>,
}

/// A natural-language step list plus the lexicon it will be synthesized
/// through.
#[derive(Debug, Clone)]
pub struct StepListInput {
    /// Display name (e.g. the task prompt).
    pub name: String,
    /// Raw step texts.
    pub steps: Vec<String>,
    /// Alignment lexicon.
    pub lexicon: Lexicon,
    /// Canonical vocabulary behind the lexicon.
    pub vocab: Vocab,
}

/// Everything [`run`] lints in one pass.
#[derive(Debug, Clone, Default)]
pub struct LintInput {
    /// The rule book with the worlds and corpus it is analyzed under.
    pub book: SemanticInput,
    /// Controllers to lint.
    pub controllers: Vec<ControllerInput>,
    /// Step lists to lint.
    pub step_lists: Vec<StepListInput>,
}

/// Lints an input bundle: the rule book first, then controllers, then
/// step lists.
pub fn run(input: &LintInput) -> Vec<Diagnostic> {
    let mut diags = analyze(&input.book);
    for c in &input.controllers {
        diags.extend(lint_controller(
            &c.controller,
            ControllerContext {
                vocab: c.vocab.as_ref(),
                observations: c.observations.as_deref(),
            },
        ));
    }
    for s in &input.step_lists {
        diags.extend(lint_steps(&s.name, &s.steps, &s.lexicon, &s.vocab));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::{ActSet, ControllerBuilder, Guard};
    use ltlcheck::parse;
    use ltlcheck::specs::Spec;

    #[test]
    fn run_covers_all_three_analyzer_families() {
        let mut vocab = Vocab::new();
        vocab.add_prop("a").expect("fresh");
        let act = vocab.add_act("go").expect("fresh");
        let specs = vec![Spec {
            name: "bad".to_owned(),
            description: String::new(),
            formula: parse("F (a & !a)", &vocab).expect("parses"),
        }];
        let controller = ControllerBuilder::new("orphan", 2)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(act), 0)
            .build()
            .expect("well-formed");
        let driving = autokit::presets::DrivingDomain::new();
        let lexicon = Lexicon::driving(&driving);
        let input = LintInput {
            book: SemanticInput {
                specs,
                vocab: Some(vocab.clone()),
                ..Default::default()
            },
            controllers: vec![ControllerInput {
                controller,
                vocab: None,
                observations: None,
            }],
            step_lists: vec![StepListInput {
                name: "demo".to_owned(),
                steps: vec!["Do a barrel roll.".to_owned()],
                lexicon,
                vocab: driving.vocab.clone(),
            }],
        };
        let diags = run(&input);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.code()).collect();
        assert!(codes.contains(&"SL300"), "{codes:?}");
        assert!(codes.contains(&"SL101"), "{codes:?}");
        assert!(codes.contains(&"SL201"), "{codes:?}");
    }
}
