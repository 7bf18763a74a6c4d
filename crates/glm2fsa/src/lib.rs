//! # glm2fsa — controllers from natural-language step lists
//!
//! Reimplementation of the **GLM2FSA** algorithm (Yang et al., 2022) used
//! by *"Fine-Tuning Language Models Using Formal Methods Feedback"*
//! (MLSys 2024) to convert a language model's step-by-step task
//! instructions into a finite-state-automaton controller:
//!
//! 1. **Alignment** ([`Lexicon::align`]) — canonicalize paraphrases to the
//!    domain's proposition/action vocabulary (the paper's second LM query:
//!    *"Rephrase the following steps to align the defined Boolean
//!    Propositions … and Actions …"*).
//! 2. **Semantic parsing** ([`parse_step`]) — break each step into verb
//!    phrases and keywords (`observe`, `if`, negations), producing a
//!    [`ParsedStep`]: a literal guard plus either an observation or an
//!    action.
//! 3. **FSA construction** ([`build_controller`]) — one controller state
//!    per step, the first step initial, `if`-guards on transitions, and a
//!    wait self-loop when a guard is not met. Wherever a step emits no
//!    action of its own the controller emits the domain's idle action
//!    ([`Lexicon::idle`]), as the paper's NuSMV encodings do.
//!
//! The end-to-end entry point is [`synthesize`]: the controller it returns
//! is the one the model checker verifies. [`split_steps`] cuts a response
//! into the step list it takes.
//!
//! ## Example: the paper's fine-tuned right-turn controller (Fig. 7 right)
//!
//! ```
//! use autokit::presets::DrivingDomain;
//! use glm2fsa::{split_steps, synthesize, Lexicon};
//!
//! let domain = DrivingDomain::new();
//! let lexicon = Lexicon::driving(&domain);
//! let steps = split_steps(
//!     "Observe the traffic light in front of you; \
//!      Check for the left approaching car and right side pedestrian; \
//!      If no car from the left and no pedestrian at right, turn right.",
//! );
//! let ctrl = synthesize("turn right at traffic light", &steps, &lexicon)?;
//! assert_eq!(ctrl.num_states(), 3);
//! // The observing steps emit `stop`: no transition is without an action.
//! assert!(ctrl.transitions().iter().all(|t| !t.action.is_empty()));
//! # Ok::<(), glm2fsa::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod error;
mod lexicon;
mod parse;

pub use build::build_controller;
pub use error::SynthesisError;
pub use lexicon::Lexicon;
pub use parse::{
    parse_step, ParsedStep, StepKind, CONDITIONAL_MARKERS, CONSEQUENT_SEPARATORS,
    LITERAL_SEPARATOR, NEGATION_WORDS, OBSERVE_VERBS,
};

use autokit::Controller;

/// Splits a response into its step strings: steps are `;`-separated, and
/// surrounding whitespace, a trailing period and empty steps are dropped.
///
/// ```
/// assert_eq!(
///     glm2fsa::split_steps("1. Observe the light. ; ; 2. If green, go straight."),
///     ["1. Observe the light", "2. If green, go straight"]
/// );
/// ```
pub fn split_steps(text: &str) -> Vec<String> {
    text.split(';')
        .map(|s| s.trim().trim_end_matches('.').trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Converts a natural-language step list into the FSA controller the
/// model checker verifies: align → parse each step → build, emitting the
/// lexicon's idle action where a step emits none of its own.
///
/// # Errors
///
/// Returns [`SynthesisError`] when a step cannot be parsed against the
/// lexicon (the response "failed to align", in the paper's terms) or the
/// step list is empty.
pub fn synthesize<S: AsRef<str>>(
    name: &str,
    steps: &[S],
    lexicon: &Lexicon,
) -> Result<Controller, SynthesisError> {
    if steps.is_empty() {
        return Err(SynthesisError::EmptyStepList);
    }
    let parsed: Vec<ParsedStep> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            parse_step(s.as_ref(), lexicon).map_err(|reason| SynthesisError::UnparsableStep {
                index: i,
                text: s.as_ref().to_owned(),
                reason,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(build_controller(name, &parsed, lexicon.idle()))
}
