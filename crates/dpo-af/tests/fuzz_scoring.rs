//! End-to-end fuzzing of response scoring: generated step lists go
//! through the one text-to-controller path (`split_steps` → `synthesize`
//! → product → model checking) in both the decide-only and the certified
//! mode.
//!
//! Synthesis is the only gate: a response is rejected exactly when its
//! split is empty or one of its steps fails `parse_step`, and a rejected
//! response counts once in `pipeline.responses_rejected`.
//!
//! One test function only — the obskit recorder is process-global.

use dpo_af::domain::DomainBundle;
use dpo_af::feedback::{score_response, score_response_certified};
use glm2fsa::{parse_step, split_steps};
use proptest::prelude::*;
use std::sync::LazyLock;

static BUNDLE: LazyLock<DomainBundle> = LazyLock::new(DomainBundle::new);

/// Lexicon phrases, step keywords, stray words and the empty word.
const WORDS: [&str; 30] = [
    "if",
    "when",
    "not",
    "no",
    "and",
    ",",
    "then",
    "observe",
    "check",
    "the",
    "green traffic light",
    "green left-turn light",
    "car from the left",
    "pedestrian on the right",
    "oncoming traffic",
    "stop sign ahead",
    "pedestrian ahead",
    "turn right",
    "turn left",
    "go straight",
    "stop",
    "make a left turn",
    "come to a complete stop",
    "proceed straight",
    "banana",
    "merge",
    "trust your instincts",
    "1.",
    "Observe",
    "",
];

/// What follows a step: `;` separates steps, `.` ends sentences.
const SEPARATORS: [&str; 6] = [" ; ", ";", " . ;", ".", " ;; ", ""];

fn rejected_count() -> u64 {
    obskit::snapshot()
        .metrics
        .counters
        .iter()
        .find(|(name, _)| name == "pipeline.responses_rejected")
        .map_or(0, |&(_, v)| v)
}

fn arb_response() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..WORDS.len(), 0..7),
            0..SEPARATORS.len(),
        ),
        0..5,
    )
    .prop_map(|steps| {
        let mut text = String::new();
        for (words, sep) in steps {
            let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            text.push_str(&words.join(" "));
            text.push_str(SEPARATORS[sep]);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scoring_is_total_and_synthesis_is_the_only_gate(
        text in arb_response(),
        task in 0usize..10,
    ) {
        let bundle = &*BUNDLE;
        let task = &bundle.tasks[task];
        obskit::enable();
        obskit::set_console(false);
        let rejected_before = rejected_count();

        let plain = score_response(bundle, task, &text);
        let (certified, counters) = score_response_certified(bundle, task, &text);

        let steps = split_steps(&text);
        let unparsable =
            steps.is_empty() || steps.iter().any(|s| parse_step(s, &bundle.lexicon).is_err());
        prop_assert_eq!(plain.controller.is_none(), unparsable, "`{}`", text);
        prop_assert_eq!(plain.holds.is_none(), unparsable, "`{}`", text);
        prop_assert_eq!(&plain.holds, &certified.holds, "`{}`", text);
        prop_assert_eq!(plain.num_satisfied, certified.num_satisfied);
        prop_assert_eq!(counters.checks, if unparsable { 0 } else { 15 });
        // One count per rejected call: the plain and the certified one.
        let rejected = rejected_count() - rejected_before;
        prop_assert_eq!(rejected, if unparsable { 2 } else { 0 }, "`{}`", text);
    }
}
