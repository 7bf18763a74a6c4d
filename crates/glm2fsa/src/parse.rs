use crate::Lexicon;
use autokit::{ActSet, Guard, PropSet};

/// What a step does once its guard is met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The step only gathers information (`observe`, `check`, `watch`, …).
    /// The set records which propositions the step attends to; the
    /// controller emits the lexicon's idle action.
    Observe(PropSet),
    /// The step performs actions.
    Act(ActSet),
}

/// One semantically parsed step: a literal guard plus the step's effect.
///
/// `<if> <no car from left>, <turn right>` parses to
/// `guard = ¬car_from_left`, `kind = Act({turn right})`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedStep {
    /// Condition under which the step fires (`⊤` for unconditional steps).
    pub guard: Guard,
    /// The step's effect.
    pub kind: StepKind,
}

// The words the step grammar consumes. They are public so that tools
// reasoning about step text (speclint's SL202 coverage lint) read the
// grammar from here instead of keeping a copy.

/// Words that open a guarded step.
pub const CONDITIONAL_MARKERS: [&str; 2] = ["if", "when"];
/// Words that end a step's condition and open its consequent clause.
pub const CONSEQUENT_SEPARATORS: [&str; 2] = [",", "then"];
/// The word that joins a condition's literals.
pub const LITERAL_SEPARATOR: &str = "and";
/// Verbs that make an action-free clause an observation.
pub const OBSERVE_VERBS: [&str; 9] = [
    "observe", "check", "look", "watch", "verify", "monitor", "scan", "confirm", "approach",
];
/// Words that negate the propositions of their condition segment.
pub const NEGATION_WORDS: [&str; 7] = ["no", "not", "without", "clear", "free", "absent", "isnt"];

/// Parses one step of a response into a [`ParsedStep`].
///
/// The text is aligned against the lexicon first, so paraphrases are
/// accepted. Grammar (after alignment):
///
/// * `if/when <literals> , <clause>` — a guarded step. Literals are
///   `and`-separated proposition mentions, negated by `no`/`not`/
///   `without`/`clear`/`free`/`absent` within the same segment.
/// * `<clause>` — an unconditional step.
/// * A clause is an **action** if it mentions any action phrase (the
///   first mentioned action wins), otherwise an **observation** if it
///   contains an observe verb or proposition mentions.
///
/// # Errors
///
/// Returns a human-readable reason when the step has no recognizable verb
/// phrase — the paper's "failed to align" case.
pub fn parse_step(text: &str, lexicon: &Lexicon) -> Result<ParsedStep, String> {
    let aligned = lexicon.align(strip_numbering(text));
    if aligned.is_empty() {
        return Err("empty step".to_owned());
    }
    let words: Vec<&str> = aligned.split(' ').collect();

    if CONDITIONAL_MARKERS.contains(&words[0]) {
        // Split condition from consequent at the first comma or `then`.
        let split = words
            .iter()
            .position(|w| CONSEQUENT_SEPARATORS.contains(w))
            .ok_or_else(|| "conditional step has no consequent clause".to_owned())?;
        let mut consequent_words = &words[split + 1..];
        if consequent_words.first() == Some(&"then") {
            consequent_words = &consequent_words[1..];
        }
        let consequent = consequent_words.join(" ");
        if consequent.trim().is_empty() {
            return Err("conditional step has an empty consequent".to_owned());
        }
        let guard = parse_condition(&words[1..split], lexicon)?;
        let kind = parse_clause(&consequent, lexicon)?;
        Ok(ParsedStep { guard, kind })
    } else {
        let kind = parse_clause(&aligned, lexicon)?;
        Ok(ParsedStep {
            guard: Guard::always(),
            kind,
        })
    }
}

/// Strips leading list numbering like `3.` or `2)`.
fn strip_numbering(text: &str) -> &str {
    let trimmed = text.trim_start();
    let after_digits = trimmed.trim_start_matches(|c: char| c.is_ascii_digit());
    if after_digits.len() != trimmed.len() {
        after_digits
            .strip_prefix(['.', ')'])
            .unwrap_or(after_digits)
            .trim_start()
    } else {
        trimmed
    }
}

/// Parses the words of an `and`-separated literal conjunction into a
/// [`Guard`].
fn parse_condition(condition: &[&str], lexicon: &Lexicon) -> Result<Guard, String> {
    let mut guard = Guard::always();
    let mut any = false;
    for segment in condition.split(|w| *w == LITERAL_SEPARATOR) {
        let props = lexicon.find_props(&segment.join(" "));
        if props.is_empty() {
            // Segments without a proposition mention ("it is safe") add no
            // literal; a condition that mentions nothing at all is an
            // alignment failure.
            continue;
        }
        let negated = segment.iter().any(|w| NEGATION_WORDS.contains(w));
        for (_, p) in props {
            if negated {
                guard = guard.forbids(p);
            } else {
                guard = guard.requires(p);
            }
            any = true;
        }
    }
    if !any {
        return Err(format!(
            "condition `{}` mentions no known proposition",
            condition.join(" ")
        ));
    }
    Ok(guard)
}

/// Parses a clause into an action or an observation.
fn parse_clause(clause: &str, lexicon: &Lexicon) -> Result<StepKind, String> {
    let acts = lexicon.find_acts(clause);
    if let Some(&(_, first)) = acts.first() {
        // The first mentioned action wins ("wait for traffic to clear
        // before turning left" → stop, not turn-left).
        return Ok(StepKind::Act(ActSet::singleton(first)));
    }
    let has_observe_verb = clause.split(' ').any(|w| OBSERVE_VERBS.contains(&w));
    let props: PropSet = lexicon
        .find_props(clause)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    if has_observe_verb || !props.is_empty() {
        return Ok(StepKind::Observe(props));
    }
    Err(format!(
        "clause `{clause}` contains no recognizable action or observation"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::presets::DrivingDomain;

    fn setup() -> (DrivingDomain, Lexicon) {
        let d = DrivingDomain::new();
        let l = Lexicon::driving(&d);
        (d, l)
    }

    #[test]
    fn strip_numbering_variants() {
        assert_eq!(strip_numbering("3. Turn right."), "Turn right.");
        assert_eq!(strip_numbering("12) go"), "go");
        assert_eq!(strip_numbering("  1. x"), "x");
        assert_eq!(strip_numbering("turn"), "turn");
    }

    #[test]
    fn unconditional_action() {
        let (d, l) = setup();
        let step = parse_step("Turn right.", &l).unwrap();
        assert_eq!(step.guard, Guard::always());
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.turn_right)));
    }

    #[test]
    fn unconditional_observation() {
        let (d, l) = setup();
        let step = parse_step("Observe the state of the green traffic light.", &l).unwrap();
        assert_eq!(step.guard, Guard::always());
        assert_eq!(step.kind, StepKind::Observe(PropSet::singleton(d.green_tl)));
    }

    #[test]
    fn conditional_with_positive_literal() {
        let (d, l) = setup();
        let step = parse_step(
            "If the green traffic light is on, execute the action go straight.",
            &l,
        )
        .unwrap();
        assert_eq!(step.guard, Guard::always().requires(d.green_tl));
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.go_straight)));
    }

    #[test]
    fn conditional_with_negative_literals() {
        let (d, l) = setup();
        let step = parse_step(
            "If no car from the left and no pedestrian at your right, turn right.",
            &l,
        )
        .unwrap();
        assert_eq!(
            step.guard,
            Guard::always().forbids(d.car_left).forbids(d.ped_right)
        );
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.turn_right)));
    }

    #[test]
    fn conditional_consequent_can_observe() {
        let (d, l) = setup();
        let step = parse_step(
            "If the car from left is not present, check the state of the pedestrian at right.",
            &l,
        )
        .unwrap();
        assert_eq!(step.guard, Guard::always().forbids(d.car_left));
        assert_eq!(
            step.kind,
            StepKind::Observe(PropSet::singleton(d.ped_right))
        );
    }

    #[test]
    fn when_is_a_conditional_marker() {
        let (d, l) = setup();
        let step = parse_step("When the left turn signal is green, turn left.", &l).unwrap();
        assert_eq!(step.guard, Guard::always().requires(d.green_ll));
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.turn_left)));
    }

    #[test]
    fn first_action_wins_in_complex_clauses() {
        let (d, l) = setup();
        // "wait" (→ stop) comes before the left turn.
        let step = parse_step(
            "Wait for oncoming traffic to clear before you turn left.",
            &l,
        )
        .unwrap();
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.stop)));
    }

    #[test]
    fn paraphrased_steps_align() {
        let (d, l) = setup();
        let step = parse_step("If there is no oncoming traffic, make a left turn.", &l).unwrap();
        assert_eq!(step.guard, Guard::always().forbids(d.opposite_car));
        assert_eq!(step.kind, StepKind::Act(ActSet::singleton(d.turn_left)));
    }

    #[test]
    fn vacuous_condition_segments_are_skipped() {
        let (d, l) = setup();
        let step = parse_step("If it is safe and no car from the left, turn right.", &l).unwrap();
        assert_eq!(step.guard, Guard::always().forbids(d.car_left));
    }

    #[test]
    fn unparsable_steps_error() {
        let (_, l) = setup();
        assert!(parse_step("Do a barrel roll.", &l).is_err());
        assert!(parse_step("If the moon is full, howl.", &l).is_err());
        assert!(parse_step("If no car from the left", &l).is_err());
        assert!(parse_step("", &l).is_err());
    }

    #[test]
    fn condition_without_known_props_errors() {
        let (_, l) = setup();
        let err = parse_step("If it is safe, turn right.", &l).unwrap_err();
        assert!(err.contains("no known proposition"), "{err}");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics, whatever the input.
            #[test]
            fn parse_step_total_on_arbitrary_text(text in ".{0,120}") {
                let (_, l) = setup();
                let _ = parse_step(&text, &l);
            }

            /// Word salad over the domain vocabulary never panics and,
            /// when it parses, yields a structurally sound step.
            #[test]
            fn parse_step_on_domain_word_salad(
                words in proptest::collection::vec(0usize..12, 0..20)
            ) {
                let lexicon_words = [
                    "if", "no", "the", "turn", "right", "left", "stop",
                    "green", "traffic", "light", ",", "observe",
                ];
                let text = words
                    .iter()
                    .map(|&i| lexicon_words[i])
                    .collect::<Vec<_>>()
                    .join(" ");
                let (_, l) = setup();
                if let Ok(step) = parse_step(&text, &l) {
                    // Guards never mix a literal positively and negatively.
                    prop_assert!(!step.guard.is_contradictory());
                }
            }

            /// Alignment is idempotent: aligning aligned text is a no-op.
            #[test]
            fn align_idempotent(text in "[a-z ]{0,80}") {
                let (_, l) = setup();
                let once = l.align(&text);
                let twice = l.align(&once);
                prop_assert_eq!(once, twice);
            }
        }
    }
}
