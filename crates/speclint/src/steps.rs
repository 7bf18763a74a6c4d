//! Parsed-step lints (`SL2xx`): unparseable steps, lexicon-coverage gaps,
//! and ambiguous (multi-action) steps over `glm2fsa` input.
//!
//! These run on the *text* of a step list, using the same lexicon the
//! synthesizer uses, so they can explain an upcoming synthesis failure
//! token by token instead of only reporting "failed to align".

use crate::diagnostics::{Diagnostic, LintCode};
use autokit::Vocab;
use glm2fsa::{
    parse_step, Lexicon, CONDITIONAL_MARKERS, CONSEQUENT_SEPARATORS, LITERAL_SEPARATOR,
    NEGATION_WORDS, OBSERVE_VERBS,
};
use std::collections::BTreeSet;

/// Whether the step grammar itself consumes `word`: conditional markers,
/// clause and literal separators, negations, and observation verbs, as
/// `glm2fsa`'s parser defines them.
fn is_grammar_word(word: &str) -> bool {
    word == LITERAL_SEPARATOR
        || CONDITIONAL_MARKERS.contains(&word)
        || CONSEQUENT_SEPARATORS.contains(&word)
        || NEGATION_WORDS.contains(&word)
        || OBSERVE_VERBS.contains(&word)
}

/// Filler words that carry no propositional content. The parser skips
/// unmatched words silently; this list keeps SL202 from flagging ordinary
/// connective prose so it only reports genuinely foreign tokens.
const STOPWORDS: &[&str] = &[
    "or",
    "the",
    "a",
    "an",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "it",
    "its",
    "there",
    "here",
    "this",
    "that",
    "these",
    "those",
    "you",
    "your",
    "of",
    "in",
    "on",
    "at",
    "to",
    "for",
    "from",
    "with",
    "by",
    "as",
    "into",
    "onto",
    "over",
    "under",
    "out",
    "up",
    "down",
    "off",
    "do",
    "does",
    "did",
    "make",
    "take",
    "go",
    "get",
    "state",
    "execute",
    "action",
    "present",
    "proceed",
    "front",
    "ahead",
    "side",
    "intersection",
    "before",
    "after",
    "until",
    "while",
    "once",
    "again",
    "first",
    "next",
    "finally",
    "begin",
    "start",
    "continue",
    "now",
];

/// Crude stemmer: strips common inflection suffixes so `turning`/`turns`
/// match the vocabulary word `turn`.
fn stem(word: &str) -> &str {
    for suffix in ["ing", "ed", "es", "s"] {
        if let Some(base) = word.strip_suffix(suffix) {
            if base.len() >= 3 {
                return base;
            }
        }
    }
    word
}

/// Lowercases and replaces hyphens so canonical names (`green left-turn
/// light`) token-match the lexicon's normalized output.
fn norm_words(text: &str) -> Vec<String> {
    text.to_lowercase()
        .replace('-', " ")
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

/// Lints one step list.
///
/// * `name` — display name for the list (e.g. the task prompt).
/// * `steps` — the raw step texts, one entry per step.
/// * `lexicon` — the alignment lexicon the synthesizer will use.
/// * `vocab` — the canonical vocabulary behind the lexicon.
pub fn lint_steps<S: AsRef<str>>(
    name: &str,
    steps: &[S],
    lexicon: &Lexicon,
    vocab: &Vocab,
) -> Vec<Diagnostic> {
    let subject = format!("steps {name}");

    // Canonical names as normalized word sequences, longest first so the
    // coverage scan is greedy the same way the lexicon is. Action names
    // are tagged so the ambiguity lint can count distinct action mentions.
    let mut phrases: Vec<(Vec<String>, Option<String>)> = Vec::new();
    for p in vocab.props() {
        phrases.push((norm_words(vocab.prop_name(p)), None));
    }
    for a in vocab.acts() {
        let canonical = vocab.act_name(a).to_owned();
        phrases.push((norm_words(&canonical), Some(canonical)));
    }
    phrases.sort_by_key(|(words, _)| std::cmp::Reverse(words.len()));

    // Single vocabulary words (stemmed) — a token like `green` or `left`
    // on its own is domain language even when it is not part of a full
    // canonical phrase at that position.
    let vocab_word_stems: BTreeSet<String> = phrases
        .iter()
        .flat_map(|(words, _)| words.iter())
        .map(|w| stem(w).to_owned())
        .collect();

    let mut diags = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        let step = step.as_ref();
        let element = format!("step {}", idx + 1);

        // SL201 — the step does not parse at all.
        if let Err(reason) = parse_step(step, lexicon) {
            diags.push(
                Diagnostic::new(
                    LintCode::UnparseableStep,
                    &subject,
                    format!("`{}` does not parse: {reason}", step.trim()),
                )
                .element(&element),
            );
        }

        // Coverage scan over the aligned text.
        let aligned = lexicon.align(step);
        let words = norm_words(&aligned);
        let mut unknown: Vec<&str> = Vec::new();
        let mut act_mentions: BTreeSet<&str> = BTreeSet::new();
        let mut i = 0;
        while i < words.len() {
            let matched = phrases.iter().find(|(phrase, _)| {
                i + phrase.len() <= words.len() && words[i..i + phrase.len()] == phrase[..]
            });
            if let Some((phrase, act)) = matched {
                if let Some(act) = act {
                    act_mentions.insert(act.as_str());
                }
                i += phrase.len();
                continue;
            }
            let word = words[i].as_str();
            let stemmed = stem(word);
            let known = word.chars().all(|c| c.is_ascii_digit())
                || is_grammar_word(word)
                || is_grammar_word(stemmed)
                || STOPWORDS.contains(&word)
                || STOPWORDS.contains(&stemmed)
                || vocab_word_stems.contains(stemmed);
            if !known {
                unknown.push(word);
            }
            i += 1;
        }

        // SL202 — tokens the lexicon cannot place.
        if !unknown.is_empty() {
            diags.push(
                Diagnostic::new(
                    LintCode::UnknownToken,
                    &subject,
                    format!(
                        "token(s) [{}] are outside the lexicon and will be ignored",
                        unknown.join(", ")
                    ),
                )
                .element(&element),
            );
        }

        // SL203 — several distinct actions in one step; the parser keeps
        // only the first.
        if act_mentions.len() >= 2 {
            let mentioned: Vec<&str> = act_mentions.into_iter().collect();
            diags.push(
                Diagnostic::new(
                    LintCode::AmbiguousStep,
                    &subject,
                    format!(
                        "mentions {} actions [{}]; only the first takes effect",
                        mentioned.len(),
                        mentioned.join(", ")
                    ),
                )
                .element(&element),
            );
        }
    }
    diags
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

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn sl201_flags_unparseable_step() {
        let (d, l) = setup();
        let diags = lint_steps("demo", &["Do a barrel roll."], &l, &d.vocab);
        assert!(codes(&diags).contains(&"SL201"), "{diags:?}");
    }

    #[test]
    fn sl201_negative_on_parseable_step() {
        let (d, l) = setup();
        let diags = lint_steps("demo", &["Turn right."], &l, &d.vocab);
        assert!(!codes(&diags).contains(&"SL201"), "{diags:?}");
    }

    #[test]
    fn sl202_flags_out_of_lexicon_tokens() {
        let (d, l) = setup();
        let diags = lint_steps(
            "demo",
            &["If no car from the left, teleport across the intersection."],
            &l,
            &d.vocab,
        );
        let unknown: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::UnknownToken)
            .collect();
        assert_eq!(unknown.len(), 1, "{diags:?}");
        assert!(unknown[0].message.contains("teleport"), "{diags:?}");
        assert!(!unknown[0].message.contains("intersection"), "{diags:?}");
    }

    #[test]
    fn sl202_negative_on_papers_shipped_step_lists() {
        let (d, l) = setup();
        // The paper's own aligned responses must be fully covered.
        let before = [
            "Observe the state of the green traffic light.",
            "If the green traffic light is on, execute the action go straight.",
            "As you approach the intersection, observe the state of the car from left.",
            "If the car from left is not present, check the state of the pedestrian at right.",
            "If the pedestrian at right is not present, execute the action turn right.",
        ];
        let diags = lint_steps("right turn (before)", &before, &l, &d.vocab);
        assert!(!codes(&diags).contains(&"SL202"), "{diags:?}");
        assert!(!codes(&diags).contains(&"SL201"), "{diags:?}");
    }

    #[test]
    fn sl203_flags_multi_action_step() {
        let (d, l) = setup();
        let diags = lint_steps("demo", &["Turn right and then stop."], &l, &d.vocab);
        let ambiguous: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::AmbiguousStep)
            .collect();
        assert_eq!(ambiguous.len(), 1, "{diags:?}");
        assert!(ambiguous[0].message.contains("stop"), "{diags:?}");
        assert!(ambiguous[0].message.contains("turn right"), "{diags:?}");
    }

    #[test]
    fn sl203_negative_on_single_action_step() {
        let (d, l) = setup();
        let diags = lint_steps(
            "demo",
            &["If the green traffic light is on, go straight."],
            &l,
            &d.vocab,
        );
        assert!(!codes(&diags).contains(&"SL203"), "{diags:?}");
    }

    #[test]
    fn numbered_steps_do_not_flag_their_numbering() {
        let (d, l) = setup();
        let diags = lint_steps("demo", &["3. Turn right."], &l, &d.vocab);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
