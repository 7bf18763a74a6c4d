use autokit::{presets::DrivingDomain, ActId, PropId, Vocab};

/// A phrase dictionary mapping natural-language paraphrases onto canonical
/// propositions and actions.
///
/// The lexicon drives both stages of the paper's text processing:
///
/// * [`Lexicon::align`] rewrites paraphrases in a step to the canonical
///   vocabulary — the role the paper assigns to a second language-model
///   query ("Rephrase the following steps to align the defined Boolean
///   Propositions … and Actions …"). Deterministic rewriting is used here
///   because what DPO-AF needs from alignment is a *canonical form with a
///   failure mode*: phrases outside the lexicon do not align, and the
///   resulting synthesis failure is (correctly) penalized by the ranking.
/// * [`parse_step`](crate::parse_step) uses the canonical names to detect
///   propositions and actions.
///
/// Phrase matching is case-insensitive and longest-match-first.
///
/// The lexicon also records the domain's **idle action** — the action
/// the agent performs while it observes or waits (driving `stop`,
/// warehouse `wait`); see [`build_controller`](crate::build_controller).
#[derive(Debug, Clone)]
pub struct Lexicon {
    /// `(phrase, canonical proposition)` pairs, including the identity
    /// mapping for every canonical name.
    prop_phrases: Vec<(String, PropId)>,
    /// `(phrase, canonical action)` pairs.
    act_phrases: Vec<(String, ActId)>,
    /// Canonical proposition names, indexed by `PropId`.
    prop_names: Vec<String>,
    /// Canonical action names, indexed by `ActId`.
    act_names: Vec<String>,
    /// The domain's idle action.
    idle: ActId,
}

fn normalize(text: &str) -> String {
    let lowered = text.to_lowercase();
    let mut out = String::with_capacity(lowered.len());
    for c in lowered.chars() {
        if c.is_ascii_alphanumeric() || c == ' ' || c == '-' {
            out.push(if c == '-' { ' ' } else { c });
        } else if c == ',' {
            out.push_str(" , ");
        } else {
            out.push(' ');
        }
    }
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The number of words of `phrase` when they are the leading words of
/// `words`, compared word by word without joining anything.
///
/// `words` come from splitting on single spaces, so they contain none:
/// this equals `words[..n].join(" ") == phrase` for the phrase's word
/// count `n`.
fn match_len(words: &[&str], phrase: &str) -> Option<usize> {
    let mut n = 0;
    for part in phrase.split(' ') {
        if words.get(n) != Some(&part) {
            return None;
        }
        n += 1;
    }
    Some(n)
}

/// The first of `phrases` (longest-first) that starts `words`, with its
/// word count.
fn longest_match<T: Copy>(words: &[&str], phrases: &[(String, T)]) -> Option<(usize, T)> {
    phrases
        .iter()
        .find_map(|(phrase, id)| match_len(words, phrase).map(|n| (n, *id)))
}

impl Lexicon {
    /// Creates a lexicon over a vocabulary whose idle action is `idle`;
    /// every canonical name maps to itself.
    pub fn new(vocab: &Vocab, idle: ActId) -> Self {
        let mut lex = Lexicon {
            prop_phrases: Vec::new(),
            act_phrases: Vec::new(),
            prop_names: Vec::new(),
            act_names: Vec::new(),
            idle,
        };
        for p in vocab.props() {
            let name = vocab.prop_name(p).to_owned();
            lex.prop_phrases.push((name.clone(), p));
            lex.prop_names.push(name);
        }
        for a in vocab.acts() {
            let name = vocab.act_name(a).to_owned();
            lex.act_phrases.push((name.clone(), a));
            lex.act_names.push(name);
        }
        lex.sort();
        lex
    }

    /// Registers a paraphrase for a proposition.
    pub fn add_prop_phrase(&mut self, phrase: &str, prop: PropId) {
        self.prop_phrases.push((normalize(phrase), prop));
        self.sort();
    }

    /// Registers a paraphrase for an action.
    pub fn add_act_phrase(&mut self, phrase: &str, act: ActId) {
        self.act_phrases.push((normalize(phrase), act));
        self.sort();
    }

    fn sort(&mut self) {
        // Longest phrase first so greedy matching prefers specific
        // paraphrases ("green left-turn light" over "green light").
        self.prop_phrases
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        self.act_phrases
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
    }

    /// The domain's idle action, emitted wherever a step emits no action
    /// of its own.
    pub fn idle(&self) -> ActId {
        self.idle
    }

    /// The canonical name of a proposition.
    pub fn prop_name(&self, p: PropId) -> &str {
        &self.prop_names[p.index()]
    }

    /// The canonical name of an action.
    pub fn act_name(&self, a: ActId) -> &str {
        &self.act_names[a.index()]
    }

    /// Scans `text` for the longest proposition phrase starting at word
    /// boundary positions; returns all matches in order with their word
    /// offsets.
    pub(crate) fn find_props(&self, text: &str) -> Vec<(usize, PropId)> {
        self.find(text, &self.prop_phrases)
    }

    /// Scans `text` for action phrases.
    pub(crate) fn find_acts(&self, text: &str) -> Vec<(usize, ActId)> {
        self.find(text, &self.act_phrases)
    }

    fn find<T: Copy>(&self, text: &str, phrases: &[(String, T)]) -> Vec<(usize, T)> {
        let norm = normalize(text);
        let words: Vec<&str> = norm.split(' ').collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            // Longest-first ordering makes the first match the greedy one.
            match longest_match(&words[i..], phrases) {
                Some((plen, id)) => {
                    out.push((i, id));
                    i += plen;
                }
                None => i += 1,
            }
        }
        out
    }

    /// Rewrites every recognized paraphrase in `text` to its canonical
    /// name — the alignment stage. Unrecognized words pass through
    /// unchanged (and may later fail parsing, which is the intended
    /// penalty signal).
    ///
    /// # Example
    ///
    /// ```
    /// use autokit::presets::DrivingDomain;
    /// use glm2fsa::Lexicon;
    ///
    /// let d = DrivingDomain::new();
    /// let lex = Lexicon::driving(&d);
    /// assert_eq!(
    ///     lex.align("If there is no oncoming traffic, make a right turn."),
    ///     "if there is no opposite car , turn right"
    /// );
    /// ```
    pub fn align(&self, text: &str) -> String {
        let norm = normalize(text);
        let words: Vec<&str> = norm.split(' ').collect();
        let mut out = String::with_capacity(norm.len());
        let mut i = 0;
        while i < words.len() {
            let (plen, word) =
                if let Some((plen, id)) = longest_match(&words[i..], &self.prop_phrases) {
                    (plen, self.prop_name(id))
                } else if let Some((plen, id)) = longest_match(&words[i..], &self.act_phrases) {
                    (plen, self.act_name(id))
                } else {
                    (1, words[i])
                };
            if i > 0 {
                out.push(' ');
            }
            out.push_str(word);
            i += plen;
        }
        out
    }

    /// The full paraphrase dictionary for the paper's autonomous-driving
    /// domain, whose idle action is `stop`: an observing vehicle is a
    /// stopped vehicle.
    pub fn driving(d: &DrivingDomain) -> Lexicon {
        let mut lex = Lexicon::new(&d.vocab, d.stop);
        // --- observations -------------------------------------------------
        for phrase in [
            "green light",
            "light is green",
            "light turns green",
            "traffic light turns green",
            "the signal is green",
            "green signal",
        ] {
            lex.add_prop_phrase(phrase, d.green_tl);
        }
        for phrase in [
            "green left turn light",
            "left turn light is green",
            "green arrow",
            "protected left turn signal",
            "left turn signal is green",
            // Bare mentions resolve to the green phase; the parser's
            // negation detection turns "left turn light is not green"
            // into the ¬green literal.
            "left turn light",
            "left turn signal",
        ] {
            lex.add_prop_phrase(phrase, d.green_ll);
        }
        // Likewise for the main light: "the traffic light turns green" is
        // covered by the longer phrases above; a bare "traffic light" is
        // an observation target for its green phase.
        lex.add_prop_phrase("traffic light", d.green_tl);
        for phrase in [
            "flashing left turn light",
            "flashing arrow",
            "flashing yellow arrow",
        ] {
            lex.add_prop_phrase(phrase, d.flashing_ll);
        }
        for phrase in [
            "oncoming traffic",
            "oncoming car",
            "oncoming vehicle",
            "opposite vehicle",
            "car in the opposite direction",
            "traffic from the opposite direction",
        ] {
            lex.add_prop_phrase(phrase, d.opposite_car);
        }
        for phrase in [
            "car from the left",
            "car approaching from the left",
            "left approaching car",
            "traffic from your left",
            "traffic coming from your left",
            "traffic from the left",
            "vehicle on your left",
            "car on the left",
        ] {
            lex.add_prop_phrase(phrase, d.car_left);
        }
        for phrase in [
            "car from the right",
            "car approaching from the right",
            "right approaching car",
            "traffic from your right",
            "traffic from the right",
            "vehicle on your right",
            "car on the right",
        ] {
            lex.add_prop_phrase(phrase, d.car_right);
        }
        for phrase in [
            "pedestrian on the left",
            "pedestrian at your left",
            "left side pedestrian",
            "person on the left",
        ] {
            lex.add_prop_phrase(phrase, d.ped_left);
        }
        for phrase in [
            "pedestrian on the right",
            "pedestrian at your right",
            "right side pedestrian",
            "pedestrians on your right",
            "person on the right",
        ] {
            lex.add_prop_phrase(phrase, d.ped_right);
        }
        for phrase in [
            "pedestrian ahead",
            "pedestrian in the crosswalk",
            "person crossing",
            "pedestrian crossing in front",
            "crosswalk is occupied",
        ] {
            lex.add_prop_phrase(phrase, d.ped_front);
        }
        for phrase in ["stop sign ahead", "the stop sign"] {
            lex.add_prop_phrase(phrase, d.stop_sign);
        }
        // --- actions ------------------------------------------------------
        for phrase in [
            "come to a stop",
            "come to a complete stop",
            "halt",
            "wait",
            "brake",
            "remain stopped",
        ] {
            lex.add_act_phrase(phrase, d.stop);
        }
        for phrase in [
            "make a left turn",
            "turn your vehicle left",
            "take a left",
            "turn to the left",
        ] {
            lex.add_act_phrase(phrase, d.turn_left);
        }
        for phrase in [
            "make a right turn",
            "turn your vehicle right",
            "take a right",
            "turn to the right",
        ] {
            lex.add_act_phrase(phrase, d.turn_right);
        }
        for phrase in [
            "proceed straight",
            "drive forward",
            "start moving forward",
            "move forward",
            "continue straight",
            "proceed through the intersection",
            "drive through the intersection",
            "cross the intersection",
        ] {
            lex.add_act_phrase(phrase, d.go_straight);
        }
        lex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex() -> (DrivingDomain, Lexicon) {
        let d = DrivingDomain::new();
        let l = Lexicon::driving(&d);
        (d, l)
    }

    #[test]
    fn canonical_names_map_to_themselves() {
        let (d, l) = lex();
        let found = l.find_props("green traffic light");
        assert_eq!(found, vec![(0, d.green_tl)]);
        let found = l.find_acts("turn right");
        assert_eq!(found, vec![(0, d.turn_right)]);
    }

    #[test]
    fn paraphrases_resolve() {
        let (d, l) = lex();
        assert_eq!(l.find_props("oncoming traffic"), vec![(0, d.opposite_car)]);
        assert_eq!(
            l.find_props("car approaching from the left"),
            vec![(0, d.car_left)]
        );
        assert_eq!(l.find_acts("make a right turn"), vec![(0, d.turn_right)]);
        assert_eq!(l.find_acts("come to a complete stop"), vec![(0, d.stop)]);
    }

    #[test]
    fn longest_match_wins() {
        let (d, l) = lex();
        // "green left-turn light" must not match as "…green…light".
        let found = l.find_props("green left-turn light");
        assert_eq!(found, vec![(0, d.green_ll)]);
    }

    #[test]
    fn multiple_matches_in_order() {
        let (d, l) = lex();
        let found = l.find_props("check the car from the left and the pedestrian on the right");
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].1, d.car_left);
        assert_eq!(found[1].1, d.ped_right);
        assert!(found[0].0 < found[1].0);
    }

    #[test]
    fn align_rewrites_to_canonical() {
        let (_, l) = lex();
        assert_eq!(
            l.align("Wait for oncoming traffic to clear, then make a left turn."),
            "stop for opposite car to clear , then turn left"
        );
        // Unknown words pass through.
        assert_eq!(l.align("do a barrel roll"), "do a barrel roll");
    }

    #[test]
    fn normalization_strips_case_and_punctuation() {
        let (d, l) = lex();
        assert_eq!(
            l.find_props("ONCOMING   Traffic!!!"),
            vec![(0, d.opposite_car)]
        );
    }

    #[test]
    fn case_insensitive_hyphen_handling() {
        let (d, l) = lex();
        assert_eq!(l.find_props("Green Left-Turn Light"), vec![(0, d.green_ll)]);
    }

    /// The string-joining matcher that word-slice matching replaced, kept
    /// as the oracle: `find` over one phrase list.
    fn find_joined<T: Copy>(text: &str, phrases: &[(String, T)]) -> Vec<(usize, T)> {
        let norm = normalize(text);
        let words: Vec<&str> = norm.split(' ').collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let mut matched = None;
            for (phrase, id) in phrases {
                let plen = phrase.split(' ').count();
                if i + plen <= words.len() && words[i..i + plen].join(" ") == *phrase {
                    matched = Some((plen, *id));
                    break;
                }
            }
            if let Some((plen, id)) = matched {
                out.push((i, id));
                i += plen;
            } else {
                i += 1;
            }
        }
        out
    }

    /// The string-joining `align`, kept as the oracle.
    fn align_joined(l: &Lexicon, text: &str) -> String {
        let norm = normalize(text);
        let words: Vec<&str> = norm.split(' ').collect();
        let mut out: Vec<String> = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let mut matched = None;
            for (phrase, id) in &l.prop_phrases {
                let plen = phrase.split(' ').count();
                if i + plen <= words.len() && words[i..i + plen].join(" ") == *phrase {
                    matched = Some((plen, l.prop_name(*id).to_owned()));
                    break;
                }
            }
            if matched.is_none() {
                for (phrase, id) in &l.act_phrases {
                    let plen = phrase.split(' ').count();
                    if i + plen <= words.len() && words[i..i + plen].join(" ") == *phrase {
                        matched = Some((plen, l.act_name(*id).to_owned()));
                        break;
                    }
                }
            }
            match matched {
                Some((plen, canonical)) => {
                    out.push(canonical);
                    i += plen;
                }
                None => {
                    out.push(words[i].to_owned());
                    i += 1;
                }
            }
        }
        out.join(" ")
    }

    /// Words of the driving lexicon's phrases plus case, punctuation and
    /// hyphen variants, so random texts hit, nearly hit and miss phrases.
    const WORDS: [&str; 24] = [
        "green",
        "light",
        "left",
        "turn",
        "left-turn",
        "car",
        "from",
        "the",
        "on",
        "right",
        "make",
        "a",
        "stop",
        "traffic",
        "oncoming",
        "is",
        "pedestrian",
        ",",
        "Green",
        "LIGHT!",
        "wait",
        "signal",
        "",
        "opposite",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Word-slice matching answers exactly what joining the words and
        /// comparing strings answered, for `find` and `align`, on random
        /// texts and on a lexicon extended with random phrases — including
        /// raw phrases with empty words that normalization never makes.
        #[test]
        fn word_slice_matching_equals_joined_matching(
            text in proptest::collection::vec(0usize..WORDS.len(), 0..16),
            extra in proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 0..4), 0..6),
        ) {
            let (d, mut l) = lex();
            for (k, phrase) in extra.iter().enumerate() {
                let phrase: Vec<&str> = phrase.iter().map(|&w| WORDS[w]).collect();
                if k % 2 == 0 {
                    l.add_prop_phrase(&phrase.join(" "), d.car_left);
                } else {
                    // Unnormalized, as canonical vocabulary names are.
                    l.act_phrases.push((phrase.join(" "), d.stop));
                    l.sort();
                }
            }
            let text: Vec<&str> = text.iter().map(|&w| WORDS[w]).collect();
            let text = text.join(" ");
            proptest::prop_assert_eq!(l.align(&text), align_joined(&l, &text));
            proptest::prop_assert_eq!(l.find_props(&text), find_joined(&text, &l.prop_phrases));
            proptest::prop_assert_eq!(l.find_acts(&text), find_joined(&text, &l.act_phrases));
        }
    }
}
