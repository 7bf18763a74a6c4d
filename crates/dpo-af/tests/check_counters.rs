//! The `ltlcheck.*` counters describe real work (DESIGN.md §7): every
//! spec check counts once, and Büchi states count only when an automaton
//! is actually translated, which happens once per temporal rule per
//! process; propositional invariants are decided without one.
//!
//! One test function only — the obskit recorder and the automaton cache
//! are process-global, so this binary must not score from parallel tests.

use dpo_af::domain::{render_response, DomainBundle, Style};
use dpo_af::feedback::score_response;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn first_response_translates_the_rule_book_and_the_second_reuses_it() {
    let bundle = DomainBundle::new();
    let task = &bundle.tasks[0];
    let mut rng = StdRng::seed_from_u64(3);
    let texts = [Style::Careful, Style::Hasty]
        .map(|style| render_response(&bundle.driving, task, style, &mut rng));

    obskit::enable();
    obskit::set_console(false);
    let counter = |name: &str| {
        obskit::snapshot()
            .metrics
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    };
    let names = [
        "ltlcheck.checks",
        "ltlcheck.automaton_cache_misses",
        "ltlcheck.automaton_cache_hits",
        "ltlcheck.buchi_states",
    ];
    let mut deltas = Vec::new();
    for text in &texts {
        let before = names.map(counter);
        let scored = score_response(&bundle, task, text);
        assert!(scored.controller.is_some(), "`{text}` must synthesize");
        let after = names.map(counter);
        deltas.push([0, 1, 2, 3].map(|i| after[i] - before[i]));
    }
    obskit::disable();

    // Nine rules are propositional invariants `□p`, decided by a label
    // scan with no automaton; only the six temporal rules are translated.
    let [checks, misses, hits, states] = deltas[0];
    assert_eq!(checks, 15, "first response: one check per rule");
    assert_eq!(
        misses, 6,
        "first response: one translation per temporal rule"
    );
    assert_eq!(hits, 0);
    assert!(states > 0, "translated automata have states");

    let [checks, misses, hits, states] = deltas[1];
    assert_eq!(checks, 15, "second response: one check per rule");
    assert_eq!(misses, 0, "second response: nothing translated");
    assert_eq!(
        hits, 6,
        "second response: every temporal rule's automaton cached"
    );
    assert_eq!(states, 0, "second response: no Büchi states built");
}
