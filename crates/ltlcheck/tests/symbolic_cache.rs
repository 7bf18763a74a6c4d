//! Both backends search one translation of `¬φ`: after an explicit check
//! of a rule, the symbolic check of the same rule is an automaton-cache
//! hit and translates nothing (DESIGN.md §7).
//!
//! One test function only — the obskit recorder and the automaton cache
//! are process-global, so this binary must not check from parallel tests.

use autokit::{ActSet, ControllerBuilder, Guard, Product, PropSet, Vocab, WorldModel};
use ltlcheck::symbolic::check_graph_fair_symbolic;
use ltlcheck::{check_graph_fair, parse};

#[test]
fn symbolic_check_reuses_the_explicit_checks_automaton() {
    let mut v = Vocab::new();
    let green = v.add_prop("green").unwrap();
    let go = v.add_act("go").unwrap();
    let mut model = WorldModel::new("light");
    let g = model.add_state(PropSet::singleton(green));
    let r = model.add_state(PropSet::empty());
    for (from, to) in [(g, r), (r, g), (g, g), (r, r)] {
        model.add_transition(from, to);
    }
    let ctrl = ControllerBuilder::new("go on green", 1)
        .initial(0)
        .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
        .transition(0, Guard::always().forbids(green), ActSet::empty(), 0)
        .build()
        .unwrap();
    let graph = Product::build(&model, &ctrl).label_graph();
    let phi = parse("G(!green -> !go) & G F go", &v).unwrap();

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
        "ltlcheck.automaton_cache_misses",
        "ltlcheck.automaton_cache_hits",
        "ltlcheck.buchi_states",
    ];
    let explicit = check_graph_fair(&graph, &phi, &[]).holds();
    let before = names.map(counter);
    let symbolic = check_graph_fair_symbolic(&graph, &phi, &[]);
    let after = names.map(counter);
    obskit::disable();

    assert_eq!(explicit, symbolic, "backends disagree");
    let [misses, hits, states] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(misses, 0, "symbolic check translated `¬φ` again");
    assert_eq!(hits, 1, "symbolic check takes `¬φ` from the cache");
    assert_eq!(states, 0, "no Büchi states built");
}
