//! Specification analysis: satisfiability, validity, equivalence and
//! vacuity.
//!
//! A rule book is only as good as its rules. These helpers catch the
//! classic authoring mistakes before any controller is blamed:
//!
//! * an **unsatisfiable** specification fails every controller;
//! * a **valid** (tautological) specification passes every controller;
//! * an implication whose antecedent is unreachable in the world model
//!   passes **vacuously** — the rule never actually constrains anything.

use crate::buchi::Buchi;
use crate::mc::{eval_bool, fair_cycle_exists, fair_cycle_in, is_propositional, LabelIndex};
use crate::{check_graph, Justice, Ltl};
use autokit::{ActSet, LabelGraph, PropSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The process-wide spec-automaton cache (see [`spec_automaton`]).
fn automaton_cache() -> &'static Mutex<HashMap<Ltl, Arc<Buchi>>> {
    static CACHE: OnceLock<Mutex<HashMap<Ltl, Arc<Buchi>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_cache() -> std::sync::MutexGuard<'static, HashMap<Ltl, Arc<Buchi>>> {
    match automaton_cache().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The **spec-only automaton**: the Büchi automaton of `phi` itself (not
/// of its negation, which is what universal model checking builds),
/// memoized process-wide by the formula.
///
/// Semantic rule-book analysis asks many questions about the *same* small
/// set of rules — satisfiability, realizability per world, pairwise
/// conflict and containment — and the tableau construction dominates the
/// cost of each query on the small product graphs involved. The cache
/// turns repeat constructions into a hash lookup; hits and misses are
/// mirrored to the obskit counters `ltlcheck.automaton_cache_hits` /
/// `ltlcheck.automaton_cache_misses`. A miss is the only place the
/// checker translates a formula, so it also adds the new automaton's
/// size to `ltlcheck.buchi_states` / `ltlcheck.buchi_transitions`.
///
/// Universal model checking looks its negated formulas up in the same
/// cache, so every check of a rule after the first is a lookup.
///
/// The cache never invalidates: an automaton is a pure function of its
/// formula, and formulas are compared structurally (two differently
/// built but identical rule texts share one entry).
pub fn spec_automaton(phi: &Ltl) -> Arc<Buchi> {
    if let Some(hit) = lock_cache().get(phi) {
        obskit::counter_add("ltlcheck.automaton_cache_hits", 1);
        return Arc::clone(hit);
    }
    obskit::counter_add("ltlcheck.automaton_cache_misses", 1);
    // Build outside the lock: construction is the expensive part, and a
    // racing double-build of the same formula is idempotent.
    let built = Arc::new(Buchi::from_ltl(phi));
    if obskit::enabled() {
        let transitions: usize = built.states().iter().map(|s| s.succs.len()).sum();
        obskit::counter_add("ltlcheck.buchi_states", built.num_states() as u64);
        obskit::counter_add("ltlcheck.buchi_transitions", transitions as u64);
    }
    Arc::clone(
        lock_cache()
            .entry(phi.clone())
            .or_insert_with(|| Arc::clone(&built)),
    )
}

/// The automaton of `¬phi` — what universal model checking searches — from
/// the [`spec_automaton`] cache.
pub(crate) fn negation_automaton(phi: &Ltl) -> Arc<Buchi> {
    spec_automaton(&Ltl::not(phi.clone()))
}

/// Number of distinct formulas memoized by [`spec_automaton`] so far.
pub fn automaton_cache_len() -> usize {
    lock_cache().len()
}

/// Decides whether some infinite word over `2^{P ∪ P_A}` satisfies `phi`.
///
/// Runs a Büchi-emptiness check on the spec-only automaton (via
/// [`spec_automaton`], so repeat queries are cached): a state is
/// *consistent* when its positive and negative literal constraints do
/// not clash (such a symbol always exists, the alphabet being the full
/// power set); the language is non-empty iff an accepting cycle of
/// consistent states is reachable from a consistent initial state.
///
/// # Example
///
/// ```
/// use autokit::Vocab;
/// use ltlcheck::{analysis, parse};
///
/// let mut v = Vocab::new();
/// v.add_prop("a")?;
/// assert!(analysis::satisfiable(&parse("F a", &v)?));
/// assert!(!analysis::satisfiable(&parse("F (a & !a)", &v)?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn satisfiable(phi: &Ltl) -> bool {
    language_nonempty(&spec_automaton(phi))
}

/// Büchi emptiness on a formula automaton over the unconstrained
/// alphabet: `true` iff the automaton accepts some infinite word.
pub fn language_nonempty(buchi: &Buchi) -> bool {
    let n = buchi.num_states();
    let consistent: Vec<bool> = buchi
        .states()
        .iter()
        .map(|s| s.pos.iter().all(|a| !s.neg.contains(a)))
        .collect();

    // Reachability from consistent initial states through consistent
    // states.
    let mut reachable = vec![false; n];
    let mut stack: Vec<usize> = buchi
        .initial()
        .iter()
        .copied()
        .filter(|&s| consistent[s])
        .collect();
    for &s in &stack {
        reachable[s] = true;
    }
    while let Some(s) = stack.pop() {
        for &t in &buchi.states()[s].succs {
            if consistent[t] && !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }

    // An accepting lasso exists iff some reachable accepting state can
    // reach itself through consistent states.
    (0..n)
        .filter(|&s| reachable[s] && buchi.states()[s].accepting)
        .any(|acc| {
            let mut seen = vec![false; n];
            let mut stack = vec![acc];
            while let Some(s) = stack.pop() {
                for &t in &buchi.states()[s].succs {
                    if !consistent[t] {
                        continue;
                    }
                    if t == acc {
                        return true;
                    }
                    if !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            false
        })
}

/// `true` iff every infinite word satisfies `phi`.
pub fn valid(phi: &Ltl) -> bool {
    !satisfiable(&Ltl::not(phi.clone()))
}

/// `true` iff the two formulas have the same models.
pub fn equivalent(a: &Ltl, b: &Ltl) -> bool {
    valid(&Ltl::iff(a.clone(), b.clone()))
}

/// **Existential** model checking: `true` iff *some* fair path of
/// `graph` satisfies `phi`.
///
/// The dual of [`crate::check_graph_fair`] (which asks whether *every*
/// fair path satisfies the formula): the spec-only automaton of `phi`
/// itself is composed with the graph and searched for a justice-fair
/// accepting lasso. This is the primitive behind semantic rule-book
/// analysis — realizability of a rule in a world, pairwise conflict
/// (`∃ path ⊨ A ∧ B`?) and containment (`∃ path ⊨ A ∧ ¬B`?) are all one
/// existential query each.
///
/// Automata come from [`spec_automaton`], so sweeping the same rule book
/// over several worlds builds each automaton once. Only the yes/no answer
/// is needed, so the product is searched on the fly and the search stops
/// at the first fair accepting cycle; no lasso is built.
pub fn exists_fair_path(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    fair_cycle_exists(graph, &spec_automaton(phi), justice)
}

/// **Universal** model checking through the automaton cache: `true` iff
/// every fair path of `graph` satisfies `phi`.
///
/// The one-spec case of [`holds_all_fair`]; verdict-identical to
/// `check_graph_fair(graph, phi, justice).holds()`.
pub fn holds_fair(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    holds_all_fair(graph, [phi], justice)[0]
}

/// Decides a whole spec suite on one graph: entry `i` is `true` iff every
/// fair path of `graph` satisfies `specs[i]`.
///
/// This is the yes/no half of [`crate::verify_all_fair`], for callers
/// that need only which rules hold (ranking by the number satisfied, as
/// DPO-AF does). Verdicts are identical to
/// `check_graph_fair(graph, phi, justice).holds()`, at a fraction of the
/// cost:
///
/// * the graph's distinct labels and their justice marks are indexed once
///   for the suite, not once per spec;
/// * each `¬φ` automaton comes from the [`spec_automaton`] cache, so a
///   rule is translated once per process;
/// * each spec runs the on-the-fly emptiness search, which stops at the
///   first fair accepting cycle and builds no lasso.
///
/// Each spec counts one `ltlcheck.checks`.
pub fn holds_all_fair<'a>(
    graph: &LabelGraph,
    specs: impl IntoIterator<Item = &'a Ltl>,
    justice: &[Justice],
) -> Vec<bool> {
    let index = LabelIndex::new(graph, justice);
    specs
        .into_iter()
        .map(|phi| !fair_cycle_in(&index, &negation_automaton(phi)))
        .collect()
}

/// Product-reachability query: the step labels `(σ, a)` of every node
/// reachable from the graph's initial nodes, deduplicated, in first-visit
/// (DFS preorder) order.
///
/// This is the basis for trigger-reachability analysis: a rule of shape
/// `□(trigger → …)` whose trigger is false on every reachable label can
/// never fire — the rule holds vacuously no matter the controller.
pub fn reachable_labels(graph: &LabelGraph) -> Vec<(PropSet, ActSet)> {
    let mut seen = vec![false; graph.num_nodes()];
    let mut stack: Vec<usize> = graph.initial.clone();
    for &s in &stack {
        seen[s] = true;
    }
    let mut labels = Vec::new();
    let mut dedup = std::collections::HashSet::new();
    while let Some(s) = stack.pop() {
        if dedup.insert(graph.labels[s]) {
            labels.push(graph.labels[s]);
        }
        for &t in &graph.succs[s] {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    labels
}

/// Evaluates a propositional condition over one step label. Returns
/// `None` when `phi` contains temporal operators.
pub fn eval_propositional(phi: &Ltl, props: PropSet, acts: ActSet) -> Option<bool> {
    is_propositional(phi).then(|| eval_bool(phi, props, acts))
}

/// `true` iff some reachable node of `graph` satisfies the propositional
/// condition `cond`; `None` when `cond` is not propositional.
///
/// Callers sweeping many conditions over one graph should precompute
/// [`reachable_labels`] and evaluate with [`eval_propositional`] instead.
pub fn condition_reachable(graph: &LabelGraph, cond: &Ltl) -> Option<bool> {
    if !is_propositional(cond) {
        return None;
    }
    Some(
        reachable_labels(graph)
            .iter()
            .any(|&(p, a)| eval_bool(cond, p, a)),
    )
}

/// How a specification can hold without constraining anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vacuity {
    /// The specification is a tautology — true of *any* system.
    Tautology,
    /// The specification has the shape `□(antecedent → …)` and the
    /// antecedent never occurs on any path of the checked graph.
    UnreachableAntecedent(Ltl),
}

/// Checks whether `phi` holds on `graph` only vacuously.
///
/// Returns `None` when the specification either fails, or holds for a
/// non-vacuous reason. Detects two vacuity classes: tautologies, and
/// `□(a → b)`-shaped specifications whose antecedent `a` is never true
/// along any path of the graph.
pub fn vacuous_pass(graph: &LabelGraph, phi: &Ltl) -> Option<Vacuity> {
    if !check_graph(graph, phi).holds() {
        return None;
    }
    if valid(phi) {
        return Some(Vacuity::Tautology);
    }
    // □(a → b) desugars to Release(False, Or(Not(a), b)).
    if let Ltl::Release(l, r) = phi {
        if **l == Ltl::False {
            if let Ltl::Or(not_a, _) = &**r {
                if let Ltl::Not(a) = &**not_a {
                    let never_a = Ltl::Release(Arc::new(Ltl::False), Arc::new(Ltl::Not(a.clone())));
                    if check_graph(graph, &never_a).holds() {
                        return Some(Vacuity::UnreachableAntecedent((**a).clone()));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use autokit::{ActSet, ProductState, PropSet, Vocab};
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    #[test]
    fn satisfiability_basics() {
        let v = vocab();
        for sat in ["a", "F a", "G a", "a U b", "G F a", "!a", "X X a"] {
            assert!(satisfiable(&parse(sat, &v).unwrap()), "{sat}");
        }
        for unsat in [
            "a & !a",
            "F (a & !a)",
            "false",
            "G a & F !a",
            "(G a) & (!a)",
            "X(a & !a) & X true",
        ] {
            assert!(!satisfiable(&parse(unsat, &v).unwrap()), "{unsat}");
        }
    }

    #[test]
    fn validity_basics() {
        let v = vocab();
        for val in [
            "true",
            "a | !a",
            "F true",
            "G true",
            "(G a) -> a",
            "(a & b) -> a",
        ] {
            assert!(valid(&parse(val, &v).unwrap()), "{val}");
        }
        for inval in ["a", "G a", "F a"] {
            assert!(!valid(&parse(inval, &v).unwrap()), "{inval}");
        }
    }

    #[test]
    fn known_equivalences() {
        let v = vocab();
        let pairs = [
            ("F a", "!(G !a)"),
            ("a U b", "!((!a) R (!b))"),
            ("G G a", "G a"),
            ("F F a", "F a"),
            ("X (a & b)", "(X a) & (X b)"),
            ("G(a & b)", "(G a) & (G b)"),
        ];
        for (lhs, rhs) in pairs {
            assert!(
                equivalent(&parse(lhs, &v).unwrap(), &parse(rhs, &v).unwrap()),
                "{lhs} ≡ {rhs}"
            );
        }
        assert!(!equivalent(
            &parse("F(a & b)", &v).unwrap(),
            &parse("(F a) & (F b)", &v).unwrap()
        ));
    }

    fn single_state_graph(props: PropSet) -> LabelGraph {
        LabelGraph {
            labels: vec![(props, ActSet::empty())],
            origin: vec![ProductState { model: 0, ctrl: 0 }],
            succs: vec![vec![0]],
            initial: vec![0],
        }
    }

    #[test]
    fn vacuity_detects_unreachable_antecedent() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        // Graph where `a` never holds.
        let graph = single_state_graph(PropSet::singleton(b));
        let spec = parse("G(a -> b)", &v).unwrap();
        assert_eq!(
            vacuous_pass(&graph, &spec),
            Some(Vacuity::UnreachableAntecedent(Ltl::prop(a)))
        );
        // Graph where `a` does occur: the pass is genuine.
        let graph = single_state_graph(PropSet::singleton(a).with(b));
        assert_eq!(vacuous_pass(&graph, &spec), None);
    }

    #[test]
    fn vacuity_detects_tautologies() {
        let v = vocab();
        let graph = single_state_graph(PropSet::empty());
        let spec = parse("G(a -> a)", &v).unwrap();
        // `G(a → a)` is a tautology wherever it is checked.
        assert_eq!(vacuous_pass(&graph, &spec), Some(Vacuity::Tautology));
    }

    #[test]
    fn failing_specs_are_not_vacuous() {
        let v = vocab();
        let graph = single_state_graph(PropSet::empty());
        let spec = parse("G a", &v).unwrap();
        assert_eq!(vacuous_pass(&graph, &spec), None);
    }

    /// Two-node graph: node 0 labels `{a}`, node 1 labels `{b}` with act
    /// `s`; 0 → 1 → 1.
    fn two_phase_graph(v: &Vocab) -> LabelGraph {
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        LabelGraph {
            labels: vec![
                (PropSet::singleton(a), ActSet::empty()),
                (PropSet::singleton(b), ActSet::singleton(s)),
            ],
            origin: vec![
                ProductState { model: 0, ctrl: 0 },
                ProductState { model: 1, ctrl: 0 },
            ],
            succs: vec![vec![1], vec![1]],
            initial: vec![0],
        }
    }

    #[test]
    fn exists_fair_path_is_existential() {
        let v = vocab();
        let graph = two_phase_graph(&v);
        // Every path eventually sees `b` forever, and starts at `a`.
        assert!(exists_fair_path(&graph, &parse("a", &v).unwrap(), &[]));
        assert!(exists_fair_path(
            &graph,
            &parse("F (G b)", &v).unwrap(),
            &[]
        ));
        // No path ever revisits `a`.
        assert!(!exists_fair_path(
            &graph,
            &parse("X (F a)", &v).unwrap(),
            &[]
        ));
        // Unsatisfiable formulas are realizable nowhere.
        assert!(!exists_fair_path(
            &graph,
            &parse("F (a & !a)", &v).unwrap(),
            &[]
        ));
    }

    #[test]
    fn exists_respects_justice() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        // Self-loops on both nodes: paths may park on node 0 (`a`)
        // forever...
        let mut graph = two_phase_graph(&v);
        graph.succs[0].push(0);
        assert!(exists_fair_path(&graph, &parse("G a", &v).unwrap(), &[]));
        // ...but justice "b infinitely often" rules those paths out.
        let justice = vec![Justice::new("b", parse("b", &v).unwrap()).unwrap()];
        assert!(!exists_fair_path(
            &graph,
            &parse("G a", &v).unwrap(),
            &justice
        ));
        assert!(exists_fair_path(
            &graph,
            &parse("F b", &v).unwrap(),
            &justice
        ));
        let _ = a;
    }

    #[test]
    fn holds_fair_matches_check_graph_fair() {
        let v = vocab();
        let graph = two_phase_graph(&v);
        for src in ["a", "G a", "F (G b)", "X b", "F (a & !a)"] {
            let phi = parse(src, &v).unwrap();
            assert_eq!(
                holds_fair(&graph, &phi, &[]),
                check_graph(&graph, &phi).holds(),
                "{src}"
            );
        }
    }

    #[test]
    fn reachable_labels_dedups_and_skips_unreachable() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let mut graph = two_phase_graph(&v);
        // An unreachable node labeled `{a, b}`.
        graph
            .labels
            .push((PropSet::singleton(a).with(b), ActSet::empty()));
        graph.origin.push(ProductState { model: 2, ctrl: 0 });
        graph.succs.push(vec![2]);
        let labels = reachable_labels(&graph);
        assert_eq!(labels.len(), 2);
        assert!(!labels.contains(&(PropSet::singleton(a).with(b), ActSet::empty())));

        let reach_b = condition_reachable(&graph, &parse("b", &v).unwrap());
        assert_eq!(reach_b, Some(true));
        let reach_ab = condition_reachable(&graph, &parse("a & b", &v).unwrap());
        assert_eq!(reach_ab, Some(false));
        // Temporal conditions are not propositional.
        assert_eq!(
            condition_reachable(&graph, &parse("F a", &v).unwrap()),
            None
        );
    }

    #[test]
    fn spec_automaton_memoizes_structurally() {
        let v = vocab();
        let phi = parse("G (a -> F b)", &v).unwrap();
        let first = spec_automaton(&phi);
        // A structurally identical formula built separately hits the same
        // entry.
        let again = spec_automaton(&parse("G (a -> F b)", &v).unwrap());
        assert!(Arc::ptr_eq(&first, &again));
        assert!(automaton_cache_len() >= 1);
    }

    fn arb_ltl() -> impl Strategy<Value = Ltl> {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            Just(Ltl::prop(a)),
            Just(Ltl::prop(b)),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Ltl::not),
                inner.clone().prop_map(Ltl::next),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::or(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::until(l, r)),
                (inner.clone(), inner).prop_map(|(l, r)| Ltl::release(l, r)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// φ or ¬φ is always satisfiable.
        #[test]
        fn excluded_middle(phi in arb_ltl()) {
            prop_assert!(satisfiable(&phi) || satisfiable(&Ltl::not(phi.clone())));
        }

        /// Validity implies satisfiability (the alphabet is non-empty).
        #[test]
        fn valid_implies_satisfiable(phi in arb_ltl()) {
            if valid(&phi) {
                prop_assert!(satisfiable(&phi));
            }
        }

        /// NNF preserves the language.
        #[test]
        fn nnf_is_equivalent(phi in arb_ltl()) {
            prop_assert!(equivalent(&phi, &phi.nnf()));
        }
    }
}
