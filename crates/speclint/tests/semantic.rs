//! Integration tests of the rule-book analysis: a pathological book
//! exercising every `SL002`/`SL30x` code pinned to a golden JSON report,
//! and property tests that `SL300` (empty language) never misfires, that
//! a pair whose conjunction has no model is always caught as an `SL303`
//! conflict, and that a `□(t → x)` rule whose trigger never fires is
//! always caught as `SL302`; and that the errors-only pass the pipeline
//! gates on returns exactly the full pass's `Error`s, on the shipped
//! books and on random books.

#![allow(clippy::expect_used, reason = "test helpers assert by panicking")]

use autokit::{ActSet, Controller, ControllerBuilder, Guard, PropSet, Vocab, WorldModel};
use ltlcheck::analysis::{exists_fair_path, reachable_labels, satisfiable, valid};
use ltlcheck::specs::Spec;
use ltlcheck::{parse, Ltl};
use obskit::json::ToJson;
use proptest::prelude::*;
use speclint::presets::{driving_input, free_controller, warehouse_input};
use speclint::semantic::{analyze, analyze_errors, CorpusController, SemanticInput, SemanticWorld};
use speclint::{sort_diagnostics, Diagnostic, Severity};

fn vocab() -> Vocab {
    let mut v = Vocab::new();
    v.add_prop("a").expect("fresh");
    v.add_prop("b").expect("fresh");
    v.add_act("go").expect("fresh");
    v.add_act("wait").expect("fresh");
    v
}

/// One-state world labeled `{a}` with a self-loop.
fn always_a_model(v: &Vocab) -> WorldModel {
    let a = v.prop("a").expect("registered");
    let mut model = WorldModel::new("always-a");
    let s = model.add_state(PropSet::singleton(a));
    model.add_transition(s, s);
    model
}

fn free(v: &Vocab) -> Controller {
    free_controller(
        "free",
        &[
            ActSet::singleton(v.act("go").expect("registered")),
            ActSet::singleton(v.act("wait").expect("registered")),
        ],
    )
}

fn spec(name: &str, v: &Vocab, src: &str) -> Spec {
    Spec {
        name: name.to_string(),
        description: String::new(),
        formula: parse(src, v).expect("parses"),
    }
}

/// A rule book built to trip every rule-book code at once: an empty
/// language (SL300), a tautology (SL002), a rule holding with the
/// controller unconstrained (SL301), a rule whose trigger is unreachable
/// (SL302), a conflicting pair (SL303), a subsumed pair (SL304), and —
/// with a single-controller corpus — zero-discrimination findings
/// (SL305).
fn pathological_input() -> SemanticInput {
    let v = vocab();
    let model = always_a_model(&v);
    let waiter = ControllerBuilder::new("waiter", 1)
        .initial(0)
        .transition(
            0,
            Guard::always(),
            ActSet::singleton(v.act("wait").expect("registered")),
            0,
        )
        .build()
        .expect("well-formed");
    SemanticInput {
        specs: vec![
            spec("empty", &v, "F (a & !a)"),
            spec("tautology", &v, "G (a | !a)"),
            spec("trivial", &v, "F a"),
            spec("dormant", &v, "G (b -> !go)"),
            spec("progress", &v, "G F go"),
            spec("caution", &v, "G (a -> !go)"),
            spec("strong", &v, "G !go"),
        ],
        worlds: vec![SemanticWorld::from_parts(
            "always-a",
            &model,
            &free(&v),
            Vec::new(),
        )],
        corpus: vec![CorpusController::from_parts(
            "waiter",
            "always-a",
            &model,
            &waiter,
            Vec::new(),
        )],
        vocab: Some(v),
    }
}

fn check_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n")).expect("golden file writes");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        got.trim_end(),
        want.trim_end(),
        "semantic report drifted from tests/golden/{file}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// Every `SL002`/`SL30x` code fires on the pathological book and the
/// full sorted report is byte-stable against the golden file.
#[test]
fn pathological_book_trips_every_code_and_matches_golden() {
    let mut diags = analyze(&pathological_input());
    sort_diagnostics(&mut diags);
    for code in [
        "SL002", "SL300", "SL301", "SL302", "SL303", "SL304", "SL305",
    ] {
        assert!(
            diags.iter().any(|d| d.code.code() == code),
            "{code} missing from {diags:?}"
        );
    }
    let got = diags.to_json().to_json_pretty();
    check_golden("semantic_codes.json", &got);
}

/// Sorting is deterministic: two independent analyses of the same input
/// serialize identically.
#[test]
fn analysis_is_deterministic_across_runs() {
    let render = || {
        let mut diags = analyze(&pathological_input());
        sort_diagnostics(&mut diags);
        diags.to_json().to_json_pretty()
    };
    assert_eq!(render(), render());
}

/// The full pass's `Error` findings, in emission order.
fn full_pass_errors(input: &SemanticInput) -> Vec<Diagnostic> {
    analyze(input)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// On both shipped books the gate returns the full pass's `Error`s (none)
/// from fewer queries.
#[test]
fn gate_equals_full_pass_errors_on_shipped_books() {
    for input in [driving_input().book, warehouse_input().book] {
        let gate = analyze_errors(&input);
        assert_eq!(gate.diagnostics, full_pass_errors(&input));
        assert!(gate.diagnostics.is_empty(), "{:?}", gate.diagnostics);
    }
}

/// The pathological book's `Error`s survive the gate, in order.
#[test]
fn gate_equals_full_pass_errors_on_pathological_book() {
    let input = pathological_input();
    let errors = full_pass_errors(&input);
    assert_eq!(
        errors.iter().map(|d| d.code.code()).collect::<Vec<_>>(),
        vec!["SL300", "SL303", "SL303"]
    );
    assert_eq!(analyze_errors(&input).diagnostics, errors);
}

fn always_a_world(v: &Vocab) -> SemanticWorld {
    SemanticWorld::from_parts("always-a", &always_a_model(v), &free(v), Vec::new())
}

fn rule(name: &str, formula: Ltl) -> Spec {
    Spec {
        name: name.to_owned(),
        description: String::new(),
        formula,
    }
}

/// Propositional conditions over `a`, `b` and `go`: the triggers of
/// `□(t → …)` rules.
fn arb_condition() -> impl Strategy<Value = Ltl> {
    let v = vocab();
    let a = v.prop("a").expect("registered");
    let b = v.prop("b").expect("registered");
    let go = v.act("go").expect("registered");
    let leaf = prop_oneof![
        Just(Ltl::True),
        Just(Ltl::False),
        Just(Ltl::prop(a)),
        Just(Ltl::prop(b)),
        Just(Ltl::act(go)),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Ltl::not),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
            (inner.clone(), inner).prop_map(|(l, r)| Ltl::or(l, r)),
        ]
    })
}

fn arb_ltl() -> impl Strategy<Value = Ltl> {
    let v = vocab();
    let a = v.prop("a").expect("registered");
    let b = v.prop("b").expect("registered");
    let go = v.act("go").expect("registered");
    let leaf = prop_oneof![
        Just(Ltl::True),
        Just(Ltl::False),
        Just(Ltl::prop(a)),
        Just(Ltl::prop(b)),
        Just(Ltl::act(go)),
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `SL300` has no false positives: every random formula the analysis
    /// flags as an empty language is confirmed unsatisfiable on a live
    /// product — no fair path of the free `always-a` product satisfies
    /// it.
    #[test]
    fn sl300_flagged_specs_are_unsatisfiable_on_live_product(phi in arb_ltl()) {
        let v = vocab();
        let world = always_a_world(&v);
        let graph = world.graph.clone();
        let input = SemanticInput {
            specs: vec![Spec {
                name: "random".to_owned(),
                description: String::new(),
                formula: phi.clone(),
            }],
            worlds: vec![world],
            corpus: Vec::new(),
            vocab: Some(v),
        };
        let diags = analyze(&input);
        if diags.iter().any(|d| d.code.code() == "SL300") {
            prop_assert!(
                !exists_fair_path(&graph, &phi, &[]),
                "SL300 fired but the live product satisfies {phi:?}"
            );
        }
    }

    /// Pairwise conflict under a world never misses a conflict over all
    /// traces: when `a` and `b` each have a model but `a ∧ b` has none,
    /// and both are realizable in the world, the pair gets `SL303`.
    #[test]
    fn unsatisfiable_conjunction_of_realizable_rules_is_sl303(
        a in arb_ltl(),
        c in arb_ltl(),
        negate in any::<bool>(),
    ) {
        // `b = ¬a ∧ c` makes the conjunction empty in most cases; the
        // other half draws `b` freely.
        let b = if negate { Ltl::and(Ltl::not(a.clone()), c) } else { c };
        let world = always_a_world(&vocab());
        prop_assume!(satisfiable(&a) && satisfiable(&b));
        prop_assume!(!satisfiable(&Ltl::and(a.clone(), b.clone())));
        prop_assume!(exists_fair_path(&world.graph, &a, &world.justice));
        prop_assume!(exists_fair_path(&world.graph, &b, &world.justice));
        let diags = analyze(&SemanticInput {
            specs: vec![rule("a", a.clone()), rule("b", b.clone())],
            worlds: vec![world],
            corpus: Vec::new(),
            vocab: Some(vocab()),
        });
        prop_assert!(
            diags.iter().any(|d| d.code.code() == "SL303"
                && d.location.subject == "spec a"
                && d.location.element.as_deref() == Some("spec b")),
            "no SL303 for {a:?} and {b:?}: {diags:?}"
        );
    }

    /// The errors-only pass agrees with the full pass on random books:
    /// same `Error`s in the same order, from no more queries.
    #[test]
    fn gate_equals_full_pass_errors_on_random_books(
        formulas in proptest::collection::vec(arb_ltl(), 2..=4),
    ) {
        let input = SemanticInput {
            specs: formulas
                .into_iter()
                .enumerate()
                .map(|(i, phi)| rule(&format!("r{i}"), phi))
                .collect(),
            worlds: vec![always_a_world(&vocab())],
            corpus: Vec::new(),
            vocab: Some(vocab()),
        };
        let full = speclint::semantic::analyze_timed(&input);
        let gate = analyze_errors(&input);
        let errors: Vec<Diagnostic> = full
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert_eq!(gate.diagnostics, errors);
        prop_assert!(gate.checks <= full.checks);
    }

    /// Trigger reachability never misses a dormant rule: every
    /// `□(t → x)` whose propositional `t` is false on all reachable
    /// labels of the world gets `SL302` there — or `SL002`, which skips
    /// the world checks, when the rule holds on every trace.
    #[test]
    fn unreachable_trigger_is_sl302(t in arb_condition(), x in arb_ltl()) {
        let world = always_a_world(&vocab());
        prop_assume!(reachable_labels(&world.graph)
            .iter()
            .all(|&(p, acts)| ltlcheck::analysis::eval_propositional(&t, p, acts) == Some(false)));
        let formula = Ltl::always(Ltl::implies(t, x));
        let expected = if valid(&formula) { "SL002" } else { "SL302" };
        let diags = analyze(&SemanticInput {
            specs: vec![rule("dormant", formula.clone())],
            worlds: vec![world],
            corpus: Vec::new(),
            vocab: Some(vocab()),
        });
        prop_assert!(
            diags.iter().any(|d| d.code.code() == expected),
            "no {expected} for {formula:?}: {diags:?}"
        );
    }
}
