//! Integration tests of the semantic rule-book analysis: a pathological
//! book exercising every `SL30x` code pinned to a golden JSON report,
//! and a property test that `SL300` (empty language) never misfires —
//! every flagged formula is confirmed unsatisfiable on a live product.

#![allow(clippy::expect_used, reason = "test helpers assert by panicking")]

use autokit::{ActSet, Controller, ControllerBuilder, Guard, PropSet, Vocab, WorldModel};
use ltlcheck::specs::Spec;
use ltlcheck::{parse, Ltl};
use obskit::json::ToJson;
use proptest::prelude::*;
use speclint::presets::free_controller;
use speclint::semantic::{analyze, CorpusController, SemanticInput, SemanticWorld};
use speclint::sort_diagnostics;

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

/// A rule book built to trip every semantic code at once: an empty
/// language (SL300), a rule holding with the controller unconstrained
/// (SL301), a rule whose trigger is unreachable (SL302), a conflicting
/// pair (SL303), a subsumed pair (SL304), and — with a single-controller
/// corpus — zero-discrimination findings (SL305).
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

/// Every `SL30x` code fires on the pathological book and the full sorted
/// report is byte-stable against the golden file.
#[test]
fn pathological_book_trips_every_code_and_matches_golden() {
    let mut diags = analyze(&pathological_input());
    sort_diagnostics(&mut diags);
    for code in ["SL300", "SL301", "SL302", "SL303", "SL304", "SL305"] {
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
        let model = always_a_model(&v);
        let world = SemanticWorld::from_parts("always-a", &model, &free(&v), Vec::new());
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
                !ltlcheck::analysis::exists_fair_path(&graph, &phi, &[]),
                "SL300 fired but the live product satisfies {phi:?}"
            );
        }
    }
}
