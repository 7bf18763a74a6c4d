//! # certkit — certifying model checking for `ltlcheck`
//!
//! Every preference pair the DPO-AF training loop ranks is labeled by an
//! `ltlcheck` verdict, so a single model-checker bug silently poisons
//! the entire training signal. certkit turns every [`Verdict`] into a
//! **machine-checkable claim** and validates it with an independent
//! checker that trusts nothing about how the verdict was produced:
//!
//! * [`Verdict::Fails`] — the attached lasso counterexample is
//!   re-validated from scratch: its stem and cycle are matched against
//!   real edges of the product [`LabelGraph`], justice conditions are
//!   re-evaluated on the cycle, and the negated specification is checked
//!   on the lasso word by certkit's own tableau-free evaluator
//!   ([`lasso::holds_on_lasso`]), independent of the Büchi construction.
//! * [`Verdict::Holds`] — the search emits an emptiness certificate
//!   ([`ltlcheck::HoldsCertificate`]): the explored product state set
//!   plus a component ranking. [`emptiness::check_holds`] validates it
//!   in linear time — initial coverage, successor closure, monotone
//!   ranking, and no fair accepting component — without re-running the
//!   search or reconstructing the automaton.
//!
//! On top sits the [`differential`] harness. Scoring decides every rule
//! with [`ltlcheck::analysis::holds_all_fair`], which emits no evidence;
//! the harness runs each spec suite through that decide-only path and
//! through the certified checker, whose evidence certkit validates, on
//! every preset scenario × rule-book pair, on randomized
//! graphs/formulas and on scaled world models. Any disagreement is
//! minimized and dumped as a JSON reproducer.
//!
//! The trust argument (what is assumed vs. re-derived) is laid out in
//! the repository's DESIGN.md.
//!
//! ## Example
//!
//! ```
//! use autokit::{ActSet, ControllerBuilder, Guard, Product, PropSet, Vocab, WorldModel};
//! use ltlcheck::{check_graph_fair_certified, parse};
//!
//! let mut v = Vocab::new();
//! let green = v.add_prop("green")?;
//! let go = v.add_act("go")?;
//! let mut model = WorldModel::new("light");
//! let g = model.add_state(PropSet::singleton(green));
//! let r = model.add_state(PropSet::empty());
//! model.add_transition(g, r);
//! model.add_transition(r, g);
//! model.add_transition(g, g);
//! model.add_transition(r, r);
//! let ctrl = ControllerBuilder::new("go on green", 1)
//!     .initial(0)
//!     .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
//!     .transition(0, Guard::always().forbids(green), ActSet::empty(), 0)
//!     .build()?;
//! let graph = Product::build(&model, &ctrl).label_graph();
//!
//! let phi = parse("G(!green -> !go)", &v)?;
//! let certified = check_graph_fair_certified(&graph, &phi, &[]);
//! assert!(certified.holds());
//! // The verdict is accepted only because its certificate survives the
//! // independent checker:
//! certkit::check_certified(&graph, &phi, &[], &certified)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counterexample;
pub mod differential;
pub mod emptiness;
pub mod lasso;
pub mod presets;

use autokit::LabelGraph;
use ltlcheck::{CertifiedVerdict, Justice, Ltl, Verdict};
use std::fmt;

/// Why a certificate (or counterexample) was rejected.
///
/// Any of these firing against a verdict produced by `ltlcheck` means a
/// bug in the model checker (or a corrupted certificate) — the verdict
/// must not be used as a training label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// A lasso counterexample with an empty cycle.
    EmptyCycle,
    /// A cycle step matches no graph node (origin + label).
    CycleStepNotInGraph {
        /// Index into the cycle.
        step: usize,
    },
    /// The cycle cannot be closed along real graph edges.
    CycleNotClosed,
    /// A stem step matches no graph node or is unreachable from its
    /// predecessor.
    StemStepNotInGraph {
        /// Index into the stem.
        step: usize,
    },
    /// The first lasso state is not an initial node.
    StemNotInitial,
    /// The stem never connects to a viable cycle entry.
    StemDisconnected,
    /// A justice condition is never witnessed on the cycle.
    JusticeUnwitnessed {
        /// The justice assumption's name.
        name: String,
    },
    /// A justice condition contains temporal operators.
    NonPropositionalJustice {
        /// The justice assumption's name.
        name: String,
    },
    /// The lasso word does not satisfy the negated specification.
    FormulaNotViolated,
    /// `states` and `comp` disagree in length.
    LengthMismatch {
        /// Number of listed product states.
        states: usize,
        /// Number of component entries.
        comps: usize,
    },
    /// A listed product pair is out of range for the graph or automaton.
    StateOutOfRange {
        /// The offending `(graph node, Büchi state)` pair.
        state: (u32, u32),
    },
    /// A product pair is listed twice.
    DuplicateState {
        /// The duplicated pair.
        state: (u32, u32),
    },
    /// The embedded automaton has out-of-range successor or initial ids.
    MalformedAutomaton,
    /// A label-consistent initial pair is missing from the certificate.
    MissingInitial {
        /// The missing pair.
        state: (u32, u32),
    },
    /// A label-consistent successor of a listed pair is missing.
    MissingSuccessor {
        /// The listed pair.
        from: (u32, u32),
        /// Its unlisted successor.
        to: (u32, u32),
    },
    /// An edge increases the component id, breaking the acyclicity
    /// argument of the ranking.
    RankIncrease {
        /// Edge source.
        from: (u32, u32),
        /// Edge target.
        to: (u32, u32),
    },
    /// A component has an internal edge, an accepting state and all
    /// justice witnesses — i.e. the certificate itself exhibits a fair
    /// accepting cycle.
    FairComponent {
        /// The offending component id.
        comp: u32,
    },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::EmptyCycle => write!(f, "counterexample cycle is empty"),
            CertError::CycleStepNotInGraph { step } => {
                write!(f, "cycle step {step} matches no graph node")
            }
            CertError::CycleNotClosed => {
                write!(f, "cycle cannot be closed along graph edges")
            }
            CertError::StemStepNotInGraph { step } => {
                write!(f, "stem step {step} matches no reachable graph node")
            }
            CertError::StemNotInitial => {
                write!(f, "lasso does not start at an initial node")
            }
            CertError::StemDisconnected => {
                write!(f, "stem does not connect to a viable cycle entry")
            }
            CertError::JusticeUnwitnessed { name } => {
                write!(f, "justice condition `{name}` never holds on the cycle")
            }
            CertError::NonPropositionalJustice { name } => {
                write!(f, "justice condition `{name}` is not propositional")
            }
            CertError::FormulaNotViolated => {
                write!(f, "lasso word does not violate the specification")
            }
            CertError::LengthMismatch { states, comps } => {
                write!(
                    f,
                    "certificate lists {states} states but {comps} components"
                )
            }
            CertError::StateOutOfRange { state } => {
                write!(f, "certificate state {state:?} is out of range")
            }
            CertError::DuplicateState { state } => {
                write!(f, "certificate state {state:?} is listed twice")
            }
            CertError::MalformedAutomaton => {
                write!(f, "embedded automaton has out-of-range ids")
            }
            CertError::MissingInitial { state } => {
                write!(
                    f,
                    "initial product state {state:?} missing from certificate"
                )
            }
            CertError::MissingSuccessor { from, to } => {
                write!(f, "successor {to:?} of listed state {from:?} missing")
            }
            CertError::RankIncrease { from, to } => {
                write!(f, "edge {from:?} -> {to:?} increases the component rank")
            }
            CertError::FairComponent { comp } => {
                write!(f, "component {comp} is a reachable fair accepting cycle")
            }
        }
    }
}

impl std::error::Error for CertError {}

/// Validates a certified verdict against the graph, formula and justice
/// assumptions it claims to decide.
///
/// Dispatches to [`counterexample::check_fails`] for `Fails` and
/// [`emptiness::check_holds`] for `Holds`.
///
/// # Errors
///
/// Returns the first failed validation step as a [`CertError`].
pub fn check_certified(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
    certified: &CertifiedVerdict,
) -> Result<(), CertError> {
    match certified {
        CertifiedVerdict::Holds(cert) => emptiness::check_holds(graph, justice, cert),
        CertifiedVerdict::Fails(cex) => counterexample::check_fails(graph, phi, justice, cex),
    }
}

/// Convenience wrapper: model-check with certificates and validate the
/// evidence in one call.
///
/// # Errors
///
/// Returns a [`CertError`] when the produced evidence fails validation —
/// which indicates a model-checker bug, never a property of the input.
pub fn check_graph_fair_validated(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
) -> Result<Verdict, CertError> {
    let certified = ltlcheck::check_graph_fair_certified(graph, phi, justice);
    check_certified(graph, phi, justice, &certified)?;
    Ok(certified.verdict())
}

/// Outcome of a certification sweep.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Scenario × controller cases certified.
    pub cases: usize,
    /// Individual specification checks certified.
    pub checks: usize,
    /// `Holds` verdicts validated.
    pub holds: usize,
    /// `Fails` verdicts validated.
    pub fails: usize,
    /// Checks where the decide-only verdict differs from the certified
    /// one, named `domain/scenario/controller × spec`.
    pub disagreements: Vec<(String, differential::Disagreement)>,
}

/// Certifies every preset scenario × rule-book case: each rule book is
/// run through [`differential::differential`], so every verdict's
/// evidence is validated independently and compared with the decide-only
/// verdict scoring would give.
///
/// # Errors
///
/// Returns the human-readable case name and the validation error for the
/// first rejected verdict.
pub fn certify_presets() -> Result<GateReport, (String, CertError)> {
    let mut report = GateReport::default();
    for case in presets::preset_cases() {
        let name = |i: usize| {
            format!(
                "{}/{}/{} × {}",
                case.domain, case.scenario, case.controller, case.specs[i].name
            )
        };
        let formulas = case.specs.iter().map(|s| &s.formula);
        let suite = differential::differential(&case.graph, formulas, &case.justice)
            .map_err(|(i, e)| (name(i), e))?;
        report.cases += 1;
        report.checks += suite.certified.len();
        report.holds += suite.certified.iter().filter(|&&h| h).count();
        report.fails += suite.certified.iter().filter(|&&h| !h).count();
        report
            .disagreements
            .extend(suite.disagreements.into_iter().map(|(i, d)| (name(i), d)));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // ALLOW: test-only panics are the assertion mechanism.
    use super::*;
    use autokit::{ActSet, ControllerBuilder, Guard, ProductState, PropSet, Vocab};
    use ltlcheck::{check_graph_fair_certified, parse, Counterexample};
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    fn decode(word: &[u8], v: &Vocab) -> Vec<(PropSet, ActSet)> {
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        word.iter()
            .map(|&bits| {
                let mut props = PropSet::empty();
                if bits & 1 != 0 {
                    props.insert(a);
                }
                if bits & 2 != 0 {
                    props.insert(b);
                }
                let mut acts = ActSet::empty();
                if bits & 4 != 0 {
                    acts.insert(s);
                }
                (props, acts)
            })
            .collect()
    }

    fn light_setup() -> (Vocab, LabelGraph, LabelGraph) {
        let mut v = Vocab::new();
        let green = v.add_prop("green").unwrap();
        v.add_prop("ped").unwrap();
        let go = v.add_act("go").unwrap();
        let stop = v.add_act("stop").unwrap();
        let mut model = autokit::WorldModel::new("light");
        let g = model.add_state(PropSet::singleton(green));
        let r = model.add_state(PropSet::empty());
        model.add_transition(g, r);
        model.add_transition(r, g);
        model.add_transition(g, g);
        model.add_transition(r, r);
        let good = ControllerBuilder::new("good", 1)
            .initial(0)
            .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
            .transition(
                0,
                Guard::always().forbids(green),
                ActSet::singleton(stop),
                0,
            )
            .build()
            .unwrap();
        let reckless = ControllerBuilder::new("reckless", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(go), 0)
            .build()
            .unwrap();
        let gg = autokit::Product::build(&model, &good).label_graph();
        let gr = autokit::Product::build(&model, &reckless).label_graph();
        (v, gg, gr)
    }

    #[test]
    fn validates_holds_and_fails_on_the_light() {
        let (v, good, reckless) = light_setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        let cv = check_graph_fair_certified(&good, &phi, &[]);
        assert!(cv.holds());
        check_certified(&good, &phi, &[], &cv).unwrap();
        let cv = check_graph_fair_certified(&reckless, &phi, &[]);
        assert!(!cv.holds());
        check_certified(&reckless, &phi, &[], &cv).unwrap();
    }

    #[test]
    fn rejects_tampered_counterexample() {
        let (v, _, reckless) = light_setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        let cv = check_graph_fair_certified(&reckless, &phi, &[]);
        let CertifiedVerdict::Fails(cex) = cv else {
            panic!("expected violation");
        };

        // Empty cycle.
        let tampered = Counterexample {
            stem: cex.stem.clone(),
            cycle: Vec::new(),
        };
        assert_eq!(
            counterexample::check_fails(&reckless, &phi, &[], &tampered),
            Err(CertError::EmptyCycle)
        );

        // A cycle step whose label exists nowhere in the graph.
        let mut tampered = cex.clone();
        tampered.cycle[0].state = ProductState {
            model: 99,
            ctrl: 99,
        };
        assert!(matches!(
            counterexample::check_fails(&reckless, &phi, &[], &tampered),
            Err(CertError::CycleStepNotInGraph { .. })
        ));

        // A lasso that exists but does not violate the specification:
        // fabricate it from a formula the graph satisfies.
        let sat = parse("F go", &v).unwrap();
        assert!(ltlcheck::check_graph_fair(&reckless, &sat, &[]).holds());
        assert_eq!(
            counterexample::check_fails(&reckless, &sat, &[], &cex),
            Err(CertError::FormulaNotViolated)
        );
    }

    #[test]
    fn rejects_tampered_certificate() {
        let (v, good, _) = light_setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        let cv = check_graph_fair_certified(&good, &phi, &[]);
        let CertifiedVerdict::Holds(cert) = cv else {
            panic!("expected holds");
        };

        // Dropping any state breaks initial coverage or closure.
        let mut tampered = cert.clone();
        tampered.states.pop();
        tampered.comp.pop();
        assert!(emptiness::check_holds(&good, &[], &tampered).is_err());

        // Raising one state's rank creates an edge into a higher
        // component, breaking the acyclicity argument.
        let mut tampered = cert.clone();
        tampered.comp[0] += 1;
        assert!(matches!(
            emptiness::check_holds(&good, &[], &tampered),
            Err(CertError::RankIncrease { .. })
        ));

        // An out-of-range product pair is rejected outright.
        let mut tampered = cert.clone();
        tampered.states[0] = (u32::MAX, u32::MAX);
        assert!(matches!(
            emptiness::check_holds(&good, &[], &tampered),
            Err(CertError::StateOutOfRange { .. })
        ));

        // Length mismatch is rejected outright.
        let mut tampered = cert.clone();
        tampered.comp.pop();
        assert_eq!(
            emptiness::check_holds(&good, &[], &tampered),
            Err(CertError::LengthMismatch {
                states: tampered.states.len(),
                comps: tampered.comp.len(),
            })
        );

        // Duplicating a state is rejected.
        let mut tampered = cert.clone();
        let s0 = tampered.states[0];
        let c0 = tampered.comp[0];
        tampered.states.push(s0);
        tampered.comp.push(c0);
        assert_eq!(
            emptiness::check_holds(&good, &[], &tampered),
            Err(CertError::DuplicateState { state: s0 })
        );
    }

    #[test]
    fn preset_gate_passes_and_covers_both_verdicts() {
        let report = certify_presets().unwrap_or_else(|(name, e)| {
            panic!("preset certification failed on {name}: {e}");
        });
        assert!(report.cases >= 14, "{report:?}");
        assert!(report.checks >= 170, "{report:?}");
        assert!(report.holds > 0, "{report:?}");
        assert!(report.fails > 0, "{report:?}");
        assert!(report.disagreements.is_empty(), "{report:?}");
    }

    /// Beyond 63 justice conditions the acceptance mask no longer fits
    /// one `u64`, and the decide-only search falls back to the full SCC
    /// decomposition. Its verdicts must still match the certified ones.
    #[test]
    fn decide_only_matches_certified_beyond_63_justice_conditions() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        // 0 {a} ⇄ 1 {b}, and 0 → 2 {}, a sink that satisfies neither.
        let graph = LabelGraph {
            labels: vec![
                (PropSet::singleton(a), ActSet::empty()),
                (PropSet::singleton(b), ActSet::empty()),
                (PropSet::empty(), ActSet::empty()),
            ],
            origin: (0..3).map(|i| ProductState { model: i, ctrl: 0 }).collect(),
            succs: vec![vec![0, 1, 2], vec![0], vec![2]],
            initial: vec![0],
        };
        // Alternate `a` and `b`: fair paths visit both forever, so they
        // never settle in the sink.
        let justice: Vec<Justice> = (0..64)
            .map(|j| {
                let cond = if j % 2 == 0 { "a" } else { "b" };
                Justice::new(format!("{cond} io #{j}"), parse(cond, &v).unwrap()).unwrap()
            })
            .collect();
        let specs: Vec<Ltl> = ["G F b", "G (a | b)", "F G a", "G !b", "F b"]
            .iter()
            .map(|spec| parse(spec, &v).unwrap())
            .collect();
        let suite = differential::differential(&graph, &specs, &justice).unwrap();
        assert!(suite.disagreements.is_empty(), "{:?}", suite.disagreements);
        assert_eq!(suite.certified, [true, true, false, false, true]);
        // Without the assumptions a path may stay on `0` forever or fall
        // into the sink, and every spec fails.
        let suite = differential::differential(&graph, &specs, &[]).unwrap();
        assert!(suite.disagreements.is_empty(), "{:?}", suite.disagreements);
        assert_eq!(suite.certified, [false, false, false, false, false]);
    }

    fn arb_ltl() -> impl Strategy<Value = ltlcheck::Ltl> {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            Just(Ltl::prop(a)),
            Just(Ltl::prop(b)),
            Just(Ltl::act(s)),
        ];
        leaf.prop_recursive(3, 20, 2, |inner| {
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

    pub(crate) fn arb_graph() -> impl Strategy<Value = LabelGraph> {
        (
            proptest::collection::vec(0u8..8, 1..6),
            proptest::collection::vec((0usize..6, 0usize..6), 1..12),
        )
            .prop_map(|(labels_raw, edges)| {
                let v = vocab();
                let labels = decode(&labels_raw, &v);
                let n = labels.len();
                let mut succs = vec![Vec::new(); n];
                for (a, b) in edges {
                    let (a, b) = (a % n, b % n);
                    if !succs[a].contains(&b) {
                        succs[a].push(b);
                    }
                }
                for (i, s) in succs.iter_mut().enumerate() {
                    if s.is_empty() {
                        s.push(i);
                    }
                }
                LabelGraph {
                    origin: (0..n).map(|i| ProductState { model: i, ctrl: 0 }).collect(),
                    labels,
                    succs,
                    initial: vec![0],
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every certified verdict on random graphs and formulas —
        /// `Holds` and `Fails` alike — survives independent validation,
        /// with and without a justice assumption.
        #[test]
        fn certified_verdicts_validate(graph in arb_graph(), phi in arb_ltl()) {
            let v = vocab();
            let cv = check_graph_fair_certified(&graph, &phi, &[]);
            prop_assert_eq!(
                check_certified(&graph, &phi, &[], &cv),
                Ok(()),
                "no justice: {:?}",
                phi
            );
            let justice = [
                ltlcheck::Justice::new("a io", parse("a", &v).unwrap()).unwrap()
            ];
            let cv = check_graph_fair_certified(&graph, &phi, &justice);
            prop_assert_eq!(
                check_certified(&graph, &phi, &justice, &cv),
                Ok(()),
                "with justice: {:?}",
                phi
            );
        }

        /// The decide-only path agrees with the certified one on random
        /// suites of one to three specs, decided in one call, with and
        /// without a justice assumption.
        #[test]
        fn differential_finds_no_disagreement(
            graph in arb_graph(),
            specs in proptest::collection::vec(arb_ltl(), 1..4),
        ) {
            let v = vocab();
            let justice = [
                ltlcheck::Justice::new("a io", parse("a", &v).unwrap()).unwrap()
            ];
            for justice in [&[][..], &justice[..]] {
                let suite = differential::differential(&graph, &specs, justice)
                    .map_err(|(i, e)| format!("spec {i}: {e}"));
                prop_assert_eq!(suite.map(|s| s.disagreements), Ok(Vec::new()));
            }
        }
    }
}
