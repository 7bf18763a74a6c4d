//! Specification lints (`SL0xx`): satisfiability, tautology, vacuity,
//! pairwise conflict, and redundancy/subsumption over a rule book.
//!
//! These lift the per-formula checks from `ltlcheck::analysis` to whole
//! rule books. All checks reduce to Büchi emptiness on (combinations of)
//! the rules, so they need no controller: a rule book can be vetted
//! before any synthesis or model checking happens.

use crate::diagnostics::{Diagnostic, LintCode};
use autokit::{LabelGraph, Vocab};
use ltlcheck::analysis::{satisfiable, vacuous_pass, valid, Vacuity};
use ltlcheck::specs::Spec;
use ltlcheck::Ltl;

/// Pairwise checks build the Büchi automaton of a conjunction, which is
/// worst-case exponential in formula size. Pairs whose combined
/// [`Ltl::size`] exceeds this budget are skipped and reported via a
/// single note so the omission is visible rather than silent.
pub const PAIRWISE_SIZE_BUDGET: usize = 96;

/// Lints a rule book.
///
/// * `specs` — the rules.
/// * `graphs` — named label graphs (typically products of each scenario's
///   world model with a maximally permissive controller) used for
///   vacuity analysis; pass `&[]` to skip vacuity.
/// * `vocab` — used to pretty-print formulas in messages when available.
pub fn lint_specs(
    specs: &[Spec],
    graphs: &[(String, LabelGraph)],
    vocab: Option<&Vocab>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let render = |phi: &Ltl| -> String {
        match vocab {
            Some(v) => phi.to_string(v),
            None => format!("{phi:?}"),
        }
    };

    // Per-rule checks: satisfiability, tautology, vacuity.
    let mut sat = Vec::with_capacity(specs.len());
    for spec in specs {
        let subject = format!("spec {}", spec.name);
        let is_sat = satisfiable(&spec.formula);
        sat.push(is_sat);
        if !is_sat {
            diags.push(Diagnostic::new(
                LintCode::UnsatisfiableSpec,
                &subject,
                format!(
                    "`{}` has no satisfying trace; it fails every controller",
                    render(&spec.formula)
                ),
            ));
            // Tautology/vacuity checks on an unsatisfiable rule would
            // only restate the problem.
            continue;
        }
        if valid(&spec.formula) {
            diags.push(Diagnostic::new(
                LintCode::TautologicalSpec,
                &subject,
                format!(
                    "`{}` holds on every trace; it passes every controller",
                    render(&spec.formula)
                ),
            ));
            continue;
        }
        for (graph_name, graph) in graphs {
            match vacuous_pass(graph, &spec.formula) {
                Some(Vacuity::UnreachableAntecedent(antecedent)) => {
                    diags.push(
                        Diagnostic::new(
                            LintCode::VacuousPass,
                            &subject,
                            format!(
                                "antecedent `{}` is unreachable in `{graph_name}`; the rule does \
                                 not constrain that world",
                                render(&antecedent)
                            ),
                        )
                        .element(format!("world {graph_name}")),
                    );
                }
                Some(Vacuity::Tautology) => {
                    diags.push(
                        Diagnostic::new(
                            LintCode::VacuousPass,
                            &subject,
                            format!("the rule is tautological over `{graph_name}`"),
                        )
                        .element(format!("world {graph_name}")),
                    );
                }
                None => {}
            }
        }
    }

    // Pairwise checks: conflict and subsumption. Only pairs of
    // individually satisfiable rules are interesting — an unsatisfiable
    // rule already carries SL001 and would conflict with everything.
    let mut skipped_pairs = 0usize;
    for i in 0..specs.len() {
        for j in (i + 1)..specs.len() {
            if !sat[i] || !sat[j] {
                continue;
            }
            let (a, b) = (&specs[i], &specs[j]);
            if a.formula.size() + b.formula.size() > PAIRWISE_SIZE_BUDGET {
                skipped_pairs += 1;
                continue;
            }
            let both = Ltl::and(a.formula.clone(), b.formula.clone());
            if !satisfiable(&both) {
                diags.push(
                    Diagnostic::new(
                        LintCode::ConflictingSpecs,
                        format!("spec {}", a.name),
                        format!(
                            "`{}` and `{}` cannot hold together; no controller can pass both",
                            a.name, b.name
                        ),
                    )
                    .element(format!("spec {}", b.name)),
                );
                // Subsumption between conflicting rules is meaningless.
                continue;
            }
            let a_implies_b =
                !satisfiable(&Ltl::and(a.formula.clone(), Ltl::not(b.formula.clone())));
            let b_implies_a =
                !satisfiable(&Ltl::and(b.formula.clone(), Ltl::not(a.formula.clone())));
            match (a_implies_b, b_implies_a) {
                (true, true) => diags.push(
                    Diagnostic::new(
                        LintCode::SubsumedSpec,
                        format!("spec {}", b.name),
                        format!(
                            "`{}` and `{}` are equivalent; one is redundant",
                            a.name, b.name
                        ),
                    )
                    .element(format!("spec {}", a.name)),
                ),
                (true, false) => diags.push(
                    Diagnostic::new(
                        LintCode::SubsumedSpec,
                        format!("spec {}", b.name),
                        format!(
                            "`{}` already implies `{}`; the weaker rule adds nothing",
                            a.name, b.name
                        ),
                    )
                    .element(format!("spec {}", a.name)),
                ),
                (false, true) => diags.push(
                    Diagnostic::new(
                        LintCode::SubsumedSpec,
                        format!("spec {}", a.name),
                        format!(
                            "`{}` already implies `{}`; the weaker rule adds nothing",
                            b.name, a.name
                        ),
                    )
                    .element(format!("spec {}", b.name)),
                ),
                (false, false) => {}
            }
        }
    }
    if skipped_pairs > 0 {
        diags.push(Diagnostic::new(
            LintCode::SubsumedSpec,
            "rule book",
            format!(
                "{skipped_pairs} spec pair(s) exceeded the pairwise size budget \
                 ({PAIRWISE_SIZE_BUDGET}) and were not checked for conflict/subsumption"
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::{ActSet, ControllerBuilder, Guard, Product, PropSet, WorldModel};
    use ltlcheck::parse;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").expect("fresh");
        v.add_prop("b").expect("fresh");
        v.add_act("go").expect("fresh");
        v
    }

    fn spec(name: &str, v: &Vocab, src: &str) -> Spec {
        Spec {
            name: name.to_string(),
            description: String::new(),
            formula: parse(src, v).expect("parses"),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn sl001_flags_unsatisfiable_spec() {
        let v = vocab();
        let specs = [spec("bad", &v, "F (a & !a)")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert_eq!(codes(&diags), vec!["SL001"]);
        assert_eq!(diags[0].location.subject, "spec bad");
    }

    #[test]
    fn sl001_negative_on_satisfiable_spec() {
        let v = vocab();
        let specs = [spec("ok", &v, "G (a -> F b)")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sl002_flags_tautology() {
        let v = vocab();
        let specs = [spec("trivial", &v, "G (a | !a)")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert_eq!(codes(&diags), vec!["SL002"]);
    }

    #[test]
    fn sl002_negative_on_contingent_spec() {
        let v = vocab();
        let specs = [spec("contingent", &v, "G (a -> X b)")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(codes(&diags).is_empty(), "{diags:?}");
    }

    /// A one-state world where only `b` holds, under a one-state free
    /// controller: `a` never occurs, so `G (a -> F b)` passes vacuously.
    fn b_only_graph(v: &Vocab) -> LabelGraph {
        let b = v.prop("b").expect("registered");
        let go = v.act("go").expect("registered");
        let mut model = WorldModel::new("b-only");
        let s = model.add_state(PropSet::singleton(b));
        model.add_transition(s, s);
        let ctrl = ControllerBuilder::new("free", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(go), 0)
            .build()
            .expect("well-formed");
        Product::build(&model, &ctrl).label_graph()
    }

    #[test]
    fn sl003_flags_vacuous_pass() {
        let v = vocab();
        let specs = [spec("guarded", &v, "G (a -> F b)")];
        let graphs = vec![("b-only".to_string(), b_only_graph(&v))];
        let diags = lint_specs(&specs, &graphs, Some(&v));
        assert_eq!(codes(&diags), vec!["SL003"]);
        assert!(diags[0].message.contains("unreachable"), "{diags:?}");
    }

    #[test]
    fn sl003_negative_when_antecedent_reachable() {
        let v = vocab();
        // The antecedent `b` occurs in the graph, so no vacuity.
        let specs = [spec("binding", &v, "G (b -> b)")];
        let graphs = vec![("b-only".to_string(), b_only_graph(&v))];
        let diags = lint_specs(&specs, &graphs, Some(&v));
        // `G (b -> b)` is a tautology — accept SL002 but not SL003.
        assert!(
            !codes(&diags).contains(&"SL003"),
            "reachable antecedent must not be vacuous: {diags:?}"
        );
    }

    #[test]
    fn sl004_flags_conflicting_pair() {
        let v = vocab();
        let specs = [spec("always_a", &v, "G a"), spec("never_a", &v, "G !a")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(codes(&diags).contains(&"SL004"), "{diags:?}");
    }

    #[test]
    fn sl004_negative_on_compatible_pair() {
        let v = vocab();
        let specs = [spec("live_a", &v, "G F a"), spec("live_b", &v, "G F b")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(!codes(&diags).contains(&"SL004"), "{diags:?}");
    }

    #[test]
    fn sl005_flags_subsumed_spec() {
        let v = vocab();
        let specs = [spec("strong", &v, "G a"), spec("weak", &v, "F a")];
        let diags = lint_specs(&specs, &[], Some(&v));
        let subsumed: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::SubsumedSpec)
            .collect();
        assert_eq!(subsumed.len(), 1, "{diags:?}");
        // The weaker rule is the subject of the finding.
        assert_eq!(subsumed[0].location.subject, "spec weak");
    }

    #[test]
    fn sl005_negative_on_independent_specs() {
        let v = vocab();
        let specs = [spec("about_a", &v, "G F a"), spec("about_b", &v, "G F b")];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(!codes(&diags).contains(&"SL005"), "{diags:?}");
    }

    #[test]
    fn oversized_pairs_are_reported_not_silent() {
        let v = vocab();
        // Build two formulas big enough to blow the pairwise budget.
        let mut big_a = "G F a".to_string();
        let mut big_b = "G F b".to_string();
        for _ in 0..30 {
            big_a = format!("({big_a}) & G F a");
            big_b = format!("({big_b}) & G F b");
        }
        let specs = [spec("big_a", &v, &big_a), spec("big_b", &v, &big_b)];
        let diags = lint_specs(&specs, &[], Some(&v));
        assert!(
            diags.iter().any(|d| d.message.contains("size budget")),
            "{diags:?}"
        );
    }
}
