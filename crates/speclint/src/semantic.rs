//! Rule-book analysis (`SL002`, `SL3xx`): satisfiability, tautology,
//! world-model vacuity, pairwise conflict, subsumption, and corpus
//! discrimination.
//!
//! This is the one analysis of a rule book. It asks the question that
//! matters for DPO-AF: **does the rule carry ranking signal** once it is
//! deployed against the shipped world models and checked over real
//! controllers? A rule can be perfectly well-formed and still contribute
//! nothing (or worse, corrupt the preference ordering):
//!
//! * **SL300** — the rule's language is empty (Büchi emptiness on the
//!   spec-only automaton): it fails every controller, uniformly
//!   depressing every score. `Error`.
//! * **SL002** — the rule is a tautology (its negation's language is
//!   empty): it passes every controller in every world. `Warning`.
//!
//! A rule flagged SL300 or SL002 skips the checks below, which would
//! only restate the finding.
//!
//! * **SL301** — in some world the rule has the same verdict for every
//!   controller: it holds with the controller left unconstrained (the
//!   maximally permissive controller satisfies it on all fair paths), or
//!   no fair path of the world satisfies it at all. Zero discrimination
//!   in that world. `Note` — scenario-specific rules legitimately bind
//!   in one world and idle in another.
//! * **SL302** — the refinement of SL301 for `□(trigger → …)` rules
//!   whose trigger is false on every reachable label of the world's
//!   product: the rule can never fire there. `Note`.
//! * **SL303** — two individually realizable rules have no common fair
//!   path in some world: no controller can pass both, silently capping
//!   every score in that world. `Error`.
//! * **SL304** — language containment under *every* provided world:
//!   satisfying one rule implies satisfying the other everywhere the
//!   book is deployed, so the weaker rule adds no discrimination.
//!   `Note` — the paper's own rule book contains such pairs.
//! * **SL305** — corpus discrimination: every (or no) controller in the
//!   shipped corpus satisfies the rule; satisfied/violated counts are in
//!   the diagnostic. A rule that cannot split the corpus contributes
//!   zero DPO ranking power. `Note`.
//!
//! All checks reduce to existential or universal model checking through
//! [`ltlcheck::analysis`]'s cached spec-automaton API
//! ([`ltlcheck::analysis::exists_fair_path`] /
//! [`ltlcheck::analysis::holds_all_fair`]), so sweeping one rule book over
//! five scenario worlds builds each automaton once. Per-rule wall time is
//! tracked ([`RuleTiming`]) because semantic analysis is inherently more
//! expensive than linting — the `specsem` bench reports the numbers.
//!
//! Severity counts and check totals are mirrored to the obskit counters
//! `speclint.semantic_rules`, `speclint.semantic_checks`,
//! `speclint.semantic_errors`, `speclint.semantic_warnings`,
//! `speclint.semantic_notes`.

use crate::diagnostics::{Diagnostic, LintCode};
use autokit::{ActSet, Controller, LabelGraph, Product, PropSet, Vocab, WorldModel};
use ltlcheck::analysis::{
    eval_propositional, exists_fair_path, holds_all_fair, reachable_labels, satisfiable,
    trigger_of, valid,
};
use ltlcheck::specs::Spec;
use ltlcheck::{Justice, Ltl};
use std::time::{Duration, Instant};

/// Pairwise checks build the Büchi automaton of a conjunction, which is
/// worst-case exponential in formula size. Pairs whose combined
/// [`Ltl::size`] exceeds this budget are skipped and reported via a
/// single note so the omission is visible rather than silent.
pub const PAIRWISE_SIZE_BUDGET: usize = 96;

/// A world a rule book is deployed against: the product of a scenario's
/// world model with a maximally permissive controller, plus the justice
/// assumptions verification runs under.
#[derive(Debug, Clone)]
pub struct SemanticWorld {
    /// Display name, e.g. the scenario kind.
    pub name: String,
    /// Label graph of `world model ⊗ free controller`.
    pub graph: LabelGraph,
    /// Justice assumptions used when verifying in this world.
    pub justice: Vec<Justice>,
}

impl SemanticWorld {
    /// Builds the world from a model and a (typically maximally
    /// permissive) controller with the standard stutter deadlock policy.
    pub fn from_parts(
        name: impl Into<String>,
        model: &WorldModel,
        free: &Controller,
        justice: Vec<Justice>,
    ) -> SemanticWorld {
        SemanticWorld {
            name: name.into(),
            graph: Product::build(model, free).label_graph(),
            justice,
        }
    }
}

/// One controller of the discrimination corpus, pre-composed with the
/// world model it is verified in.
#[derive(Debug, Clone)]
pub struct CorpusController {
    /// Display name, e.g. the task prompt or template style.
    pub name: String,
    /// Name of the world the controller is checked in.
    pub world: String,
    /// Label graph of `world model ⊗ controller`.
    pub graph: LabelGraph,
    /// Justice assumptions for that world.
    pub justice: Vec<Justice>,
}

impl CorpusController {
    /// Builds a corpus entry from a model and controller with the
    /// standard stutter deadlock policy.
    pub fn from_parts(
        name: impl Into<String>,
        world: impl Into<String>,
        model: &WorldModel,
        ctrl: &Controller,
        justice: Vec<Justice>,
    ) -> CorpusController {
        CorpusController {
            name: name.into(),
            world: world.into(),
            graph: Product::build(model, ctrl).label_graph(),
            justice,
        }
    }
}

/// Everything [`analyze`] needs: the rule book, the worlds it is
/// deployed against, and the controller corpus it is meant to rank.
#[derive(Debug, Clone, Default)]
pub struct SemanticInput {
    /// The rule book.
    pub specs: Vec<Spec>,
    /// The worlds the book is verified in (empty disables SL301–SL304).
    pub worlds: Vec<SemanticWorld>,
    /// The controller corpus (empty disables SL305).
    pub corpus: Vec<CorpusController>,
    /// Vocabulary for rendering formulas in messages.
    pub vocab: Option<Vocab>,
}

/// Wall-clock cost of one rule's semantic analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTiming {
    /// The rule's name.
    pub rule: String,
    /// Satisfiability + per-world vacuity/realizability checks.
    pub solo: Duration,
    /// This rule's share of pairwise conflict/containment checks (each
    /// pair's cost is attributed to both of its rules).
    pub pairwise: Duration,
    /// Corpus discrimination checks.
    pub corpus: Duration,
}

impl RuleTiming {
    /// Total attributed time.
    pub fn total(&self) -> Duration {
        self.solo + self.pairwise + self.corpus
    }
}

/// The full result of a semantic pass.
#[derive(Debug, Clone)]
pub struct SemanticReport {
    /// The findings, in emission order (sort with
    /// [`crate::diagnostics::sort_diagnostics`] for canonical output).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule wall-clock cost, in rule-book order.
    pub timings: Vec<RuleTiming>,
    /// Number of model-checking queries issued.
    pub checks: usize,
}

/// Runs the semantic pass and returns just the findings.
pub fn analyze(input: &SemanticInput) -> Vec<Diagnostic> {
    analyze_timed(input).diagnostics
}

/// Runs the semantic pass with per-rule timings and check counts.
pub fn analyze_timed(input: &SemanticInput) -> SemanticReport {
    // Register the counters up front so instrumented runs always report
    // them, even when everything stays at zero.
    for name in [
        "speclint.semantic_rules",
        "speclint.semantic_checks",
        "speclint.semantic_errors",
        "speclint.semantic_warnings",
        "speclint.semantic_notes",
    ] {
        obskit::counter_add(name, 0);
    }

    let render = |phi: &Ltl| -> String {
        match &input.vocab {
            Some(v) => phi.to_string(v),
            None => format!("{phi:?}"),
        }
    };

    let mut diags = Vec::new();
    let mut checks = 0usize;

    // Worlds with no justice-fair behavior make every universal check
    // vacuously true and every existential check false — report them
    // once and exclude them from per-rule analysis.
    let mut live_worlds: Vec<(&SemanticWorld, Vec<(PropSet, ActSet)>)> = Vec::new();
    for world in &input.worlds {
        checks += 1;
        if exists_fair_path(&world.graph, &Ltl::True, &world.justice) {
            live_worlds.push((world, reachable_labels(&world.graph)));
        } else {
            diags.push(Diagnostic::new(
                LintCode::SemWorldVacuous,
                format!("world {}", world.name),
                "the world has no justice-fair behavior; every rule holds vacuously there \
                 and none can rank controllers",
            ));
        }
    }

    // contingent[i]: rule `i` is neither empty nor a tautology, so the
    // world, pairwise and corpus checks can say something new about it.
    let mut contingent = Vec::with_capacity(input.specs.len());
    // realizable[i][w]: some fair path of live world `w` satisfies rule `i`.
    let mut realizable: Vec<Vec<bool>> = Vec::with_capacity(input.specs.len());
    // A rule "discriminates" in a world when it is realizable there but
    // does not hold with the controller unconstrained — i.e. it can
    // actually split controllers. Rules vacuous in *every* world already
    // carry SL301/SL302; reporting that everything subsumes them (or
    // that they subsume nothing) would only restate the vacuity, so
    // SL304 is restricted to pairs of somewhere-discriminating rules.
    let mut discriminating: Vec<bool> = Vec::with_capacity(input.specs.len());
    let mut timings: Vec<RuleTiming> = Vec::with_capacity(input.specs.len());

    // Per-rule checks: SL300 (emptiness), SL002 (tautology), SL301/SL302
    // (world vacuity).
    for spec in &input.specs {
        let started = Instant::now();
        let subject = format!("spec {}", spec.name);
        let is_sat = satisfiable(&spec.formula);
        checks += 1;
        let is_taut = is_sat && valid(&spec.formula);
        checks += usize::from(is_sat);
        contingent.push(is_sat && !is_taut);
        let mut real = vec![false; live_worlds.len()];
        let mut discriminates_somewhere = false;
        if !is_sat {
            diags.push(Diagnostic::new(
                LintCode::SemUnsatisfiable,
                &subject,
                format!(
                    "`{}` has an empty language (Büchi emptiness on the spec-only automaton); \
                     it fails every controller in every world",
                    render(&spec.formula)
                ),
            ));
        } else if is_taut {
            diags.push(Diagnostic::new(
                LintCode::TautologicalSpec,
                &subject,
                format!(
                    "`{}` holds on every trace; it passes every controller in every world",
                    render(&spec.formula)
                ),
            ));
        } else {
            for (w, (world, labels)) in live_worlds.iter().enumerate() {
                checks += 1;
                real[w] = exists_fair_path(&world.graph, &spec.formula, &world.justice);
                if !real[w] {
                    diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldVacuous,
                            &subject,
                            format!(
                                "no fair path of `{}` satisfies `{}`; every controller fails \
                                 it there, so it cannot rank controllers in that world",
                                world.name,
                                render(&spec.formula)
                            ),
                        )
                        .element(format!("world {}", world.name)),
                    );
                    continue;
                }
                checks += 1;
                if !holds_all_fair(&world.graph, [&spec.formula], &world.justice)[0] {
                    discriminates_somewhere = true;
                    continue;
                }
                // The rule holds with the controller unconstrained. Is
                // that because its trigger can never fire?
                let unreachable_trigger = trigger_of(&spec.formula).filter(|trigger| {
                    !labels.is_empty()
                        && labels
                            .iter()
                            .all(|&(p, a)| eval_propositional(trigger, p, a) == Some(false))
                });
                match unreachable_trigger {
                    Some(trigger) => diags.push(
                        Diagnostic::new(
                            LintCode::SemUnreachableTrigger,
                            &subject,
                            format!(
                                "trigger `{}` is false on every reachable label of `{}`; \
                                 the rule can never fire there",
                                render(trigger),
                                world.name
                            ),
                        )
                        .element(format!("world {}", world.name)),
                    ),
                    None => diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldVacuous,
                            &subject,
                            format!(
                                "`{}` holds in `{}` with the controller unconstrained; every \
                                 controller passes it there, so it adds no ranking power in \
                                 that world",
                                render(&spec.formula),
                                world.name
                            ),
                        )
                        .element(format!("world {}", world.name)),
                    ),
                }
            }
        }
        realizable.push(real);
        discriminating.push(discriminates_somewhere);
        timings.push(RuleTiming {
            rule: spec.name.clone(),
            solo: started.elapsed(),
            pairwise: Duration::ZERO,
            corpus: Duration::ZERO,
        });
    }

    // Pairwise checks: SL303 (conflict under a world), SL304 (containment
    // under every world). Only pairs of contingent rules are
    // interesting; oversized pairs are skipped loudly.
    let mut skipped_pairs = 0usize;
    for i in 0..input.specs.len() {
        for j in (i + 1)..input.specs.len() {
            if !contingent[i] || !contingent[j] || live_worlds.is_empty() {
                continue;
            }
            let (a, b) = (&input.specs[i], &input.specs[j]);
            if a.formula.size() + b.formula.size() > PAIRWISE_SIZE_BUDGET {
                skipped_pairs += 1;
                continue;
            }
            let started = Instant::now();
            let mut conflict_worlds: Vec<&str> = Vec::new();
            for (w, (world, _)) in live_worlds.iter().enumerate() {
                // A conflict needs both rules individually realizable —
                // an unrealizable rule already carries SL301.
                if !(realizable[i][w] && realizable[j][w]) {
                    continue;
                }
                let both = Ltl::and(a.formula.clone(), b.formula.clone());
                checks += 1;
                if !exists_fair_path(&world.graph, &both, &world.justice) {
                    conflict_worlds.push(&world.name);
                }
            }
            if !conflict_worlds.is_empty() {
                diags.push(
                    Diagnostic::new(
                        LintCode::SemWorldConflict,
                        format!("spec {}", a.name),
                        format!(
                            "`{}` and `{}` have no common fair path in {}; no controller \
                             can pass both there",
                            a.name,
                            b.name,
                            conflict_worlds
                                .iter()
                                .map(|w| format!("`{w}`"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                    .element(format!("spec {}", b.name)),
                );
            } else if discriminating[i] && discriminating[j] {
                // Containment under every world: ∃ fair path ⊨ A ∧ ¬B
                // anywhere defeats A ⇒ B.
                let mut a_implies_b = true;
                let mut b_implies_a = true;
                for (world, _) in &live_worlds {
                    if a_implies_b {
                        let witness = Ltl::and(a.formula.clone(), Ltl::not(b.formula.clone()));
                        checks += 1;
                        a_implies_b = !exists_fair_path(&world.graph, &witness, &world.justice);
                    }
                    if b_implies_a {
                        let witness = Ltl::and(b.formula.clone(), Ltl::not(a.formula.clone()));
                        checks += 1;
                        b_implies_a = !exists_fair_path(&world.graph, &witness, &world.justice);
                    }
                    if !a_implies_b && !b_implies_a {
                        break;
                    }
                }
                match (a_implies_b, b_implies_a) {
                    (true, true) => diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldSubsumed,
                            format!("spec {}", b.name),
                            format!(
                                "`{}` and `{}` are equivalent under every provided world \
                                 model; one is redundant",
                                a.name, b.name
                            ),
                        )
                        .element(format!("spec {}", a.name)),
                    ),
                    (true, false) => diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldSubsumed,
                            format!("spec {}", b.name),
                            format!(
                                "`{}` implies `{}` under every provided world model; the \
                                 weaker rule adds no discrimination",
                                a.name, b.name
                            ),
                        )
                        .element(format!("spec {}", a.name)),
                    ),
                    (false, true) => diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldSubsumed,
                            format!("spec {}", a.name),
                            format!(
                                "`{}` implies `{}` under every provided world model; the \
                                 weaker rule adds no discrimination",
                                b.name, a.name
                            ),
                        )
                        .element(format!("spec {}", b.name)),
                    ),
                    (false, false) => {}
                }
            }
            let elapsed = started.elapsed();
            timings[i].pairwise += elapsed;
            timings[j].pairwise += elapsed;
        }
    }
    if skipped_pairs > 0 {
        diags.push(Diagnostic::new(
            LintCode::SemWorldSubsumed,
            "rule book",
            format!(
                "{skipped_pairs} spec pair(s) exceeded the pairwise size budget \
                 ({PAIRWISE_SIZE_BUDGET}) and were not checked for semantic \
                 conflict/subsumption"
            ),
        ));
    }

    // Corpus discrimination: SL305.
    if !input.corpus.is_empty() {
        for (i, spec) in input.specs.iter().enumerate() {
            if !contingent[i] {
                continue;
            }
            let started = Instant::now();
            let mut satisfied = 0usize;
            for entry in &input.corpus {
                checks += 1;
                if holds_all_fair(&entry.graph, [&spec.formula], &entry.justice)[0] {
                    satisfied += 1;
                }
            }
            let total = input.corpus.len();
            let violated = total - satisfied;
            if satisfied == 0 || violated == 0 {
                diags.push(Diagnostic::new(
                    LintCode::SemZeroDiscrimination,
                    format!("spec {}", spec.name),
                    format!(
                        "satisfied by {satisfied}/{total} and violated by {violated}/{total} \
                         corpus controllers; the rule contributes zero DPO ranking power on \
                         this corpus"
                    ),
                ));
            }
            timings[i].corpus += started.elapsed();
        }
    }

    let tally = crate::diagnostics::Tally::of(&diags);
    obskit::counter_add("speclint.semantic_rules", input.specs.len() as u64);
    obskit::counter_add("speclint.semantic_checks", checks as u64);
    obskit::counter_add("speclint.semantic_errors", tally.errors as u64);
    obskit::counter_add("speclint.semantic_warnings", tally.warnings as u64);
    obskit::counter_add("speclint.semantic_notes", tally.notes as u64);

    SemanticReport {
        diagnostics: diags,
        timings,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use crate::presets::free_controller;
    use autokit::ControllerBuilder;
    use autokit::Guard;
    use ltlcheck::parse;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").expect("fresh");
        v.add_prop("b").expect("fresh");
        v.add_act("go").expect("fresh");
        v.add_act("wait").expect("fresh");
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

    /// One-state world labeled `{a}` with a self-loop.
    fn always_a_model(v: &Vocab) -> WorldModel {
        let a = v.prop("a").expect("registered");
        let mut model = WorldModel::new("always-a");
        let s = model.add_state(PropSet::singleton(a));
        model.add_transition(s, s);
        model
    }

    /// `always-a ⊗ free{go, wait}`: every action choice stays available.
    fn always_a_world(v: &Vocab) -> SemanticWorld {
        let free = free_controller(
            "free",
            &[
                ActSet::singleton(v.act("go").expect("registered")),
                ActSet::singleton(v.act("wait").expect("registered")),
            ],
        );
        SemanticWorld::from_parts("always-a", &always_a_model(v), &free, Vec::new())
    }

    /// A one-state controller that always emits `act`.
    fn fixed_controller(name: &str, v: &Vocab, act: &str) -> Controller {
        ControllerBuilder::new(name, 1)
            .initial(0)
            .transition(
                0,
                Guard::always(),
                ActSet::singleton(v.act(act).expect("registered")),
                0,
            )
            .build()
            .expect("well-formed")
    }

    fn input(v: &Vocab, specs: Vec<Spec>, worlds: Vec<SemanticWorld>) -> SemanticInput {
        SemanticInput {
            specs,
            worlds,
            corpus: Vec::new(),
            vocab: Some(v.clone()),
        }
    }

    #[test]
    fn sl300_flags_empty_language() {
        let v = vocab();
        let diags = analyze(&input(&v, vec![spec("bad", &v, "F (a & !a)")], Vec::new()));
        assert_eq!(codes(&diags), vec!["SL300"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].location.subject, "spec bad");
    }

    #[test]
    fn sl300_negative_on_satisfiable_spec() {
        let v = vocab();
        let diags = analyze(&input(&v, vec![spec("ok", &v, "G (a -> F b)")], Vec::new()));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sl301_flags_rule_holding_with_controller_unconstrained() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![spec("trivial", &v, "F a")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL301"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].message.contains("unconstrained"), "{diags:?}");
        assert_eq!(
            diags[0].location.element.as_deref(),
            Some("world always-a"),
            "{diags:?}"
        );
    }

    #[test]
    fn sl301_flags_rule_unrealizable_in_world() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![spec("impossible", &v, "F !a")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL301"], "{diags:?}");
        assert!(diags[0].message.contains("no fair path"), "{diags:?}");
    }

    #[test]
    fn sl301_negative_on_discriminating_rule() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![spec("binding", &v, "G !go")],
            vec![always_a_world(&v)],
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sl301_flags_world_without_fair_behavior() {
        let v = vocab();
        let mut world = always_a_world(&v);
        world.justice =
            vec![Justice::new("b clears", parse("b", &v).expect("parses")).expect("propositional")];
        let diags = analyze(&input(&v, vec![spec("any", &v, "G a")], vec![world]));
        assert_eq!(codes(&diags), vec!["SL301"], "{diags:?}");
        assert_eq!(diags[0].location.subject, "world always-a");
    }

    #[test]
    fn sl302_flags_unreachable_trigger() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![spec("dormant", &v, "G (b -> !go)")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL302"], "{diags:?}");
        assert!(diags[0].message.contains("never fire"), "{diags:?}");
    }

    #[test]
    fn sl302_negative_reachable_trigger_reports_plain_vacuity() {
        let v = vocab();
        // Holds in the world, but the trigger `a` is reachable — SL301,
        // not SL302.
        let diags = analyze(&input(
            &v,
            vec![spec("persistent", &v, "G (a -> X a)")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL301"], "{diags:?}");
    }

    #[test]
    fn sl002_flags_tautology_and_skips_the_checks_that_restate_it() {
        let v = vocab();
        let model = always_a_model(&v);
        let corpus = vec![CorpusController::from_parts(
            "waiter",
            "always-a",
            &model,
            &fixed_controller("waiter", &v, "wait"),
            Vec::new(),
        )];
        let diags = analyze(&SemanticInput {
            specs: vec![spec("trivial", &v, "G (a | !a)"), spec("ok", &v, "G F go")],
            worlds: vec![always_a_world(&v)],
            corpus,
            vocab: Some(v.clone()),
        });
        // No SL301 in the world, no pairing with `ok`, no SL305 for the
        // tautology: only `ok`'s own zero-discrimination count remains.
        assert_eq!(codes(&diags), vec!["SL002", "SL305"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].location.subject, "spec trivial");
    }

    #[test]
    fn sl002_negative_on_contingent_spec() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![spec("contingent", &v, "G (a -> X b)")],
            Vec::new(),
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sl303_flags_conflict_under_world() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![
                spec("liveness", &v, "G F go"),
                spec("safety", &v, "G (a -> !go)"),
            ],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL303"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("always-a"), "{diags:?}");
    }

    #[test]
    fn sl303_negative_on_compatible_rules() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![
                spec("often_go", &v, "G F go"),
                spec("often_wait", &v, "G F wait"),
            ],
            vec![always_a_world(&v)],
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sl304_flags_subsumption_under_world() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![
                spec("strong", &v, "G !go"),
                spec("weak", &v, "G (a -> !go)"),
            ],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL304"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Note);
    }

    #[test]
    fn sl304_negative_on_independent_rules() {
        let v = vocab();
        let diags = analyze(&input(
            &v,
            vec![
                spec("often_go", &v, "G F go"),
                spec("often_wait", &v, "G F wait"),
            ],
            vec![always_a_world(&v)],
        ));
        assert!(!codes(&diags).contains(&"SL304"), "{diags:?}");
    }

    #[test]
    fn sl304_skips_oversized_pairs_with_a_note() {
        let v = vocab();
        let mut big = parse("F go", &v).expect("parses");
        for _ in 0..40 {
            big = Ltl::and(big, parse("F go", &v).expect("parses"));
        }
        assert!(big.size() > PAIRWISE_SIZE_BUDGET);
        let mk = |name: &str| Spec {
            name: name.to_string(),
            description: String::new(),
            formula: big.clone(),
        };
        let diags = analyze(&input(
            &v,
            vec![mk("big_a"), mk("big_b")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(codes(&diags), vec!["SL304"], "{diags:?}");
        assert!(
            diags[0].message.contains("pairwise size budget"),
            "{diags:?}"
        );
    }

    #[test]
    fn sl305_flags_zero_discrimination_corpus() {
        let v = vocab();
        let model = always_a_model(&v);
        let corpus = vec![CorpusController::from_parts(
            "waiter",
            "always-a",
            &model,
            &fixed_controller("waiter", &v, "wait"),
            Vec::new(),
        )];
        let diags = analyze(&SemanticInput {
            specs: vec![spec("lenient", &v, "G (a -> !go)")],
            worlds: Vec::new(),
            corpus,
            vocab: Some(v.clone()),
        });
        assert_eq!(codes(&diags), vec!["SL305"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].message.contains("1/1"), "{diags:?}");
    }

    #[test]
    fn sl305_negative_on_discriminating_corpus() {
        let v = vocab();
        let model = always_a_model(&v);
        let corpus = vec![
            CorpusController::from_parts(
                "waiter",
                "always-a",
                &model,
                &fixed_controller("waiter", &v, "wait"),
                Vec::new(),
            ),
            CorpusController::from_parts(
                "goer",
                "always-a",
                &model,
                &fixed_controller("goer", &v, "go"),
                Vec::new(),
            ),
        ];
        let diags = analyze(&SemanticInput {
            specs: vec![spec("binding", &v, "G (a -> !go)")],
            worlds: Vec::new(),
            corpus,
            vocab: Some(v.clone()),
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsatisfiable_rules_are_excluded_from_pairwise_and_corpus() {
        let v = vocab();
        let model = always_a_model(&v);
        let corpus = vec![CorpusController::from_parts(
            "waiter",
            "always-a",
            &model,
            &fixed_controller("waiter", &v, "wait"),
            Vec::new(),
        )];
        let diags = analyze(&SemanticInput {
            specs: vec![spec("bad", &v, "F (a & !a)"), spec("ok", &v, "G F wait")],
            worlds: vec![always_a_world(&v)],
            corpus,
            vocab: Some(v.clone()),
        });
        // Only the emptiness finding and `ok`'s zero-discrimination
        // count; no conflict/subsumption against the empty language.
        assert_eq!(codes(&diags), vec!["SL300", "SL305"], "{diags:?}");
    }

    #[test]
    fn analyze_timed_reports_per_rule_cost_and_check_count() {
        let v = vocab();
        let report = analyze_timed(&input(
            &v,
            vec![spec("one", &v, "G F go"), spec("two", &v, "G F wait")],
            vec![always_a_world(&v)],
        ));
        assert_eq!(report.timings.len(), 2);
        assert_eq!(report.timings[0].rule, "one");
        assert!(report.checks > 0);
        let _ = report.timings[0].total();
    }
}
