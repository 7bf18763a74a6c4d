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
//! Both `Error` codes rest on one set of facts: which worlds are live,
//! which rules are satisfiable (and which are tautologies, since those
//! skip the pairwise checks), where each rule is realizable, and which
//! realizable pairs share no fair path. [`analyze_errors`] decides only
//! those facts and reports SL300/SL303; [`analyze`] decides the same
//! facts the same way and then runs every other check on top. A gate
//! that only refuses `Error`s (the DPO-AF pre-flight) calls
//! [`analyze_errors`] and skips the SL301/SL302 queries and all of
//! SL304, whose containment queries translate a fresh `A ∧ ¬B`
//! automaton per pair and dominate the full pass.
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

use crate::diagnostics::{Diagnostic, LintCode, Tally};
use autokit::{Controller, LabelGraph, Product, Vocab, WorldModel};
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

/// What a rule's `Error` findings rest on.
struct RuleFacts {
    /// Some word satisfies the rule; `false` is SL300.
    satisfiable: bool,
    /// Every word satisfies it (SL002). Decided for satisfiable rules.
    tautology: bool,
    /// `realizable[w]`: some fair path of live world `w` satisfies the
    /// rule. Decided for contingent rules, `false` for the others.
    realizable: Vec<bool>,
    /// Wall time of the queries above.
    cost: Duration,
}

impl RuleFacts {
    /// Neither empty nor a tautology, so the world, pairwise and corpus
    /// checks can say something new about the rule.
    fn contingent(&self) -> bool {
        self.satisfiable && !self.tautology
    }
}

/// One pair of contingent rules within [`PAIRWISE_SIZE_BUDGET`].
struct PairFacts {
    i: usize,
    j: usize,
    /// Live worlds (indices) where both rules are realizable but share
    /// no fair path; non-empty is SL303.
    conflicts: Vec<usize>,
    /// Wall time of the conflict queries.
    cost: Duration,
}

/// The facts SL300 and SL303 are decided from, shared by
/// [`analyze_errors`] and [`analyze_timed`].
struct Facts<'a> {
    /// Worlds with some justice-fair behavior, in input order.
    live: Vec<&'a SemanticWorld>,
    /// Worlds with none: every universal check holds vacuously there
    /// and every existential one fails, so they are excluded.
    dead: Vec<&'a SemanticWorld>,
    /// One entry per rule, in rule-book order.
    rules: Vec<RuleFacts>,
    /// Every checked pair, in `(i, j)` order.
    pairs: Vec<PairFacts>,
    /// Pairs of contingent rules over [`PAIRWISE_SIZE_BUDGET`].
    skipped_pairs: usize,
    /// Model-checking queries issued.
    checks: usize,
}

/// Decides which worlds are live, which rules are satisfiable,
/// tautological and realizable where, and which realizable pairs have
/// no common fair path — the one code path behind SL300 and SL303.
fn decide(input: &SemanticInput) -> Facts<'_> {
    let mut checks = 0usize;
    let (mut live, mut dead) = (Vec::new(), Vec::new());
    for world in &input.worlds {
        checks += 1;
        if exists_fair_path(&world.graph, &Ltl::True, &world.justice) {
            live.push(world);
        } else {
            dead.push(world);
        }
    }

    let mut rules = Vec::with_capacity(input.specs.len());
    for spec in &input.specs {
        let started = Instant::now();
        let is_sat = satisfiable(&spec.formula);
        checks += 1;
        let is_taut = is_sat && valid(&spec.formula);
        checks += usize::from(is_sat);
        let mut realizable = vec![false; live.len()];
        if is_sat && !is_taut {
            for (real, world) in realizable.iter_mut().zip(&live) {
                checks += 1;
                *real = exists_fair_path(&world.graph, &spec.formula, &world.justice);
            }
        }
        rules.push(RuleFacts {
            satisfiable: is_sat,
            tautology: is_taut,
            realizable,
            cost: started.elapsed(),
        });
    }

    // Only pairs of contingent rules are interesting; oversized pairs
    // are skipped loudly.
    let mut pairs = Vec::new();
    let mut skipped_pairs = 0usize;
    for i in 0..input.specs.len() {
        for j in (i + 1)..input.specs.len() {
            if !rules[i].contingent() || !rules[j].contingent() || live.is_empty() {
                continue;
            }
            let (a, b) = (&input.specs[i].formula, &input.specs[j].formula);
            if a.size() + b.size() > PAIRWISE_SIZE_BUDGET {
                skipped_pairs += 1;
                continue;
            }
            let started = Instant::now();
            let both = Ltl::and(a.clone(), b.clone());
            let mut conflicts = Vec::new();
            for (w, world) in live.iter().enumerate() {
                // A conflict needs both rules individually realizable —
                // an unrealizable rule already carries SL301.
                if !(rules[i].realizable[w] && rules[j].realizable[w]) {
                    continue;
                }
                checks += 1;
                if !exists_fair_path(&world.graph, &both, &world.justice) {
                    conflicts.push(w);
                }
            }
            pairs.push(PairFacts {
                i,
                j,
                conflicts,
                cost: started.elapsed(),
            });
        }
    }

    Facts {
        live,
        dead,
        rules,
        pairs,
        skipped_pairs,
        checks,
    }
}

impl Facts<'_> {
    /// Per-rule cost of the decided facts: the rule's own queries, plus
    /// each of its pairs' conflict queries.
    fn timings(&self, input: &SemanticInput) -> Vec<RuleTiming> {
        let mut timings: Vec<RuleTiming> = input
            .specs
            .iter()
            .zip(&self.rules)
            .map(|(spec, rule)| RuleTiming {
                rule: spec.name.clone(),
                solo: rule.cost,
                pairwise: Duration::ZERO,
                corpus: Duration::ZERO,
            })
            .collect();
        for pair in &self.pairs {
            timings[pair.i].pairwise += pair.cost;
            timings[pair.j].pairwise += pair.cost;
        }
        timings
    }
}

/// Runs only the checks an `Error` finding can come from and returns
/// exactly the `Error`s of [`analyze_timed`] on the same input (SL300 in
/// rule-book order, then SL303 in pair order), with the queries' check
/// count and per-rule cost. The SL301 unconstrained-controller queries,
/// the SL302 trigger scan, SL304 containment and the SL305 corpus are
/// skipped: none of them can produce an `Error`.
pub fn analyze_errors(input: &SemanticInput) -> SemanticReport {
    let facts = decide(input);
    let mut diags: Vec<Diagnostic> = input
        .specs
        .iter()
        .zip(&facts.rules)
        .filter(|(_, rule)| !rule.satisfiable)
        .map(|(spec, _)| unsatisfiable(input, spec))
        .collect();
    diags.extend(
        facts
            .pairs
            .iter()
            .filter(|pair| !pair.conflicts.is_empty())
            .map(|pair| conflict(input, &facts, pair)),
    );
    report(input, diags, facts.timings(input), facts.checks)
}

/// Runs the semantic pass with per-rule timings and check counts.
pub fn analyze_timed(input: &SemanticInput) -> SemanticReport {
    let facts = decide(input);
    let mut timings = facts.timings(input);
    let mut checks = facts.checks;
    let mut diags: Vec<Diagnostic> = facts
        .dead
        .iter()
        .map(|world| {
            Diagnostic::new(
                LintCode::SemWorldVacuous,
                format!("world {}", world.name),
                "the world has no justice-fair behavior; every rule holds vacuously there \
                 and none can rank controllers",
            )
        })
        .collect();
    let labels: Vec<_> = facts
        .live
        .iter()
        .map(|world| reachable_labels(&world.graph))
        .collect();

    // A rule "discriminates" in a world when it is realizable there but
    // does not hold with the controller unconstrained — i.e. it can
    // actually split controllers. Rules vacuous in *every* world already
    // carry SL301/SL302; reporting that everything subsumes them (or
    // that they subsume nothing) would only restate the vacuity, so
    // SL304 is restricted to pairs of somewhere-discriminating rules.
    let mut discriminating = vec![false; input.specs.len()];

    // Per-rule findings: SL300 (emptiness), SL002 (tautology),
    // SL301/SL302 (world vacuity).
    for (i, (spec, rule)) in input.specs.iter().zip(&facts.rules).enumerate() {
        let started = Instant::now();
        let subject = format!("spec {}", spec.name);
        if !rule.satisfiable {
            diags.push(unsatisfiable(input, spec));
        } else if rule.tautology {
            diags.push(Diagnostic::new(
                LintCode::TautologicalSpec,
                &subject,
                format!(
                    "`{}` holds on every trace; it passes every controller in every world",
                    render(input, &spec.formula)
                ),
            ));
        } else {
            for (w, world) in facts.live.iter().enumerate() {
                if !rule.realizable[w] {
                    diags.push(
                        Diagnostic::new(
                            LintCode::SemWorldVacuous,
                            &subject,
                            format!(
                                "no fair path of `{}` satisfies `{}`; every controller fails \
                                 it there, so it cannot rank controllers in that world",
                                world.name,
                                render(input, &spec.formula)
                            ),
                        )
                        .element(format!("world {}", world.name)),
                    );
                    continue;
                }
                checks += 1;
                if !holds_all_fair(&world.graph, [&spec.formula], &world.justice)[0] {
                    discriminating[i] = true;
                    continue;
                }
                // The rule holds with the controller unconstrained. Is
                // that because its trigger can never fire?
                let unreachable_trigger = trigger_of(&spec.formula).filter(|trigger| {
                    !labels[w].is_empty()
                        && labels[w]
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
                                render(input, trigger),
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
                                render(input, &spec.formula),
                                world.name
                            ),
                        )
                        .element(format!("world {}", world.name)),
                    ),
                }
            }
        }
        timings[i].solo += started.elapsed();
    }

    // Pairwise findings: SL303 (conflict under a world), else SL304
    // (containment under every world).
    for pair in &facts.pairs {
        let (i, j) = (pair.i, pair.j);
        if !pair.conflicts.is_empty() {
            diags.push(conflict(input, &facts, pair));
            continue;
        }
        if !(discriminating[i] && discriminating[j]) {
            continue;
        }
        let started = Instant::now();
        let (a, b) = (&input.specs[i], &input.specs[j]);
        // Containment under every world: ∃ fair path ⊨ A ∧ ¬B anywhere
        // defeats A ⇒ B.
        let mut a_implies_b = true;
        let mut b_implies_a = true;
        for world in &facts.live {
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
        let elapsed = started.elapsed();
        timings[i].pairwise += elapsed;
        timings[j].pairwise += elapsed;
    }
    if facts.skipped_pairs > 0 {
        diags.push(Diagnostic::new(
            LintCode::SemWorldSubsumed,
            "rule book",
            format!(
                "{} spec pair(s) exceeded the pairwise size budget \
                 ({PAIRWISE_SIZE_BUDGET}) and were not checked for semantic \
                 conflict/subsumption",
                facts.skipped_pairs
            ),
        ));
    }

    // Corpus discrimination: SL305.
    if !input.corpus.is_empty() {
        for (i, spec) in input.specs.iter().enumerate() {
            if !facts.rules[i].contingent() {
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

    report(input, diags, timings, checks)
}

/// Renders a formula with the input's vocabulary, if it has one.
fn render(input: &SemanticInput, phi: &Ltl) -> String {
    match &input.vocab {
        Some(v) => phi.to_string(v),
        None => format!("{phi:?}"),
    }
}

/// The SL300 finding for an unsatisfiable rule.
fn unsatisfiable(input: &SemanticInput, spec: &Spec) -> Diagnostic {
    Diagnostic::new(
        LintCode::SemUnsatisfiable,
        format!("spec {}", spec.name),
        format!(
            "`{}` has an empty language (Büchi emptiness on the spec-only automaton); \
             it fails every controller in every world",
            render(input, &spec.formula)
        ),
    )
}

/// The SL303 finding for a pair with conflict worlds.
fn conflict(input: &SemanticInput, facts: &Facts<'_>, pair: &PairFacts) -> Diagnostic {
    let (a, b) = (&input.specs[pair.i], &input.specs[pair.j]);
    Diagnostic::new(
        LintCode::SemWorldConflict,
        format!("spec {}", a.name),
        format!(
            "`{}` and `{}` have no common fair path in {}; no controller \
             can pass both there",
            a.name,
            b.name,
            pair.conflicts
                .iter()
                .map(|&w| format!("`{}`", facts.live[w].name))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    )
    .element(format!("spec {}", b.name))
}

/// Mirrors a pass's counts to the obskit counters (registering them at
/// zero, so instrumented runs always report them) and bundles the
/// report.
fn report(
    input: &SemanticInput,
    diagnostics: Vec<Diagnostic>,
    timings: Vec<RuleTiming>,
    checks: usize,
) -> SemanticReport {
    let tally = Tally::of(&diagnostics);
    obskit::counter_add("speclint.semantic_rules", input.specs.len() as u64);
    obskit::counter_add("speclint.semantic_checks", checks as u64);
    obskit::counter_add("speclint.semantic_errors", tally.errors as u64);
    obskit::counter_add("speclint.semantic_warnings", tally.warnings as u64);
    obskit::counter_add("speclint.semantic_notes", tally.notes as u64);
    SemanticReport {
        diagnostics,
        timings,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Severity;
    use crate::presets::free_controller;
    use autokit::{ActSet, ControllerBuilder, Guard, PropSet};
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

    /// The errors-only pass returns the full pass's `Error`s, in order.
    fn assert_gate_matches(input: &SemanticInput) -> SemanticReport {
        let full = analyze_timed(input);
        let gate = analyze_errors(input);
        let errors: Vec<Diagnostic> = full
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(gate.diagnostics, errors);
        assert!(
            gate.checks <= full.checks,
            "{} > {}",
            gate.checks,
            full.checks
        );
        gate
    }

    #[test]
    fn gate_equals_full_pass_errors_on_every_fixture() {
        let v = vocab();
        let mut dead = always_a_world(&v);
        dead.justice =
            vec![Justice::new("b clears", parse("b", &v).expect("parses")).expect("propositional")];
        let mut big = parse("F go", &v).expect("parses");
        for _ in 0..40 {
            big = Ltl::and(big, parse("F go", &v).expect("parses"));
        }
        let oversized = |name: &str| Spec {
            name: name.to_string(),
            description: String::new(),
            formula: big.clone(),
        };
        let fixtures: Vec<(&str, SemanticInput, Vec<&str>)> = vec![
            (
                "empty language",
                input(
                    &v,
                    vec![spec("bad", &v, "F (a & !a)")],
                    vec![always_a_world(&v)],
                ),
                vec!["SL300"],
            ),
            (
                "conflict",
                input(
                    &v,
                    vec![
                        spec("liveness", &v, "G F go"),
                        spec("safety", &v, "G (a -> !go)"),
                    ],
                    vec![always_a_world(&v)],
                ),
                vec!["SL303"],
            ),
            (
                "both error codes, two conflicting pairs",
                input(
                    &v,
                    vec![
                        spec("liveness", &v, "G F go"),
                        spec("bad", &v, "F (a & !a)"),
                        spec("safety", &v, "G (a -> !go)"),
                        spec("strong", &v, "G !go"),
                    ],
                    vec![always_a_world(&v)],
                ),
                vec!["SL300", "SL303", "SL303"],
            ),
            (
                "dead world",
                input(&v, vec![spec("any", &v, "G a")], vec![dead]),
                vec![],
            ),
            (
                "tautology",
                input(
                    &v,
                    vec![spec("trivial", &v, "G (a | !a)"), spec("ok", &v, "G F go")],
                    vec![always_a_world(&v)],
                ),
                vec![],
            ),
            (
                "oversized pair",
                input(
                    &v,
                    vec![oversized("big_a"), oversized("big_b")],
                    vec![always_a_world(&v)],
                ),
                vec![],
            ),
            (
                "conflict demo",
                crate::presets::conflicting_semantic_input(),
                vec!["SL303"],
            ),
        ];
        for (name, fixture, want) in fixtures {
            let gate = assert_gate_matches(&fixture);
            assert_eq!(codes(&gate.diagnostics), want, "{name}");
        }
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
