//! Automated feedback: the verification side of DPO-AF.
//!
//! Each response is aligned, parsed and compiled to an FSA controller,
//! implemented in its task's scenario world model, and checked against
//! the 15 driving specifications. The number of satisfied specifications
//! is the response's score — the signal that replaces human preference
//! labels (paper Section 4.2–4.3).
//!
//! Verification runs under per-scenario **justice** assumptions (the
//! environment does not blockade the vehicle forever), mirroring NuSMV
//! `JUSTICE` declarations; without them the liveness rules Φ₇/Φ₁₀/Φ₁₃
//! are unsatisfiable against a fully adversarial environment.

use crate::domain::{DomainBundle, TaskSpec};
use autokit::{presets::DrivingDomain, Controller, Product, WorldModel};
use drivesim::ScenarioKind;
use glm2fsa::{split_steps, synthesize};
use ltlcheck::analysis::holds_all_fair;
use ltlcheck::specs::{driving_specs, Spec};
use ltlcheck::{check_graph_fair_certified, Justice};
use std::sync::OnceLock;

/// The scenario's world model (paper Figures 5, 6, 15, 16, 17).
///
/// Thin re-export of [`drivesim::formal::scenario_model`], the single
/// source of truth shared with `speclint` and `certkit`.
pub fn scenario_model(d: &DrivingDomain, kind: ScenarioKind) -> WorldModel {
    drivesim::formal::scenario_model(d, kind)
}

/// The scenario's justice assumptions: infinitely often, the intersection
/// is clear (and its light, if any, is green) — i.e. the environment
/// eventually gives the vehicle a chance to move.
///
/// Thin re-export of [`drivesim::formal::scenario_justice`].
pub fn justice_for(d: &DrivingDomain, kind: ScenarioKind) -> Vec<Justice> {
    drivesim::formal::scenario_justice(d, kind)
}

/// Pre-flight of the rule book: the `Error`-severity findings of the
/// `speclint` rule-book analysis of every spec under all five scenario
/// worlds (`SL300` empty language, `SL303` conflict under a world), if
/// any. An unsatisfiable or conflicting rule would silently cap every
/// response's score, corrupting the preference signal rather than
/// merely weakening it. Warning- and Note-class findings — a tautology,
/// per-world vacuity, subsumption — do not gate, so the gate does not
/// compute them: [`speclint::analyze_errors`] decides only the facts
/// the two `Error` codes rest on and returns exactly the `Error`s the
/// full pass would (about 40% fewer queries on the shipped book, and
/// none of the containment queries that dominate the full pass). The
/// worlds come from [`speclint::presets::driving_worlds`], the same
/// ones the `speclint` CLI analyses.
///
/// The verdict is memoized process-wide: the shipped rule book and
/// scenario models are fixed at compile time, so every run after the
/// first returns the cached result. The first run's model-checking
/// queries are counted in the obskit `speclint.semantic_*` metrics
/// (warnings and notes at zero).
pub fn preflight_rule_book_semantic(d: &DrivingDomain) -> Result<(), Vec<speclint::Diagnostic>> {
    static VERDICT: OnceLock<Result<(), Vec<speclint::Diagnostic>>> = OnceLock::new();
    VERDICT
        .get_or_init(|| {
            let errors = speclint::analyze_errors(&speclint::SemanticInput {
                specs: driving_specs(d),
                worlds: speclint::presets::driving_worlds(d),
                corpus: Vec::new(),
                vocab: Some(d.vocab.clone()),
            })
            .diagnostics;
            if errors.is_empty() {
                Ok(())
            } else {
                Err(errors)
            }
        })
        .clone()
}

/// Counters from certified scoring ([`score_response_certified`]): how
/// many verdicts were produced and independently validated, by polarity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertCounters {
    /// Verdicts produced and certificate-checked.
    pub checks: usize,
    /// `Holds` verdicts whose emptiness certificate validated.
    pub holds: usize,
    /// `Fails` verdicts whose counterexample validated.
    pub fails: usize,
}

/// A response with its verification outcome.
///
/// Scoring only decides which rules hold; it keeps no counterexamples.
/// A caller that wants a violating lasso runs [`ltlcheck::verify_all_fair`]
/// on `controller` in the task's scenario.
#[derive(Debug, Clone)]
pub struct ScoredResponse {
    /// The decoded response text.
    pub text: String,
    /// The synthesized controller (`None` when alignment/parsing failed).
    pub controller: Option<Controller>,
    /// Whether each specification holds, in rule-book order (`None` when
    /// synthesis failed).
    pub holds: Option<Vec<bool>>,
    /// Number of satisfied specifications (0 on synthesis failure) — the
    /// ranking key.
    pub num_satisfied: usize,
}

impl ScoredResponse {
    /// Names of the specifications of `specs` — the rule book the
    /// response was scored against — that the controller fails. Empty
    /// when synthesis failed.
    pub fn failed<'s>(&self, specs: &'s [Spec]) -> Vec<&'s str> {
        let holds = self.holds.as_deref().unwrap_or_default();
        specs
            .iter()
            .zip(holds)
            .filter(|&(_, &h)| !h)
            .map(|(s, _)| s.name.as_str())
            .collect()
    }
}

/// Scores a raw response text for a task: align → parse → FSA →
/// `M ⊗ C ⊨ Φᵢ` for the 15 specifications under the scenario's justice
/// assumptions.
///
/// Responses that fail to align (the paper's property-1 failure mode)
/// score 0 and therefore rank below every verifiable response; synthesis
/// is the one gate, so they never reach model checking.
pub fn score_response(bundle: &DomainBundle, task: &TaskSpec, text: &str) -> ScoredResponse {
    score_response_impl(bundle, task, text, None)
}

/// [`score_response`] with certification: every model-checking verdict's
/// evidence is validated by `certkit` before it contributes to the
/// score, and the validation counters are returned alongside.
///
/// # Panics
///
/// Panics when any verdict's certificate or counterexample is rejected:
/// the model checker produced an unsupported verdict, and training on it
/// would poison the preference signal. Fail loudly, never rank.
pub fn score_response_certified(
    bundle: &DomainBundle,
    task: &TaskSpec,
    text: &str,
) -> (ScoredResponse, CertCounters) {
    let mut counters = CertCounters::default();
    let scored = score_response_impl(bundle, task, text, Some(&mut counters));
    (scored, counters)
}

fn score_response_impl(
    bundle: &DomainBundle,
    task: &TaskSpec,
    text: &str,
    counters: Option<&mut CertCounters>,
) -> ScoredResponse {
    let rejected = ScoredResponse {
        text: text.to_owned(),
        controller: None,
        holds: None,
        num_satisfied: 0,
    };
    let parsed = {
        let _stage = obskit::span("pipeline.parse");
        synthesize(&task.prompt, &split_steps(text), &bundle.lexicon)
    };
    let Ok(ctrl) = parsed else {
        obskit::counter_add("pipeline.responses_rejected", 1);
        return rejected;
    };
    let model = scenario_model(&bundle.driving, task.scenario);
    let justice = justice_for(&bundle.driving, task.scenario);
    let specs = driving_specs(&bundle.driving);
    let holds: Vec<bool> = {
        let _stage = obskit::span("pipeline.verify");
        let graph = {
            let _build = obskit::span("autokit.product");
            Product::build(&model, &ctrl).label_graph()
        };
        match counters {
            Some(counters) => specs
                .iter()
                .map(|s| {
                    let certified = check_graph_fair_certified(&graph, &s.formula, &justice);
                    if let Err(e) =
                        certkit::check_certified(&graph, &s.formula, &justice, &certified)
                    {
                        panic!("model-checker evidence for `{}` rejected: {e}", s.name);
                    }
                    counters.checks += 1;
                    if certified.holds() {
                        counters.holds += 1;
                    } else {
                        counters.fails += 1;
                    }
                    certified.holds()
                })
                .collect(),
            None => holds_all_fair(&graph, specs.iter().map(|s| &s.formula), &justice),
        }
    };
    ScoredResponse {
        text: text.to_owned(),
        num_satisfied: holds.iter().filter(|&&h| h).count(),
        controller: Some(ctrl),
        holds: Some(holds),
    }
}

/// Per-specification empirical satisfaction rates `P_Φ` from simulator
/// rollouts (paper Equation 2 / Figure 11).
///
/// Runs `runs` episodes of `steps` ticks in the task's scenario and
/// monitors each trace with the LTLf semantics.
pub fn empirical_rates(
    bundle: &DomainBundle,
    task: &TaskSpec,
    ctrl: &Controller,
    runs: usize,
    steps: usize,
    rng: &mut impl rand::Rng,
) -> Vec<(String, f64)> {
    let mut scenario = drivesim::Scenario::new(task.scenario, drivesim::ScenarioConfig::default());
    let traces = drivesim::ground_many(ctrl, &mut scenario, &bundle.driving, rng, steps, runs);
    driving_specs(&bundle.driving)
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                ltlcheck::finite::satisfaction_rate(traces.iter(), &s.formula),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{render_response, Style};
    use crate::pipeline::{DpoAf, PipelineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn justice_is_realizable_in_every_scenario() {
        let d = DrivingDomain::new();
        for kind in ScenarioKind::all() {
            let model = scenario_model(&d, kind);
            let justice = justice_for(&d, kind);
            let witness = model.states().any(|s| {
                justice
                    .iter()
                    .all(|j| j.holds(model.label(s), autokit::ActSet::empty()))
            });
            assert!(witness, "justice unrealizable in {kind:?}");
        }
    }

    #[test]
    fn careful_beats_hasty_beats_reckless() {
        let bundle = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(0);
        let task = &bundle.tasks[0]; // turn right at the traffic light
        let careful = score_response(
            &bundle,
            task,
            &render_response(&bundle.driving, task, Style::Careful, &mut rng),
        );
        let hasty = score_response(
            &bundle,
            task,
            &render_response(&bundle.driving, task, Style::Hasty, &mut rng),
        );
        let reckless = score_response(
            &bundle,
            task,
            &render_response(&bundle.driving, task, Style::Reckless, &mut rng),
        );
        assert!(
            careful.num_satisfied > hasty.num_satisfied,
            "careful {} vs hasty {} (careful failed: {:?})",
            careful.num_satisfied,
            hasty.num_satisfied,
            careful.failed(&driving_specs(&bundle.driving))
        );
        assert!(
            hasty.num_satisfied > reckless.num_satisfied,
            "hasty {} vs reckless {}",
            hasty.num_satisfied,
            reckless.num_satisfied
        );
    }

    /// Certified scoring returns the same ranking signal as the plain
    /// path — it only adds evidence validation — and its counters account
    /// for every specification exactly once.
    #[test]
    fn certified_scoring_matches_plain_and_counts() {
        let bundle = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(5);
        let task = &bundle.tasks[0];
        for style in [Style::Careful, Style::Reckless] {
            let text = render_response(&bundle.driving, task, style, &mut rng);
            let plain = score_response(&bundle, task, &text);
            let (certified, counters) = score_response_certified(&bundle, task, &text);
            assert_eq!(plain.num_satisfied, certified.num_satisfied, "{style:?}");
            assert_eq!(counters.checks, 15, "{style:?}");
            assert_eq!(counters.holds, certified.num_satisfied, "{style:?}");
            assert_eq!(
                counters.holds + counters.fails,
                counters.checks,
                "{style:?}"
            );
        }
    }

    /// Certification is a check on the pipeline's own samples: every
    /// distinct winner and loser a smoke collection ranks re-scores, with
    /// certkit validating the evidence behind each verdict (a rejection
    /// panics), to the score [`DpoAf::score_formal`] serves from its
    /// cache.
    #[test]
    fn certified_rescoring_matches_collected_scores() {
        let mut cfg = PipelineConfig::smoke();
        cfg.threads = 1;
        let pipeline = DpoAf::new(cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let lm = pipeline.pretrained_lm(&mut rng);
        let dataset = pipeline.collect_dataset(&lm, &mut rng);
        assert!(!dataset.is_empty());
        let (hits, misses) = pipeline.cache_stats();
        let mut distinct = HashSet::new();
        for pair in &dataset.pairs {
            let task = &pipeline.bundle.tasks[pair.task];
            for tokens in [&pair.winner, &pair.loser] {
                let text = pipeline.bundle.decode(tokens);
                if !distinct.insert((pair.task, text.clone())) {
                    continue;
                }
                let (certified, _) = score_response_certified(&pipeline.bundle, task, &text);
                let cached = pipeline.score_formal(task, &text);
                assert_eq!(certified.num_satisfied, cached, "`{text}`");
            }
        }
        // Every collected text was scored during collection, so each
        // score compared above came from the cache.
        let n = distinct.len() as u64;
        assert_eq!(pipeline.cache_stats(), (hits + n, misses));
    }

    /// The decide-only verdicts of the plain path equal the verdicts of
    /// the lasso-producing checker and of the certified path, spec by
    /// spec, on every task × style rendered response.
    #[test]
    fn decide_only_verdicts_match_lasso_and_certified_verdicts() {
        let bundle = DomainBundle::new();
        let specs = driving_specs(&bundle.driving);
        let mut rng = StdRng::seed_from_u64(13);
        let mut verified = 0;
        for task in &bundle.tasks {
            for style in Style::all() {
                let text = render_response(&bundle.driving, task, style, &mut rng);
                let plain = score_response(&bundle, task, &text);
                let (certified, _) = score_response_certified(&bundle, task, &text);
                assert_eq!(plain.holds, certified.holds, "{style:?} `{text}`");
                let (Some(ctrl), Some(holds)) = (&plain.controller, &plain.holds) else {
                    continue;
                };
                let report = ltlcheck::verify_all_fair(
                    &scenario_model(&bundle.driving, task.scenario),
                    ctrl,
                    specs.iter().map(|s| (s.name.as_str(), &s.formula)),
                    &justice_for(&bundle.driving, task.scenario),
                );
                let lasso: Vec<bool> = report.results.iter().map(|r| r.verdict.holds()).collect();
                assert_eq!(holds, &lasso, "{style:?} `{text}`");
                assert_eq!(plain.num_satisfied, report.num_satisfied());
                verified += 1;
            }
        }
        assert!(verified >= 40, "only {verified} responses synthesized");
    }

    #[test]
    fn preflight_accepts_shipped_rule_book() {
        let d = DrivingDomain::new();
        assert!(preflight_rule_book_semantic(&d).is_ok());
    }

    #[test]
    fn unalignable_scores_zero() {
        let bundle = DomainBundle::new();
        let task = &bundle.tasks[0];
        let scored = score_response(&bundle, task, "trust your instincts and merge .");
        assert_eq!(scored.num_satisfied, 0);
        assert!(scored.controller.is_none());
        assert!(scored.holds.is_none());
    }

    #[test]
    fn careful_satisfies_most_specs_on_every_task() {
        let bundle = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(7);
        for task in &bundle.tasks {
            let text = render_response(&bundle.driving, task, Style::Careful, &mut rng);
            let scored = score_response(&bundle, task, &text);
            assert!(
                scored.num_satisfied >= 12,
                "task {} (`{}`) careful controller only satisfied {}/15; failed {:?}; text `{}`",
                task.id,
                task.prompt,
                scored.num_satisfied,
                scored.failed(&driving_specs(&bundle.driving)),
                text
            );
        }
    }

    #[test]
    fn empirical_rates_cover_all_specs() {
        let bundle = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(3);
        let task = &bundle.tasks[0];
        let text = render_response(&bundle.driving, task, Style::Careful, &mut rng);
        let scored = score_response(&bundle, task, &text);
        let ctrl = scored.controller.expect("careful synthesizes");
        let rates = empirical_rates(&bundle, task, &ctrl, 10, 30, &mut rng);
        assert_eq!(rates.len(), 15);
        for (name, rate) in &rates {
            assert!((0.0..=1.0).contains(rate), "{name}: {rate}");
        }
    }
}
