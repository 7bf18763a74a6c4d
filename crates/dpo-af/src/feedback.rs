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
use autokit::{presets::DrivingDomain, Controller, DeadlockPolicy, Product, WorldModel};
use drivesim::ScenarioKind;
use glm2fsa::{synthesize, with_default_action, FsaOptions};
use ltlcheck::analysis::holds_all_fair;
use ltlcheck::specs::{driving_specs, Spec};
use ltlcheck::{Justice, SpecResult, VerificationReport};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// FSA-construction options for the driving domain: `stop` is a
/// *reactive* action (`"if the light is not green, stop"` applies only
/// while its condition holds), every maneuver is *blocking* (the vehicle
/// waits for its precondition).
pub fn fsa_options(d: &DrivingDomain) -> FsaOptions {
    FsaOptions {
        non_blocking: autokit::ActSet::singleton(d.stop),
        ..FsaOptions::default()
    }
}

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

/// Pre-flight static analysis of the rule book: runs the `speclint` spec
/// analyzers (satisfiability, tautology, conflicts, subsumption) and
/// returns the `Error`-severity findings, if any.
///
/// The pipeline refuses to start on a rule book that fails this gate: an
/// unsatisfiable or pairwise-conflicting rule would silently cap every
/// response's score, corrupting the preference signal rather than merely
/// weakening it.
pub fn preflight_rule_book(d: &DrivingDomain) -> Result<(), Vec<speclint::Diagnostic>> {
    let diags = speclint::lint_specs(&driving_specs(d), &[], Some(&d.vocab));
    let errors: Vec<speclint::Diagnostic> = diags
        .into_iter()
        .filter(|diag| diag.severity == speclint::Severity::Error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Semantic pre-flight of the rule book (`SL3xx`): checks every spec's
/// satisfiability and the pairwise conflicts under all five scenario
/// worlds via the ltlcheck automaton machinery, and returns the
/// `Error`-severity findings (`SL300` empty language, `SL303`
/// conflict-under-world), if any. Note-class findings — per-world
/// vacuity, subsumption — are expected in a healthy book and do not
/// gate. Corpus discrimination (`SL305`) needs a response corpus the
/// pipeline does not have yet, so the gate runs worlds-only.
///
/// The verdict is memoized process-wide: the shipped rule book and
/// scenario models are fixed at compile time, so every run after the
/// first returns the cached result. The first run's model-checking
/// queries are counted in the obskit `speclint.semantic_*` metrics.
pub fn preflight_rule_book_semantic(d: &DrivingDomain) -> Result<(), Vec<speclint::Diagnostic>> {
    static VERDICT: OnceLock<Result<(), Vec<speclint::Diagnostic>>> = OnceLock::new();
    VERDICT
        .get_or_init(|| {
            let free = speclint::presets::free_controller(
                "free (driving)",
                &[d.stop, d.turn_left, d.turn_right, d.go_straight].map(autokit::ActSet::singleton),
            );
            let mut input = speclint::SemanticInput {
                specs: driving_specs(d),
                vocab: Some(d.vocab.clone()),
                ..Default::default()
            };
            for kind in ScenarioKind::all() {
                input.worlds.push(speclint::SemanticWorld::from_parts(
                    format!("{kind:?}"),
                    &scenario_model(d, kind),
                    &free,
                    justice_for(d, kind),
                ));
            }
            let errors: Vec<speclint::Diagnostic> = speclint::semantic::analyze(&input)
                .into_iter()
                .filter(|diag| diag.severity == speclint::Severity::Error)
                .collect();
            if errors.is_empty() {
                Ok(())
            } else {
                Err(errors)
            }
        })
        .clone()
}

/// Pre-flight static analysis of one response's step list: runs the
/// `speclint` step analyzers and returns the `Error`-severity findings
/// (unparseable steps), if any.
///
/// [`score_response`] calls this before model checking; a rejected
/// response scores 0, the same rank the paper assigns to responses that
/// fail to align (property-1 failures).
pub fn preflight_response(
    bundle: &DomainBundle,
    task: &TaskSpec,
    text: &str,
) -> Result<(), Vec<speclint::Diagnostic>> {
    let steps = DomainBundle::split_steps(text);
    let diags = speclint::lint_steps(&task.prompt, &steps, &bundle.lexicon, &bundle.driving.vocab);
    let errors: Vec<speclint::Diagnostic> = diags
        .into_iter()
        .filter(|diag| diag.severity == speclint::Severity::Error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Counters from certified-mode verification: how many verdicts were
/// produced and independently validated, by polarity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertCounters {
    /// Verdicts produced and certificate-checked.
    pub checks: usize,
    /// `Holds` verdicts whose emptiness certificate validated.
    pub holds: usize,
    /// `Fails` verdicts whose counterexample validated.
    pub fails: usize,
}

impl CertCounters {
    /// Accumulates another batch of counters into this one.
    pub fn add(&mut self, other: CertCounters) {
        self.checks += other.checks;
        self.holds += other.holds;
        self.fails += other.fails;
    }
}

/// [`ltlcheck::verify_all_fair`] with certificates: every verdict's evidence is
/// validated by `certkit`'s independent checker before it is allowed
/// into the report.
///
/// # Panics
///
/// Panics when a certificate or counterexample is rejected — that means
/// the model checker produced an unsupported verdict, and training on it
/// would poison the preference signal. Fail loudly, never rank.
pub fn verify_all_fair_certified<'a>(
    model: &WorldModel,
    ctrl: &Controller,
    specs: impl IntoIterator<Item = (&'a str, &'a ltlcheck::Ltl)>,
    justice: &[Justice],
) -> (VerificationReport, CertCounters) {
    let graph = Product::build(model, ctrl).label_graph(DeadlockPolicy::Stutter);
    let mut counters = CertCounters::default();
    let results = specs
        .into_iter()
        .map(|(name, phi)| {
            let certified = ltlcheck::check_graph_fair_certified(&graph, phi, justice);
            if let Err(e) = certkit::check_certified(&graph, phi, justice, &certified) {
                panic!("model-checker evidence for `{name}` rejected: {e}");
            }
            counters.checks += 1;
            if certified.holds() {
                counters.holds += 1;
            } else {
                counters.fails += 1;
            }
            SpecResult {
                name: name.to_owned(),
                verdict: certified.verdict(),
            }
        })
        .collect();
    (VerificationReport { results }, counters)
}

/// A response with its verification outcome.
///
/// Scoring only decides which rules hold; it keeps no counterexamples.
/// A caller that wants a violating lasso runs [`ltlcheck::verify_all_fair`]
/// on `controller` in the task's scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
/// score 0 and therefore rank below every verifiable response.
///
/// [`preflight_response`] gates the expensive work: a step list carrying
/// lint-`Error` findings is rejected before any synthesis or model
/// checking happens.
pub fn score_response(bundle: &DomainBundle, task: &TaskSpec, text: &str) -> ScoredResponse {
    score_response_impl(bundle, task, text, None)
}

/// [`score_response`] in certified mode: every model-checking verdict's
/// evidence is validated by `certkit` before it contributes to the
/// score, and the validation counters are returned alongside.
///
/// # Panics
///
/// Panics when any verdict's certificate or counterexample is rejected
/// (see [`verify_all_fair_certified`]).
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
    if preflight_response(bundle, task, text).is_err() {
        obskit::counter_add("pipeline.responses_rejected", 1);
        return rejected;
    }
    let steps = DomainBundle::split_steps(text);
    let parsed = {
        let _stage = obskit::span("pipeline.parse");
        synthesize(
            &task.prompt,
            &steps,
            &bundle.lexicon,
            fsa_options(&bundle.driving),
        )
    };
    let ctrl = match parsed {
        Ok(c) => c,
        Err(_) => {
            obskit::counter_add("pipeline.responses_rejected", 1);
            return rejected;
        }
    };
    // The paper's SMV encodings give the vehicle an action at every step:
    // an observing controller is a stopped controller.
    let ctrl = with_default_action(&ctrl, bundle.driving.stop);
    let model = scenario_model(&bundle.driving, task.scenario);
    let justice = justice_for(&bundle.driving, task.scenario);
    let specs = driving_specs(&bundle.driving);
    let holds: Vec<bool> = {
        let _stage = obskit::span("pipeline.verify");
        match counters {
            Some(counters) => {
                let named = specs.iter().map(|s| (s.name.as_str(), &s.formula));
                let (report, c) = verify_all_fair_certified(&model, &ctrl, named, &justice);
                counters.add(c);
                report.results.iter().map(|r| r.verdict.holds()).collect()
            }
            None => {
                let graph = Product::build(&model, &ctrl).label_graph(DeadlockPolicy::Stutter);
                holds_all_fair(&graph, specs.iter().map(|s| &s.formula), &justice)
            }
        }
    };
    ScoredResponse {
        text: text.to_owned(),
        num_satisfied: holds.iter().filter(|&&h| h).count(),
        controller: Some(ctrl),
        holds: Some(holds),
    }
}

/// [`score_response`] on encoded tokens.
pub fn score_tokens(
    bundle: &DomainBundle,
    task: &TaskSpec,
    tokens: &[tinylm::Token],
) -> ScoredResponse {
    score_response(bundle, task, &bundle.decode(tokens))
}

/// [`score_response_certified`] on encoded tokens.
pub fn score_tokens_certified(
    bundle: &DomainBundle,
    task: &TaskSpec,
    tokens: &[tinylm::Token],
) -> (ScoredResponse, CertCounters) {
    score_response_certified(bundle, task, &bundle.decode(tokens))
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert!(preflight_rule_book(&d).is_ok());
    }

    /// The pre-flight gate consumes speclint's stable JSON schema: the
    /// diagnostics round-trip through `serde_json` with their code,
    /// severity, subject and message intact, and the gate rejects on the
    /// parsed-back form exactly as on the in-memory one.
    #[test]
    fn preflight_rejects_unparseable_response_via_json_diagnostics() {
        let bundle = DomainBundle::new();
        let task = &bundle.tasks[0];
        let text = "do a barrel roll across the intersection .";

        let errors = preflight_response(&bundle, task, text).expect_err("must reject");
        let json = serde_json::to_string(&errors).expect("diagnostics serialize");
        let parsed: Vec<speclint::Diagnostic> =
            serde_json::from_str(&json).expect("stable schema parses back");

        assert!(!parsed.is_empty());
        for diag in &parsed {
            assert_eq!(diag.code.code(), "SL201", "{diag:?}");
            assert_eq!(diag.severity, speclint::Severity::Error, "{diag:?}");
            assert!(diag.location.subject.contains(&task.prompt), "{diag:?}");
        }
        assert!(json.contains("\"severity\":\"error\""), "{json}");

        // The gate keeps the rejected response at the bottom of the
        // ranking without running synthesis or model checking.
        let scored = score_response(&bundle, task, text);
        assert_eq!(scored.num_satisfied, 0);
        assert!(scored.controller.is_none());
    }

    #[test]
    fn preflight_accepts_careful_responses() {
        let bundle = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(11);
        for task in &bundle.tasks {
            let text = render_response(&bundle.driving, task, Style::Careful, &mut rng);
            assert!(
                preflight_response(&bundle, task, &text).is_ok(),
                "careful response for `{}` rejected: `{text}`",
                task.prompt
            );
        }
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
