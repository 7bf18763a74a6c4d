//! Figure 11: empirical satisfaction rates `P_Φ` of the first five
//! specifications during actual operation in the simulator, comparing
//! controllers synthesized before and after fine-tuning.
//!
//! Multiple responses are sampled per task from each model, compiled to
//! controllers (responses that fail to align contribute *failing* traces
//! — a vehicle with no controller satisfies nothing vacuously, so they
//! are simply skipped, matching the paper's "we operate the controllers"
//! framing), each controller runs several episodes, and the traces are
//! pooled per specification.

use crate::domain::DomainBundle;
use crate::feedback::score_response;
use autokit::Trace;
use drivesim::{ground_many, Scenario, ScenarioConfig};
use ltlcheck::specs::headline_specs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tinylm::{CondLm, SampleOptions};

/// Satisfaction rates for one specification.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Specification name (`phi_1` … `phi_5`).
    pub spec: String,
    /// `P_Φ` before fine-tuning.
    pub before: f64,
    /// `P_Φ` after fine-tuning.
    pub after: f64,
}

/// The Figure 11 result.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// One row per headline specification.
    pub rows: Vec<Fig11Row>,
    /// Traces pooled per model.
    pub traces_per_model: usize,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Config {
    /// Responses sampled per task per model.
    pub samples_per_task: usize,
    /// Episodes per controller.
    pub episodes: usize,
    /// Ticks per episode.
    pub steps: usize,
    /// Sampling temperature.
    pub temperature: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            samples_per_task: 3,
            episodes: 8,
            steps: 40,
            temperature: 0.8,
            seed: 23,
        }
    }
}

fn collect_traces(
    bundle: &DomainBundle,
    lm: &CondLm,
    cfg: Fig11Config,
    rng: &mut StdRng,
) -> Vec<Trace> {
    let opts = SampleOptions {
        temperature: cfg.temperature,
        max_len: 60,
    };
    let lm = lm.merged();
    let mut traces = Vec::new();
    for task in &bundle.tasks {
        for _ in 0..cfg.samples_per_task {
            #[allow(clippy::expect_used, reason = "task ids come from the bundle")]
            let tokens = lm.sample(task.id, rng, opts).expect("task id in range");
            let scored = score_response(bundle, task, &bundle.decode(&tokens));
            let Some(ctrl) = scored.controller else {
                continue; // unalignable response: no controller to run
            };
            let mut scenario = Scenario::new(task.scenario, ScenarioConfig::default());
            traces.extend(ground_many(
                &ctrl,
                &mut scenario,
                &bundle.driving,
                rng,
                cfg.steps,
                cfg.episodes,
            ));
        }
    }
    traces
}

/// Runs the Figure 11 experiment for a (reference, policy) model pair.
pub fn run(
    bundle: &DomainBundle,
    reference: &CondLm,
    policy: &CondLm,
    cfg: Fig11Config,
) -> Fig11Result {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let before_traces = collect_traces(bundle, reference, cfg, &mut rng);
    let mut rng = StdRng::seed_from_u64(cfg.seed); // same episodes for fairness
    let after_traces = collect_traces(bundle, policy, cfg, &mut rng);

    let rows = headline_specs(&bundle.driving)
        .iter()
        .map(|s| Fig11Row {
            spec: s.name.clone(),
            before: ltlcheck::finite::satisfaction_rate(before_traces.iter(), &s.formula),
            after: ltlcheck::finite::satisfaction_rate(after_traces.iter(), &s.formula),
        })
        .collect();

    Fig11Result {
        rows,
        traces_per_model: before_traces.len().min(after_traces.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DpoAf, PipelineConfig};

    #[test]
    fn produces_five_bounded_rows() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let mut rng = StdRng::seed_from_u64(1);
        let lm = pipeline.pretrained_lm(&mut rng);
        let cfg = Fig11Config {
            samples_per_task: 1,
            episodes: 2,
            steps: 15,
            ..Fig11Config::default()
        };
        let result = run(&pipeline.bundle, &lm, &lm, cfg);
        assert_eq!(result.rows.len(), 5);
        for row in &result.rows {
            assert!((0.0..=1.0).contains(&row.before), "{row:?}");
            assert!((0.0..=1.0).contains(&row.after), "{row:?}");
        }
    }
}
