//! The three workloads. A workload generates a few fixed batches of
//! inputs, then runs passes — one pass is one batch's operations — in
//! rounds that visit every batch once, until the passes' wall time
//! reaches the window and the round is complete. Every pass's outputs
//! are checked outside the measured parts.
//!
//! In untraced runs each set-up and pass is calibrated as it ends
//! ([`crate::calibrate`]). Throughput is taken from each batch's median
//! pass time, so that a pass the calibration misjudges moves nothing.

use crate::calibrate::Clock;
use crate::gen::{self, Request};
use crate::trace::{measured, Counters};
use dpo::{DpoTrainer, EpochStats, PreferenceDataset};
use dpo_af::experiments::headline::from_artifacts;
use dpo_af::feedback::{preflight_rule_book_semantic, score_response_certified};
use dpo_af::{DpoAf, PipelineConfig, RunArtifacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Untraced `train` runs repeat their set-up, which is dominated by
/// pretraining, this many times and report the median.
const TRAIN_SETUP_REPEATS: usize = 3;

/// Feedback checks re-score every this many distinct texts of a batch in
/// certified mode.
const CERTIFY_EVERY: usize = 10;

/// How one run is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Seed of the run's inputs.
    pub seed: u64,
    /// Measured pass time after which no new pass starts.
    pub window: Duration,
    /// Record spans, counters and allocations for the per-layer metrics.
    pub traced: bool,
}

/// Everything a run measured and checked. Times are calibrated seconds
/// (see [`calibrate`](crate::calibrate)) when the clock calibrates and
/// wall seconds otherwise.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time of each set-up.
    pub setup_s: Vec<f64>,
    /// Operations in each batch of inputs, and so in each of its passes.
    pub batch_ops: Vec<usize>,
    /// Each pass's time, by batch.
    pub pass_s: Vec<Vec<f64>>,
    /// Wall time of all passes.
    pub wall_s: f64,
    /// Calibrates the times as they are measured.
    pub clock: Clock,
    /// Latency of single operations (`feedback` only in traced runs).
    pub op_ms: Vec<f64>,
    /// Peak resident set size of each pass, its set-up included when the
    /// set-up directly precedes it.
    pub pass_rss_mib: Vec<f64>,
    /// Operations that panicked or produced a wrong output.
    pub failed: u64,
    /// What went wrong, one line per problem.
    pub problems: Vec<String>,
    /// Counter changes across the set-ups (traced runs).
    pub setup_counters: Counters,
    /// Counter changes across the passes (traced runs).
    pub pass_counters: Counters,
}

impl Outcome {
    /// An outcome for inputs in batches of `batch_ops` operations, with a
    /// clock that calibrates when `calibrate` is set.
    fn new(batch_ops: Vec<usize>, calibrate: bool) -> Self {
        Outcome {
            pass_s: vec![Vec::new(); batch_ops.len()],
            batch_ops,
            clock: Clock::new(calibrate),
            ..Outcome::default()
        }
    }

    /// Passes run.
    pub fn passes(&self) -> usize {
        self.pass_s.iter().map(Vec::len).sum()
    }

    /// Operations run.
    pub fn attempted(&self) -> u64 {
        self.batch_ops
            .iter()
            .zip(&self.pass_s)
            .map(|(ops, passes)| (ops * passes.len()) as u64)
            .sum()
    }

    /// Operations per second of a round at each batch's median pass time:
    /// the batches' operations over the sum of their median pass times.
    pub fn ops_per_s(&self) -> f64 {
        let ops: usize = self.batch_ops.iter().sum();
        let round_s: f64 = self.pass_s.iter().map(|s| median(s)).sum();
        ops as f64 / round_s
    }

    /// Median set-up time.
    pub fn median_setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Highest peak resident set size of a pass.
    pub fn peak_rss_mib(&self) -> f64 {
        quantile(&self.pass_rss_mib, 1.0)
    }

    fn fail(&mut self, ops: usize, problem: String) {
        self.failed += ops as u64;
        self.problems.push(problem);
    }

    /// The batch of the next pass, or `None` once the passes' wall time
    /// has reached the window at the end of a round.
    fn next_batch(&self, plan: &Plan) -> Option<usize> {
        let passes = self.passes();
        let batch = passes % self.batch_ops.len();
        let done = passes > 0 && batch == 0 && self.wall_s >= plan.window.as_secs_f64();
        (!done).then_some(batch)
    }

    /// Records a pass of `batch` that took `pass_s` wall seconds: first
    /// its peak resident set size since the last [`reset_peak_rss`], then
    /// its calibrated time. Returns the calibration factor, which also
    /// applies to a set-up measured since the previous tick.
    fn end_pass(&mut self, batch: usize, pass_s: f64) -> f64 {
        match peak_rss_mib() {
            Some(mib) => self.pass_rss_mib.push(mib),
            None => self
                .problems
                .push("VmHWM missing from /proc/self/status".into()),
        }
        let scale = self.clock.tick();
        self.wall_s += pass_s;
        self.pass_s[batch].push(pass_s * scale);
        scale
    }
}

/// The median of `values` (the mean of the middle two for an even count;
/// 0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values` (nearest rank; 0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Restarts the allocation totals of a traced run once the inputs are
/// generated, so that they do not count the generator's allocations.
fn start_measuring(traced: bool) {
    if traced {
        obskit::alloc::reset();
        obskit::alloc::set_tracking(true);
    }
}

/// Resets the process's peak resident set size to its current one, so
/// that the next reading covers one pass and not the input generator or
/// earlier passes (Linux `clear_refs`).
fn reset_peak_rss() {
    static NOTE: Once = Once::new();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        NOTE.call_once(|| eprintln!("note: cannot reset the peak RSS ({e})"));
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `pipeline` configuration: the one behind `results/headline.txt`
/// (the defaults with eight evaluation samples per task) cut to its
/// first DPO-AF iteration, so that a run holds several passes.
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        eval_samples: 8,
        iterations: 1,
        ..PipelineConfig::default()
    }
}

/// What a `pipeline_config` run outputs, by seed: % satisfied before and
/// after fine-tuning, preference pairs.
const EXPECTED: [(u64, &str, &str, usize); 1] = [(7, "77.0", "89.8", 324)];

/// `pipeline`: a pass is one `DpoAf::run` of `cfg` on a fresh `DpoAf`.
/// Set-up is `DpoAf::new` plus the semantic preflight, whose verdict is
/// memoized process-wide, so that it runs once per run and no pass pays
/// it.
pub fn pipeline(plan: &Plan, cfg: PipelineConfig) -> Outcome {
    let mut out = Outcome::new(vec![1], !plan.traced);
    start_measuring(plan.traced);
    let (verdict, setup_s) = measured(plan.traced, &mut out.setup_counters, || {
        let af = DpoAf::new(cfg.clone());
        cfg.semantic_preflight.then(|| {
            let _s = obskit::span("speclint.preflight");
            preflight_rule_book_semantic(&af.bundle.driving)
        })
    });
    if let Some(Err(errors)) = verdict {
        out.problems
            .push(format!("semantic preflight failed: {errors:?}"));
    }
    let scale = out.clock.tick();
    out.setup_s.push(setup_s * scale);

    while let Some(batch) = out.next_batch(plan) {
        reset_peak_rss();
        let af = DpoAf::new(cfg.clone());
        let (artifacts, pass_s) = measured(plan.traced, &mut out.pass_counters, || {
            catch_unwind(AssertUnwindSafe(|| af.run()))
        });
        out.end_pass(batch, pass_s);
        out.op_ms.push(pass_s * 1e3);
        let _check = obskit::span("bench.check");
        let checked = match artifacts {
            Ok(artifacts) => check_run(&af.config, af.training_tasks().len(), &artifacts),
            Err(_) => Err("the run panicked".into()),
        };
        if let Err(problem) = checked {
            out.fail(1, format!("seed {}: {problem}", cfg.seed));
        }
    }
    out
}

/// The [`EXPECTED`] numbers exactly for the seeds it records, range
/// invariants for every run.
fn check_run(cfg: &PipelineConfig, tasks: usize, artifacts: &RunArtifacts) -> Result<(), String> {
    let result = from_artifacts(artifacts);
    let (before, after) = (
        format!("{:.1}", result.before_pct),
        format!("{:.1}", result.after_pct),
    );
    if *cfg == pipeline_config(cfg.seed) {
        if let Some(&(_, b, a, pairs)) = EXPECTED.iter().find(|h| h.0 == cfg.seed) {
            if (before.as_str(), after.as_str(), result.dataset_size) != (b, a, pairs) {
                return Err(format!(
                    "{before}% -> {after}% ({} pairs), expected {b}% -> {a}% ({pairs} pairs)",
                    result.dataset_size
                ));
            }
        }
    }
    let iterations = cfg.iterations.max(1);
    let epochs = iterations * cfg.train.epochs;
    let m = cfg.responses_per_task;
    let max_pairs = iterations * cfg.rounds * tasks * m * m.saturating_sub(1) / 2;
    let pct_ok = |p: f64| (0.0..=100.0).contains(&p);
    if !pct_ok(result.before_pct) || !pct_ok(result.after_pct) {
        return Err(format!("percentages out of range: {before} -> {after}"));
    }
    if result.dataset_size == 0 || result.dataset_size > max_pairs {
        return Err(format!(
            "{} pairs, expected 1..={max_pairs}",
            result.dataset_size
        ));
    }
    if artifacts.epoch_stats.len() != epochs {
        return Err(format!(
            "{} epochs, expected {epochs}",
            artifacts.epoch_stats.len()
        ));
    }
    if !artifacts.epoch_stats.iter().all(|s| s.loss.is_finite()) {
        return Err("non-finite DPO loss".into());
    }
    let checkpoints = 1 + epochs / cfg.checkpoint_every.max(1);
    if artifacts.checkpoint_evals.len() != checkpoints {
        return Err(format!(
            "{} checkpoint evaluations, expected {checkpoints}",
            artifacts.checkpoint_evals.len()
        ));
    }
    Ok(())
}

/// `feedback`: a pass is one `DpoAf::score_formal` per request of a
/// batch, on a fresh `DpoAf`, so that every pass starts with an empty
/// verdict cache as a pipeline run does; set-up is that `DpoAf::new`.
/// The run samples `batches` batches of `per_task` responses per training
/// task from the model `gen::feedback_model` pretrains under `cfg`
/// before anything is measured.
pub fn feedback(plan: &Plan, cfg: PipelineConfig, batches: usize, per_task: usize) -> Outcome {
    let inputs: Vec<Vec<Request>> = {
        let _s = obskit::span("bench.inputs");
        let af = DpoAf::new(cfg.clone());
        let lm = gen::feedback_model(&af);
        let mut rng = StdRng::seed_from_u64(plan.seed);
        (0..batches)
            .map(|_| gen::sample_responses(&af, &lm, per_task, &mut rng))
            .collect()
    };
    let mut out = Outcome::new(inputs.iter().map(Vec::len).collect(), !plan.traced);
    let mut first_scores: Vec<Option<Vec<usize>>> = vec![None; batches];
    start_measuring(plan.traced);
    while let Some(batch) = out.next_batch(plan) {
        let requests = &inputs[batch];
        reset_peak_rss();
        let (af, setup_s) = measured(plan.traced, &mut out.setup_counters, || {
            DpoAf::new(cfg.clone())
        });
        let mut scores = Vec::with_capacity(requests.len());
        let op_ms = &mut out.op_ms;
        let (done, pass_s) = measured(plan.traced, &mut out.pass_counters, || {
            catch_unwind(AssertUnwindSafe(|| {
                for request in requests {
                    let started = plan.traced.then(Instant::now);
                    let score = {
                        let _s = obskit::span("pipeline.score");
                        af.score_formal(&af.bundle.tasks[request.task], &request.text)
                    };
                    scores.push(score);
                    if let Some(started) = started {
                        op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }))
        });
        let scale = out.end_pass(batch, pass_s);
        out.setup_s.push(setup_s * scale);
        let _check = obskit::span("bench.check");
        if done.is_err() {
            out.fail(
                requests.len(),
                format!("pass {} (batch {batch}) panicked", out.passes()),
            );
            continue;
        }
        match &first_scores[batch] {
            None => {
                check_scores(&af, requests, &scores, &mut out);
                first_scores[batch] = Some(scores);
            }
            Some(first) => {
                let changed = first.iter().zip(&scores).filter(|(a, b)| a != b).count();
                if changed > 0 {
                    out.fail(
                        changed,
                        format!("batch {batch}: {changed} scores differ from its first pass"),
                    );
                }
            }
        }
    }
    out
}

/// Identical requests must score identically, and every
/// [`CERTIFY_EVERY`]th distinct one must score the same when re-scored
/// with `score_response_certified`, where certkit validates every
/// verdict behind the score (a panic counts as a failure).
fn check_scores(af: &DpoAf, requests: &[Request], scores: &[usize], out: &mut Outcome) {
    let mut first: HashMap<_, usize> = HashMap::new();
    let mut distinct = Vec::new();
    for (request, &score) in requests.iter().zip(scores) {
        let key = (
            af.bundle.tasks[request.task].scenario,
            request.text.as_str(),
        );
        match first.get(&key) {
            None => {
                first.insert(key, score);
                distinct.push((request, score));
            }
            Some(&earlier) if earlier != score => out.fail(
                1,
                format!("`{}` scored {score}, and {earlier} before", request.text),
            ),
            Some(_) => {}
        }
    }
    for &(request, score) in distinct.iter().step_by(CERTIFY_EVERY) {
        let task = &af.bundle.tasks[request.task];
        let certified = catch_unwind(AssertUnwindSafe(|| {
            score_response_certified(&af.bundle, task, &request.text)
                .0
                .num_satisfied
        }));
        match certified {
            Ok(certified) if certified == score => {}
            Ok(certified) => out.fail(
                1,
                format!(
                    "`{}` scored {score} timed, {certified} certified",
                    request.text
                ),
            ),
            Err(_) => out.fail(
                1,
                format!("certified scoring of `{}` panicked", request.text),
            ),
        }
    }
}

/// `train`: a pass is one DPO phase — `DpoTrainer::train_in` over
/// `dataset` for the configured epochs, from the pretrained model and
/// against it as the reference, as the first DPO-AF iteration trains —
/// and an operation is one epoch. Set-up is `DpoAf::new` plus
/// pretraining.
pub fn train(plan: &Plan, cfg: PipelineConfig, dataset: &PreferenceDataset) -> Outcome {
    let mut out = Outcome::new(vec![cfg.train.epochs], !plan.traced);
    start_measuring(plan.traced);
    let repeats = if plan.traced { 1 } else { TRAIN_SETUP_REPEATS };
    let mut built = None;
    for _ in 0..repeats {
        let (pair, setup_s) = measured(plan.traced, &mut out.setup_counters, || {
            let af = DpoAf::new(cfg.clone());
            let lm = af.pretrained_lm(&mut StdRng::seed_from_u64(cfg.seed));
            (af, lm)
        });
        let scale = out.clock.tick();
        out.setup_s.push(setup_s * scale);
        built = Some(pair);
    }
    let (af, pretrained) = built.expect("set-up ran at least once");

    let trainer = DpoTrainer::new(cfg.train);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    while let Some(batch) = out.next_batch(plan) {
        let mut policy = pretrained.clone();
        reset_peak_rss();
        let op_ms = &mut out.op_ms;
        let (stats, pass_s) = measured(plan.traced, &mut out.pass_counters, || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut epoch_started = Instant::now();
                trainer.train_in(
                    &mut policy,
                    &pretrained,
                    dataset,
                    &mut rng,
                    |_, _| {
                        op_ms.push(epoch_started.elapsed().as_secs_f64() * 1e3);
                        epoch_started = Instant::now();
                    },
                    Some(af.pool()),
                )
            }))
        });
        out.end_pass(batch, pass_s);
        let _check = obskit::span("bench.check");
        let pass = out.passes();
        match stats {
            Ok(Ok(stats)) => {
                if let Err(problem) = check_phase(&stats, cfg.train.epochs) {
                    out.fail(cfg.train.epochs, format!("pass {pass}: {problem}"));
                }
            }
            Ok(Err(e)) => out.fail(cfg.train.epochs, format!("pass {pass}: {e}")),
            Err(_) => out.fail(cfg.train.epochs, format!("pass {pass} panicked")),
        }
    }
    out
}

/// All `epochs` epochs ran, every loss is finite, and the mean loss of
/// the last ten epochs is below that of the first ten (first and last
/// epoch when there are fewer than twenty).
fn check_phase(stats: &[EpochStats], epochs: usize) -> Result<(), String> {
    if stats.len() != epochs || stats.is_empty() {
        return Err(format!("{} epochs, expected {epochs}", stats.len()));
    }
    if let Some(bad) = stats.iter().find(|s| !s.loss.is_finite()) {
        return Err(format!("epoch {} loss is {}", bad.epoch, bad.loss));
    }
    let k = if stats.len() >= 20 { 10 } else { 1 };
    let mean = |s: &[EpochStats]| s.iter().map(|e| e.loss).sum::<f32>() / s.len() as f32;
    let (first, last) = (mean(&stats[..k]), mean(&stats[stats.len() - k..]));
    if last < first {
        Ok(())
    } else {
        Err(format!(
            "loss did not fall: {first} over the first {k} epochs, {last} over the last {k}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpo_af::domain::DomainBundle;

    /// One round: a zero window stops once every batch has had a pass.
    const ONE_ROUND: Plan = Plan {
        seed: 3,
        window: Duration::ZERO,
        traced: false,
    };

    fn assert_correct(out: &Outcome, ops: u64) {
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted(), ops);
        assert!(out.pass_s.iter().all(|passes| passes.len() == 1));
        assert!(out.median_setup_s() > 0.0 && out.ops_per_s() > 0.0 && out.peak_rss_mib() > 0.0);
    }

    #[test]
    fn pipeline_passes_its_checks_at_smoke_size() {
        assert_correct(&pipeline(&ONE_ROUND, PipelineConfig::smoke()), 1);
    }

    #[test]
    fn feedback_passes_its_checks_at_a_tiny_size() {
        let cfg = PipelineConfig::smoke();
        let tasks = DpoAf::new(cfg.clone()).training_tasks().len() as u64;
        let out = feedback(&ONE_ROUND, cfg, 2, 3);
        assert_correct(&out, 2 * 3 * tasks);
        assert_eq!(out.setup_s.len(), 2, "a fresh DpoAf per pass");
    }

    #[test]
    fn rounds_visit_every_batch_and_throughput_uses_batch_medians() {
        let plan = Plan {
            window: Duration::from_secs(7),
            ..ONE_ROUND
        };
        let mut out = Outcome::new(vec![2, 3], false);
        let mut order = Vec::new();
        for pass_s in [1.0, 1.0, 3.0, 1.0, 2.0, 1.0] {
            let batch = out.next_batch(&plan).expect("the window is not reached");
            order.push(batch);
            assert_eq!(out.end_pass(batch, pass_s), 1.0);
        }
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(out.next_batch(&plan), None, "9 s measured, round complete");
        assert_eq!(out.attempted(), 15);
        // Medians 2 s and 1 s: 5 operations per 3 s.
        assert_eq!(out.ops_per_s(), 5.0 / 3.0);
    }

    #[test]
    fn train_passes_its_checks_at_a_tiny_size() {
        let mut cfg = PipelineConfig::smoke();
        cfg.train.epochs = 20;
        let bundle = DomainBundle::new();
        let pairs =
            gen::preference_pairs(&bundle, &[0, 1, 2, 3], 40, &mut StdRng::seed_from_u64(2));
        let out = train(&ONE_ROUND, cfg, &pairs);
        assert_correct(&out, 20);
        assert_eq!(out.setup_s.len(), TRAIN_SETUP_REPEATS);
        assert_eq!(out.op_ms.len(), 20, "one latency per epoch");
    }

    #[test]
    fn checks_reject_wrong_outputs() {
        let epoch = |epoch, loss| EpochStats {
            epoch,
            loss,
            accuracy: 0.5,
            margin: 0.0,
        };
        let falling: Vec<EpochStats> = (0..20).map(|e| epoch(e, 1.0 - e as f32 / 40.0)).collect();
        assert!(check_phase(&falling, 20).is_ok());
        assert!(check_phase(&falling, 21).is_err());
        let rising: Vec<EpochStats> = (0..20).map(|e| epoch(e, 0.5 + e as f32 / 40.0)).collect();
        assert!(check_phase(&rising, 20).is_err());
        let mut broken = falling;
        broken[7].loss = f32::NAN;
        assert!(check_phase(&broken, 20).is_err());
        assert!(check_phase(&[], 0).is_err());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.99), 5.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
