//! Ablation A1 — feedback-source consistency (paper §5.2): does ranking
//! responses by *formal verification* agree with ranking them by
//! *empirical simulator evaluation*?
//!
//! For sampled responses we compute both scores and report pairwise rank
//! concordance (fraction of strictly-ordered response pairs on which the
//! two feedback sources agree). The paper argues the two are consistent,
//! so empirical evaluation can substitute when no world model exists.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]
#![allow(clippy::field_reassign_with_default, reason = "configs tweak Default")]

use bench::{table, BenchCli};
use dpo_af::domain::DomainBundle;
use dpo_af::feedback::{empirical_rates, score_response};
use dpo_af::pipeline::{DpoAf, PipelineConfig};
use obskit::progress;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tinylm::SampleOptions;

fn main() {
    let cli = BenchCli::parse("ablation_feedback");
    let mut cfg = PipelineConfig::default();
    let (samples, episodes) = if cli.fast {
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
        (3, 4)
    } else {
        (6, 12)
    };
    let pipeline = DpoAf::new(cfg);
    let mut rng = StdRng::seed_from_u64(pipeline.config.seed);
    progress!("pretraining the language model …");
    let lm = pipeline.pretrained_lm(&mut rng);
    let lm = lm.merged();
    let bundle: &DomainBundle = &pipeline.bundle;

    let opts = SampleOptions {
        temperature: 1.1,
        max_len: 60,
    };
    let mut rows = Vec::new();
    let mut concordant = 0usize;
    let mut discordant = 0usize;
    for task in &bundle.tasks {
        // Score each sampled response both ways.
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for _ in 0..samples {
            let tokens = lm.sample(task.id, &mut rng, opts).expect("task in range");
            let formal = score_response(bundle, task, &bundle.decode(&tokens));
            let empirical = match &formal.controller {
                None => 0.0, // unalignable: nothing to run
                Some(ctrl) => {
                    let rates = empirical_rates(bundle, task, ctrl, episodes, 40, &mut rng);
                    rates.iter().map(|(_, r)| r).sum::<f64>() / rates.len() as f64
                }
            };
            scored.push((formal.num_satisfied, empirical));
        }
        for i in 0..scored.len() {
            for j in (i + 1)..scored.len() {
                let (f1, e1) = scored[i];
                let (f2, e2) = scored[j];
                if f1 == f2 || (e1 - e2).abs() < 1e-9 {
                    continue;
                }
                if (f1 > f2) == (e1 > e2) {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
        let mean_formal = scored.iter().map(|&(f, _)| f as f64).sum::<f64>() / scored.len() as f64;
        let mean_emp = scored.iter().map(|&(_, e)| e).sum::<f64>() / scored.len() as f64;
        rows.push(vec![
            task.prompt.clone(),
            format!("{mean_formal:.2}/15"),
            format!("{mean_emp:.3}"),
        ]);
    }
    println!(
        "{}",
        table(
            "A1 — mean formal score vs mean empirical satisfaction per task",
            &["task", "formal (specs)", "empirical (mean P_Φ)"],
            &rows
        )
    );
    let total = concordant + discordant;
    let agreement = if total == 0 {
        1.0
    } else {
        concordant as f64 / total as f64
    };
    println!(
        "rank concordance between formal and empirical feedback: {:.1}% \
         ({concordant} concordant / {discordant} discordant pairs)\n",
        agreement * 100.0
    );

    // Part 2: fine-tune end-to-end under each feedback source and compare
    // the improvement — empirical feedback should substitute for formal
    // verification, the paper's §4.2 claim.
    use dpo_af::pipeline::FeedbackSource;
    let mut rows = Vec::new();
    for (label, feedback) in [
        ("formal verification", FeedbackSource::Formal),
        (
            "empirical (simulator)",
            FeedbackSource::Empirical {
                episodes: 6,
                steps: 30,
            },
        ),
    ] {
        let mut cfg = PipelineConfig::default();
        cfg.feedback = feedback;
        if cli.fast {
            cfg.corpus_size = 300;
            cfg.pretrain.epochs = 3;
            cfg.train.epochs = 10;
            cfg.iterations = 1;
            cfg.eval_samples = 2;
        } else {
            cfg.train.epochs = 40;
            cfg.iterations = 2;
        }
        // Evaluation itself always uses the configured source; report the
        // formal score for comparability by evaluating with a formal twin.
        progress!("running the pipeline with {label} feedback …");
        let run_pipeline = DpoAf::new(cfg);
        let artifacts = run_pipeline.run();
        let mut eval_cfg = PipelineConfig::default();
        eval_cfg.feedback = FeedbackSource::Formal;
        eval_cfg.eval_samples = 6;
        let eval_pipeline = DpoAf::new(eval_cfg);
        let mut eval_rng = StdRng::seed_from_u64(4242);
        let tasks: Vec<usize> = (0..eval_pipeline.bundle.tasks.len()).collect();
        let before = eval_pipeline.evaluate(&artifacts.reference, &tasks, &mut eval_rng);
        let after = eval_pipeline.evaluate(&artifacts.policy, &tasks, &mut eval_rng);
        rows.push(vec![
            label.to_owned(),
            format!("{before:.2}/15"),
            format!("{after:.2}/15"),
            artifacts.dataset_size.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            "A1 — end-to-end fine-tuning by feedback source (formal re-evaluation)",
            &["feedback source", "before", "after", "pairs"],
            &rows
        )
    );
    cli.finish();
}
