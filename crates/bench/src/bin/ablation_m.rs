//! Ablation A3 — responses per prompt: the paper samples `m` responses
//! per task and forms up to `N · C(m, 2)` preference pairs. This sweep
//! measures the realized pair yield (ties produce no pair) and the
//! quality gap between winners and losers as `m` grows.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]

use bench::{table, BenchCli};
use dpo_af::feedback::score_response;
use dpo_af::pipeline::{DpoAf, PipelineConfig};
use obskit::progress;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tinylm::SampleOptions;

fn main() {
    let cli = BenchCli::parse("ablation_m");
    let mut cfg = PipelineConfig::default();
    if cli.fast {
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
    }
    let pipeline = DpoAf::new(cfg);
    let mut rng = StdRng::seed_from_u64(pipeline.config.seed);
    progress!("pretraining the language model …");
    let lm = pipeline.pretrained_lm(&mut rng);
    let lm = lm.merged();
    let opts = SampleOptions {
        temperature: 1.1,
        max_len: 60,
    };

    let mut rows = Vec::new();
    for m in [2usize, 4, 6, 8] {
        let mut pairs = 0usize;
        let mut winner_sum = 0usize;
        let mut loser_sum = 0usize;
        for task in &pipeline.bundle.tasks {
            let scores: Vec<usize> = (0..m)
                .map(|_| {
                    let tokens = lm.sample(task.id, &mut rng, opts).expect("task in range");
                    score_response(&pipeline.bundle, task, &pipeline.bundle.decode(&tokens))
                        .num_satisfied
                })
                .collect();
            for i in 0..m {
                for j in (i + 1)..m {
                    if scores[i] != scores[j] {
                        pairs += 1;
                        winner_sum += scores[i].max(scores[j]);
                        loser_sum += scores[i].min(scores[j]);
                    }
                }
            }
        }
        let max_pairs = pipeline.bundle.tasks.len() * m * (m - 1) / 2;
        rows.push(vec![
            m.to_string(),
            format!("{pairs} / {max_pairs}"),
            if pairs > 0 {
                format!(
                    "{:.2} vs {:.2}",
                    winner_sum as f64 / pairs as f64,
                    loser_sum as f64 / pairs as f64
                )
            } else {
                "-".into()
            },
        ]);
    }
    println!(
        "{}",
        table(
            "A3 — preference-pair yield vs responses per prompt m",
            &[
                "m",
                "pairs (realized / N·C(m,2))",
                "winner vs loser mean score"
            ],
            &rows
        )
    );
    cli.finish();
}
