//! Ablation A2 — LoRA rank sweep (paper Appendix E motivates low-rank
//! adaptation): DPO quality and cost as a function of adapter rank,
//! against full fine-tuning. The quality table on stdout depends only on
//! the seeds; the wall times go to stderr.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]
#![allow(clippy::field_reassign_with_default, reason = "configs tweak Default")]

use bench::{table, BenchCli};
use dpo::DpoTrainer;
use dpo_af::pipeline::{DpoAf, PipelineConfig};
use obskit::progress;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tinylm::AdaptMode;

fn main() {
    let cli = BenchCli::parse("ablation_lora");
    let mut cfg = PipelineConfig::default();
    cfg.lora_rank = 0; // pretrain in Full mode; adapters attached per arm
    if cli.fast {
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
        cfg.train.epochs = 15;
    } else {
        cfg.train.epochs = 60;
    }
    let pipeline = DpoAf::new(cfg);
    let mut rng = StdRng::seed_from_u64(pipeline.config.seed);
    progress!("pretraining the base model …");
    let base = pipeline.pretrained_lm(&mut rng);
    progress!("collecting a shared preference dataset …");
    let dataset = pipeline.collect_dataset(&base, &mut rng);
    println!("shared dataset: {} pairs\n", dataset.len());

    let trainer = DpoTrainer::new(pipeline.config.train);
    let mut rows = Vec::new();
    let mut timings = Vec::new();
    for rank in [0usize, 1, 2, 4, 8] {
        let reference = if rank == 0 {
            base.clone()
        } else {
            base.convert_adapt(AdaptMode::Lora { rank }, &mut rng)
        };
        let mut policy = reference.clone();
        let mut seed_rng = StdRng::seed_from_u64(99);
        let t0 = Instant::now();
        let stats = trainer
            .train(&mut policy, &reference, &dataset, &mut seed_rng, |_, _| {})
            .expect("dataset in vocabulary");
        let elapsed = t0.elapsed();
        let last = stats.last().expect("at least one epoch");
        let mode = if rank == 0 {
            "full".to_owned()
        } else {
            format!("lora r={rank}")
        };
        timings.push(vec![mode.clone(), format!("{elapsed:.2?}")]);
        rows.push(vec![
            mode,
            policy.num_trainable().to_string(),
            format!("{:.4}", last.loss),
            format!("{:.3}", last.accuracy),
            format!("{:.2}", last.margin),
        ]);
    }
    println!(
        "{}",
        table(
            "A2 — DPO after a fixed epoch budget, by adaptation mode",
            &[
                "mode",
                "trainable params",
                "final loss",
                "final accuracy",
                "final margin"
            ],
            &rows
        )
    );
    eprintln!(
        "{}",
        table("A2 — DPO wall time", &["mode", "wall time"], &timings)
    );
    cli.finish();
}
