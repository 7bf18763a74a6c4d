//! A miniature end-to-end DPO-AF run: pretrain the small language model,
//! collect verification-ranked preferences, fine-tune with DPO, and
//! print the before/after specification-satisfaction scores.
//!
//! This is the full pipeline at toy scale (≈1 minute in release mode).
//! The `bench` crate's `fig9`/`headline` binaries run the paper-scale
//! configuration.
//!
//! Run with: `cargo run --release --example fine_tune_small`

#![allow(clippy::field_reassign_with_default, reason = "configs tweak Default")]

use dpo_af::pipeline::{DpoAf, PipelineConfig};
use tinylm::SampleOptions;

#[allow(clippy::expect_used, reason = "task 0 exists in the shipped bundle")]
fn main() {
    let mut cfg = PipelineConfig::default();
    cfg.corpus_size = 400;
    cfg.pretrain.epochs = 4;
    cfg.train.epochs = 25;
    cfg.iterations = 2;
    cfg.checkpoint_every = 10;
    cfg.eval_samples = 3;

    let pipeline = DpoAf::new(cfg);
    println!("pretraining + fine-tuning (this takes a moment) …\n");
    let artifacts = pipeline.run();

    println!("preference pairs collected: {}", artifacts.dataset_size);
    println!("\nspecifications satisfied (of 15) at each checkpoint:");
    for e in &artifacts.checkpoint_evals {
        println!(
            "  epoch {:>3}: train {:>5.2}  validation {:>5.2}",
            e.epoch, e.train_score, e.val_score
        );
    }

    // Show an actual response from each model.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let opts = SampleOptions {
        temperature: 0.6,
        max_len: 60,
        ..SampleOptions::default()
    };
    let task = &pipeline.bundle.tasks[0];
    let before = artifacts
        .reference
        .sample(task.id, &mut rng, opts)
        .expect("task exists");
    let after = artifacts
        .policy
        .sample(task.id, &mut rng, opts)
        .expect("task exists");
    println!("\ntask: {}", task.prompt);
    println!("before: {}", pipeline.bundle.decode(&before));
    println!("after:  {}", pipeline.bundle.decode(&after));
}
