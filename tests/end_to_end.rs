//! End-to-end pipeline integration tests (smoke scale — the paper-scale
//! run lives in the `bench` crate's binaries).

use dpo_af::experiments::headline;
use dpo_af::pipeline::{DpoAf, PipelineConfig};

#[test]
fn pipeline_produces_consistent_artifacts() {
    let pipeline = DpoAf::new(PipelineConfig::smoke());
    let artifacts = pipeline.run();

    // DPO actually trained: loss decreased from its ln 2 start.
    let first = artifacts.epoch_stats.first().expect("epochs ran");
    let last = artifacts.epoch_stats.last().expect("epochs ran");
    assert!(last.loss <= first.loss + 1e-3);

    // Checkpoints are ordered and bounded.
    let mut prev_epoch = None;
    for e in &artifacts.checkpoint_evals {
        if let Some(p) = prev_epoch {
            assert!(e.epoch > p);
        }
        prev_epoch = Some(e.epoch);
        assert!((0.0..=15.0).contains(&e.train_score));
        assert!((0.0..=15.0).contains(&e.val_score));
    }

    // Headline extraction works on the artifacts.
    let headline = headline::from_artifacts(&artifacts);
    assert!(headline.before_pct >= 0.0 && headline.after_pct <= 100.0);
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut cfg = PipelineConfig::smoke();
        cfg.seed = seed;
        let artifacts = DpoAf::new(cfg).run();
        (
            artifacts.dataset_size,
            artifacts.policy.params().to_vec(),
            artifacts.checkpoint_evals.clone(),
        )
    };
    let (n1, p1, e1) = run(123);
    let (n2, p2, e2) = run(123);
    assert_eq!(n1, n2);
    assert_eq!(p1, p2);
    assert_eq!(format!("{e1:?}"), format!("{e2:?}"));
}

#[test]
fn preference_collection_orders_by_verification_score() {
    use dpo_af::feedback::score_response;
    let pipeline = DpoAf::new(PipelineConfig::smoke());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let lm = pipeline.pretrained_lm(&mut rng);
    let dataset = pipeline.collect_dataset(&lm, &mut rng);
    // Every pair's winner genuinely outscores its loser under re-scoring.
    for pair in &dataset.pairs {
        let task = &pipeline.bundle.tasks[pair.task];
        let bundle = &pipeline.bundle;
        let w = score_response(bundle, task, &bundle.decode(&pair.winner)).num_satisfied;
        let l = score_response(bundle, task, &bundle.decode(&pair.loser)).num_satisfied;
        assert!(w > l, "task {}: winner {w} !> loser {l}", pair.task);
    }
}
