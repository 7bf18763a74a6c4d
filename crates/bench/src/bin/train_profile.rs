//! Profiles the DPO training fast path in isolation: pretrain once,
//! collect one preference dataset, then time the DPO phase alone under
//! the chosen performance knobs (`--threads`, `--kernel-mode`). The
//! headline bench times the whole pipeline; this binary isolates
//! `pipeline.train` so the reference-cache, batched-tape and per-pair
//! fan-out optimizations can be measured without the (dominant at low
//! thread counts, amortized) verification fan-out in the way.
//!
//! Prints the `dpo.*` child-span breakdown (`dpo.ref`, `dpo.forward`,
//! `dpo.backward`) plus the tape/cache counters, and records everything
//! in the usual `--metrics-out` report.

#![allow(clippy::expect_used)] // ALLOW: profiling binary — panicking on a broken setup is the gate.

use bench::{table, BenchCli};
use dpo::DpoTrainer;
use dpo_af::pipeline::DpoAf;
use obskit::progress;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Sums `total_us` over every node named `name` in the span forest
/// (spans from pool workers root at their thread, so the same name can
/// appear under several parents).
fn span_total_ms(nodes: &[obskit::SpanNode], name: &str) -> f64 {
    let mut total = 0u64;
    let mut stack: Vec<&obskit::SpanNode> = nodes.iter().collect();
    while let Some(n) = stack.pop() {
        if n.name == name {
            total += n.total_us;
        }
        stack.extend(n.children.iter());
    }
    total as f64 / 1e3
}

fn main() {
    let cli = BenchCli::parse("train_profile");
    let cfg = cli.pipeline_config();
    let pipeline = DpoAf::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    progress!("pretraining the base model …");
    let reference = pipeline.pretrained_lm(&mut rng);
    progress!("collecting one preference dataset …");
    let dataset = pipeline.collect_dataset(&reference, &mut rng);
    assert!(!dataset.is_empty(), "no strict preferences collected");

    let trainer = DpoTrainer::new(cfg.train);
    let mut policy = reference.clone();
    progress!(
        "training: {} epochs over {} pairs (threads {}, kernels {}) …",
        cfg.train.epochs,
        dataset.len(),
        pipeline.pool().threads(),
        cfg.kernel_mode,
    );
    let started = Instant::now();
    let stats = {
        let _stage = obskit::span("pipeline.train");
        trainer
            .train_in(
                &mut policy,
                &reference,
                &dataset,
                &mut rng,
                |_, _| {},
                Some(pipeline.pool()),
            )
            .expect("dataset uses model vocabulary")
    };
    let train_secs = started.elapsed().as_secs_f64();
    let last = stats.last().expect("at least one epoch");

    let snapshot = cli.finish();
    let counter = |name: &str| {
        snapshot
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let gauge = |name: &str| {
        snapshot
            .metrics
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let ms = |name: &str| span_total_ms(&snapshot.spans, name);
    let rows = vec![
        vec!["train wall (s)".into(), format!("{train_secs:.2}")],
        vec!["dpo.ref (ms)".into(), format!("{:.1}", ms("dpo.ref"))],
        vec![
            "dpo.forward (ms)".into(),
            format!("{:.1}", ms("dpo.forward")),
        ],
        vec![
            "dpo.backward (ms)".into(),
            format!("{:.1}", ms("dpo.backward")),
        ],
        vec![
            "dpo.tokens_per_sec".into(),
            format!("{:.0}", gauge("dpo.tokens_per_sec")),
        ],
        vec![
            "dpo.ref_cache_hits".into(),
            counter("dpo.ref_cache_hits").to_string(),
        ],
        vec!["tape.nodes".into(), counter("tape.nodes").to_string()],
        vec![
            "tape.grad_buffer_reuses".into(),
            counter("tape.grad_buffer_reuses").to_string(),
        ],
        vec!["final epoch loss".into(), format!("{:.4}", last.loss)],
        vec!["final accuracy".into(), format!("{:.3}", last.accuracy)],
    ];
    println!(
        "{}",
        table(
            &format!(
                "train_profile — {} epochs, {} pairs",
                stats.len(),
                dataset.len()
            ),
            &["metric", "value"],
            &rows,
        )
    );
}
