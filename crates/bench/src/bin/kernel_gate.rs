//! CI gate for the kernel modes (DESIGN.md §13).
//!
//! Two checks, each over the real sequence graphs rather than kernel
//! micro-inputs, so the whole fused forward/backward composition is
//! under test:
//!
//! 1. **Fast-mode tolerance, per sequence**: forward log-likelihoods and
//!    full parameter gradients from pinned `fast` workspaces must stay
//!    within an explicit absolute/relative envelope of pinned
//!    `reference` workspaces across a spread of sequence lengths. Fast
//!    mode reassociates accumulation and contracts to FMA — it is the
//!    one deliberate exception to the repo's byte-identity rule, and
//!    this gate is what bounds the exception.
//! 2. **Fast-mode tolerance, end to end**: a short DPO training run on
//!    a fixed synthetic preference set under each mode; final weights
//!    must agree within a generous envelope (per-step deviations
//!    compound through the optimizer, so this bound is looser).
//!
//! Exit codes: 0 = both gates hold, 1 = tolerance exceeded.

#![allow(clippy::expect_used)] // ALLOW: gate binary — panicking on a broken setup is the gate.

use bench::{table, BenchCli};
use dpo::{DpoTrainer, PreferenceDataset, PreferencePair, TrainOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use tinylm::{AdaptMode, CondLm, KernelMode, LmConfig, SeqWorkspace};

/// Max |a-b| scaled by max(1, |a|, |b|) over a pair of slices.
fn max_rel_dev(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let scale = f64::from(x.abs().max(y.abs())).max(1.0);
            (f64::from(x) - f64::from(y)).abs() / scale
        })
        .fold(0.0, f64::max)
}

/// A mid-size model (full-rank so every parameter gets a gradient) and
/// a deterministic batch of ragged sequences exercising every kernel
/// shape: short, long, and empty-context starts.
fn setup() -> (CondLm, Vec<(usize, Vec<tinylm::Token>)>) {
    let cfg = LmConfig {
        vocab_size: 40,
        num_tasks: 3,
        adapt: AdaptMode::Full,
        ..LmConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(41);
    let model = CondLm::new(cfg, &mut rng);
    let seqs = (0..12)
        .map(|i| {
            let len = 1 + (i * 5) % 11;
            let toks = (0..len)
                .map(|_| rng.gen_range(3..40u32))
                .collect::<Vec<_>>();
            (i % 3, toks)
        })
        .collect();
    (model, seqs)
}

/// Fixed synthetic preference set for the end-to-end check.
fn preference_set() -> PreferenceDataset {
    let mut ds = PreferenceDataset::new();
    for t in 0..12u32 {
        ds.push(PreferencePair {
            task: (t % 3) as usize,
            winner: vec![3 + (t % 7), 10, 4 + (t % 5)],
            loser: vec![20 + (t % 9), 15, 30 + (t % 4), 7],
        });
    }
    ds
}

/// Trains a clone of `policy` with the process-global kernel mode set
/// to `mode` and returns the final parameters.
fn train_under(mode: KernelMode, policy: &CondLm, ds: &PreferenceDataset) -> Vec<f32> {
    tinylm::kernels::set_mode(mode);
    let trainer = DpoTrainer::new(TrainOptions {
        epochs: 4,
        pairs_per_epoch: Some(8),
        batch_size: 4,
        ..TrainOptions::default()
    });
    let mut p = policy.clone();
    let mut rng = StdRng::seed_from_u64(17);
    trainer
        .train_in(&mut p, policy, ds, &mut rng, |_, _| {}, None)
        .expect("dataset uses model vocabulary");
    tinylm::kernels::set_mode(KernelMode::Reference);
    p.params().to_vec()
}

// Tolerances. Per-sequence deviations come from reassociated f32 dots
// (≈ lanes · ulp per accumulation step); the end-to-end bound is looser
// because Adam steps compound per-batch deviations multiplicatively.
const VALUE_TOL: f64 = 1e-5;
const GRAD_TOL: f64 = 1e-4;
const TRAIN_TOL: f64 = 5e-3;

fn main() -> ExitCode {
    let cli = BenchCli::parse("kernel_gate");
    let (model, seqs) = setup();

    // Gate 1: pinned-mode workspaces, per-sequence value + gradient.
    let mut ws_ref = SeqWorkspace::with_mode(KernelMode::Reference);
    let mut ws_fast = SeqWorkspace::with_mode(KernelMode::Fast);
    let mut value_dev = 0.0f64;
    let mut grad_dev = 0.0f64;
    for (task, toks) in &seqs {
        ws_ref.reset();
        ws_fast.reset();
        let g_ref = model
            .seq_forward_in(*task, toks, &mut ws_ref)
            .expect("valid sequence");
        let g_fast = model
            .seq_forward_in(*task, toks, &mut ws_fast)
            .expect("valid sequence");
        value_dev = value_dev.max(max_rel_dev(&[g_ref.value()], &[g_fast.value()]));
        let d_ref = model.seq_grad_in(&g_ref, &mut ws_ref);
        let d_fast = model.seq_grad_in(&g_fast, &mut ws_fast);
        grad_dev = grad_dev.max(max_rel_dev(&d_ref.0, &d_fast.0));
    }

    // Gate 2: end-to-end training under each mode.
    let ds = preference_set();
    let p_ref = train_under(KernelMode::Reference, &model, &ds);
    let p_fast = train_under(KernelMode::Fast, &model, &ds);
    let train_dev = max_rel_dev(&p_ref, &p_fast);

    let verdict = |dev: f64, tol: f64| {
        if dev <= tol {
            "ok"
        } else {
            "FAIL"
        }
    };
    let rows = vec![
        vec![
            "fast value dev (rel)".into(),
            format!("{value_dev:.2e}"),
            format!("<= {VALUE_TOL:.0e}"),
            verdict(value_dev, VALUE_TOL).into(),
        ],
        vec![
            "fast grad dev (rel)".into(),
            format!("{grad_dev:.2e}"),
            format!("<= {GRAD_TOL:.0e}"),
            verdict(grad_dev, GRAD_TOL).into(),
        ],
        vec![
            "fast trained-params dev (rel)".into(),
            format!("{train_dev:.2e}"),
            format!("<= {TRAIN_TOL:.0e}"),
            verdict(train_dev, TRAIN_TOL).into(),
        ],
    ];
    println!(
        "{}",
        table(
            "kernel_gate — reference vs fast",
            &["check", "observed", "bound", "verdict"],
            &rows,
        )
    );
    let _ = cli.finish();

    if value_dev > VALUE_TOL || grad_dev > GRAD_TOL || train_dev > TRAIN_TOL {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
