//! Ablation A5 — objective choice: DPO's sigmoid loss vs IPO's squared
//! regression to a fixed margin, on the same verification-ranked dataset.
//!
//! Verification feedback is deterministic (a response either satisfies a
//! rule or it does not), which is the regime IPO was designed for: DPO
//! keeps pushing the margin toward infinity while IPO settles at its
//! target. This ablation compares final metrics and margin growth.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]

use bench::{table, BenchCli};
use dpo::{dpo_loss_grad, ipo_loss_grad, PreferenceDataset};
use dpo_af::pipeline::{DpoAf, PipelineConfig};
use obskit::progress;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tinylm::optim::Adam;
use tinylm::{CondLm, GradBuffer};

/// A preference objective: maps (policy, reference, pair) to
/// (loss, accuracy, margin, gradient).
type Objective<'a> =
    Box<dyn Fn(&CondLm, &CondLm, &dpo::PreferencePair) -> (f32, f32, f32, GradBuffer) + 'a>;

/// Minimal trainer shared by both objectives so only the loss differs.
fn train(
    policy: &mut CondLm,
    reference: &CondLm,
    dataset: &PreferenceDataset,
    epochs: usize,
    per_epoch: usize,
    objective: &Objective,
) -> (f32, f32, f32) {
    let trainable = policy.trainable();
    let mut adam = Adam::new(1.5e-3, trainable.len());
    let mut rng = StdRng::seed_from_u64(77);
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    let (mut loss, mut acc, mut margin) = (0.0, 0.0, 0.0);
    for _ in 0..epochs {
        indices.shuffle(&mut rng);
        let take = per_epoch.min(indices.len());
        (loss, acc, margin) = (0.0, 0.0, 0.0);
        for batch in indices[..take].chunks(8) {
            let mut grad = GradBuffer::zeros(policy);
            for &i in batch {
                let (l, a, m, g) = objective(policy, reference, &dataset.pairs[i]);
                loss += l;
                acc += a;
                margin += m;
                grad.add_scaled(&g, 1.0 / batch.len() as f32);
            }
            adam.step(&mut policy.params_mut()[trainable.clone()], &grad.0);
        }
        loss /= take as f32;
        acc /= take as f32;
        margin /= take as f32;
    }
    (loss, acc, margin)
}

fn main() {
    let cli = BenchCli::parse("ablation_ipo");
    let mut cfg = PipelineConfig::default();
    let epochs = if cli.fast {
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
        10
    } else {
        60
    };
    let pipeline = DpoAf::new(cfg);
    let mut rng = StdRng::seed_from_u64(pipeline.config.seed);
    progress!("pretraining and collecting a shared dataset …");
    let reference = pipeline.pretrained_lm(&mut rng);
    let dataset = pipeline.collect_dataset(&reference, &mut rng);
    println!("shared dataset: {} pairs\n", dataset.len());

    let mut rows = Vec::new();
    for (name, beta_or_tau) in [("dpo (β)", 0.6f32), ("ipo (τ)", 0.6)] {
        let mut policy = reference.clone();
        let objective: Objective = if name.starts_with("dpo") {
            Box::new(move |p, r, pair| {
                let (e, g) = dpo_loss_grad(p, r, pair, beta_or_tau).expect("in range");
                (e.loss, e.correct, e.margin, g)
            })
        } else {
            Box::new(move |p, r, pair| {
                let (e, g) = ipo_loss_grad(p, r, pair, beta_or_tau).expect("in range");
                (e.loss, e.correct, e.margin, g)
            })
        };
        let (loss, acc, margin) = train(&mut policy, &reference, &dataset, epochs, 48, &objective);
        rows.push(vec![
            name.to_owned(),
            format!("{loss:.4}"),
            format!("{acc:.3}"),
            format!("{margin:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &format!("A5 — objective comparison after {epochs} epochs"),
            &["objective", "final loss", "final accuracy", "final margin"],
            &rows
        )
    );
    println!(
        "note: the losses are not comparable across objectives (different scales);\n\
         accuracy is. IPO's margin saturates near its 1/(2τ) target while DPO's grows."
    );
    cli.finish();
}
