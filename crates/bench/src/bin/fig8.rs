//! Figure 8: DPO fine-tuning statistics (loss, accuracy, marginal
//! preference) per epoch, mean with min/max band over five seeds.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]

use bench::{table, BenchCli};
use dpo_af::experiments::fig8;
use dpo_af::pipeline::{DpoAf, PipelineConfig};
use obskit::progress;

fn main() {
    let cli = BenchCli::parse("fig8");
    let mut cfg = PipelineConfig::default();
    if cli.fast {
        cfg.train.epochs = 20;
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
    } else {
        // Figure 8 plots a single 200-epoch DPO phase.
        cfg.train.epochs = 200;
    }
    let pipeline = DpoAf::new(cfg);
    let seeds: &[u64] = &[11, 22, 33, 44, 55];
    progress!(
        "running DPO over {} seeds × {} epochs …",
        seeds.len(),
        pipeline.config.train.epochs
    );
    let result = fig8::run(&pipeline, seeds);

    println!(
        "dataset: {} preference pairs, {} seeds\n",
        result.dataset_size,
        seeds.len()
    );
    let stride = (result.aggregated.len() / 20).max(1);
    let rows: Vec<Vec<String>> = result
        .aggregated
        .iter()
        .filter(|p| p.epoch % stride == 0 || p.epoch + 1 == result.aggregated.len())
        .map(|p| {
            vec![
                p.epoch.to_string(),
                format!("{:.4} [{:.4}, {:.4}]", p.loss.0, p.loss.1, p.loss.2),
                format!(
                    "{:.3} [{:.3}, {:.3}]",
                    p.accuracy.0, p.accuracy.1, p.accuracy.2
                ),
                format!("{:.3} [{:.3}, {:.3}]", p.margin.0, p.margin.1, p.margin.2),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            "Figure 8 — DPO statistics, mean [min, max] over seeds",
            &["epoch", "loss", "accuracy", "marginal preference"],
            &rows
        )
    );
    let last = result.aggregated.last().expect("non-empty");
    println!(
        "final: loss {:.4}, accuracy {:.3}, margin {:.3}",
        last.loss.0, last.accuracy.0, last.margin.0
    );
    obskit::gauge_set("fig8.final_loss", f64::from(last.loss.0));
    obskit::gauge_set("fig8.final_accuracy", f64::from(last.accuracy.0));
    cli.finish();
}
