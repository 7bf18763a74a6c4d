//! Ablation A4 — Algorithm 1's pruning step vs the "conservative
//! perspective" (paper §4.1): keeping all `2^|P|` candidate states avoids
//! missing transitions but "will significantly increase the computation
//! cost for formal verification". This binary quantifies the blow-up:
//! the sizes on stdout depend on nothing but the models; the timings go
//! to stderr.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]

use autokit::{PropSet, WorldModelBuilder};
use bench::{table, BenchCli};
use dpo_af::domain::DomainBundle;
use dpo_af::experiments::demo::RIGHT_TURN_AFTER;
use glm2fsa::synthesize;
use ltlcheck::specs::driving_specs;
use ltlcheck::verify_all_fair;
use std::time::Instant;

fn main() {
    let cli = BenchCli::parse("ablation_conservative");
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let ctrl =
        synthesize("turn right", &RIGHT_TURN_AFTER, &bundle.lexicon).expect("paper demo aligns");
    let specs = driving_specs(d);

    // Pruned: the preset traffic-light model (single-change dynamics over
    // the scenario's five relevant propositions).
    let pruned = d.traffic_light_model();

    // Conservative: every subset of the five relevant propositions as a
    // state, with every transition allowed (nothing pruned, nothing
    // assumed about the dynamics).
    let props = [
        d.green_tl,
        d.car_left,
        d.opposite_car,
        d.ped_right,
        d.ped_front,
    ];
    let labels: Vec<PropSet> = (0..(1u32 << props.len()))
        .map(|mask| {
            let mut l = PropSet::empty();
            for (i, &p) in props.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    l.insert(p);
                }
            }
            l
        })
        .collect();
    let conservative = WorldModelBuilder::new(&d.vocab)
        .name("traffic light (conservative)")
        .restrict_labels(labels)
        .allow_transitions(|_, _| true)
        .conservative()
        .build();

    let mut rows = Vec::new();
    let mut timings = Vec::new();
    for (name, model) in [
        ("pruned (Algorithm 1)", &pruned),
        ("conservative", &conservative),
    ] {
        let t0 = Instant::now();
        let product = autokit::Product::build(model, &ctrl);
        let build_time = t0.elapsed();
        let t1 = Instant::now();
        let report = verify_all_fair(
            model,
            &ctrl,
            specs.iter().map(|s| (s.name.as_str(), &s.formula)),
            &[],
        );
        let verify_time = t1.elapsed();
        rows.push(vec![
            name.to_owned(),
            model.num_states().to_string(),
            model.num_transitions().to_string(),
            product.num_states().to_string(),
            product.num_edges().to_string(),
            format!("{}/15", report.num_satisfied()),
        ]);
        timings.push(vec![
            name.to_owned(),
            format!("{build_time:.2?}"),
            format!("{verify_time:.2?}"),
        ]);
    }
    println!(
        "{}",
        table(
            "A4 — pruned vs conservative world-model construction (no fairness)",
            &[
                "model",
                "|Q_M|",
                "|δ_M|",
                "product states",
                "product edges",
                "specs satisfied"
            ],
            &rows
        )
    );
    eprintln!(
        "{}",
        table(
            "A4 — construction and verification time",
            &["model", "product build", "verify 15 specs"],
            &timings
        )
    );
    println!(
        "note: the conservative model admits strictly more behaviours, so its\n\
         verdicts are a lower bound on the pruned model's — at a much higher cost."
    );
    cli.finish();
}
