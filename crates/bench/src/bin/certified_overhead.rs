//! Certified-scoring overhead on the preset verification matrix.
//!
//! Certified scoring makes every verdict carry machine-checkable
//! evidence and pays for an independent validation pass. This binary
//! prices that safety margin: the full preset scenario × rule-book
//! matrix is checked three ways — plain (`holds_all_fair` per case, the
//! yes/no path that plain scoring runs), certificate-emitting
//! (`check_graph_fair_certified`), and certificate-emitting plus
//! `certkit` validation — and the wall-clock cost of each is reported.
//! The last column is what `dpo_af::feedback::score_response_certified`
//! costs per check over `score_response`.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "experiment binary")]

use bench::{table, BenchCli};
use ltlcheck::analysis::holds_all_fair;
use ltlcheck::check_graph_fair_certified;
use std::time::Instant;

fn main() {
    let cli = BenchCli::parse("certified_overhead");
    let cases = certkit::presets::preset_cases();
    let checks: usize = cases.iter().map(|c| c.specs.len()).sum();
    println!(
        "preset matrix: {} cases, {} verification checks per pass\n",
        cases.len(),
        checks
    );

    const REPS: usize = 3;

    // Translate every rule once up front, so no timed mode pays the
    // automaton cache's misses.
    for case in &cases {
        let specs = case.specs.iter().map(|s| &s.formula);
        holds_all_fair(&case.graph, specs, &case.justice);
    }

    let t = Instant::now();
    let mut holds = 0usize;
    for _ in 0..REPS {
        holds = 0;
        for case in &cases {
            let specs = case.specs.iter().map(|s| &s.formula);
            holds += holds_all_fair(&case.graph, specs, &case.justice)
                .iter()
                .filter(|&&h| h)
                .count();
        }
    }
    let plain = t.elapsed() / REPS as u32;

    let t = Instant::now();
    let mut holds_cert = 0usize;
    for _ in 0..REPS {
        holds_cert = 0;
        for case in &cases {
            for spec in &case.specs {
                if check_graph_fair_certified(&case.graph, &spec.formula, &case.justice).holds() {
                    holds_cert += 1;
                }
            }
        }
    }
    let emit = t.elapsed() / REPS as u32;

    let t = Instant::now();
    for _ in 0..REPS {
        for case in &cases {
            for spec in &case.specs {
                let certified =
                    check_graph_fair_certified(&case.graph, &spec.formula, &case.justice);
                certkit::check_certified(&case.graph, &spec.formula, &case.justice, &certified)
                    .expect("preset evidence validates");
            }
        }
    }
    let validated = t.elapsed() / REPS as u32;

    assert_eq!(holds, holds_cert, "backends must agree on every verdict");

    let rows = vec![
        vec![
            "plain (holds_all_fair)".to_owned(),
            format!("{:.1}", plain.as_secs_f64() * 1e3),
            "1.00".to_owned(),
        ],
        vec![
            "certificate-emitting".to_owned(),
            format!("{:.1}", emit.as_secs_f64() * 1e3),
            format!("{:.2}", emit.as_secs_f64() / plain.as_secs_f64()),
        ],
        vec![
            "certified + validated".to_owned(),
            format!("{:.1}", validated.as_secs_f64() * 1e3),
            format!("{:.2}", validated.as_secs_f64() / plain.as_secs_f64()),
        ],
    ];
    println!(
        "{}",
        table(
            &format!("certified-scoring overhead ({checks} checks, mean of {REPS} passes)"),
            &["mode", "ms/pass", "× plain"],
            &rows,
        )
    );
    obskit::gauge_set(
        "certified_overhead.validated_x_plain",
        validated.as_secs_f64() / plain.as_secs_f64(),
    );
    cli.finish();
}
