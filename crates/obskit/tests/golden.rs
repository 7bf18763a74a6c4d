//! Golden-file tests for the `BENCH_<name>.json` schema.
//!
//! The serialized report is byte-compared against a committed golden
//! file: any change to key order, number formatting, or structure is a
//! schema change and must be deliberate (bump `obskit::report::SCHEMA`
//! or regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p obskit --test golden`). The committed
//! benchmark reports must keep validating under the current marker.

use obskit::metrics::MetricsSnapshot;
use obskit::report::{validate, Requirements};
use obskit::{BenchReport, SpanNode};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/BENCH_golden.json"
);

/// A fully deterministic report (no clocks, no registry).
fn sample_report() -> BenchReport {
    BenchReport {
        bench: "golden".into(),
        args: vec!["--fast".into()],
        wall_ms: 125.5,
        metrics: MetricsSnapshot {
            counters: vec![
                ("ltlcheck.product_states".into(), 420),
                ("pipeline.pairs_formed".into(), 96),
            ],
            gauges: vec![("pretrain.tokens_per_sec".into(), 81000.0)],
        },
        spans: vec![SpanNode {
            name: "pipeline.run".into(),
            count: 1,
            total_us: 120_000,
            max_us: 120_000,
            alloc_count: 12,
            alloc_bytes: 4_096,
            children: vec![SpanNode {
                name: "pipeline.verify".into(),
                count: 30,
                total_us: 90_000,
                max_us: 9_000,
                alloc_count: 0,
                alloc_bytes: 0,
                children: Vec::new(),
            }],
        }],
    }
}

#[test]
fn report_matches_golden_file() {
    let rendered = sample_report().to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("golden file writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "BENCH report serialization drifted from the golden file; if the \
         schema change is deliberate, regenerate with UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

#[test]
fn golden_file_validates_against_schema() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let req = Requirements {
        metrics: vec![
            "ltlcheck.product_states".into(),
            "pipeline.pairs_formed".into(),
            "pretrain.tokens_per_sec".into(),
        ],
        spans: vec!["pipeline.run".into(), "pipeline.verify".into()],
    };
    assert_eq!(validate(&golden, &req), Ok(()));
}

#[test]
fn missing_requirements_are_reported() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let req = Requirements {
        metrics: vec!["no.such.metric".into()],
        spans: vec!["no.such.span".into()],
    };
    let problems = validate(&golden, &req).expect_err("must fail");
    assert_eq!(problems.len(), 2);
    assert!(problems[0].contains("no.such.metric"));
    assert!(problems[1].contains("no.such.span"));
}

#[test]
fn committed_reports_still_validate() {
    for report in [
        "results/BENCH_headline.json",
        "results/BENCH_headline_fast.json",
        "perfbench/results/BENCH_perf_pipeline.json",
        "perfbench/results/BENCH_perf_feedback.json",
        "perfbench/results/BENCH_perf_train.json",
    ] {
        let path = format!("{}/../../{report}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed report present");
        assert_eq!(
            validate(&text, &Requirements::default()),
            Ok(()),
            "{report}"
        );
    }
}
