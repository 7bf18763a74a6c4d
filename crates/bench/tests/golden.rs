//! Golden-file test for the `BENCH_<name>.json` schema.
//!
//! The serialized report is byte-compared against a committed golden
//! file: any change to key order, number formatting, or structure is a
//! schema change and must be deliberate (bump `obskit::report::SCHEMA`
//! or regenerate the golden with `UPDATE_GOLDEN=1 cargo test -p bench`).

use obskit::metrics::{BucketCount, HistogramSnapshot, MetricsSnapshot};
use obskit::report::{validate, Requirements};
use obskit::{BenchReport, SpanNode};

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
            histograms: vec![(
                "ltlcheck.lasso_len".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 21,
                    min: Some(3),
                    max: Some(12),
                    buckets: vec![
                        BucketCount {
                            lo: 2,
                            hi: 4,
                            count: 1,
                        },
                        BucketCount {
                            lo: 4,
                            hi: 8,
                            count: 1,
                        },
                        BucketCount {
                            lo: 8,
                            hi: 16,
                            count: 1,
                        },
                    ],
                },
            )],
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
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/BENCH_golden.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("golden file writable");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "BENCH report serialization drifted from the golden file; if the \
         schema change is deliberate, regenerate with UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

#[test]
fn golden_file_validates_against_schema() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/BENCH_golden.json"
    ))
    .expect("golden file present");
    let req = Requirements {
        metrics: vec![
            "ltlcheck.product_states".into(),
            "pipeline.pairs_formed".into(),
            "ltlcheck.lasso_len".into(),
        ],
        spans: vec!["pipeline.run".into(), "pipeline.verify".into()],
    };
    assert_eq!(validate(&golden, &req), Ok(()));
}
