//! The stable `BENCH_<name>.json` report schema and its validator.
//!
//! Every bench binary writes one of these via `--metrics-out`; CI, the
//! perf trajectory and the `bench_diff` regression gate consume them.
//! The schema is versioned through the `"schema"` marker — additive
//! changes keep the marker, anything that breaks a reader bumps it.
//! The writer emits `obskit.bench.v2` and the validator accepts only
//! that marker.
//!
//! ```json
//! {
//!   "schema": "obskit.bench.v2",
//!   "bench": "headline",
//!   "args": ["--fast"],
//!   "wall_ms": 1234.5,
//!   "counters": {"pipeline.pairs_formed": 96},
//!   "gauges": {"tinylm.pretrain_tokens_per_sec": 81234.0},
//!   "histograms": {
//!     "ltlcheck.lasso_len": {
//!       "count": 10, "sum": 55, "min": 2, "max": 9, "mean": 5.5,
//!       "p50": 5.0, "p90": 8.2, "p99": 9.0,
//!       "buckets": [{"lo": 2, "hi": 4, "count": 3}]
//!     }
//!   },
//!   "spans": [
//!     {"name": "pipeline.run", "count": 1, "total_ms": 1200.0,
//!      "max_ms": 1200.0, "self_ms": 10.0,
//!      "alloc_count": 420, "alloc_bytes": 1048576, "children": [...]}
//!   ]
//! }
//! ```

use crate::json::{self, Value};
use crate::metrics::MetricsSnapshot;
use crate::span::SpanNode;
use crate::Snapshot;

/// The schema marker the report writer currently emits.
pub const SCHEMA: &str = "obskit.bench.v2";

/// A complete bench report, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench name (`headline`, `fig9`, …).
    pub bench: String,
    /// Command-line arguments the run was invoked with.
    pub args: Vec<String>,
    /// Wall-clock milliseconds covered by the recorder.
    pub wall_ms: f64,
    /// Metric values at snapshot time.
    pub metrics: MetricsSnapshot,
    /// Aggregated span-timing forest.
    pub spans: Vec<SpanNode>,
}

impl BenchReport {
    /// Builds a report from a live snapshot.
    pub fn from_snapshot(bench: &str, args: &[String], snapshot: &Snapshot) -> BenchReport {
        BenchReport {
            bench: bench.to_owned(),
            args: args.to_vec(),
            wall_ms: snapshot.wall_ms,
            metrics: snapshot.metrics.clone(),
            spans: snapshot.spans.clone(),
        }
    }

    /// Serializes the report (pretty-printed, stable key order).
    pub fn to_json(&self) -> String {
        let counters = self
            .metrics
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
            .collect();
        let gauges = self
            .metrics
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        let histograms = self
            .metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| {
                        Value::Obj(vec![
                            ("lo".into(), Value::Num(b.lo as f64)),
                            ("hi".into(), Value::Num(b.hi as f64)),
                            ("count".into(), Value::Num(b.count as f64)),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("count".into(), Value::Num(h.count as f64)),
                    ("sum".into(), Value::Num(h.sum as f64)),
                ];
                if let (Some(min), Some(max)) = (h.min, h.max) {
                    fields.push(("min".into(), Value::Num(min as f64)));
                    fields.push(("max".into(), Value::Num(max as f64)));
                }
                fields.push(("mean".into(), Value::Num(h.mean())));
                if let Some((p50, p90, p99)) = h.percentiles() {
                    fields.push(("p50".into(), Value::Num(p50)));
                    fields.push(("p90".into(), Value::Num(p90)));
                    fields.push(("p99".into(), Value::Num(p99)));
                }
                fields.push(("buckets".into(), Value::Arr(buckets)));
                (k.clone(), Value::Obj(fields))
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("bench".into(), Value::Str(self.bench.clone())),
            (
                "args".into(),
                Value::Arr(self.args.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
            ("wall_ms".into(), Value::Num(self.wall_ms)),
            ("counters".into(), Value::Obj(counters)),
            ("gauges".into(), Value::Obj(gauges)),
            ("histograms".into(), Value::Obj(histograms)),
            (
                "spans".into(),
                Value::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
        ])
        .to_json_pretty()
    }
}

fn span_to_json(node: &SpanNode) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(node.name.clone())),
        ("count".into(), Value::Num(node.count as f64)),
        ("total_ms".into(), Value::Num(node.total_us as f64 / 1e3)),
        ("max_ms".into(), Value::Num(node.max_us as f64 / 1e3)),
        ("self_ms".into(), Value::Num(node.self_us() as f64 / 1e3)),
        ("alloc_count".into(), Value::Num(node.alloc_count as f64)),
        ("alloc_bytes".into(), Value::Num(node.alloc_bytes as f64)),
        (
            "children".into(),
            Value::Arr(node.children.iter().map(span_to_json).collect()),
        ),
    ])
}

/// What a report must additionally contain to pass validation.
#[derive(Debug, Clone, Default)]
pub struct Requirements {
    /// Metric names that must exist (in counters, gauges or histograms).
    pub metrics: Vec<String>,
    /// Span names that must appear somewhere in the span forest.
    pub spans: Vec<String>,
}

/// Validates a serialized report against the `obskit.bench.v2` schema
/// plus the given requirements.
///
/// # Errors
///
/// Returns every problem found (schema violations first, then missing
/// requirements); an empty `Ok(())` means the report is conformant.
pub fn validate(text: &str, req: &Requirements) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![e.to_string()]),
    };

    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => problems.push(format!("unknown schema marker `{other}`")),
        None => problems.push("missing string field `schema`".into()),
    }
    if doc.get("bench").and_then(Value::as_str).is_none() {
        problems.push("missing string field `bench`".into());
    }
    if doc.get("args").and_then(Value::as_arr).is_none() {
        problems.push("missing array field `args`".into());
    }
    match doc.get("wall_ms").and_then(Value::as_num) {
        Some(ms) if ms >= 0.0 => {}
        Some(ms) => problems.push(format!("`wall_ms` must be non-negative, got {ms}")),
        None => problems.push("missing numeric field `wall_ms`".into()),
    }

    for section in ["counters", "gauges"] {
        match doc.get(section).and_then(Value::as_obj) {
            None => problems.push(format!("missing object field `{section}`")),
            Some(fields) => {
                for (name, v) in fields {
                    match v.as_num() {
                        None => problems.push(format!("`{section}.{name}` is not a number")),
                        Some(n) if section == "counters" && (n < 0.0 || n.fract() != 0.0) => {
                            problems.push(format!(
                                "`counters.{name}` must be a non-negative integer, got {n}"
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    match doc.get("histograms").and_then(Value::as_obj) {
        None => problems.push("missing object field `histograms`".into()),
        Some(fields) => {
            for (name, h) in fields {
                validate_histogram(name, h, &mut problems);
            }
        }
    }

    match doc.get("spans").and_then(Value::as_arr) {
        None => problems.push("missing array field `spans`".into()),
        Some(nodes) => {
            for node in nodes {
                validate_span(node, &mut problems);
            }
        }
    }

    for name in &req.metrics {
        let found = ["counters", "gauges", "histograms"]
            .iter()
            .any(|s| doc.get(s).map(|o| o.get(name).is_some()).unwrap_or(false));
        if !found {
            problems.push(format!("required metric `{name}` is missing"));
        }
    }
    for name in &req.spans {
        let forest = doc.get("spans").and_then(Value::as_arr).unwrap_or(&[]);
        if !forest.iter().any(|n| span_forest_contains(n, name)) {
            problems.push(format!("required span `{name}` is missing"));
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn validate_histogram(name: &str, h: &Value, problems: &mut Vec<String>) {
    let count = h.get("count").and_then(Value::as_num);
    if count.is_none() || h.get("sum").and_then(Value::as_num).is_none() {
        problems.push(format!("histogram `{name}` lacks numeric count/sum"));
        return;
    }
    // Histograms with observations carry interpolated quantiles and
    // they must be ordered.
    if count.is_some_and(|c| c > 0.0) {
        let q = |f: &str| h.get(f).and_then(Value::as_num);
        match (q("p50"), q("p90"), q("p99")) {
            (Some(p50), Some(p90), Some(p99)) => {
                if !(p50 <= p90 && p90 <= p99) {
                    problems.push(format!(
                        "histogram `{name}`: quantiles not monotone (p50 {p50}, p90 {p90}, p99 {p99})"
                    ));
                }
            }
            _ => problems.push(format!("histogram `{name}` lacks numeric p50/p90/p99")),
        }
    }
    let Some(buckets) = h.get("buckets").and_then(Value::as_arr) else {
        problems.push(format!("histogram `{name}` lacks a buckets array"));
        return;
    };
    let mut bucket_total = 0.0;
    for b in buckets {
        let lo = b.get("lo").and_then(Value::as_num);
        let hi = b.get("hi").and_then(Value::as_num);
        let c = b.get("count").and_then(Value::as_num);
        match (lo, hi, c) {
            (Some(lo), Some(hi), Some(c)) => {
                if lo >= hi {
                    problems.push(format!("histogram `{name}` has bucket with lo >= hi"));
                }
                bucket_total += c;
            }
            _ => problems.push(format!("histogram `{name}` has a malformed bucket")),
        }
    }
    if let Some(count) = count {
        if bucket_total != count {
            problems.push(format!(
                "histogram `{name}`: bucket counts sum to {bucket_total}, count says {count}"
            ));
        }
    }
}

fn validate_span(node: &Value, problems: &mut Vec<String>) {
    let name = node.get("name").and_then(Value::as_str);
    if name.is_none() {
        problems.push("span node lacks a string `name`".into());
    }
    let label = name.unwrap_or("?");
    for field in [
        "count",
        "total_ms",
        "max_ms",
        "self_ms",
        "alloc_count",
        "alloc_bytes",
    ] {
        if node.get(field).and_then(Value::as_num).is_none() {
            problems.push(format!("span `{label}` lacks numeric `{field}`"));
        }
    }
    match node.get("children").and_then(Value::as_arr) {
        None => problems.push(format!("span `{label}` lacks a `children` array")),
        Some(children) => {
            for child in children {
                validate_span(child, problems);
            }
        }
    }
}

fn span_forest_contains(node: &Value, name: &str) -> bool {
    if node.get("name").and_then(Value::as_str) == Some(name) {
        return true;
    }
    node.get("children")
        .and_then(Value::as_arr)
        .is_some_and(|children| children.iter().any(|c| span_forest_contains(c, name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BucketCount, HistogramSnapshot};

    /// A fully deterministic report, shared with the golden-file test in
    /// the bench crate.
    pub fn sample_report() -> BenchReport {
        BenchReport {
            bench: "golden".into(),
            args: vec!["--fast".into()],
            wall_ms: 125.5,
            metrics: MetricsSnapshot {
                counters: vec![
                    ("ltlcheck.product_states".into(), 420),
                    ("pipeline.pairs_formed".into(), 96),
                ],
                gauges: vec![("tinylm.pretrain_tokens_per_sec".into(), 81000.0)],
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
    fn report_serializes_and_validates() {
        let text = sample_report().to_json();
        let req = Requirements {
            metrics: vec![
                "pipeline.pairs_formed".into(),
                "ltlcheck.lasso_len".into(),
                "tinylm.pretrain_tokens_per_sec".into(),
            ],
            spans: vec!["pipeline.verify".into()],
        };
        assert_eq!(validate(&text, &req), Ok(()));
    }

    #[test]
    fn missing_requirements_are_reported() {
        let text = sample_report().to_json();
        let req = Requirements {
            metrics: vec!["no.such.metric".into()],
            spans: vec!["no.such.span".into()],
        };
        let problems = validate(&text, &req).expect_err("must fail");
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("no.such.metric"));
        assert!(problems[1].contains("no.such.span"));
    }

    #[test]
    fn schema_violations_are_reported() {
        // Wrong marker, fractional counter, inconsistent histogram.
        let text = r#"{
            "schema": "obskit.bench.v0",
            "bench": "x",
            "args": [],
            "wall_ms": 1,
            "counters": {"c": 1.5},
            "gauges": {},
            "histograms": {"h": {"count": 5, "sum": 1, "buckets": [
                {"lo": 4, "hi": 2, "count": 3}
            ]}},
            "spans": [{"name": "s", "count": 1, "total_ms": 1, "max_ms": 1}]
        }"#;
        let problems = validate(text, &Requirements::default()).expect_err("must fail");
        let joined = problems.join("\n");
        assert!(joined.contains("unknown schema marker"), "{joined}");
        assert!(joined.contains("`counters.c`"), "{joined}");
        assert!(joined.contains("lo >= hi"), "{joined}");
        assert!(joined.contains("bucket counts sum"), "{joined}");
        assert!(joined.contains("`children`"), "{joined}");
    }

    #[test]
    fn garbage_input_fails_with_parse_error() {
        let problems = validate("not json", &Requirements::default()).expect_err("must fail");
        assert!(problems[0].contains("parse error"));
    }
}
