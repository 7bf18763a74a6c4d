//! The stable `BENCH_<name>.json` report schema and its validator.
//!
//! Every bench binary writes one of these via `--metrics-out`; CI, the
//! perf trajectory and the `bench_diff` regression gate consume them.
//! A report holds counters, gauges and the aggregated span tree. The
//! schema is versioned through the `"schema"` marker: a change that
//! breaks a reader bumps it; a change no reader sees keeps it. The
//! writer emits `obskit.bench.v2` and the validator accepts only that
//! marker. The validator and `bench_diff` ignore keys they do not know,
//! so older v2 reports that still carry a `histograms` object (no
//! longer written, and never read) keep validating.
//!
//! ```json
//! {
//!   "schema": "obskit.bench.v2",
//!   "bench": "headline",
//!   "args": ["--fast"],
//!   "wall_ms": 1234.5,
//!   "counters": {"pipeline.pairs_formed": 96},
//!   "gauges": {"pretrain.tokens_per_sec": 81234.0},
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
    /// Metric names that must exist (in counters or gauges).
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

    match doc.get("spans").and_then(Value::as_arr) {
        None => problems.push("missing array field `spans`".into()),
        Some(nodes) => {
            for node in nodes {
                validate_span(node, &mut problems);
            }
        }
    }

    for name in &req.metrics {
        let found = ["counters", "gauges"]
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

    #[test]
    fn schema_violations_are_reported() {
        // Wrong marker, fractional counter, span without children.
        let text = r#"{
            "schema": "obskit.bench.v0",
            "bench": "x",
            "args": [],
            "wall_ms": 1,
            "counters": {"c": 1.5},
            "gauges": {},
            "spans": [{"name": "s", "count": 1, "total_ms": 1, "max_ms": 1}]
        }"#;
        let problems = validate(text, &Requirements::default()).expect_err("must fail");
        let joined = problems.join("\n");
        assert!(joined.contains("unknown schema marker"), "{joined}");
        assert!(joined.contains("`counters.c`"), "{joined}");
        assert!(joined.contains("`children`"), "{joined}");
    }

    #[test]
    fn garbage_input_fails_with_parse_error() {
        let problems = validate("not json", &Requirements::default()).expect_err("must fail");
        assert!(problems[0].contains("parse error"));
    }
}
