//! Noise-aware comparison of two bench reports — the engine behind the
//! `bench_diff` binary and the CI perf-regression gate.
//!
//! Comparing wall-clock numbers across machines (or across a busy CI
//! host) is hopeless, so metrics are split into tolerance classes:
//!
//! * **Counters** are workload measures (pairs trained, states
//!   explored, cache hits). The pipeline is deterministic at
//!   `--threads 1`, so counters must match **exactly** — any drift
//!   means the work itself changed, which no timing noise explains.
//! * **Gauges** are likewise compared exactly, except those matched by
//!   an ignore pattern (throughput readings and allocator live-bytes
//!   are machine- or schedule-dependent by nature).
//! * **Span times** are compared as **shares of the run's own wall
//!   clock**. A uniformly slower machine scales every span and the
//!   wall together, leaving shares unchanged; a genuine regression in
//!   one phase moves that phase's share. Each span gets a relative
//!   share budget (default plus per-span overrides from
//!   `results/PERF_BUDGETS.json`); spans below a minimum share of the
//!   wall are too noisy to judge and are skipped.
//!
//! Missing counters or spans in the candidate are regressions; metrics
//! that only exist in the candidate are informational (new
//! instrumentation must not fail old baselines).

use obskit::json::{self, Value};

/// Tolerance configuration for [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Budgets {
    /// Relative share-of-wall increase allowed for any span without an
    /// override (0.08 = a span may grow its wall share by 8%).
    pub default_share_tolerance: f64,
    /// Spans whose baseline share of wall is below this percentage are
    /// skipped — their timing is dominated by scheduler noise.
    pub min_share_pct: f64,
    /// Per-span tolerance overrides; patterns match the span name or
    /// its full `;`-joined path, `*` wildcards allowed.
    pub spans: Vec<(String, f64)>,
    /// Metric-name patterns exempt from comparison (`*` wildcards).
    pub ignore: Vec<String>,
}

impl Budgets {
    /// The built-in tolerances used when no budgets file is given.
    pub fn defaults() -> Budgets {
        Budgets {
            default_share_tolerance: 0.08,
            min_share_pct: 1.0,
            spans: Vec::new(),
            ignore: vec![
                "alloc.*".into(),
                "pool.threads".into(),
                "*.tokens_per_sec".into(),
                "*_per_sec".into(),
            ],
        }
    }

    /// Parses a `bench.budgets.v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn parse(text: &str) -> Result<Budgets, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Value::as_str) {
            Some("bench.budgets.v1") => {}
            Some(other) => return Err(format!("unknown budgets schema `{other}`")),
            None => return Err("budgets file lacks a `schema` marker".into()),
        }
        let mut budgets = Budgets::defaults();
        if let Some(v) = doc.get("default_share_tolerance").and_then(Value::as_num) {
            budgets.default_share_tolerance = v;
        }
        if let Some(v) = doc.get("min_share_pct").and_then(Value::as_num) {
            budgets.min_share_pct = v;
        }
        if let Some(spans) = doc.get("spans").and_then(Value::as_obj) {
            budgets.spans = spans
                .iter()
                .map(|(name, v)| {
                    v.as_num()
                        .map(|t| (name.clone(), t))
                        .ok_or_else(|| format!("span budget `{name}` is not a number"))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(ignore) = doc.get("ignore").and_then(Value::as_arr) {
            budgets.ignore = ignore
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "ignore entry is not a string".to_owned())
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(budgets)
    }

    fn ignored(&self, name: &str) -> bool {
        self.ignore.iter().any(|p| glob_match(p, name))
    }

    fn span_tolerance(&self, path: &str, leaf: &str) -> f64 {
        self.spans
            .iter()
            .find(|(p, _)| glob_match(p, path) || glob_match(p, leaf))
            .map(|(_, t)| *t)
            .unwrap_or(self.default_share_tolerance)
    }
}

/// `*`-wildcard match (no character classes), anchored at both ends.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == text;
    }
    let mut rest = text;
    let last = parts.len() - 1;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            let Some(tail) = rest.strip_prefix(part) else {
                return false;
            };
            rest = tail;
        } else if i == last {
            return rest.ends_with(part);
        } else if let Some(pos) = rest.find(part) {
            rest = &rest[pos + part.len()..];
        } else {
            return false;
        }
    }
    true
}

/// How bad one observed difference is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Worth a human glance, never fails the gate (new metrics,
    /// improvements, wall-clock delta).
    Info,
    /// Fails the gate.
    Regression,
}

/// One observed difference between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Gate impact.
    pub severity: Severity,
    /// The metric or span the finding is about.
    pub metric: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// Everything observed, regressions first.
    pub findings: Vec<Finding>,
}

impl Diff {
    /// Number of gate-failing findings.
    pub fn regressions(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
            .count()
    }

    /// True when the candidate is within budget.
    pub fn pass(&self) -> bool {
        self.regressions() == 0
    }

    /// Multi-line human verdict.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Info => "info",
                Severity::Regression => "REGRESSION",
            };
            out.push_str(&format!("{tag:>10}  {}  {}\n", f.metric, f.detail));
        }
        if self.pass() {
            out.push_str("PASS: candidate within perf budgets\n");
        } else {
            out.push_str(&format!(
                "FAIL: {} perf regression(s) over budget\n",
                self.regressions()
            ));
        }
        out
    }

    /// Machine verdict (`bench.diff.v1`).
    pub fn to_json(&self) -> String {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    (
                        "severity".into(),
                        Value::Str(
                            match f.severity {
                                Severity::Info => "info",
                                Severity::Regression => "regression",
                            }
                            .into(),
                        ),
                    ),
                    ("metric".into(), Value::Str(f.metric.clone())),
                    ("detail".into(), Value::Str(f.detail.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("bench.diff.v1".into())),
            ("pass".into(), Value::Bool(self.pass())),
            ("regressions".into(), Value::Num(self.regressions() as f64)),
            ("findings".into(), Value::Arr(findings)),
        ])
        .to_json_pretty()
    }
}

/// One report flattened for comparison.
struct Flat {
    wall_ms: f64,
    counters: Vec<(String, f64)>,
    gauges: Vec<(String, f64)>,
    /// `(full ;-joined path, leaf name, total_ms)`.
    spans: Vec<(String, String, f64)>,
}

fn flatten(doc: &Value) -> Result<Flat, String> {
    let wall_ms = doc
        .get("wall_ms")
        .and_then(Value::as_num)
        .ok_or("report lacks numeric `wall_ms`")?;
    let section = |name: &str| -> Vec<(String, f64)> {
        doc.get(name)
            .and_then(Value::as_obj)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut spans = Vec::new();
    if let Some(forest) = doc.get("spans").and_then(Value::as_arr) {
        for node in forest {
            flatten_span(node, "", &mut spans);
        }
    }
    Ok(Flat {
        wall_ms,
        counters: section("counters"),
        gauges: section("gauges"),
        spans,
    })
}

fn flatten_span(node: &Value, prefix: &str, out: &mut Vec<(String, String, f64)>) {
    let Some(name) = node.get("name").and_then(Value::as_str) else {
        return;
    };
    let path = if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix};{name}")
    };
    if let Some(total_ms) = node.get("total_ms").and_then(Value::as_num) {
        out.push((path.clone(), name.to_owned(), total_ms));
    }
    if let Some(children) = node.get("children").and_then(Value::as_arr) {
        for child in children {
            flatten_span(child, &path, out);
        }
    }
}

fn lookup<'a>(pairs: &'a [(String, f64)], name: &str) -> Option<&'a f64> {
    pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Compares a candidate report against a baseline under the given
/// budgets. Both arguments are parsed `obskit.bench.v2` report documents.
///
/// # Errors
///
/// Returns a description of the problem when either report is
/// structurally unusable (no `wall_ms`, zero wall).
pub fn diff_reports(
    baseline: &Value,
    candidate: &Value,
    budgets: &Budgets,
) -> Result<Diff, String> {
    let base = flatten(baseline)?;
    let cand = flatten(candidate)?;
    if base.wall_ms <= 0.0 || cand.wall_ms <= 0.0 {
        return Err("reports must have positive wall_ms".into());
    }
    let mut regressions = Vec::new();
    let mut infos = Vec::new();

    // Wall delta is always informational: it is exactly the number the
    // share normalization makes the gate robust to.
    infos.push(Finding {
        severity: Severity::Info,
        metric: "wall_ms".into(),
        detail: format!(
            "{:.1} -> {:.1} ({:+.1}%)",
            base.wall_ms,
            cand.wall_ms,
            (cand.wall_ms / base.wall_ms - 1.0) * 100.0
        ),
    });

    for (section, base_vals, cand_vals) in [
        ("counters", &base.counters, &cand.counters),
        ("gauges", &base.gauges, &cand.gauges),
    ] {
        for (name, base_v) in base_vals {
            if budgets.ignored(name) {
                continue;
            }
            match lookup(cand_vals, name) {
                None => regressions.push(Finding {
                    severity: Severity::Regression,
                    metric: format!("{section}.{name}"),
                    detail: format!("missing from candidate (baseline {base_v})"),
                }),
                Some(cand_v) if cand_v != base_v => regressions.push(Finding {
                    severity: Severity::Regression,
                    metric: format!("{section}.{name}"),
                    detail: format!("{base_v} -> {cand_v} (must match exactly)"),
                }),
                Some(_) => {}
            }
        }
        for (name, cand_v) in cand_vals {
            if !budgets.ignored(name) && lookup(base_vals, name).is_none() {
                infos.push(Finding {
                    severity: Severity::Info,
                    metric: format!("{section}.{name}"),
                    detail: format!("new in candidate ({cand_v})"),
                });
            }
        }
    }

    for (path, leaf, base_ms) in &base.spans {
        let base_share = base_ms / base.wall_ms;
        if base_share * 100.0 < budgets.min_share_pct {
            continue;
        }
        let Some((_, _, cand_ms)) = cand.spans.iter().find(|(p, _, _)| p == path) else {
            regressions.push(Finding {
                severity: Severity::Regression,
                metric: format!("span {path}"),
                detail: format!(
                    "missing from candidate (baseline {base_ms:.1} ms, {:.1}% of wall)",
                    base_share * 100.0
                ),
            });
            continue;
        };
        let cand_share = cand_ms / cand.wall_ms;
        let rel = cand_share / base_share - 1.0;
        let tolerance = budgets.span_tolerance(path, leaf);
        let detail = format!(
            "share of wall {:.2}% -> {:.2}% ({:+.1}% rel, budget {:.0}%)",
            base_share * 100.0,
            cand_share * 100.0,
            rel * 100.0,
            tolerance * 100.0,
        );
        if rel > tolerance {
            regressions.push(Finding {
                severity: Severity::Regression,
                metric: format!("span {path}"),
                detail,
            });
        } else if rel < -tolerance {
            infos.push(Finding {
                severity: Severity::Info,
                metric: format!("span {path}"),
                detail: format!("{detail} — improvement"),
            });
        }
    }
    for (path, _, cand_ms) in &cand.spans {
        let cand_share = cand_ms / cand.wall_ms;
        if cand_share * 100.0 >= budgets.min_share_pct
            && !base.spans.iter().any(|(p, _, _)| p == path)
        {
            infos.push(Finding {
                severity: Severity::Info,
                metric: format!("span {path}"),
                detail: format!("new in candidate ({cand_ms:.1} ms)"),
            });
        }
    }

    regressions.extend(infos);
    Ok(Diff {
        findings: regressions,
    })
}

/// Multiplies the timing of every span named `span` in the report by
/// `factor` — the `--seed-regression` self-test knob that lets CI prove
/// the gate actually fails on a seeded slowdown, without fixture files.
pub fn seed_regression(doc: &mut Value, span: &str, factor: f64) -> usize {
    fn walk(node: &mut Value, span: &str, factor: f64) -> usize {
        let mut hits = 0;
        let Value::Obj(fields) = node else {
            return 0;
        };
        let is_target = fields
            .iter()
            .any(|(k, v)| k == "name" && v.as_str() == Some(span));
        for (k, v) in fields.iter_mut() {
            if is_target && matches!(k.as_str(), "total_ms" | "max_ms" | "self_ms") {
                if let Value::Num(n) = v {
                    *n *= factor;
                    if k == "total_ms" {
                        hits += 1;
                    }
                }
            }
            if k == "children" {
                if let Value::Arr(children) = v {
                    for child in children {
                        hits += walk(child, span, factor);
                    }
                }
            }
        }
        hits
    }
    let mut hits = 0;
    if let Value::Obj(fields) = doc {
        for (k, v) in fields.iter_mut() {
            if k == "spans" {
                if let Value::Arr(forest) = v {
                    for node in forest {
                        hits += walk(node, span, factor);
                    }
                }
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: f64, pairs: u64, verify_ms: f64, train_ms: f64) -> Value {
        json::parse(&format!(
            r#"{{
              "schema": "obskit.bench.v2",
              "bench": "t", "args": [], "wall_ms": {wall},
              "counters": {{"dpo.pairs_trained": {pairs}, "alloc.allocs": 7}},
              "gauges": {{"headline.after_pct": 90.45, "tinylm.pretrain_tokens_per_sec": 81000.0}},
              "spans": [
                {{"name": "pipeline.run", "count": 1, "total_ms": {wall},
                  "max_ms": {wall}, "self_ms": 0, "alloc_count": 0, "alloc_bytes": 0,
                  "children": [
                    {{"name": "pipeline.verify", "count": 30, "total_ms": {verify_ms},
                      "max_ms": 9, "self_ms": {verify_ms}, "alloc_count": 0, "alloc_bytes": 0,
                      "children": []}},
                    {{"name": "dpo.train", "count": 2, "total_ms": {train_ms},
                      "max_ms": 50, "self_ms": {train_ms}, "alloc_count": 0, "alloc_bytes": 0,
                      "children": []}}
                  ]}}
              ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(100.0, 96, 40.0, 30.0);
        let d = diff_reports(&a, &a, &Budgets::defaults()).expect("diff runs");
        assert!(d.pass(), "{}", d.render_human());
        // Only the informational wall line.
        assert_eq!(d.regressions(), 0);
        assert!(d.to_json().contains("\"pass\": true"));
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        // 2x slower across the board: counters identical, shares identical.
        let base = report(100.0, 96, 40.0, 30.0);
        let cand = report(200.0, 96, 80.0, 60.0);
        let d = diff_reports(&base, &cand, &Budgets::defaults()).expect("diff runs");
        assert!(d.pass(), "{}", d.render_human());
    }

    #[test]
    fn ten_percent_span_regression_fails() {
        let base = report(100.0, 96, 40.0, 30.0);
        let mut cand = report(100.0, 96, 40.0, 30.0);
        assert_eq!(seed_regression(&mut cand, "dpo.train", 1.10), 1);
        let d = diff_reports(&base, &cand, &Budgets::defaults()).expect("diff runs");
        assert!(!d.pass());
        let verdict = d.render_human();
        assert!(verdict.contains("dpo.train"), "{verdict}");
        assert!(verdict.contains("REGRESSION"), "{verdict}");
        // The untouched sibling stays inside budget.
        assert_eq!(d.regressions(), 1, "{verdict}");
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let base = report(100.0, 96, 40.0, 30.0);
        let cand = report(100.0, 95, 40.0, 30.0);
        let d = diff_reports(&base, &cand, &Budgets::defaults()).expect("diff runs");
        assert!(!d.pass());
        assert!(d.render_human().contains("dpo.pairs_trained"));
    }

    #[test]
    fn ignored_and_new_metrics_do_not_fail() {
        let base = report(100.0, 96, 40.0, 30.0);
        // Same workload, but: allocation count drifted (allocator
        // noise), throughput gauge changed (machine speed), and the
        // candidate carries brand-new allocator metrics. None of that
        // may fail.
        let cand = json::parse(
            r#"{
              "schema": "obskit.bench.v2",
              "bench": "t", "args": [], "wall_ms": 100,
              "counters": {"dpo.pairs_trained": 96, "alloc.allocs": 900,
                           "alloc.frees": 123},
              "gauges": {"headline.after_pct": 90.45,
                         "tinylm.pretrain_tokens_per_sec": 55000.0,
                         "alloc.peak_bytes": 123456.0},
              "spans": [
                {"name": "pipeline.run", "count": 1, "total_ms": 100,
                  "max_ms": 100, "self_ms": 0, "alloc_count": 9, "alloc_bytes": 512,
                  "children": [
                    {"name": "pipeline.verify", "count": 30, "total_ms": 40,
                      "max_ms": 9, "self_ms": 40, "alloc_count": 0, "alloc_bytes": 0,
                      "children": []},
                    {"name": "dpo.train", "count": 2, "total_ms": 30,
                      "max_ms": 50, "self_ms": 30, "alloc_count": 0, "alloc_bytes": 0,
                      "children": []}
                  ]}
              ]
            }"#,
        )
        .unwrap();
        let d = diff_reports(&base, &cand, &Budgets::defaults()).expect("diff runs");
        assert!(d.pass(), "{}", d.render_human());
    }

    #[test]
    fn missing_span_and_counter_fail() {
        let base = report(100.0, 96, 40.0, 30.0);
        // The candidate lost the pairs counter and the dpo.train span.
        let cand = json::parse(
            r#"{
              "schema": "obskit.bench.v2",
              "bench": "t", "args": [], "wall_ms": 100,
              "counters": {"alloc.allocs": 7},
              "gauges": {"headline.after_pct": 90.45,
                         "tinylm.pretrain_tokens_per_sec": 81000.0},
              "spans": [
                {"name": "pipeline.run", "count": 1, "total_ms": 100,
                  "max_ms": 100, "self_ms": 0, "alloc_count": 0, "alloc_bytes": 0,
                  "children": [
                    {"name": "pipeline.verify", "count": 30, "total_ms": 40,
                      "max_ms": 9, "self_ms": 40, "alloc_count": 0, "alloc_bytes": 0,
                      "children": []}
                  ]}
              ]
            }"#,
        )
        .unwrap();
        let d = diff_reports(&base, &cand, &Budgets::defaults()).expect("diff runs");
        assert!(!d.pass());
        let human = d.render_human();
        assert!(human.contains("counters.dpo.pairs_trained"), "{human}");
        assert!(human.contains("span pipeline.run;dpo.train"), "{human}");
    }

    #[test]
    fn budgets_file_overrides_apply() {
        let budgets = Budgets::parse(
            r#"{
              "schema": "bench.budgets.v1",
              "default_share_tolerance": 0.5,
              "min_share_pct": 2.0,
              "spans": {"dpo.*": 0.02},
              "ignore": ["pool.threads"]
            }"#,
        )
        .expect("budgets parse");
        assert_eq!(budgets.default_share_tolerance, 0.5);
        assert_eq!(budgets.min_share_pct, 2.0);
        assert_eq!(
            budgets.span_tolerance("pipeline.run;dpo.train", "dpo.train"),
            0.02
        );
        assert_eq!(
            budgets.span_tolerance("pipeline.verify", "pipeline.verify"),
            0.5
        );
        assert!(budgets.ignored("pool.threads"));
        assert!(!budgets.ignored("alloc.peak_bytes"));

        // The tight dpo.* override now catches a +5% drift the loose
        // default would wave through.
        let base = report(100.0, 96, 40.0, 30.0);
        let mut cand = report(100.0, 96, 40.0, 30.0);
        seed_regression(&mut cand, "dpo.train", 1.05);
        let d = diff_reports(&base, &cand, &budgets).expect("diff runs");
        assert!(!d.pass());

        assert!(Budgets::parse("{}").is_err());
        assert!(Budgets::parse("{\"schema\": \"bench.budgets.v9\"}").is_err());
    }

    #[test]
    fn glob_match_covers_the_pattern_shapes() {
        assert!(glob_match("alloc.*", "alloc.peak_bytes"));
        assert!(glob_match("*_per_sec", "tinylm.pretrain_tokens_per_sec"));
        assert!(glob_match("*.tokens_per_sec", "sim.tokens_per_sec"));
        assert!(glob_match("pool.threads", "pool.threads"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c*e", "abcde"));
        assert!(!glob_match("alloc.*", "dpo.pairs_trained"));
        assert!(!glob_match("a*c", "ab"));
        assert!(!glob_match("abc", "abcd"));
    }
}
