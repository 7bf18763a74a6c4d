//! Measured parts and the traced run (`--trace 1`).
//!
//! Every timed part of a run — a set-up or a pass of operations — goes
//! through [`measured`], which times it under a root span
//! `bench.measured` and, in a traced run, adds the change of every
//! counter across it to a tally. Input generation and correctness checks
//! run under the root spans `bench.inputs` and `bench.check`, so they
//! never count as measured work. In a traced run the obskit recorder and
//! allocation tracking are on, and [`per_layer`] turns the recording into
//! per-layer metrics from the program's own spans and counters.

use crate::workloads::{quantile, Outcome};
use obskit::SpanNode;
use std::collections::BTreeMap;
use std::time::Instant;

/// Counter changes, by name.
pub type Counters = BTreeMap<String, f64>;

/// Every counter the recorder holds now. Allocation totals are read
/// without allocating, after (`alloc_last`) or before the snapshot, so
/// that the snapshot's own allocations stay outside a measured part.
fn counters(alloc_last: bool) -> Counters {
    let alloc = |c: &mut Counters| {
        let totals = obskit::alloc::totals();
        c.insert("alloc.allocs".into(), totals.allocs as f64);
        c.insert(
            "alloc.bytes_allocated".into(),
            totals.bytes_allocated as f64,
        );
    };
    let mut c = Counters::new();
    if !alloc_last {
        alloc(&mut c);
    }
    for (name, value) in obskit::snapshot().metrics.counters {
        if !name.starts_with("alloc.") {
            c.insert(name, value as f64);
        }
    }
    if alloc_last {
        alloc(&mut c);
    }
    c
}

/// Runs `f` as a measured part of a run and returns its result with its
/// wall time in seconds. In a traced run, adds the change of every
/// counter across `f` to `tally`.
pub fn measured<T>(traced: bool, tally: &mut Counters, f: impl FnOnce() -> T) -> (T, f64) {
    let before = traced.then(|| counters(true));
    let span = obskit::span("bench.measured");
    let started = Instant::now();
    let value = f();
    let secs = started.elapsed().as_secs_f64();
    drop(span);
    if let Some(before) = before {
        for (name, after) in counters(false) {
            *tally.entry(name.clone()).or_default() +=
                after - before.get(&name).copied().unwrap_or(0.0);
        }
    }
    (value, secs)
}

/// Per-layer metrics with unit and better direction, in the order
/// `BENCHMARK.json` lists them. Every workload reports all of them; a
/// layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str, &str); 28] = [
    ("speclint.preflight.self_pct", "%", "lower"),
    ("pipeline.pretrain.self_pct", "%", "lower"),
    ("pipeline.sample.self_pct", "%", "lower"),
    ("pipeline.eval.self_pct", "%", "lower"),
    ("pipeline.score.self_pct", "%", "lower"),
    ("pipeline.parse.self_pct", "%", "lower"),
    ("pipeline.verify.self_pct", "%", "lower"),
    ("dpo.ref.self_pct", "%", "lower"),
    ("dpo.forward.self_pct", "%", "lower"),
    ("dpo.backward.self_pct", "%", "lower"),
    ("dpo.epoch.self_pct", "%", "lower"),
    ("ltlcheck.checks_per_op", "count", "lower"),
    ("ltlcheck.buchi_states_per_op", "count", "lower"),
    ("ltlcheck.product_states_per_op", "count", "lower"),
    ("ltlcheck.sccs_per_op", "count", "lower"),
    ("ltlcheck.search_visits_per_op", "count", "lower"),
    ("tape.nodes_per_op", "count", "lower"),
    ("alloc.allocs_per_op", "count", "lower"),
    ("alloc.bytes_per_op", "B", "lower"),
    ("verify.cache_hit_pct", "%", "higher"),
    ("setup.allocs", "count", "lower"),
    ("setup.product_states", "count", "lower"),
    ("speclint.semantic_checks", "count", "lower"),
    ("pretrain.tokens_per_s", "1/s", "higher"),
    ("dpo.tokens_per_s", "1/s", "higher"),
    ("alloc.peak_mib", "MiB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
];

/// Spans whose self time is reported as a share of measured time.
const SELF_SHARES: [&str; 11] = [
    "speclint.preflight",
    "pipeline.pretrain",
    "pipeline.sample",
    "pipeline.eval",
    "pipeline.score",
    "pipeline.parse",
    "pipeline.verify",
    "dpo.ref",
    "dpo.forward",
    "dpo.backward",
    "dpo.epoch",
];

/// Counters reported as their change across the passes per operation,
/// as `<counter>_per_op`.
const PER_OP: [&str; 8] = [
    "ltlcheck.checks",
    "ltlcheck.buchi_states",
    "ltlcheck.product_states",
    "ltlcheck.sccs",
    "ltlcheck.search_visits",
    "tape.nodes",
    "alloc.allocs",
    "alloc.bytes_allocated",
];

/// Adds every span's self and total microseconds under `nodes`, by name.
fn add_times(nodes: &[SpanNode], times: &mut BTreeMap<String, (u64, u64)>) {
    for node in nodes {
        let entry = times.entry(node.name.clone()).or_default();
        entry.0 += node.self_us();
        entry.1 += node.total_us;
        add_times(&node.children, times);
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, from the workload's outcome
/// and the recorder's final snapshot.
pub fn per_layer(
    out: &Outcome,
    snapshot: &obskit::Snapshot,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();

    let measured = snapshot.spans.iter().find(|n| n.name == "bench.measured");
    let measured_us = measured.map_or(0, |n| n.total_us) as f64;
    let mut times = BTreeMap::new();
    if let Some(node) = measured {
        add_times(&node.children, &mut times);
    }
    let time = |name: &str| times.get(name).copied().unwrap_or_default();
    for span in SELF_SHARES {
        v.insert(
            format!("{span}.self_pct"),
            100.0 * ratio(time(span).0 as f64, measured_us),
        );
    }

    let ops = out.attempted() as f64;
    let passes = |name: &str| out.pass_counters.get(name).copied().unwrap_or(0.0);
    for name in PER_OP {
        let metric = match name {
            "alloc.bytes_allocated" => "alloc.bytes".to_owned(),
            _ => name.to_owned(),
        };
        v.insert(format!("{metric}_per_op"), ratio(passes(name), ops));
    }
    let (hits, misses) = (passes("verify.cache_hits"), passes("verify.cache_misses"));
    v.insert(
        "verify.cache_hit_pct".into(),
        100.0 * ratio(hits, hits + misses),
    );

    let setups = out.setup_s.len() as f64;
    let setup = |name: &str| ratio(out.setup_counters.get(name).copied().unwrap_or(0.0), setups);
    v.insert("setup.allocs".into(), setup("alloc.allocs"));
    v.insert(
        "setup.product_states".into(),
        setup("ltlcheck.product_states"),
    );
    v.insert(
        "speclint.semantic_checks".into(),
        setup("speclint.semantic_checks"),
    );

    let tokens = out
        .setup_counters
        .get("pretrain.tokens")
        .copied()
        .unwrap_or(0.0)
        + passes("pretrain.tokens");
    v.insert(
        "pretrain.tokens_per_s".into(),
        ratio(tokens, time("pipeline.pretrain").1 as f64 / 1e6),
    );
    let gauge = |name: &str| {
        snapshot
            .metrics
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, value)| *value)
    };
    v.insert("dpo.tokens_per_s".into(), gauge("dpo.tokens_per_sec"));
    v.insert(
        "alloc.peak_mib".into(),
        gauge("alloc.peak_bytes") / (1024.0 * 1024.0),
    );
    v.insert("op_p50_ms".into(), quantile(&out.op_ms, 0.5));
    v.insert("op_p99_ms".into(), quantile(&out.op_ms, 0.99));

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
        .collect()
}
