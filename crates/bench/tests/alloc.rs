//! End-to-end allocation-profiling test against the *real* installed
//! tracking allocator (`bench`'s `#[global_allocator]`) and the real
//! process-global recorder — which is why this binary holds exactly one
//! test function (see DESIGN.md §7 on the one-test-per-binary rule for
//! global-recorder tests).

use obskit::report::{validate, Requirements};

fn find<'a>(nodes: &'a [obskit::SpanNode], name: &str) -> Option<&'a obskit::SpanNode> {
    for node in nodes {
        if node.name == name {
            return Some(node);
        }
        if let Some(hit) = find(&node.children, name) {
            return Some(hit);
        }
    }
    None
}

#[test]
fn alloc_tracking_attributes_to_spans_and_lands_in_artifacts() {
    let dir = std::env::temp_dir().join(format!("bench_alloc_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("BENCH_alloctest.json");
    let trace = dir.join("trace.json");
    let flame = dir.join("flame.folded");
    let cli = bench::BenchCli::from_args(
        "alloctest",
        vec![
            "--alloc".into(),
            "--quiet".into(),
            "--metrics-out".into(),
            metrics.to_string_lossy().into_owned(),
            "--trace-out".into(),
            trace.to_string_lossy().into_owned(),
            "--flame-out".into(),
            flame.to_string_lossy().into_owned(),
        ],
    )
    .expect("well-formed flags");
    assert!(cli.alloc);
    assert!(obskit::alloc::tracking());

    {
        let _outer = obskit::span("test.outer");
        obskit::counter_add("test.work", 1);
        let big: Vec<u8> = Vec::with_capacity(1 << 16);
        std::hint::black_box(&big);
        {
            let _inner = obskit::span("test.inner");
            let small: Vec<u8> = Vec::with_capacity(1 << 12);
            std::hint::black_box(&small);
        }
    }

    let snapshot = cli.finish();
    obskit::alloc::set_tracking(false);
    obskit::disable();

    // Global totals: both Vecs were counted and freed again.
    let totals = snapshot.alloc.expect("tracking was on");
    assert!(totals.allocs >= 2, "{totals:?}");
    assert!(
        totals.bytes_allocated >= (1 << 16) + (1 << 12),
        "{totals:?}"
    );
    assert!(totals.frees > 0, "{totals:?}");
    assert!(totals.peak_bytes >= (1 << 16), "{totals:?}");

    // Attribution: each Vec is billed to the span that was innermost
    // when it was allocated (not to the parent of that span).
    let outer = find(&snapshot.spans, "test.outer").expect("outer span");
    let inner = find(&snapshot.spans, "test.inner").expect("inner span");
    assert!(outer.alloc_bytes >= 1 << 16, "outer {outer:?}");
    assert!(inner.alloc_bytes >= 1 << 12, "inner {inner:?}");
    assert!(outer.alloc_count >= 1);
    assert!(inner.alloc_count >= 1);
    assert!(
        outer.alloc_bytes < (1 << 16) + (1 << 12),
        "inner allocation must not be billed to outer: {outer:?}"
    );

    // The allocator's metrics surface as counters/gauges.
    assert!(snapshot
        .metrics
        .counters
        .iter()
        .any(|(k, v)| k == "alloc.allocs" && *v > 0));

    // Written artifacts: a valid v2 report carrying the alloc metrics…
    let report = std::fs::read_to_string(&metrics).expect("report written");
    assert!(report.contains("\"obskit.bench.v2\""));
    let req = Requirements {
        metrics: vec![
            "alloc.allocs".into(),
            "alloc.bytes_allocated".into(),
            "alloc.peak_bytes".into(),
        ],
        spans: vec!["test.outer".into(), "test.inner".into()],
    };
    assert_eq!(validate(&report, &req), Ok(()));

    // …a folded flamegraph with the nested name path…
    let folded = std::fs::read_to_string(&flame).expect("flame written");
    assert!(folded.contains("test.outer;test.inner "), "{folded}");

    // …and a Chrome trace holding the inner span's timeline entry.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = obskit::json::parse(&trace_text).expect("trace parses");
    let entries = doc
        .get("traceEvents")
        .and_then(obskit::json::Value::as_arr)
        .expect("traceEvents");
    assert!(entries.iter().any(|e| {
        e.get("ph").and_then(obskit::json::Value::as_str) == Some("X")
            && e.get("name").and_then(obskit::json::Value::as_str) == Some("test.inner")
    }));

    let _ = std::fs::remove_dir_all(&dir);
}
