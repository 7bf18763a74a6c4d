//! End-to-end observability: an enabled smoke run of the pipeline emits
//! the documented stage spans and counters (DESIGN.md §7).
//!
//! One test function only — the obskit recorder is process-global, and
//! this integration binary must not toggle it from parallel tests.

use dpo_af::pipeline::{DpoAf, PipelineConfig, RunArtifacts};

fn counter(snap: &obskit::Snapshot, name: &str) -> u64 {
    snap.metrics
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |&(_, v)| v)
}

/// Runs the smoke pipeline at `threads` with the recorder on. Six
/// near-greedy samples per task repeat responses, so some scoring
/// batches hold copies that must hit the verdict cache. Two iterations,
/// so the `pipeline.iteration` events form a series.
fn recorded_run(threads: usize) -> (RunArtifacts, obskit::Snapshot) {
    obskit::enable();
    obskit::set_console(false);
    // Events are kept only while the timeline is on, as for a run that
    // writes a Chrome trace; the event checks below read them.
    obskit::set_timeline(true);
    let artifacts = DpoAf::new(PipelineConfig {
        threads,
        responses_per_task: 6,
        temperature: 0.05,
        eval_temperature: 0.05,
        iterations: 2,
        ..PipelineConfig::smoke()
    })
    .run();
    let snap = obskit::snapshot();
    obskit::disable();
    (artifacts, snap)
}

/// The stage spans, their nesting and the counters one run must show.
/// At two threads the per-response stages run on `parkit` helpers and
/// reach `pipeline.run` only through the `score_batch` handoff, so this
/// is also the check that cross-thread nesting survives the fan-out.
#[allow(clippy::expect_used, reason = "a test helper asserts by panicking")]
fn assert_spans_and_counters(threads: usize, artifacts: &RunArtifacts, snap: &obskit::Snapshot) {
    // Every pipeline stage shows up in the aggregated span forest, with
    // the per-response stages nested under the run root.
    let run = snap
        .spans
        .iter()
        .find(|n| n.name == "pipeline.run")
        .expect("pipeline.run span recorded");
    for stage in [
        "pipeline.pretrain",
        "pipeline.collect",
        "pipeline.sample",
        "pipeline.parse",
        "pipeline.verify",
        "pipeline.rank",
        "pipeline.train",
        "pipeline.eval",
    ] {
        let node = run.find(stage).unwrap_or_else(|| {
            panic!("threads {threads}: stage span `{stage}` missing under pipeline.run")
        });
        assert!(node.count > 0, "threads {threads}: {stage} count");
    }
    // Stage durations nest: children never exceed their parent.
    let collect = run.find("pipeline.collect").expect("collect");
    let sample = collect.find("pipeline.sample").expect("sample");
    assert!(sample.total_us <= collect.total_us, "threads {threads}");
    // Scoring runs inside the batch span, whichever thread scored.
    let batch = collect
        .find("pipeline.score_batch")
        .unwrap_or_else(|| panic!("threads {threads}: score_batch missing under collect"));
    let score = batch
        .find("pipeline.score")
        .unwrap_or_else(|| panic!("threads {threads}: score missing under score_batch"));
    for stage in ["pipeline.parse", "pipeline.verify"] {
        let node = score
            .find(stage)
            .unwrap_or_else(|| panic!("threads {threads}: `{stage}` missing under pipeline.score"));
        assert!(node.count > 0, "threads {threads}: {stage} count");
    }
    // Pair gradients attach to their epoch through the same kind of
    // handoff.
    let epoch = run
        .find("pipeline.train")
        .and_then(|train| train.find("dpo.epoch"))
        .unwrap_or_else(|| panic!("threads {threads}: dpo.epoch missing under pipeline.train"));
    for stage in ["dpo.forward", "dpo.backward"] {
        let node = epoch
            .find(stage)
            .unwrap_or_else(|| panic!("threads {threads}: `{stage}` missing under dpo.epoch"));
        assert!(node.count > 0, "threads {threads}: {stage} count");
    }
    // The caller works items too, so the lookups above would pass even if
    // helpers lost the handoff; their spans would then be extra roots.
    for root in &snap.spans {
        assert!(
            ![
                "pipeline.score",
                "pipeline.parse",
                "pipeline.verify",
                "dpo.forward",
                "dpo.backward"
            ]
            .contains(&root.name.as_str()),
            "threads {threads}: `{}` recorded as a root span",
            root.name
        );
    }
    // Evaluation sampling has its own span, so `pipeline.eval` self time
    // is scoring and bookkeeping only.
    let eval = run.find("pipeline.eval").expect("eval");
    let eval_sample = eval.find("pipeline.sample").expect("sample under eval");
    assert!(eval_sample.count > 0, "threads {threads}");
    assert!(eval_sample.total_us <= eval.total_us, "threads {threads}");

    // Counters line up with the artifacts.
    assert_eq!(
        counter(snap, "pipeline.pairs_formed"),
        artifacts.dataset_size as u64,
        "threads {threads}"
    );
    assert!(counter(snap, "pipeline.responses_scored") > 0);
    assert!(counter(snap, "ltlcheck.checks") > 0);
    assert!(counter(snap, "ltlcheck.product_states") > 0);
    assert!(counter(snap, "ltlcheck.search_visits") >= counter(snap, "ltlcheck.product_states"));
    assert!(counter(snap, "pretrain.tokens") > 0);
    // Repeated responses are scored once: losing the first-occurrence
    // fan-out of `score_formal_batch` would score every copy.
    assert!(
        counter(snap, "verify.cache_hits") > 0,
        "threads {threads}: no verdict-cache hits"
    );
    assert!(counter(snap, "dpo.pairs_trained") > 0);

    // Per-epoch training events were recorded.
    assert!(
        snap.events.iter().any(|e| e.name == "dpo.epoch"),
        "threads {threads}: dpo.epoch events missing"
    );
    assert_iteration_cache_series(threads, snap);
}

/// Every `pipeline.iteration` event carries the verdict cache's
/// cumulative hits and misses: non-decreasing from one iteration to the
/// next, and never past the run's final counters (evaluation after the
/// last iteration still looks verdicts up).
fn assert_iteration_cache_series(threads: usize, snap: &obskit::Snapshot) {
    let field = |event: &obskit::Event, name: &str| {
        event
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                obskit::FieldValue::U64(n) if k == name => Some(*n),
                _ => None,
            })
            .unwrap_or_else(|| panic!("threads {threads}: iteration event lacks `{name}`"))
    };
    let series: Vec<(u64, u64)> = snap
        .events
        .iter()
        .filter(|e| e.name == "pipeline.iteration")
        .map(|e| (field(e, "cache_hits"), field(e, "cache_misses")))
        .collect();
    assert_eq!(
        series.len(),
        2,
        "threads {threads}: one event per iteration"
    );
    for pair in series.windows(2) {
        assert!(
            pair[0].0 <= pair[1].0 && pair[0].1 <= pair[1].1,
            "threads {threads}: cache counts went backwards: {series:?}"
        );
    }
    let &(hits, misses) = series.last().unwrap_or(&(0, 0));
    assert!(
        hits <= counter(snap, "verify.cache_hits"),
        "threads {threads}"
    );
    assert!(
        misses <= counter(snap, "verify.cache_misses"),
        "threads {threads}"
    );
}

#[test]
fn smoke_run_emits_stage_spans_and_counters() {
    let (artifacts_one, snap_one) = recorded_run(1);
    let (artifacts_two, snap_two) = recorded_run(2);
    assert_spans_and_counters(1, &artifacts_one, &snap_one);
    assert_spans_and_counters(2, &artifacts_two, &snap_two);

    // `pool.tasks` counts each mapped item once, at every width.
    assert!(counter(&snap_one, "pool.tasks") > 0);
    assert_eq!(
        counter(&snap_one, "pool.tasks"),
        counter(&snap_two, "pool.tasks")
    );

    // The work counters do not depend on the thread count. The first run
    // also filled the process-wide spec-automaton cache, so compare the
    // two-thread run with a one-thread run that finds it warm too.
    let (_, snap_one_warm) = recorded_run(1);
    assert_eq!(work_counters(&snap_one_warm), work_counters(&snap_two));
}

/// The verdict-cache, model-checking and pipeline counters of a run,
/// sorted by name as the snapshot holds them.
fn work_counters(snap: &obskit::Snapshot) -> Vec<&(String, u64)> {
    let work = ["verify.cache_", "ltlcheck.", "pipeline."];
    snap.metrics
        .counters
        .iter()
        .filter(|(name, _)| work.iter().any(|prefix| name.starts_with(prefix)))
        .collect()
}
