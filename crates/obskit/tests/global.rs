//! Integration tests for the global recorder facade.
//!
//! The recorder is process-global, so everything that toggles it lives
//! in ONE test function — the test harness runs separate `#[test]`s in
//! parallel threads and interleaved enable/disable would race.

use obskit::{FieldValue, SpanNode, SpanRecord};

/// The threads that closed spans named `name`, in close order.
fn threads_of(timeline: &[SpanRecord], name: &str) -> Vec<u64> {
    timeline
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.thread)
        .collect()
}

/// The number of nodes in `forest`.
fn node_count(forest: &[SpanNode]) -> usize {
    forest.iter().map(|n| 1 + node_count(&n.children)).sum()
}

/// The node at the `;`-separated name `path` of `forest`.
fn node_at<'a>(forest: &'a [SpanNode], path: &str) -> Option<&'a SpanNode> {
    let mut nodes = forest;
    let mut found = None;
    for name in path.split(';') {
        let node = nodes.iter().find(|n| n.name == name)?;
        nodes = &node.children;
        found = Some(node);
    }
    found
}

#[test]
fn global_recorder_end_to_end() {
    // While disabled (the default), nothing records.
    assert!(!obskit::enabled());
    obskit::counter_add("noop.counter", 7);
    {
        let _s = obskit::span("noop.span");
    }
    let before = obskit::snapshot();
    assert!(before.metrics.counters.is_empty());
    assert!(before.spans.is_empty());
    assert!(obskit::timeline().is_empty());

    // Enabled: spans nest via the per-thread stack, metrics accumulate,
    // events carry typed fields.
    obskit::enable();
    assert!(obskit::enabled());
    obskit::set_console(false); // keep test output clean
    obskit::set_timeline(true); // the Chrome-trace checks below read it
    {
        let _outer = obskit::span("test.outer");
        obskit::counter_add("test.counter", 2);
        obskit::counter_add("test.counter", 3);
        obskit::gauge_set("test.gauge", 1.5);
        {
            let _inner = obskit::span("test.inner");
            obskit::progress!("step {}", 1);
        }
        obskit::event("test.event", vec![("k", FieldValue::from(9usize))]);
    }
    // A span on another thread gets its own root (no cross-thread parent).
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _t = obskit::span("test.thread");
        });
    });
    // … unless the parent is handed off explicitly: the fan-out span
    // parents to `test.fanout` across the thread boundary, and spans
    // opened while it is on the worker's stack chain under it.
    {
        let fanout = obskit::span("test.fanout");
        let token = fanout.handoff();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                obskit::set_thread_name("test-worker");
                let _task = obskit::span_under("test.task", token);
                let _leaf = obskit::span("test.leaf");
            });
        });
    }
    // Two threads that run one after the other under the same name share
    // one trace id. The explicit join waits for the first thread's
    // thread-locals, which free its id, to be destroyed.
    for _ in 0..2 {
        std::thread::scope(|scope| {
            let slot = scope.spawn(|| {
                obskit::set_thread_name("test-slot");
                let _s = obskit::span("test.slot");
            });
            assert!(slot.join().is_ok());
        });
    }
    // Two threads alive at the same time under one name keep apart: the
    // inner thread starts while the outer one still holds the name.
    std::thread::scope(|scope| {
        let outer = scope.spawn(|| {
            obskit::set_thread_name("test-nested");
            let _s = obskit::span("test.nested");
            std::thread::scope(|inner_scope| {
                let inner = inner_scope.spawn(|| {
                    obskit::set_thread_name("test-nested");
                    let _s = obskit::span("test.nested");
                });
                assert!(inner.join().is_ok());
            });
        });
        assert!(outer.join().is_ok());
    });
    let snap = obskit::snapshot();
    let timeline = obskit::timeline();
    obskit::disable();
    obskit::set_console(true);

    assert_eq!(snap.metrics.counters, vec![("test.counter".to_string(), 5)]);
    assert_eq!(snap.metrics.gauges, vec![("test.gauge".to_string(), 1.5)]);

    // Span forest: test.outer > test.inner, and test.thread as a root.
    let outer = snap
        .spans
        .iter()
        .find(|n| n.name == "test.outer")
        .expect("outer span aggregated");
    assert_eq!(outer.count, 1);
    assert_eq!(outer.children.len(), 1);
    assert_eq!(outer.children[0].name, "test.inner");
    assert!(outer.total_us >= outer.children[0].total_us);
    assert!(snap.spans.iter().any(|n| n.name == "test.thread"));

    // The timeline has one record per closed span, on its thread.
    let main_thread = threads_of(&timeline, "test.inner");
    assert_eq!(threads_of(&timeline, "test.outer"), main_thread);
    let other_thread = threads_of(&timeline, "test.thread");
    assert_eq!((main_thread.len(), other_thread.len()), (1, 1));
    assert_ne!(other_thread, main_thread);

    // Handoff parentage: test.fanout > test.task > test.leaf in the
    // aggregated forest even though task/leaf ran on another thread.
    let fanout = snap
        .spans
        .iter()
        .find(|n| n.name == "test.fanout")
        .expect("fanout span aggregated");
    let task = fanout.find("test.task").expect("task under fanout");
    assert_eq!(task.count, 1);
    assert_eq!(
        fanout.children[0].name, "test.task",
        "task is a direct child"
    );
    assert!(task.find("test.leaf").is_some(), "leaf chains under task");
    assert!(
        !snap.spans.iter().any(|n| n.name == "test.task"),
        "task is no root"
    );
    let task_thread = threads_of(&timeline, "test.task");
    assert_eq!(threads_of(&timeline, "test.leaf"), task_thread);
    assert_eq!(task_thread.len(), 1);
    assert_ne!(
        task_thread,
        threads_of(&timeline, "test.fanout"),
        "handoff crossed a thread boundary"
    );

    // The worker registered a human-readable name, and the Chrome
    // exporter renders it as thread_name metadata.
    assert!(snap
        .thread_names
        .iter()
        .any(|(tid, name)| *tid == task_thread[0] && name == "test-worker"));
    let trace = obskit::chrome::chrome_trace(&timeline, &snap.events, &snap.thread_names, None);
    assert!(trace.contains("thread_name"), "{trace}");
    assert!(trace.contains("test-worker"), "{trace}");

    let slot_threads = threads_of(&timeline, "test.slot");
    assert_eq!(slot_threads.len(), 2);
    assert_eq!(slot_threads[0], slot_threads[1], "one track per name");
    let slot_names: Vec<u64> = snap
        .thread_names
        .iter()
        .filter(|(_, name)| name == "test-slot")
        .map(|&(tid, _)| tid)
        .collect();
    assert_eq!(slot_names, vec![slot_threads[0]]);
    let nested_threads = threads_of(&timeline, "test.nested");
    assert_eq!(nested_threads.len(), 2);
    assert_ne!(
        nested_threads[0], nested_threads[1],
        "live threads never share a track"
    );
    let nested_names = snap
        .thread_names
        .iter()
        .filter(|(_, name)| name == "test-nested")
        .count();
    assert_eq!(nested_names, 2);

    // The flamegraph and the report share one self time: every folded
    // line's value is its node's `self_us()`, and every node has a line.
    let folded = obskit::flame::folded(&snap.spans);
    let mut lines = 0;
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`path value` line");
        let node = node_at(&snap.spans, path).expect("folded path is a tree node");
        assert_eq!(value.parse::<u64>().ok(), Some(node.self_us()), "{line}");
        lines += 1;
    }
    assert_eq!(lines, node_count(&snap.spans));
    assert!(
        folded.contains("test.fanout;test.task;test.leaf "),
        "{folded}"
    );

    // Events: the progress! line and the explicit event, in order.
    let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["progress", "test.event"]);
    assert_eq!(
        snap.events[0].fields,
        vec![("msg".to_string(), FieldValue::Str("step 1".into()))]
    );

    // After disable, new data is dropped again …
    obskit::counter_add("test.counter", 100);
    let after = obskit::snapshot();
    assert_eq!(
        after.metrics.counters,
        vec![("test.counter".to_string(), 5)]
    );

    // … and re-enable starts from a clean slate.
    obskit::enable();
    let clean = obskit::snapshot();
    assert!(clean.metrics.counters.is_empty());
    assert!(clean.spans.is_empty());
    assert!(obskit::timeline().is_empty());
    assert!(clean.events.is_empty());
    obskit::disable();
}
