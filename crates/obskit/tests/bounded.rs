//! The recorder does not grow with the length of a run that writes no
//! trace: a run that opens the same name path over and over keeps one
//! tree node and one allocation-table entry per distinct path, and its
//! events and progress lines keep no log entry while the timeline is
//! off.
//!
//! Its own test binary, so the tracking allocator can be installed and
//! the process-global recorder toggled without racing other tests.

use obskit::SpanNode;

#[global_allocator]
static ALLOC: obskit::alloc::TrackingAlloc = obskit::alloc::TrackingAlloc::new();

const ROUNDS: u64 = 100_000;

/// One round: the nested path `bounded.outer;bounded.inner`, with an
/// allocation attributed to each span, then an event and a progress
/// line.
fn round() {
    let _outer = obskit::span("bounded.outer");
    std::hint::black_box(Box::new(1u64));
    let _inner = obskit::span("bounded.inner");
    std::hint::black_box(vec![0u8; 32]);
    obskit::event("bounded.event", Vec::new());
    obskit::progress!("round");
}

fn node_count(forest: &[SpanNode]) -> usize {
    forest.iter().map(|n| 1 + node_count(&n.children)).sum()
}

#[test]
fn aggregate_size_is_fixed_by_distinct_paths() {
    obskit::enable();
    obskit::set_console(false);
    obskit::alloc::set_tracking(true);
    round();
    let first = obskit::snapshot();
    let first_table = obskit::alloc::per_span().len();
    for _ in 1..ROUNDS {
        round();
    }
    let last = obskit::snapshot();
    let last_table = obskit::alloc::per_span().len();
    obskit::alloc::set_tracking(false);
    obskit::disable();

    assert_eq!(node_count(&first.spans), 2);
    assert_eq!(node_count(&last.spans), 2);
    assert_eq!(first_table, 2);
    assert_eq!(last_table, 2);
    assert!(last.events.is_empty(), "{} events kept", last.events.len());

    let outer = &last.spans[0];
    assert_eq!(outer.name, "bounded.outer");
    assert_eq!(outer.count, ROUNDS);
    let inner = &outer.children[0];
    assert_eq!(inner.name, "bounded.inner");
    assert_eq!(inner.count, ROUNDS);
    // Every round's allocations landed on the two nodes.
    assert!(outer.alloc_count >= ROUNDS, "{}", outer.alloc_count);
    assert!(inner.alloc_bytes >= 32 * ROUNDS, "{}", inner.alloc_bytes);
}
