//! Collapsed-stack ("folded") flamegraph export.
//!
//! Renders the aggregated span tree in the format `flamegraph.pl` /
//! [inferno](https://github.com/jonhoo/inferno) / speedscope consume:
//! one line per tree node, `root;child;leaf <value>`, where the value is
//! the node's **exclusive self-time in microseconds**,
//! [`SpanNode::self_us`] — the same number the report's `self_ms`
//! comes from. Summing a subtree of the flamegraph therefore reproduces
//! the subtree root's inclusive time, which is what makes "where does
//! the wall actually go inside `dpo.backward`" readable at a glance.
//!
//! Lines are emitted in lexicographic path order so the output is
//! byte-stable for a deterministic run.

use crate::span::SpanNode;
use std::collections::BTreeMap;

/// Renders a span forest as collapsed-stack lines weighted by exclusive
/// self-time (µs). Nodes with zero self-time still appear, so the
/// hierarchy stays connected.
pub fn folded(forest: &[SpanNode]) -> String {
    fn walk(nodes: &[SpanNode], prefix: &str, lines: &mut BTreeMap<String, u64>) {
        for node in nodes {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            walk(&node.children, &path, lines);
            *lines.entry(path).or_insert(0) += node.self_us();
        }
    }
    let mut lines = BTreeMap::new();
    walk(forest, "", &mut lines);
    let mut out = String::new();
    for (path, us) in &lines {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, total: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            count: 1,
            total_us: total,
            max_us: total,
            alloc_count: 0,
            alloc_bytes: 0,
            children,
        }
    }

    #[test]
    fn folds_self_time_along_name_paths() {
        // run(100) { train(80) { backward(45) } } — self-times: run 20,
        // train 35, backward 45.
        let forest = vec![node(
            "run",
            100,
            vec![node("train", 80, vec![node("backward", 45, vec![])])],
        )];
        let out = folded(&forest);
        assert_eq!(out, "run 20\nrun;train 35\nrun;train;backward 45\n");
        // Folded self-times sum back to the root's inclusive time.
        let total: u64 = out
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn separate_roots_stay_separate_and_sorted() {
        let forest = vec![node("b", 5, vec![]), node("a", 3, vec![])];
        assert_eq!(folded(&forest), "a 3\nb 5\n");
        assert_eq!(folded(&[]), "");
    }

    #[test]
    fn child_longer_than_parent_clamps_at_zero() {
        // Cross-thread children can outlive the parent's measured wall;
        // self-time saturates instead of wrapping.
        let forest = vec![node("p", 10, vec![node("c", 25, vec![])])];
        assert_eq!(folded(&forest), "p 0\np;c 25\n");
    }
}
