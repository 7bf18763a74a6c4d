//! Hierarchical wall-clock spans, folded into one aggregate tree as they
//! close.
//!
//! A span is opened with [`crate::span`] (or [`crate::span_under`]) and
//! closed when its guard drops. Opening resolves the span's node in the
//! recorder's tree: the child named like the span under the
//! enclosing span's node, inserted on first use. Two spans therefore
//! share a node iff the name chains from their roots match, so the tree
//! holds one node per distinct name path however long the run is.
//! Closing adds the span's count, duration and maximum to its node.
//! Parentage comes from a per-thread stack of open nodes, so nesting
//! follows lexical scope on each thread; [`crate::Span::handoff`] carries
//! a node across threads.
//!
//! While the timeline is on ([`crate::set_timeline`]), each close also
//! appends one [`SpanRecord`] to it. Only the Chrome exporter
//! ([`crate::chrome`]) reads the timeline, so it is off by default and
//! a run that writes no trace keeps no per-span record; reports and
//! flamegraphs read the tree through [`SpanNode`].

use crate::alloc::SpanAlloc;

/// One closed span on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dot-separated, e.g. `pipeline.verify`).
    pub name: &'static str,
    /// Start time in microseconds since the process time anchor.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense id of the thread that closed the span.
    pub thread: u64,
}

/// One node of the recorder's tree, stored flat: node ids index
/// `Tree::nodes`.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<u32>,
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// The recorder's span aggregate plus its timeline.
#[derive(Debug, Default)]
pub(crate) struct Tree {
    nodes: Vec<Node>,
    roots: Vec<u32>,
    timeline: Vec<SpanRecord>,
    /// Whether closes append to `timeline`; survives [`Tree::clear`].
    keep_timeline: bool,
}

impl Tree {
    /// The id of the node named `name` under node `parent` (a root when
    /// `parent` is `None` or unknown), inserted on first use.
    pub(crate) fn node(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        let parent = parent.filter(|&p| (p as usize) < self.nodes.len());
        let siblings = match parent {
            Some(p) => &self.nodes[p as usize].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings
            .iter()
            .find(|&&id| self.nodes[id as usize].name == name)
        {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            count: 0,
            total_us: 0,
            max_us: 0,
        });
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Folds one closed span of node `id` into the tree and, while the
    /// timeline is on, appends it to the timeline. Unknown ids (a guard
    /// that outlived a clear) are dropped.
    pub(crate) fn close(&mut self, id: u32, start_us: u64, dur_us: u64, thread: u64) {
        let Some(node) = self.nodes.get_mut(id as usize) else {
            return;
        };
        node.count += 1;
        node.total_us += dur_us;
        node.max_us = node.max_us.max(dur_us);
        if self.keep_timeline {
            self.timeline.push(SpanRecord {
                name: node.name,
                start_us,
                dur_us,
                thread,
            });
        }
    }

    /// Turns the timeline on or off; records already kept stay.
    pub(crate) fn set_timeline(&mut self, on: bool) {
        self.keep_timeline = on;
    }

    /// Whether closes append to the timeline.
    pub(crate) fn keeps_timeline(&self) -> bool {
        self.keep_timeline
    }

    /// A copy of the timeline, in close order.
    pub(crate) fn timeline(&self) -> Vec<SpanRecord> {
        self.timeline.clone()
    }

    /// The tree as a forest of [`SpanNode`]s, roots and children in
    /// first-opened order, with `per_node[id]` as node `id`'s allocations.
    pub(crate) fn forest(&self, per_node: &[SpanAlloc]) -> Vec<SpanNode> {
        self.roots
            .iter()
            .map(|&id| self.span_node(id, per_node))
            .collect()
    }

    fn span_node(&self, id: u32, per_node: &[SpanAlloc]) -> SpanNode {
        let node = &self.nodes[id as usize];
        let alloc = per_node.get(id as usize).copied().unwrap_or_default();
        SpanNode {
            name: node.name.to_owned(),
            count: node.count,
            total_us: node.total_us,
            max_us: node.max_us,
            alloc_count: alloc.allocs,
            alloc_bytes: alloc.bytes,
            children: node
                .children
                .iter()
                .map(|&c| self.span_node(c, per_node))
                .collect(),
        }
    }

    /// Drops every node and timeline record; the timeline stays on or
    /// off as it was.
    pub(crate) fn clear(&mut self) {
        *self = Tree {
            keep_timeline: self.keep_timeline,
            ..Tree::default()
        };
    }
}

/// One node of the aggregated span-timing tree: all spans that share a
/// name *and* an ancestor name path are folded together.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// How many spans folded into this node.
    pub count: u64,
    /// Total wall-clock microseconds across those spans.
    pub total_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Heap allocations attributed to the folded spans (0 unless the
    /// tracking allocator was on for the run).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Child nodes in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Microseconds not accounted for by children (clamped at 0).
    pub fn self_us(&self) -> u64 {
        self.total_us
            .saturating_sub(self.children.iter().map(|c| c.total_us).sum())
    }

    /// Depth-first search for a node by name anywhere in this subtree.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens `name` under `parent` and closes it after `dur` µs.
    fn run(tree: &mut Tree, parent: Option<u32>, name: &'static str, dur: u64) -> u32 {
        let id = tree.node(parent, name);
        tree.close(id, 0, dur, 0);
        id
    }

    #[test]
    fn closes_fold_same_path_and_keep_hierarchy() {
        // run { sample { verify } sample { verify } } — two sample spans
        // fold into one node, as do their verify children.
        let mut tree = Tree::default();
        tree.set_timeline(true);
        let root = tree.node(None, "run");
        let sample = run(&mut tree, Some(root), "sample", 30);
        run(&mut tree, Some(sample), "verify", 20);
        let again = run(&mut tree, Some(root), "sample", 50);
        assert_eq!(again, sample);
        run(&mut tree, Some(sample), "verify", 40);
        tree.close(root, 0, 100, 0);

        let forest = tree.forest(&[]);
        assert_eq!(forest.len(), 1);
        let run = &forest[0];
        assert_eq!((run.count, run.total_us), (1, 100));
        assert_eq!(run.children.len(), 1);
        let sample = &run.children[0];
        assert_eq!(
            (sample.name.as_str(), sample.count, sample.total_us),
            ("sample", 2, 80)
        );
        assert_eq!(sample.max_us, 50);
        let verify = &sample.children[0];
        assert_eq!((verify.count, verify.total_us), (2, 60));
        // Self time subtracts child totals.
        assert_eq!(run.self_us(), 20);
        assert_eq!(sample.self_us(), 20);
        // find() reaches nested nodes.
        assert_eq!(run.find("verify").map(|n| n.count), Some(2));
        assert_eq!(run.find("missing"), None);
        // One timeline record per close, in close order.
        let durs: Vec<u64> = tree.timeline().iter().map(|r| r.dur_us).collect();
        assert_eq!(durs, vec![30, 20, 50, 40, 100]);
    }

    #[test]
    fn same_name_different_parent_stays_separate() {
        let mut tree = Tree::default();
        let a = run(&mut tree, None, "a", 10);
        run(&mut tree, Some(a), "x", 2);
        let b = run(&mut tree, None, "b", 10);
        run(&mut tree, Some(b), "x", 3);
        let forest = tree.forest(&[]);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].children[0].total_us, 2);
        assert_eq!(forest[1].children[0].total_us, 3);
    }

    #[test]
    fn timeline_keeps_records_only_while_on() {
        let mut tree = Tree::default();
        let a = run(&mut tree, None, "a", 5);
        assert!(tree.timeline().is_empty());
        tree.set_timeline(true);
        run(&mut tree, Some(a), "b", 1);
        tree.set_timeline(false);
        run(&mut tree, Some(a), "b", 2);
        // The aggregate sees every close; the timeline only the one
        // made while it was on, and clearing keeps the setting.
        assert_eq!(tree.forest(&[])[0].children[0].count, 2);
        let durs: Vec<u64> = tree.timeline().iter().map(|r| r.dur_us).collect();
        assert_eq!(durs, vec![1]);
        tree.set_timeline(true);
        tree.clear();
        assert!(tree.timeline().is_empty());
        run(&mut tree, None, "a", 3);
        assert_eq!(tree.timeline().len(), 1);
    }

    #[test]
    fn allocations_join_by_node_and_unknown_ids_are_ignored() {
        let mut tree = Tree::default();
        tree.set_timeline(true);
        let a = run(&mut tree, None, "a", 5);
        run(&mut tree, Some(a), "b", 1);
        // An unknown parent opens a root; an unknown close is dropped.
        assert_eq!(tree.node(Some(99), "a"), a);
        tree.close(99, 0, 7, 0);
        let per_node = [
            SpanAlloc {
                allocs: 1,
                bytes: 8,
            },
            SpanAlloc {
                allocs: 2,
                bytes: 64,
            },
        ];
        let forest = tree.forest(&per_node);
        assert_eq!((forest[0].alloc_count, forest[0].alloc_bytes), (1, 8));
        let child = &forest[0].children[0];
        assert_eq!((child.alloc_count, child.alloc_bytes), (2, 64));
        assert_eq!(child.name, "b");
        assert_eq!(tree.timeline().len(), 2);
        tree.clear();
        assert!(tree.forest(&[]).is_empty());
    }
}
