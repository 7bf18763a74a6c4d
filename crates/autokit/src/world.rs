use crate::{PropSet, Vocab};

/// Index of a state in a [`WorldModel`].
pub type ModelState = usize;

/// A transition-system world model `M = ⟨Γ_M, Q_M, δ_M, λ_M⟩`.
///
/// States carry labels `λ_M(p) ∈ 2^P`; the transition relation is
/// non-deterministic. World models encode "the static and dynamic
/// information of a system or an environment" (paper, Section 3) — e.g. the
/// phases of a traffic light and the arrivals of cars and pedestrians.
///
/// Construct models either state-by-state with [`WorldModel::new`] /
/// [`WorldModel::add_state`] / [`WorldModel::add_transition`], or with the
/// paper's Algorithm 1 via [`WorldModelBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldModel {
    /// Human-readable model name (used in DOT export and reports).
    name: String,
    labels: Vec<PropSet>,
    /// Adjacency list: `succs[p]` is the set of `p'` with `δ_M(p, p') = 1`.
    succs: Vec<Vec<ModelState>>,
}

impl WorldModel {
    /// Creates an empty model with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        WorldModel {
            name: name.into(),
            labels: Vec::new(),
            succs: Vec::new(),
        }
    }

    /// Display name of the model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a state labeled `label` and returns its index.
    pub fn add_state(&mut self, label: PropSet) -> ModelState {
        self.labels.push(label);
        self.succs.push(Vec::new());
        self.labels.len() - 1
    }

    /// Adds the transition `from → to`. Duplicate insertions are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either state index is out of range.
    pub fn add_transition(&mut self, from: ModelState, to: ModelState) {
        assert!(from < self.labels.len(), "state index {from} out of range");
        assert!(to < self.labels.len(), "state index {to} out of range");
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    /// The label `λ_M(p)` of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn label(&self, state: ModelState) -> PropSet {
        self.labels[state]
    }

    /// Successors of a state under `δ_M`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn successors(&self, state: ModelState) -> &[ModelState] {
        &self.succs[state]
    }

    /// Number of states `|Q_M|`.
    pub fn num_states(&self) -> usize {
        self.labels.len()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = ModelState> {
        0..self.labels.len()
    }

    /// `true` iff `δ_M(from, to) = 1`.
    pub fn has_transition(&self, from: ModelState, to: ModelState) -> bool {
        self.succs.get(from).is_some_and(|s| s.contains(&to))
    }

    /// Forms the disjoint union of two models, preserving all transitions.
    ///
    /// The paper integrates per-scenario models "together to form a
    /// universal model representing the entire system" (Section 5.1). The
    /// union has no cross-model transitions; a controller is verified
    /// against every scenario's dynamics from every initial state.
    #[must_use]
    pub fn union(&self, other: &WorldModel) -> WorldModel {
        let mut merged = self.clone();
        merged.name = format!("{} ∪ {}", self.name, other.name);
        let offset = merged.num_states();
        for s in other.states() {
            merged.add_state(other.label(s));
        }
        for s in other.states() {
            for &t in other.successors(s) {
                merged.add_transition(offset + s, offset + t);
            }
        }
        merged
    }

    /// Removes states with no incoming *and* no outgoing transitions
    /// (the final pruning step of Algorithm 1). Returns the number of
    /// removed states.
    pub fn prune_isolated(&mut self) -> usize {
        let n = self.labels.len();
        let mut has_out = vec![false; n];
        let mut has_in = vec![false; n];
        for (s, succs) in self.succs.iter().enumerate() {
            // A pure self-loop still counts as activity.
            if !succs.is_empty() {
                has_out[s] = true;
            }
            for &t in succs {
                has_in[t] = true;
            }
        }
        let keep: Vec<bool> = (0..n).map(|s| has_out[s] || has_in[s]).collect();
        let mut remap = vec![usize::MAX; n];
        let mut next = 0;
        for s in 0..n {
            if keep[s] {
                remap[s] = next;
                next += 1;
            }
        }
        let removed = n - next;
        if removed == 0 {
            return 0;
        }
        let mut labels = Vec::with_capacity(next);
        let mut succs = vec![Vec::new(); next];
        for s in 0..n {
            if keep[s] {
                labels.push(self.labels[s]);
                succs[remap[s]] = self.succs[s]
                    .iter()
                    .filter(|&&t| keep[t])
                    .map(|&t| remap[t])
                    .collect();
            }
        }
        self.labels = labels;
        self.succs = succs;
        removed
    }
}

/// Builds a [`WorldModel`] with the paper's **Algorithm 1**: enumerate all
/// `2^|P|` candidate states, keep the transitions the system supports, and
/// prune isolated states.
///
/// The closure given to [`allow_transitions`](Self::allow_transitions)
/// plays the role of the system `S` in Algorithm 1: it answers "does the
/// system support a step from a state labeled `from` to a state labeled
/// `to`?".
///
/// For vocabularies with many propositions the exponential enumeration is
/// wasteful; [`keep_singletons_only`](Self::keep_singletons_only) and
/// [`restrict_labels`](Self::restrict_labels) bound the candidate set. The
/// fully enumerated variant is retained deliberately — the paper calls it
/// the "conservative perspective" and we benchmark its verification-cost
/// blow-up in the `bench` crate (ablation A4).
pub struct WorldModelBuilder<'v> {
    vocab: &'v Vocab,
    name: String,
    candidates: Vec<PropSet>,
    allow: Option<Box<dyn Fn(PropSet, PropSet) -> bool + 'v>>,
    prune: bool,
}

impl<'v> WorldModelBuilder<'v> {
    /// Starts a builder over the given vocabulary, with all `2^|P|`
    /// candidate labels.
    pub fn new(vocab: &'v Vocab) -> Self {
        let n = vocab.num_props();
        let candidates = (0..(1u64 << n))
            .map(|b| PropSet::from_bits(b as u32))
            .collect();
        WorldModelBuilder {
            vocab,
            name: "world model".to_owned(),
            candidates,
            allow: None,
            prune: true,
        }
    }

    /// Sets the model's display name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Restricts candidate states to singleton labels (exactly one
    /// proposition true) plus the empty label.
    #[must_use]
    pub fn keep_singletons_only(mut self) -> Self {
        self.candidates.retain(|c| c.len() <= 1);
        self
    }

    /// Replaces the candidate label set entirely.
    #[must_use]
    pub fn restrict_labels(mut self, labels: impl IntoIterator<Item = PropSet>) -> Self {
        self.candidates = labels.into_iter().collect();
        self
    }

    /// Provides the system's transition predicate (Algorithm 1's
    /// "if `p_i → p_j` is allowed by `S`").
    #[must_use]
    pub fn allow_transitions(mut self, allow: impl Fn(PropSet, PropSet) -> bool + 'v) -> Self {
        self.allow = Some(Box::new(allow));
        self
    }

    /// Keeps every candidate state even if isolated (the paper's
    /// "conservative perspective"). Default is to prune.
    #[must_use]
    pub fn conservative(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Runs Algorithm 1 and returns the model.
    pub fn build(self) -> WorldModel {
        let _ = self.vocab; // the vocabulary fixes |P| for candidate enumeration
        let mut model = WorldModel::new(self.name);
        for &label in &self.candidates {
            model.add_state(label);
        }
        if let Some(allow) = &self.allow {
            for (i, &li) in self.candidates.iter().enumerate() {
                for (j, &lj) in self.candidates.iter().enumerate() {
                    if allow(li, lj) {
                        model.add_transition(i, j);
                    }
                }
            }
        }
        if self.prune {
            model.prune_isolated();
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocab;

    fn traffic_vocab() -> (Vocab, PropSet, PropSet, PropSet) {
        let mut v = Vocab::new();
        let g = v.add_prop("green").unwrap();
        let y = v.add_prop("yellow").unwrap();
        let r = v.add_prop("red").unwrap();
        (
            v,
            PropSet::singleton(g),
            PropSet::singleton(y),
            PropSet::singleton(r),
        )
    }

    #[test]
    fn algorithm1_traffic_light() {
        // The paper's Section 4.1 example: green → yellow → red → green
        // (the prose lists the cycle order red-green-yellow-red with
        // transitions written per pair; we use the figure's convention).
        let (v, g, y, r) = traffic_vocab();
        let model = WorldModelBuilder::new(&v)
            .allow_transitions(move |from, to| {
                (from == g && to == y) || (from == y && to == r) || (from == r && to == g)
            })
            .build();
        // 2^3 = 8 candidates pruned to the 3 participating states.
        assert_eq!(model.num_states(), 3);
        assert_eq!(model.num_transitions(), 3);
        // Every kept state has exactly one successor.
        for s in model.states() {
            assert_eq!(model.successors(s).len(), 1);
        }
    }

    #[test]
    fn conservative_keeps_all_states() {
        let (v, g, y, _r) = traffic_vocab();
        let model = WorldModelBuilder::new(&v)
            .conservative()
            .allow_transitions(move |from, to| from == g && to == y)
            .build();
        assert_eq!(model.num_states(), 8);
    }

    #[test]
    fn prune_removes_only_isolated() {
        let mut m = WorldModel::new("t");
        let a = m.add_state(PropSet::empty());
        let b = m.add_state(PropSet::from_bits(1));
        let c = m.add_state(PropSet::from_bits(2)); // isolated
        m.add_transition(a, b);
        let removed = m.prune_isolated();
        assert_eq!(removed, 1);
        assert_eq!(m.num_states(), 2);
        assert!(m.has_transition(0, 1));
        let _ = c;
    }

    #[test]
    fn self_loop_survives_pruning() {
        let mut m = WorldModel::new("t");
        let a = m.add_state(PropSet::empty());
        m.add_transition(a, a);
        assert_eq!(m.prune_isolated(), 0);
        assert_eq!(m.num_states(), 1);
    }

    #[test]
    fn union_offsets_states() {
        let mut m1 = WorldModel::new("a");
        let a = m1.add_state(PropSet::from_bits(1));
        m1.add_transition(a, a);
        let mut m2 = WorldModel::new("b");
        let b0 = m2.add_state(PropSet::from_bits(2));
        let b1 = m2.add_state(PropSet::from_bits(4));
        m2.add_transition(b0, b1);
        let u = m1.union(&m2);
        assert_eq!(u.num_states(), 3);
        assert!(u.has_transition(0, 0));
        assert!(u.has_transition(1, 2));
        assert!(!u.has_transition(0, 1));
        assert_eq!(u.num_transitions(), 2);
    }

    #[test]
    fn duplicate_transition_ignored() {
        let mut m = WorldModel::new("t");
        let a = m.add_state(PropSet::empty());
        let b = m.add_state(PropSet::empty());
        m.add_transition(a, b);
        m.add_transition(a, b);
        assert_eq!(m.num_transitions(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn transition_bounds_checked() {
        let mut m = WorldModel::new("t");
        let a = m.add_state(PropSet::empty());
        m.add_transition(a, 7);
    }

    #[test]
    fn restrict_labels_builder() {
        let (v, g, y, r) = traffic_vocab();
        let model = WorldModelBuilder::new(&v)
            .restrict_labels([g, y, r])
            .allow_transitions(|_, _| true)
            .build();
        assert_eq!(model.num_states(), 3);
        assert_eq!(model.num_transitions(), 9);
    }
}
