use crate::{ActSet, Controller, CtrlState, ModelState, PropSet, WorldModel};
use std::collections::HashMap;

/// A product-automaton state `(p, q) ∈ Q_M × Q` — a world-model state
/// paired with a controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProductState {
    /// The world-model component `p`.
    pub model: ModelState,
    /// The controller component `q`.
    pub ctrl: CtrlState,
}

/// A labeled product transition: `(p, q) → (p', q')` emitting
/// `ψ = λ_M(p) ∪ a ∈ 2^{P ∪ P_A}` (paper, Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductEdge {
    /// Index of the source state in [`Product::states`].
    pub from: usize,
    /// Index of the destination state in [`Product::states`].
    pub to: usize,
    /// Proposition component of the label (`λ_M(p)`).
    pub props: PropSet,
    /// Action component of the label (`a`).
    pub acts: ActSet,
}

/// The product automaton `𝔓 = M ⊗ C` (paper, Appendix A).
///
/// Only the part reachable from the initial set
/// `{(p, q₀) | p ∈ Q_M}` is constructed. Labeled trajectories of the
/// product — sequences over `2^{P ∪ P_A}` read off its edges — are exactly
/// the behaviours the model checker verifies against LTL specifications.
///
/// # Example
///
/// ```
/// use autokit::{ActSet, ControllerBuilder, Guard, Product, Vocab, WorldModel, PropSet};
/// let mut v = Vocab::new();
/// let green = v.add_prop("green")?;
/// let go = v.add_act("go")?;
///
/// let mut model = WorldModel::new("light");
/// let g = model.add_state(PropSet::singleton(green));
/// let r = model.add_state(PropSet::empty());
/// model.add_transition(g, r);
/// model.add_transition(r, g);
///
/// let ctrl = ControllerBuilder::new("go on green", 1)
///     .initial(0)
///     .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
///     .transition(0, Guard::always().forbids(green), ActSet::empty(), 0)
///     .build()?;
///
/// let product = Product::build(&model, &ctrl);
/// assert_eq!(product.num_states(), 2);
/// assert_eq!(product.num_edges(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Product {
    states: Vec<ProductState>,
    /// `obs[s] = λ_M(p)` for `states[s] = (p, q)`.
    obs: Vec<PropSet>,
    initial: Vec<usize>,
    edges: Vec<ProductEdge>,
    out_edges: Vec<Vec<usize>>,
}

impl Product {
    /// Constructs the reachable product of a world model and a controller.
    ///
    /// Initial states are `{(p, q₀) | p ∈ Q_M}` — the controller may start
    /// while the environment is in any configuration, which is how the
    /// paper verifies "for all the possible initial states".
    pub fn build(model: &WorldModel, ctrl: &Controller) -> Product {
        let mut index: HashMap<ProductState, usize> = HashMap::new();
        let mut states: Vec<ProductState> = Vec::new();
        let mut obs: Vec<PropSet> = Vec::new();
        let mut initial = Vec::new();
        let mut worklist = Vec::new();

        for p in model.states() {
            let s = ProductState {
                model: p,
                ctrl: ctrl.initial(),
            };
            let id = states.len();
            index.insert(s, id);
            states.push(s);
            obs.push(model.label(p));
            initial.push(id);
            worklist.push(id);
        }

        let mut edges: Vec<ProductEdge> = Vec::new();
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); states.len()];

        while let Some(sid) = worklist.pop() {
            let ProductState { model: p, ctrl: q } = states[sid];
            let sigma = model.label(p);
            // Collect (action, q') pairs enabled under λ_M(p); each pairs
            // with every model successor p'.
            let enabled: Vec<(ActSet, CtrlState)> =
                ctrl.enabled(q, sigma).map(|t| (t.action, t.to)).collect();
            for &(a, q_next) in &enabled {
                for &p_next in model.successors(p) {
                    let target = ProductState {
                        model: p_next,
                        ctrl: q_next,
                    };
                    let tid = *index.entry(target).or_insert_with(|| {
                        let id = states.len();
                        states.push(target);
                        obs.push(model.label(p_next));
                        out_edges.push(Vec::new());
                        worklist.push(id);
                        id
                    });
                    let edge = ProductEdge {
                        from: sid,
                        to: tid,
                        props: sigma,
                        acts: a,
                    };
                    // Non-determinism can propose the same edge twice
                    // (distinct controller transitions with equal action
                    // and target); keep it once.
                    if !out_edges[sid].iter().any(|&e| edges[e] == edge) {
                        out_edges[sid].push(edges.len());
                        edges.push(edge);
                    }
                }
            }
        }

        Product {
            states,
            obs,
            initial,
            edges,
            out_edges,
        }
    }

    /// The observation `λ_M(p)` at product state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn observation(&self, s: usize) -> PropSet {
        self.obs[s]
    }

    /// All reachable product states.
    pub fn states(&self) -> &[ProductState] {
        &self.states
    }

    /// Indices of initial states (into [`Product::states`]).
    pub fn initial(&self) -> &[usize] {
        &self.initial
    }

    /// All edges.
    pub fn edges(&self) -> &[ProductEdge] {
        &self.edges
    }

    /// Indices of edges leaving state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn out_edges(&self, s: usize) -> &[usize] {
        &self.out_edges[s]
    }

    /// Number of reachable states `|Q_𝔓|`.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of labeled transitions.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// States with no outgoing edge (deadlocks).
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&s| self.out_edges[s].is_empty())
            .collect()
    }

    /// Converts the edge-labeled product into a state-labeled graph whose
    /// infinite paths emit exactly the product's labeled trajectories.
    ///
    /// Each graph node is a product *edge*; its label is the edge's
    /// `ψ = λ_M(p) ∪ a`; node `e₁ → e₂` iff `e₁.to == e₂.from`. This is the
    /// standard edge-to-state label transformation used to model-check
    /// edge-labeled automata.
    ///
    /// LTL is interpreted over infinite traces, so deadlocks (a controller
    /// with no enabled transition, e.g. a terminal "task done" state)
    /// **stutter**: a node whose product target is deadlocked gets a
    /// successor that re-emits the target's observation `λ_M(p)` with the
    /// empty action `ε` forever. This mirrors the NuSMV practice of
    /// totalizing the transition relation: a finished controller keeps
    /// observing the world while doing nothing.
    pub fn label_graph(&self) -> LabelGraph {
        let mut labels: Vec<(PropSet, ActSet)> = Vec::with_capacity(self.edges.len());
        let mut origin: Vec<ProductState> = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            labels.push((e.props, e.acts));
            origin.push(self.states[e.from]);
        }
        let mut succs: Vec<Vec<usize>> = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            succs.push(self.out_edges[e.to].clone());
        }
        let mut initial: Vec<usize> = self
            .initial
            .iter()
            .flat_map(|&s| self.out_edges[s].iter().copied())
            .collect();
        initial.sort_unstable();
        initial.dedup();

        let mut stutter_of: HashMap<usize, usize> = HashMap::new();
        for (i, edge) in self.edges.iter().enumerate() {
            let target = edge.to;
            if self.out_edges[target].is_empty() {
                let node = *stutter_of.entry(target).or_insert_with(|| {
                    let id = labels.len();
                    labels.push((self.obs[target], ActSet::empty()));
                    origin.push(self.states[target]);
                    succs.push(vec![id]);
                    id
                });
                succs[i].push(node);
            }
        }
        // Initial deadlocked product states (no outgoing edge at all)
        // contribute no behaviour; they are vacuous.

        LabelGraph {
            labels,
            origin,
            succs,
            initial,
        }
    }
}

/// A state-labeled graph over `2^{P ∪ P_A}`, the direct input to LTL model
/// checking. Produced by [`Product::label_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelGraph {
    /// Node labels `ψ_i = (σ_i, a_i)`.
    pub labels: Vec<(PropSet, ActSet)>,
    /// The product state each node originated from — used to render
    /// counterexamples in the paper's `(p_i, q_i, c_i ∪ a_i)` format.
    pub origin: Vec<ProductState>,
    /// Adjacency list.
    pub succs: Vec<Vec<usize>>,
    /// Initial nodes.
    pub initial: Vec<usize>,
}

impl LabelGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActSet, ControllerBuilder, Guard, Vocab};

    /// Two-phase light (green ↔ ¬green), controller goes on green, waits
    /// otherwise.
    fn simple_setup() -> (WorldModel, Controller) {
        let mut v = Vocab::new();
        let green = v.add_prop("green").unwrap();
        let go = v.add_act("go").unwrap();
        let mut model = WorldModel::new("light");
        let g = model.add_state(PropSet::singleton(green));
        let r = model.add_state(PropSet::empty());
        model.add_transition(g, r);
        model.add_transition(r, g);
        model.add_transition(g, g);
        let ctrl = ControllerBuilder::new("go on green", 1)
            .initial(0)
            .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
            .transition(0, Guard::always().forbids(green), ActSet::empty(), 0)
            .build()
            .unwrap();
        (model, ctrl)
    }

    #[test]
    fn product_reaches_expected_states() {
        let (model, ctrl) = simple_setup();
        let product = Product::build(&model, &ctrl);
        // 2 model states × 1 controller state, all reachable.
        assert_eq!(product.num_states(), 2);
        // g: go-edge to r and to g (2 edges); r: ε-edge to g (1 edge).
        assert_eq!(product.num_edges(), 3);
        assert!(product.deadlocks().is_empty());
    }

    #[test]
    fn initial_pairs_every_model_state_with_q0() {
        let (model, ctrl) = simple_setup();
        let product = Product::build(&model, &ctrl);
        assert_eq!(product.initial().len(), model.num_states());
        for &i in product.initial() {
            assert_eq!(product.states()[i].ctrl, ctrl.initial());
        }
    }

    #[test]
    fn edge_labels_carry_source_observation() {
        let (model, ctrl) = simple_setup();
        let product = Product::build(&model, &ctrl);
        for e in product.edges() {
            let src = product.states()[e.from];
            assert_eq!(e.props, model.label(src.model));
        }
    }

    #[test]
    fn label_graph_paths_mirror_product() {
        let (model, ctrl) = simple_setup();
        let product = Product::build(&model, &ctrl);
        let graph = product.label_graph();
        assert_eq!(graph.num_nodes(), product.num_edges());
        // Every node's successors' origin matches the node's target state.
        for (i, succs) in graph.succs.iter().enumerate() {
            let target = product.edges()[i].to;
            for &j in succs {
                assert_eq!(graph.origin[j], product.states()[product.edges()[j].from]);
                assert_eq!(product.edges()[j].from, target);
            }
        }
    }

    #[test]
    fn deadlock_stutter_adds_self_loop() {
        let mut v = Vocab::new();
        let green = v.add_prop("green").unwrap();
        let go = v.add_act("go").unwrap();
        let mut model = WorldModel::new("light");
        let g = model.add_state(PropSet::singleton(green));
        model.add_transition(g, g);
        // Controller moves to a terminal state and stops.
        let ctrl = ControllerBuilder::new("one shot", 2)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(go), 1)
            .build()
            .unwrap();
        let product = Product::build(&model, &ctrl);
        assert_eq!(product.deadlocks().len(), 1);
        let graph = product.label_graph();
        // One real edge plus one stutter node.
        assert_eq!(graph.num_nodes(), 2);
        let stutter = 1;
        assert_eq!(graph.succs[stutter], vec![stutter]);
        assert!(graph.labels[stutter].1.is_empty());
    }

    mod properties {
        use super::*;
        use crate::Guard;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        struct RandomSetup {
            model: WorldModel,
            ctrl: Controller,
        }

        fn arb_setup() -> impl Strategy<Value = RandomSetup> {
            let model_strategy = (
                proptest::collection::vec(0u32..16, 1..5), // state labels
                proptest::collection::vec(any::<bool>(), 0..25), // adjacency bits
            );
            let ctrl_strategy = (
                1usize..4, // number of states
                proptest::collection::vec(
                    (0usize..4, 0u32..16, 0u32..16, 0u32..4, 0usize..4),
                    0..8,
                ), // (from, pos, neg, action, to)
            );
            (model_strategy, ctrl_strategy).prop_map(|((labels, adj), (nq, transitions))| {
                let mut model = WorldModel::new("random");
                let states: Vec<_> = labels
                    .iter()
                    .map(|&b| model.add_state(PropSet::from_bits(b)))
                    .collect();
                let n = states.len();
                for (k, &bit) in adj.iter().enumerate() {
                    if bit {
                        model.add_transition(states[k % n], states[(k / n) % n]);
                    }
                }
                let mut builder = ControllerBuilder::new("random", nq).initial(0);
                for (from, pos, neg, act, to) in transitions {
                    builder = builder.transition(
                        from % nq,
                        Guard {
                            pos: PropSet::from_bits(pos),
                            neg: PropSet::from_bits(neg),
                        },
                        ActSet::from_bits(act),
                        to % nq,
                    );
                }
                RandomSetup {
                    model,
                    ctrl: builder.build().expect("indices are in range"),
                }
            })
        }

        proptest! {
            /// Every product edge is justified by a controller transition
            /// and a model transition, and carries the source observation.
            #[test]
            fn edges_are_justified(setup in arb_setup()) {
                let product = Product::build(&setup.model, &setup.ctrl);
                for e in product.edges() {
                    let src = product.states()[e.from];
                    let dst = product.states()[e.to];
                    let obs = setup.model.label(src.model);
                    prop_assert_eq!(e.props, obs);
                    prop_assert_eq!(product.observation(e.from), obs);
                    prop_assert!(setup.model.has_transition(src.model, dst.model));
                    let justified = setup.ctrl.enabled(src.ctrl, obs).any(|t| {
                        t.action == e.acts && t.to == dst.ctrl
                    });
                    prop_assert!(justified, "unjustified edge {e:?}");
                }
            }

            /// Initial states pair every model state with q₀, and every
            /// product state is reachable from the initial set.
            #[test]
            fn reachability_and_initials(setup in arb_setup()) {
                let product = Product::build(&setup.model, &setup.ctrl);
                prop_assert_eq!(product.initial().len(), setup.model.num_states());
                for &i in product.initial() {
                    prop_assert_eq!(product.states()[i].ctrl, setup.ctrl.initial());
                }
                // BFS over edges must reach every state.
                let mut seen = vec![false; product.num_states()];
                let mut queue: Vec<usize> = product.initial().to_vec();
                for &s in &queue {
                    seen[s] = true;
                }
                while let Some(s) = queue.pop() {
                    for &eid in product.out_edges(s) {
                        let t = product.edges()[eid].to;
                        if !seen[t] {
                            seen[t] = true;
                            queue.push(t);
                        }
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "unreachable product state");
            }

            /// The label graph's paths are exactly the product's edge
            /// walks: successors of a node continue from its target.
            #[test]
            fn label_graph_consistency(setup in arb_setup()) {
                let product = Product::build(&setup.model, &setup.ctrl);
                let graph = product.label_graph();
                for (i, e) in product.edges().iter().enumerate() {
                    prop_assert_eq!(graph.labels[i], (e.props, e.acts));
                    for &j in &graph.succs[i] {
                        if j < product.num_edges() {
                            prop_assert_eq!(product.edges()[j].from, e.to);
                        } else {
                            // Stutter node: self-looping, ε action.
                            prop_assert!(graph.succs[j].contains(&j));
                            prop_assert!(graph.labels[j].1.is_empty());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut v = Vocab::new();
        let green = v.add_prop("green").unwrap();
        let mut model = WorldModel::new("m");
        let s = model.add_state(PropSet::singleton(green));
        model.add_transition(s, s);
        // Two identical transitions in the controller.
        let ctrl = ControllerBuilder::new("dup", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::empty(), 0)
            .transition(0, Guard::always(), ActSet::empty(), 0)
            .build()
            .unwrap();
        let product = Product::build(&model, &ctrl);
        assert_eq!(product.num_edges(), 1);
    }
}
