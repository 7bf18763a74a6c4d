//! A symbolic (BDD-based) verification backend — the NuSMV-style
//! counterpart to the explicit-state checker in [`crate::check_graph_fair`].
//!
//! The product of the label graph with the Büchi automaton of the negated
//! specification is encoded over binary state variables; reachability and
//! the Emerson–Lei fair-cycle computation are symbolic fixpoints over
//! BDDs instead of explicit graph searches.
//!
//! The encoding follows the techniques that made symbolic model checking
//! scale (see DESIGN.md §14):
//!
//! * **Partitioned transition relation.** The graph-component relation
//!   `T_G(g, g')` and the Büchi-component relation `T_B(b, b')` are kept
//!   as separate conjuncts and never conjoined into one monolithic BDD.
//!   Each is built *per successor set* — sources sharing a successor set
//!   are grouped and encoded as `(⋁ sources) ∧ (⋁ targets')` with
//!   balanced [`bdd::BddManager::or_all`] combining — instead of
//!   per-edge.
//! * **Interleaved variable order.** Current/next bits of the same state
//!   bit are adjacent (`cur = 2k`, `next = 2k+1`), the known-good order
//!   for transition relations; the component with more states gets the
//!   bits nearer the root. The blocked `[cur | next]` layout is retained
//!   behind [`SymbolicConfig`] for differential testing.
//! * **Early quantification.** Image and pre-image are computed with the
//!   fused [`bdd::BddManager::and_exists`] relational product, one
//!   partition conjunct at a time: each variable is quantified out at the
//!   first conjunct after which no remaining conjunct mentions it (graph
//!   bits after `T_G`, Büchi bits after `T_B`), so the full
//!   `S ∧ T_G ∧ T_B` conjunction is never materialized.
//! * **Frontier ("onion ring") fixpoints.** Forward reachability and the
//!   inner `E[Z U T]` least fixpoints only expand the newly discovered
//!   ring each iteration, sound because image/pre-image distribute over
//!   union.
//!
//! Both backends decide the same question and the test suite cross-checks
//! them (see `certkit` for the differential harness). The symbolic
//! backend returns a yes/no verdict; for counterexample lassos use the
//! explicit checker.

use crate::analysis::negation_automaton;
use crate::{Justice, Ltl};
use autokit::LabelGraph;
use bdd::{BddManager, Ref};
use std::collections::HashMap;

/// Variable layout of the current/next state bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Current/next pairs adjacent: bit `k` occupies variables `2k`
    /// (current) and `2k+1` (next). The known-good order for transition
    /// relations — a relation relating `x` to `x'` stays linear in the
    /// number of bits instead of exponential.
    #[default]
    Interleaved,
    /// Separate blocks: `[0, n)` current, `[n, 2n)` next — the legacy
    /// layout, kept for differential testing.
    Blocked,
}

/// Tuning knobs for the symbolic backend. The defaults (interleaved
/// order, partitioned relation) are the fast path; the alternatives exist
/// so equivalence with the straightforward encoding stays a testable
/// property rather than folklore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicConfig {
    /// Variable layout.
    pub order: VarOrder,
    /// Keep the graph/Büchi relations partitioned (`true`) or conjoin
    /// them with the validity constraints into one monolithic relation
    /// (`false`).
    pub partitioned: bool,
}

impl Default for SymbolicConfig {
    fn default() -> Self {
        SymbolicConfig {
            order: VarOrder::Interleaved,
            partitioned: true,
        }
    }
}

/// Statistics from a symbolic check, for benchmarking and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SymbolicStats {
    /// Binary state variables per block (current/next).
    pub state_bits: u32,
    /// Live BDD nodes when the check finished.
    pub bdd_nodes: usize,
    /// High-water mark of the BDD node store.
    pub peak_nodes: usize,
    /// Outer Emerson–Lei iterations until fixpoint.
    pub el_iterations: usize,
    /// Frontier expansions ("onion rings") of forward reachability —
    /// equals the eccentricity of the initial states within the
    /// reachable product.
    pub reach_rings: usize,
    /// Probes of the BDD manager's hot operation caches.
    pub cache_lookups: u64,
    /// Probes that found their result memoized.
    pub cache_hits: u64,
}

/// Symbolic analogue of [`crate::check_graph_fair`]: returns `true` iff
/// every justice-fair infinite path of `graph` satisfies `phi`.
pub fn check_graph_fair_symbolic(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    check_with_config(graph, phi, justice, SymbolicConfig::default()).0
}

/// Bit positions of one product component within the state word.
#[derive(Debug, Clone, Copy)]
struct Layout {
    order: VarOrder,
    state_bits: u32,
    gbits: u32,
    bbits: u32,
    /// Graph bits occupy the low (root-near) positions when the graph
    /// component is the larger one.
    graph_first: bool,
}

impl Layout {
    fn new(order: VarOrder, ng: usize, nb: usize) -> Self {
        let gbits = bits_for(ng);
        let bbits = bits_for(nb);
        Layout {
            order,
            state_bits: gbits + bbits,
            gbits,
            bbits,
            graph_first: ng >= nb,
        }
    }

    /// Current-block variable of global state bit `k`.
    fn cur_var(&self, k: u32) -> u32 {
        match self.order {
            VarOrder::Interleaved => 2 * k,
            VarOrder::Blocked => k,
        }
    }

    /// Next-block variable of global state bit `k`.
    fn next_var(&self, k: u32) -> u32 {
        match self.order {
            VarOrder::Interleaved => 2 * k + 1,
            VarOrder::Blocked => k + self.state_bits,
        }
    }

    /// `rename_shift` offset taking a current-block function to the next
    /// block.
    fn shift(&self) -> i64 {
        match self.order {
            VarOrder::Interleaved => 1,
            VarOrder::Blocked => i64::from(self.state_bits),
        }
    }

    /// Global state-bit position of graph bit `i`.
    fn graph_bit(&self, i: u32) -> u32 {
        if self.graph_first {
            i
        } else {
            self.bbits + i
        }
    }

    /// Global state-bit position of Büchi bit `i`.
    fn buchi_bit(&self, i: u32) -> u32 {
        if self.graph_first {
            self.gbits + i
        } else {
            i
        }
    }

    /// Literals (sorted by variable) encoding `value` over the graph
    /// bits of the chosen block.
    fn graph_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        self.lits(value, self.gbits, next, |s, i| s.graph_bit(i))
    }

    /// Literals (sorted by variable) encoding `value` over the Büchi
    /// bits of the chosen block.
    fn buchi_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        self.lits(value, self.bbits, next, |s, i| s.buchi_bit(i))
    }

    fn lits(
        &self,
        value: u32,
        bits: u32,
        next: bool,
        pos: impl Fn(&Self, u32) -> u32,
    ) -> Vec<(u32, bool)> {
        let mut lits: Vec<(u32, bool)> = (0..bits)
            .map(|i| {
                let k = pos(self, i);
                let v = if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                };
                (v, value & (1 << i) != 0)
            })
            .collect();
        lits.sort_unstable_by_key(|&(v, _)| v);
        lits
    }

    /// The chosen block's variables for the graph bits.
    fn graph_vars(&self, next: bool) -> Vec<u32> {
        (0..self.gbits)
            .map(|i| {
                let k = self.graph_bit(i);
                if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                }
            })
            .collect()
    }

    /// The chosen block's variables for the Büchi bits.
    fn buchi_vars(&self, next: bool) -> Vec<u32> {
        (0..self.bbits)
            .map(|i| {
                let k = self.buchi_bit(i);
                if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                }
            })
            .collect()
    }
}

/// The transition structure, either partitioned or monolithic.
struct Relation {
    /// Monolithic `T_G ∧ T_B ∧ valid ∧ valid'` when configured;
    /// otherwise the partition below is used directly.
    mono: Option<Ref>,
    t_graph: Ref,
    t_buchi: Ref,
    valid: Ref,
    g_cur: Vec<u32>,
    g_next: Vec<u32>,
    b_cur: Vec<u32>,
    b_next: Vec<u32>,
    all_cur: Vec<u32>,
    all_next: Vec<u32>,
    shift: i64,
}

impl Relation {
    /// Successors of `s` (image), for `s ⊆ valid`. With the partition,
    /// graph bits are quantified out at `T_G` and Büchi bits at `T_B` —
    /// the early-quantification schedule; the conjunction
    /// `s ∧ T_G ∧ T_B` is never built.
    fn image(&self, m: &mut BddManager, s: Ref) -> Ref {
        if let Some(trans) = self.mono {
            let step = m.and_exists(s, trans, &self.all_cur);
            m.rename_shift(step, -self.shift)
        } else {
            let a = m.and_exists(s, self.t_graph, &self.g_cur);
            let b = m.and_exists(a, self.t_buchi, &self.b_cur);
            let img = m.rename_shift(b, -self.shift);
            m.and(img, self.valid)
        }
    }

    /// Predecessors of `s` (pre-image / EX), for `s ⊆ valid`.
    fn pre(&self, m: &mut BddManager, s: Ref) -> Ref {
        let s_next = m.rename_shift(s, self.shift);
        if let Some(trans) = self.mono {
            m.and_exists(trans, s_next, &self.all_next)
        } else {
            let a = m.and_exists(s_next, self.t_graph, &self.g_next);
            let b = m.and_exists(a, self.t_buchi, &self.b_next);
            m.and(b, self.valid)
        }
    }

    /// `E[Z U T]` as a frontier-based backward least fixpoint: each
    /// round only the newest ring is fed to the pre-image (pre
    /// distributes over union, so expanding rings is equivalent to
    /// expanding the whole set).
    fn eu(&self, m: &mut BddManager, z: Ref, t: Ref) -> Ref {
        let mut y = t;
        let mut frontier = t;
        let fals = m.constant(false);
        while frontier != fals {
            let pre = self.pre(m, frontier);
            let step = m.and(pre, z);
            let ny = m.not(y);
            frontier = m.and(step, ny);
            y = m.or(y, frontier);
        }
        y
    }
}

/// [`check_graph_fair_symbolic`] with statistics, under an explicit
/// [`SymbolicConfig`]. Every configuration decides the same property;
/// the proptests below pin the equivalences.
///
/// The automaton of `¬phi` comes from the same
/// [`spec_automaton`](crate::analysis::spec_automaton) cache the explicit
/// checker uses, so both backends search one translation.
pub fn check_with_config(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
    config: SymbolicConfig,
) -> (bool, SymbolicStats) {
    let buchi = negation_automaton(phi);
    let ng = graph.num_nodes();
    let nb = buchi.num_states();
    if ng == 0 || nb == 0 || graph.initial.is_empty() {
        return (true, SymbolicStats::default());
    }

    let layout = Layout::new(config.order, ng, nb);
    let mut m = BddManager::new(2 * layout.state_bits);

    // ---- Valid state space -------------------------------------------
    // A product state (g, b) is valid iff b's literal constraints match
    // g's label. Graph nodes are grouped by label so each distinct
    // label's matching-Büchi disjunction is built once; groups use
    // first-seen order so the construction is deterministic.
    let mut label_order: Vec<(autokit::PropSet, autokit::ActSet)> = Vec::new();
    let mut label_groups: HashMap<(autokit::PropSet, autokit::ActSet), Vec<u32>> = HashMap::new();
    for (g, &label) in graph.labels.iter().enumerate() {
        label_groups
            .entry(label)
            .or_insert_with(|| {
                label_order.push(label);
                Vec::new()
            })
            .push(g as u32);
    }
    let mut valid_parts = Vec::with_capacity(label_order.len());
    for label in &label_order {
        let members = &label_groups[label];
        let matching: Vec<Ref> = buchi
            .states()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.matches(label.0, label.1))
            .map(|(b, _)| {
                let lits = layout.buchi_lits(b as u32, false);
                m.cube(&lits)
            })
            .collect();
        let bs = m.or_all(matching);
        let gs: Vec<Ref> = members
            .iter()
            .map(|&g| {
                let lits = layout.graph_lits(g, false);
                m.cube(&lits)
            })
            .collect();
        let gs = m.or_all(gs);
        valid_parts.push(m.and(gs, bs));
    }
    let valid = m.or_all(valid_parts);

    // ---- Component transition relations ------------------------------
    // Built per successor set, not per edge: sources sharing a successor
    // set contribute one (⋁ sources) ∧ (⋁ targets') conjunct.
    let t_graph = {
        let groups = group_by_succs(ng, |g| graph.succs[g].iter().map(|&s| s as u32));
        build_component(
            &mut m,
            &groups,
            |layout, v, next| layout.graph_lits(v, next),
            &layout,
        )
    };
    let t_buchi = {
        let groups = group_by_succs(nb, |b| buchi.states()[b].succs.iter().map(|&s| s as u32));
        build_component(
            &mut m,
            &groups,
            |layout, v, next| layout.buchi_lits(v, next),
            &layout,
        )
    };

    let relation = {
        let g_cur = layout.graph_vars(false);
        let g_next = layout.graph_vars(true);
        let b_cur = layout.buchi_vars(false);
        let b_next = layout.buchi_vars(true);
        let all_cur: Vec<u32> = g_cur.iter().chain(&b_cur).copied().collect();
        let all_next: Vec<u32> = g_next.iter().chain(&b_next).copied().collect();
        let mono = if config.partitioned {
            None
        } else {
            let valid_next = m.rename_shift(valid, layout.shift());
            let gb = m.and(t_graph, t_buchi);
            let gbv = m.and(gb, valid_next);
            Some(m.and(gbv, valid))
        };
        Relation {
            mono,
            t_graph,
            t_buchi,
            valid,
            g_cur,
            g_next,
            b_cur,
            b_next,
            all_cur,
            all_next,
            shift: layout.shift(),
        }
    };

    // ---- Initial states ----------------------------------------------
    let init_parts: Vec<Ref> = graph
        .initial
        .iter()
        .flat_map(|&g| buchi.initial().iter().map(move |&b| (g, b)))
        .filter(|&(g, b)| {
            let (props, acts) = graph.labels[g];
            buchi.states()[b].matches(props, acts)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(g, b)| {
            let mut lits = layout.graph_lits(g as u32, false);
            lits.extend(layout.buchi_lits(b as u32, false));
            lits.sort_unstable_by_key(|&(v, _)| v);
            m.cube(&lits)
        })
        .collect();
    let init = m.or_all(init_parts);

    // ---- Forward reachability (onion rings) --------------------------
    let fals = m.constant(false);
    let mut reach = init;
    let mut frontier = init;
    let mut reach_rings = 0;
    while frontier != fals {
        reach_rings += 1;
        let img = relation.image(&mut m, frontier);
        let nr = m.not(reach);
        frontier = m.and(img, nr);
        reach = m.or(reach, frontier);
    }

    // ---- Acceptance families -----------------------------------------
    // Büchi acceptance plus one family per justice condition, all over
    // the current block.
    let mut families: Vec<Ref> = Vec::new();
    {
        let acc: Vec<Ref> = buchi
            .states()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.accepting)
            .map(|(b, _)| {
                let lits = layout.buchi_lits(b as u32, false);
                m.cube(&lits)
            })
            .collect();
        let acc = m.or_all(acc);
        families.push(acc);
    }
    for j in justice {
        let sat: Vec<Ref> = label_order
            .iter()
            .filter(|&&(props, acts)| j.holds(props, acts))
            .flat_map(|label| label_groups[label].iter().copied())
            .collect::<Vec<u32>>()
            .into_iter()
            .map(|g| {
                let lits = layout.graph_lits(g, false);
                m.cube(&lits)
            })
            .collect();
        let sat = m.or_all(sat);
        families.push(sat);
    }

    // ---- Emerson–Lei fair-cycle fixpoint -----------------------------
    //   Z = ⋀_i EX E[Z U (Z ∧ F_i)]
    // seeded with the reachable set instead of all valid states: reach
    // is forward-closed, so every fair cycle reachable from an initial
    // state lies entirely within it — the gfp restricted to reach finds
    // exactly the reachable fair-cycle states.
    let mut z = reach;
    let mut el_iterations = 0;
    loop {
        el_iterations += 1;
        let mut znew = z;
        for &f in &families {
            let zf = m.and(znew, f);
            let reach_f = relation.eu(&mut m, znew, zf);
            let pre = relation.pre(&mut m, reach_f);
            znew = m.and(znew, pre);
        }
        if znew == z {
            break;
        }
        z = znew;
    }

    // A fair cycle is reachable iff Z (⊆ reach) is non-empty.
    let holds = !m.satisfiable(z);
    let stats = SymbolicStats {
        state_bits: layout.state_bits,
        bdd_nodes: m.num_nodes(),
        peak_nodes: m.peak_nodes(),
        el_iterations,
        reach_rings,
        cache_lookups: m.cache_lookups(),
        cache_hits: m.cache_hits(),
    };
    count_symbolic_check(&stats);
    (holds, stats)
}

/// Per-check observability counters (no-ops unless `obskit` is enabled).
fn count_symbolic_check(stats: &SymbolicStats) {
    if !obskit::enabled() {
        return;
    }
    obskit::counter_add("symbolic.checks", 1);
    obskit::counter_add("symbolic.cache_lookups", stats.cache_lookups);
    obskit::counter_add("symbolic.cache_hits", stats.cache_hits);
    obskit::counter_add("symbolic.el_iterations", stats.el_iterations as u64);
    obskit::observe("symbolic.peak_nodes", stats.peak_nodes as u64);
    obskit::observe("symbolic.reach_rings", stats.reach_rings as u64);
}

/// Groups states `0..n` by successor set (sorted, deduplicated), in
/// deterministic first-seen order. Returns `(targets, sources)` pairs.
fn group_by_succs<I: Iterator<Item = u32>>(
    n: usize,
    succs_of: impl Fn(usize) -> I,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut groups: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    for s in 0..n {
        let mut targets: Vec<u32> = succs_of(s).collect();
        targets.sort_unstable();
        targets.dedup();
        if let Some(&i) = index.get(&targets) {
            groups[i].1.push(s as u32);
        } else {
            index.insert(targets.clone(), groups.len());
            groups.push((targets, vec![s as u32]));
        }
    }
    groups
}

/// Builds one component's transition relation from its successor-set
/// groups: `⋁_groups (⋁ sources) ∧ (⋁ targets')`, combined balanced.
fn build_component(
    m: &mut BddManager,
    groups: &[(Vec<u32>, Vec<u32>)],
    lits: impl Fn(&Layout, u32, bool) -> Vec<(u32, bool)>,
    layout: &Layout,
) -> Ref {
    let parts: Vec<Ref> = groups
        .iter()
        .map(|(targets, sources)| {
            let tgt: Vec<Ref> = targets
                .iter()
                .map(|&t| {
                    let l = lits(layout, t, true);
                    m.cube(&l)
                })
                .collect();
            let tgt = m.or_all(tgt);
            let src: Vec<Ref> = sources
                .iter()
                .map(|&s| {
                    let l = lits(layout, s, false);
                    m.cube(&l)
                })
                .collect();
            let src = m.or_all(src);
            m.and(src, tgt)
        })
        .collect();
    m.or_all(parts)
}

fn bits_for(n: usize) -> u32 {
    let mut bits = 1;
    while (1usize << bits) < n {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{arb_ltl, vocab};
    use crate::{check_graph_fair, parse, Verdict};
    use autokit::{ActSet, ProductState, PropSet, Vocab};
    use proptest::prelude::*;

    fn lasso_graph(prefix: &[(PropSet, ActSet)], cycle: &[(PropSet, ActSet)]) -> LabelGraph {
        let n = prefix.len() + cycle.len();
        let mut labels = Vec::new();
        let mut succs = vec![Vec::new(); n];
        for (i, &l) in prefix.iter().chain(cycle.iter()).enumerate() {
            labels.push(l);
            if i + 1 < n {
                succs[i].push(i + 1);
            } else {
                succs[i].push(prefix.len());
            }
        }
        LabelGraph {
            labels,
            origin: vec![ProductState { model: 0, ctrl: 0 }; n],
            succs,
            initial: vec![0],
        }
    }

    fn decode(word: &[u8], v: &Vocab) -> Vec<(PropSet, ActSet)> {
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        word.iter()
            .map(|&bits| {
                let mut props = PropSet::empty();
                if bits & 1 != 0 {
                    props.insert(a);
                }
                if bits & 2 != 0 {
                    props.insert(b);
                }
                let mut acts = ActSet::empty();
                if bits & 4 != 0 {
                    acts.insert(s);
                }
                (props, acts)
            })
            .collect()
    }

    #[test]
    fn agrees_on_simple_cases() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let word = vec![(PropSet::singleton(a), ActSet::empty())];
        let graph = lasso_graph(&[], &word);
        for spec in ["G a", "F !a", "a U b", "X a"] {
            let phi = parse(spec, &v).unwrap();
            let explicit = check_graph_fair(&graph, &phi, &[]).holds();
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &[]);
            assert_eq!(explicit, symbolic, "{spec}");
        }
    }

    #[test]
    fn agrees_under_justice() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        // Two-state graph: {a} ↔ {} with self-loops; an unfair path may
        // stay in {} forever.
        let la = (PropSet::singleton(a), ActSet::empty());
        let l0 = (PropSet::empty(), ActSet::empty());
        let graph = LabelGraph {
            labels: vec![la, l0],
            origin: vec![ProductState { model: 0, ctrl: 0 }; 2],
            succs: vec![vec![0, 1], vec![0, 1]],
            initial: vec![1],
        };
        let phi = parse("G F a", &v).unwrap();
        let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
        // Without justice the spec fails (stay in {} forever)...
        assert!(!check_graph_fair(&graph, &phi, &[]).holds());
        assert!(!check_graph_fair_symbolic(&graph, &phi, &[]));
        // ...and with justice it holds, in both backends.
        assert!(check_graph_fair(&graph, &phi, &justice).holds());
        assert!(check_graph_fair_symbolic(&graph, &phi, &justice));
    }

    #[test]
    fn stats_are_populated() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let graph = lasso_graph(&[], &[(PropSet::singleton(a), ActSet::empty())]);
        let phi = parse("G a", &v).unwrap();
        let (holds, stats) = check_with_config(&graph, &phi, &[], SymbolicConfig::default());
        assert!(holds);
        assert!(stats.state_bits >= 2);
        assert!(stats.bdd_nodes > 2);
        assert!(stats.peak_nodes >= stats.bdd_nodes);
        assert!(stats.el_iterations >= 1);
        assert!(stats.reach_rings >= 1);
        assert!(stats.cache_lookups > 0);
        assert!(stats.cache_hits <= stats.cache_lookups);
    }

    fn all_configs() -> [SymbolicConfig; 4] {
        [
            SymbolicConfig {
                order: VarOrder::Interleaved,
                partitioned: true,
            },
            SymbolicConfig {
                order: VarOrder::Interleaved,
                partitioned: false,
            },
            SymbolicConfig {
                order: VarOrder::Blocked,
                partitioned: true,
            },
            SymbolicConfig {
                order: VarOrder::Blocked,
                partitioned: false,
            },
        ]
    }

    #[test]
    fn configs_agree_on_simple_cases() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let word = vec![(PropSet::singleton(a), ActSet::empty())];
        let graph = lasso_graph(&[], &word);
        for spec in ["G a", "F !a", "a U b", "X a", "G F a"] {
            let phi = parse(spec, &v).unwrap();
            let expected = check_graph_fair(&graph, &phi, &[]).holds();
            for config in all_configs() {
                let (got, _) = check_with_config(&graph, &phi, &[], config);
                assert_eq!(expected, got, "{spec} under {config:?}");
            }
        }
    }

    /// Random branching graphs (not just lassos). `max_nodes`/`max_edges`
    /// scale the instance size — the cross-backend differential runs on
    /// larger graphs than the config-equivalence tests.
    fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = LabelGraph> {
        (
            proptest::collection::vec(0u8..8, 1..max_nodes),
            proptest::collection::vec((0usize..max_nodes, 0usize..max_nodes), 1..max_edges),
        )
            .prop_map(|(labels_raw, edges)| {
                let v = vocab();
                let labels = decode(&labels_raw, &v);
                let n = labels.len();
                let mut succs = vec![Vec::new(); n];
                for (a, b) in edges {
                    let (a, b) = (a % n, b % n);
                    if !succs[a].contains(&b) {
                        succs[a].push(b);
                    }
                }
                // Ensure totality so both backends see infinite paths.
                for (i, s) in succs.iter_mut().enumerate() {
                    if s.is_empty() {
                        s.push(i);
                    }
                }
                LabelGraph {
                    origin: vec![ProductState { model: 0, ctrl: 0 }; n],
                    labels,
                    succs,
                    initial: vec![0],
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The explicit and symbolic backends agree on random graphs and
        /// formulas, with and without a justice assumption — on graphs
        /// up to 12 nodes / 40 edge draws (larger than the pre-partition
        /// generator's 6/12).
        #[test]
        fn backends_agree(graph in arb_graph(12, 40), phi in arb_ltl()) {
            let v = vocab();
            let explicit = check_graph_fair(&graph, &phi, &[]).holds();
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &[]);
            prop_assert_eq!(explicit, symbolic, "no justice: {:?}", phi);

            let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
            let explicit = matches!(
                check_graph_fair(&graph, &phi, &justice),
                Verdict::Holds
            );
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &justice);
            prop_assert_eq!(explicit, symbolic, "with justice: {:?}", phi);
        }

        /// The partitioned relation decides exactly what the monolithic
        /// conjunction decides, in both variable orders.
        #[test]
        fn partitioned_matches_monolithic(graph in arb_graph(8, 24), phi in arb_ltl()) {
            let v = vocab();
            let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
            for order in [VarOrder::Interleaved, VarOrder::Blocked] {
                let part = check_with_config(
                    &graph, &phi, &justice,
                    SymbolicConfig { order, partitioned: true },
                ).0;
                let mono = check_with_config(
                    &graph, &phi, &justice,
                    SymbolicConfig { order, partitioned: false },
                ).0;
                prop_assert_eq!(part, mono, "order {:?}: {:?}", order, phi);
            }
        }

        /// Interleaved and blocked variable orders give the same verdict
        /// (the order changes BDD sizes, never semantics).
        #[test]
        fn interleaved_matches_blocked(graph in arb_graph(8, 24), phi in arb_ltl()) {
            let inter = check_with_config(
                &graph, &phi, &[],
                SymbolicConfig { order: VarOrder::Interleaved, partitioned: true },
            ).0;
            let blocked = check_with_config(
                &graph, &phi, &[],
                SymbolicConfig { order: VarOrder::Blocked, partitioned: true },
            ).0;
            prop_assert_eq!(inter, blocked, "{:?}", phi);
        }
    }
}
