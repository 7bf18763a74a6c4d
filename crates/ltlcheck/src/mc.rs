//! Automata-theoretic LTL model checking with justice (fairness) support.
//!
//! To decide `M ⊗ C ⊨ Φ` we translate `¬Φ` to a Büchi automaton
//! ([`crate::Buchi`]), form the synchronous product with the product
//! automaton's label graph, and search for a reachable **fair accepting
//! cycle**: a strongly connected component that contains a Büchi-accepting
//! state *and* a witness for every [`Justice`] assumption. A hit yields a
//! **lasso counterexample** — a concrete infinite behaviour violating the
//! specification while honouring all fairness assumptions — reported in
//! the paper's `(p_i, q_i, c_i ∪ a_i)` trace format (Section 4.2).
//!
//! Justice assumptions play the role of NuSMV `FAIRNESS`/`JUSTICE`
//! declarations: a condition that must hold infinitely often, e.g. *"the
//! intersection is clear and the light is green infinitely often"*.
//! Without them, liveness rules like the paper's Φ₇ (*a green light
//! eventually releases the stop*) are unsatisfiable against a fully
//! adversarial environment that keeps a car parked in the intersection
//! forever.

use crate::analysis::negation_automaton;
use crate::{Buchi, Ltl};
use autokit::{ActSet, Controller, LabelGraph, Product, ProductState, PropSet, Vocab, WorldModel};
use std::fmt;
use std::sync::Arc;

/// One step of a counterexample trace: the product state and the emitted
/// label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CexStep {
    /// The product state `(p, q)` the step originates from.
    pub state: ProductState,
    /// Observation component `c = λ_M(p)`.
    pub props: PropSet,
    /// Action component `a`.
    pub acts: ActSet,
}

/// A lasso-shaped counterexample: a finite stem followed by a cycle that
/// repeats forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The finite prefix of the violating behaviour.
    pub stem: Vec<CexStep>,
    /// The infinitely repeated suffix.
    pub cycle: Vec<CexStep>,
}

impl Counterexample {
    /// Renders the counterexample with vocabulary names, NuSMV-style.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> CexDisplay<'a> {
        CexDisplay { cex: self, vocab }
    }

    /// The labels of the stem as `(props, acts)` pairs.
    pub fn stem_labels(&self) -> Vec<(PropSet, ActSet)> {
        self.stem.iter().map(|s| (s.props, s.acts)).collect()
    }

    /// The labels of the cycle as `(props, acts)` pairs.
    pub fn cycle_labels(&self) -> Vec<(PropSet, ActSet)> {
        self.cycle.iter().map(|s| (s.props, s.acts)).collect()
    }
}

/// Helper returned by [`Counterexample::display`].
#[derive(Debug)]
pub struct CexDisplay<'a> {
    cex: &'a Counterexample,
    vocab: &'a Vocab,
}

impl fmt::Display for CexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- counterexample (lasso)")?;
        for (i, step) in self.cex.stem.iter().enumerate() {
            writeln!(
                f,
                "   {i:3}: (p{}, q{})  {{{}}} ∪ {{{}}}",
                step.state.model,
                step.state.ctrl,
                self.vocab.display_props(step.props),
                self.vocab.display_acts(step.acts)
            )?;
        }
        writeln!(f, "   -- loop starts here --")?;
        for (i, step) in self.cex.cycle.iter().enumerate() {
            writeln!(
                f,
                "   {:3}: (p{}, q{})  {{{}}} ∪ {{{}}}",
                self.cex.stem.len() + i,
                step.state.model,
                step.state.ctrl,
                self.vocab.display_props(step.props),
                self.vocab.display_acts(step.acts)
            )?;
        }
        Ok(())
    }
}

/// A justice (weak fairness) assumption: a Boolean condition over one step
/// label that must hold **infinitely often** along every behaviour
/// considered during verification.
///
/// Mirrors NuSMV's `JUSTICE` declarations. The condition must be purely
/// propositional — temporal operators are rejected.
///
/// # Example
///
/// ```
/// use autokit::presets::DrivingDomain;
/// use ltlcheck::{Justice, Ltl};
///
/// let d = DrivingDomain::new();
/// let clear = Justice::new(
///     "intersection clears",
///     Ltl::and(
///         Ltl::not(Ltl::prop(d.car_left)),
///         Ltl::not(Ltl::prop(d.ped_right)),
///     ),
/// )?;
/// assert_eq!(clear.name(), "intersection clears");
/// # Ok::<(), ltlcheck::NonPropositionalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justice {
    name: String,
    condition: Ltl,
}

/// Error returned by [`Justice::new`] when the condition contains temporal
/// operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonPropositionalError;

impl fmt::Display for NonPropositionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "justice conditions must be propositional (no temporal operators)"
        )
    }
}

impl std::error::Error for NonPropositionalError {}

pub(crate) fn is_propositional(phi: &Ltl) -> bool {
    match phi {
        Ltl::True | Ltl::False | Ltl::Atom(_) => true,
        Ltl::Not(inner) => is_propositional(inner),
        Ltl::And(l, r) | Ltl::Or(l, r) => is_propositional(l) && is_propositional(r),
        Ltl::Next(_) | Ltl::Until(_, _) | Ltl::Release(_, _) => false,
    }
}

pub(crate) fn eval_bool(phi: &Ltl, props: PropSet, acts: ActSet) -> bool {
    match phi {
        Ltl::True => true,
        Ltl::False => false,
        Ltl::Atom(a) => a.holds(props, acts),
        Ltl::Not(inner) => !eval_bool(inner, props, acts),
        Ltl::And(l, r) => eval_bool(l, props, acts) && eval_bool(r, props, acts),
        Ltl::Or(l, r) => eval_bool(l, props, acts) || eval_bool(r, props, acts),
        _ => unreachable!("validated propositional"),
    }
}

impl Justice {
    /// Creates a justice assumption.
    ///
    /// # Errors
    ///
    /// Returns [`NonPropositionalError`] if `condition` contains temporal
    /// operators.
    pub fn new(name: impl Into<String>, condition: Ltl) -> Result<Justice, NonPropositionalError> {
        if !is_propositional(&condition) {
            return Err(NonPropositionalError);
        }
        Ok(Justice {
            name: name.into(),
            condition,
        })
    }

    /// The assumption's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The propositional condition.
    pub fn condition(&self) -> &Ltl {
        &self.condition
    }

    /// Evaluates the condition on one step label.
    pub fn holds(&self, props: PropSet, acts: ActSet) -> bool {
        eval_bool(&self.condition, props, acts)
    }
}

/// The outcome of checking one specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every (fair) behaviour satisfies the specification.
    Holds,
    /// Some fair behaviour violates it; the witness is attached.
    Fails(Counterexample),
}

impl Verdict {
    /// `true` iff the specification holds.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// The outcome of verifying a named specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecResult {
    /// Specification name (e.g. `"phi_5"`).
    pub name: String,
    /// The verdict, with counterexample on failure.
    pub verdict: Verdict,
}

/// Aggregate result of verifying a controller against a specification
/// suite — the paper's per-controller feedback signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Per-specification outcomes, in input order.
    pub results: Vec<SpecResult>,
}

impl VerificationReport {
    /// Number of satisfied specifications — the quantity the paper ranks
    /// responses by.
    pub fn num_satisfied(&self) -> usize {
        self.results.iter().filter(|r| r.verdict.holds()).count()
    }

    /// Fraction of satisfied specifications in `[0, 1]`.
    ///
    /// An **empty** suite yields `0.0`, not `1.0`. Every consumer of this
    /// value ranks responses (higher is better), so an empty rule book
    /// must never manufacture a "perfect" response; the convention
    /// matches [`VerificationReport::num_satisfied`], which is likewise 0
    /// on an empty suite.
    pub fn fraction_satisfied(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.num_satisfied() as f64 / self.results.len() as f64
    }

    /// Names of the failed specifications.
    pub fn failed(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| !r.verdict.holds())
            .map(|r| r.name.as_str())
            .collect()
    }
}

/// A checkable emptiness certificate explaining a [`Verdict::Holds`]
/// outcome.
///
/// The certificate records everything the explicit-state search derived:
/// the Büchi automaton of the **negated** specification, the set of
/// explored `(graph node, Büchi state)` product pairs, and a component
/// ranking of those pairs. A certificate checker (see the `certkit`
/// crate) validates in linear time that
///
/// 1. every label-consistent initial pair is listed,
/// 2. the listed set is closed under label-consistent successors,
/// 3. cross-component edges never increase the component id (so every
///    cycle stays inside one component), and
/// 4. no component simultaneously has an internal edge, a Büchi-accepting
///    state, and a witness for every justice condition.
///
/// Together these imply no reachable fair accepting cycle exists, i.e.
/// the specification holds — **without** trusting the search that
/// produced the certificate. The checker does trust that `buchi` is a
/// faithful translation of `¬φ`; see DESIGN.md's trust argument for why
/// that residual assumption is discharged separately (lasso-oracle
/// property tests). The decide-only search shares the automaton, so the
/// certkit differential gate checks the search, not the translation.
#[derive(Debug, Clone)]
pub struct HoldsCertificate {
    /// The Büchi automaton of the negated specification used in the
    /// search, shared with the process-wide automaton cache. Trusted as a
    /// translation; everything else is re-derived.
    pub buchi: Arc<Buchi>,
    /// Explored product pairs `(graph node, Büchi state)`.
    pub states: Vec<(u32, u32)>,
    /// Component id per entry of `states`, in Tarjan completion order:
    /// an edge between different components strictly **decreases** the
    /// id, so any cycle is confined to one component.
    pub comp: Vec<u32>,
}

/// A verdict bundled with machine-checkable evidence.
///
/// `Fails` carries the lasso counterexample (already self-evidencing:
/// its edges, fairness and violation can be re-validated from the graph
/// and formula alone); `Holds` carries an emptiness certificate.
#[derive(Debug, Clone)]
pub enum CertifiedVerdict {
    /// The specification holds; the attached certificate proves the
    /// product automaton empty of fair accepting cycles.
    Holds(HoldsCertificate),
    /// The specification fails with the attached lasso witness.
    Fails(Counterexample),
}

impl CertifiedVerdict {
    /// `true` iff the specification holds.
    pub fn holds(&self) -> bool {
        matches!(self, CertifiedVerdict::Holds(_))
    }

    /// The plain verdict, discarding the `Holds` evidence.
    pub fn verdict(&self) -> Verdict {
        match self {
            CertifiedVerdict::Holds(_) => Verdict::Holds,
            CertifiedVerdict::Fails(cex) => Verdict::Fails(cex.clone()),
        }
    }
}

/// Checks a state-labeled graph against an LTL formula under justice
/// assumptions: only paths along which every justice condition holds
/// infinitely often are considered. Pass no justice for plain LTL.
///
/// Returns [`Verdict::Holds`] iff **every** fair infinite path of `graph`
/// starting from an initial node satisfies `phi`; otherwise the verdict
/// carries a lasso counterexample. The automaton of `¬phi` comes from the
/// [`spec_automaton`](crate::analysis::spec_automaton) cache, so checking
/// the same rule against many graphs translates it once.
pub fn check_graph_fair(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> Verdict {
    match check_graph_fair_certified(graph, phi, justice) {
        CertifiedVerdict::Holds(_) => Verdict::Holds,
        CertifiedVerdict::Fails(cex) => Verdict::Fails(cex),
    }
}

/// Counts one specification check (a no-op unless `obskit` is enabled).
/// Every check entry point calls this exactly once per spec; automaton
/// translations are counted apart, by
/// [`spec_automaton`](crate::analysis::spec_automaton) on a miss.
fn count_check() {
    obskit::counter_add("ltlcheck.checks", 1);
}

/// [`check_graph_fair`], but every verdict comes with machine-checkable
/// evidence: a lasso counterexample on failure, an emptiness certificate
/// ([`HoldsCertificate`]) on success.
///
/// The certificate is a by-product of the search the checker already
/// performs — emitting it costs one copy of the explored state set, no
/// extra search.
pub fn check_graph_fair_certified(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
) -> CertifiedVerdict {
    count_check();
    lasso_search(graph, negation_automaton(phi), justice)
}

/// Verifies a controller against a suite of named specifications under
/// justice assumptions, reusing one product construction: the paper's
/// Equation 1, `M ⊗ C ⊨ Φᵢ` for every rule, with a lasso counterexample
/// per failed rule.
pub fn verify_all_fair<'a>(
    model: &WorldModel,
    ctrl: &Controller,
    specs: impl IntoIterator<Item = (&'a str, &'a Ltl)>,
    justice: &[Justice],
) -> VerificationReport {
    let graph = Product::build(model, ctrl).label_graph();
    let results = specs
        .into_iter()
        .map(|(name, phi)| SpecResult {
            name: name.to_owned(),
            verdict: check_graph_fair(&graph, phi, justice),
        })
        .collect();
    VerificationReport { results }
}

/// The distinct step labels of a graph and the justice conditions each
/// one satisfies: the per-graph half of a [`ProductIndex`], built once and
/// shared by every product over the graph.
///
/// The graphs repeat a few hundred distinct labels over thousands of
/// nodes, so per-label tables are much smaller than per-node ones, and a
/// spec suite checked against one graph indexes its labels once.
pub(crate) struct LabelIndex<'a> {
    graph: &'a LabelGraph,
    justice: &'a [Justice],
    /// Distinct labels of `graph`, in first-occurrence order.
    labels: Vec<(PropSet, ActSet)>,
    /// Index into `labels` per graph node.
    label_of: Vec<u32>,
    /// Per distinct label, bit `1 + j` is set iff the label satisfies
    /// justice `j` (bit 0 is left for Büchi acceptance). Empty when there
    /// are more justice conditions than one `u64` mask holds.
    marks: Vec<u64>,
}

impl<'a> LabelIndex<'a> {
    pub(crate) fn new(graph: &'a LabelGraph, justice: &'a [Justice]) -> LabelIndex<'a> {
        let mut ids: std::collections::HashMap<(PropSet, ActSet), u32> =
            std::collections::HashMap::new();
        let mut labels = Vec::new();
        let label_of = graph
            .labels
            .iter()
            .map(|&l| {
                *ids.entry(l).or_insert_with(|| {
                    labels.push(l);
                    labels.len() as u32 - 1
                })
            })
            .collect();
        let marks = if justice.len() > 63 {
            Vec::new()
        } else {
            labels
                .iter()
                .map(|&(props, acts)| {
                    justice
                        .iter()
                        .enumerate()
                        .filter(|(_, cond)| cond.holds(props, acts))
                        .fold(0, |m, (j, _)| m | 2 << j)
                })
                .collect()
        };
        LabelIndex {
            graph,
            justice,
            labels,
            label_of,
            marks,
        }
    }
}

/// Product state for emptiness checking: (graph node, Büchi state).
type PState = (u32, u32);

/// Dense view of the product `graph ⊗ buchi`, shared by the BFS
/// exploration and the on-the-fly emptiness search.
///
/// A pair `(g, b)` has the dense key `g·|B| + b`, so per-pair tables are
/// flat vectors of `graph.num_nodes()·|B|` slots instead of hash maps.
/// Label consistency is a lookup in a distinct-label × Büchi-state match
/// table built once per automaton over the graph's [`LabelIndex`].
struct ProductIndex<'a> {
    graph: &'a LabelGraph,
    /// The graph's [`LabelIndex::label_of`].
    label_of: &'a [u32],
    buchi: &'a Buchi,
    nb: usize,
    /// `matches[l·|B| + b]`: label `l` satisfies Büchi state `b`.
    matches: Vec<bool>,
}

impl<'a> ProductIndex<'a> {
    fn new(labels: &'a LabelIndex<'a>, buchi: &'a Buchi) -> ProductIndex<'a> {
        let matches = labels
            .labels
            .iter()
            .flat_map(|&(props, acts)| buchi.states().iter().map(move |s| s.matches(props, acts)))
            .collect();
        ProductIndex {
            graph: labels.graph,
            label_of: &labels.label_of,
            buchi,
            nb: buchi.num_states(),
            matches,
        }
    }

    /// Number of dense keys: `graph.num_nodes()·|B|`.
    fn num_keys(&self) -> usize {
        self.graph.num_nodes() * self.nb
    }

    fn key(&self, g: u32, b: u32) -> usize {
        g as usize * self.nb + b as usize
    }

    /// The distinct-label index of graph node `g`.
    fn label(&self, g: u32) -> usize {
        self.label_of[g as usize] as usize
    }

    /// `true` iff graph node `g`'s label satisfies Büchi state `b`.
    fn matches(&self, g: u32, b: u32) -> bool {
        self.matches[self.label(g) * self.nb + b as usize]
    }

    /// The label-consistent initial pairs, graph-major.
    fn initial(&self) -> impl Iterator<Item = PState> + '_ {
        self.graph.initial.iter().flat_map(move |&g| {
            self.buchi
                .initial()
                .iter()
                .map(move |&b| (g as u32, b as u32))
                .filter(move |&(g, b)| self.matches(g, b))
        })
    }
}

/// The explored product `graph ⊗ buchi`: reachable label-consistent
/// pairs, BFS parents (for stems), successor lists, and the Tarjan SCC
/// decomposition.
struct Exploration {
    states: Vec<PState>,
    parents: Vec<Option<u32>>,
    /// Successors of state `v` are `succ_arena[succ_off[v]..succ_off[v+1]]`,
    /// sorted and deduplicated.
    succ_off: Vec<u32>,
    succ_arena: Vec<u32>,
    /// Component id per state, in Tarjan completion order: cross-component
    /// edges strictly decrease the id.
    comp: Vec<u32>,
    num_comps: usize,
}

impl Exploration {
    fn succs(&self, v: u32) -> &[u32] {
        &self.succ_arena[self.succ_off[v as usize] as usize..self.succ_off[v as usize + 1] as usize]
    }
}

/// The lasso search behind [`check_graph_fair_certified`]: explores
/// `graph ⊗ buchi`, looks for a reachable SCC that contains a
/// Büchi-accepting state and a witness of every justice condition
/// (generalized Büchi emptiness via SCC decomposition), and returns a
/// lasso through it, or the explored set as an emptiness certificate.
fn lasso_search(graph: &LabelGraph, buchi: Arc<Buchi>, justice: &[Justice]) -> CertifiedVerdict {
    if buchi.num_states() == 0 {
        return CertifiedVerdict::Holds(HoldsCertificate {
            buchi,
            states: Vec::new(),
            comp: Vec::new(),
        });
    }
    let ex = explore(graph, &buchi);
    match find_fair_scc(&ex, graph, &buchi, justice) {
        Some(target) => CertifiedVerdict::Fails(extract_lasso(&ex, graph, &buchi, justice, target)),
        None => CertifiedVerdict::Holds(HoldsCertificate {
            buchi,
            states: ex.states,
            comp: ex.comp,
        }),
    }
}

/// BFS over the label-consistent product pairs, followed by an iterative
/// Tarjan SCC decomposition.
#[allow(clippy::expect_used, reason = "Tarjan stack pops are invariants")]
fn explore(graph: &LabelGraph, buchi: &Buchi) -> Exploration {
    let labels = LabelIndex::new(graph, &[]);
    let idx = ProductIndex::new(&labels, buchi);

    // --- reachable product exploration (BFS, with parents for stems) ----
    // `index[key] = id + 1` for discovered pairs, 0 otherwise (a zeroed
    // allocation, so untouched pages of a sparse product cost nothing).
    // The BFS queue is implicit: states are appended in discovery order
    // and expanded in id order.
    let mut index = vec![0u32; idx.num_keys()];
    let mut states: Vec<PState> = Vec::new();
    let mut parents: Vec<Option<u32>> = Vec::new();
    for (g, b) in idx.initial() {
        let slot = &mut index[idx.key(g, b)];
        if *slot == 0 {
            states.push((g, b));
            parents.push(None);
            *slot = states.len() as u32;
        }
    }
    let mut succ_off: Vec<u32> = vec![0];
    let mut succ_arena: Vec<u32> = Vec::new();
    let mut out: Vec<u32> = Vec::new();
    let mut id = 0;
    while id < states.len() {
        let (g, b) = states[id];
        out.clear();
        for &g2 in &graph.succs[g as usize] {
            for &b2 in &buchi.states()[b as usize].succs {
                let (g2, b2) = (g2 as u32, b2 as u32);
                if !idx.matches(g2, b2) {
                    continue;
                }
                let slot = &mut index[idx.key(g2, b2)];
                if *slot == 0 {
                    states.push((g2, b2));
                    parents.push(Some(id as u32));
                    *slot = states.len() as u32;
                }
                out.push(*slot - 1);
            }
        }
        out.sort_unstable();
        out.dedup();
        succ_arena.extend_from_slice(&out);
        succ_off.push(succ_arena.len() as u32);
        id += 1;
    }
    let succs =
        |v: u32| &succ_arena[succ_off[v as usize] as usize..succ_off[v as usize + 1] as usize];

    // --- iterative Tarjan SCC ------------------------------------------
    let n = states.len();
    let mut comp = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut disc = vec![u32::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_disc = 0u32;
    let mut next_comp = 0u32;
    // Call stack: (node, successor cursor).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        disc[root as usize] = next_disc;
        low[root as usize] = next_disc;
        next_disc += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor < succs(v).len() {
                let w = succs(v)[*cursor];
                *cursor += 1;
                if disc[w as usize] == u32::MAX {
                    disc[w as usize] = next_disc;
                    low[w as usize] = next_disc;
                    next_disc += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
            if low[v as usize] == disc[v as usize] {
                loop {
                    let w = stack.pop().expect("tarjan stack non-empty");
                    on_stack[w as usize] = false;
                    comp[w as usize] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }

    if obskit::enabled() {
        obskit::counter_add("ltlcheck.product_states", states.len() as u64);
        obskit::counter_add("ltlcheck.search_visits", u64::from(next_disc));
        obskit::counter_add("ltlcheck.sccs", u64::from(next_comp));
    }

    Exploration {
        states,
        parents,
        succ_off,
        succ_arena,
        comp,
        num_comps: next_comp as usize,
    }
}

/// Scans the SCC decomposition for a reachable component that has an
/// internal edge (a real cycle), a Büchi-accepting state, and a witness
/// of every justice condition. Returns its id, if any.
fn find_fair_scc(
    ex: &Exploration,
    graph: &LabelGraph,
    buchi: &Buchi,
    justice: &[Justice],
) -> Option<usize> {
    let nf = justice.len();
    let num_comps = ex.num_comps;
    // has_edge: SCC contains an internal edge (non-trivial cycle).
    let mut has_edge = vec![false; num_comps];
    // accept[c]: SCC contains a Büchi-accepting state.
    let mut accept = vec![false; num_comps];
    // fair[c·nf + j]: SCC c contains a state whose label satisfies
    // justice j.
    let mut fair = vec![false; num_comps * nf];
    for v in 0..ex.states.len() {
        let c = ex.comp[v] as usize;
        let (g, b) = ex.states[v];
        if buchi.states()[b as usize].accepting {
            accept[c] = true;
        }
        let (props, acts) = graph.labels[g as usize];
        for (j, cond) in justice.iter().enumerate() {
            if cond.holds(props, acts) {
                fair[c * nf + j] = true;
            }
        }
        if ex
            .succs(v as u32)
            .iter()
            .any(|&w| ex.comp[w as usize] as usize == c)
        {
            has_edge[c] = true;
        }
    }

    (0..num_comps)
        .find(|&c| has_edge[c] && accept[c] && fair[c * nf..(c + 1) * nf].iter().all(|&f| f))
}

/// Generalized Büchi emptiness **on the fly**: `true` iff `graph ⊗ buchi`
/// has a reachable cycle through a Büchi-accepting state and a witness of
/// every justice condition — the question [`lasso_search`] answers with a
/// lasso, answered without building the product first or producing a
/// lasso. See [`fair_cycle_in`].
pub(crate) fn fair_cycle_exists(graph: &LabelGraph, buchi: &Buchi, justice: &[Justice]) -> bool {
    fair_cycle_in(&LabelIndex::new(graph, justice), buchi)
}

/// [`fair_cycle_exists`] over a graph whose labels are already indexed,
/// so a spec suite checked against one graph shares the index; one
/// counted check.
///
/// This is the path-based SCC search with a roots stack (Couvreur, FM'99;
/// Gabow): a DFS generates successors lazily through the dense
/// [`ProductIndex`], and each open SCC root carries an acceptance mask —
/// bit 0 for a Büchi-accepting state, bit `1 + j` for a witness of
/// justice `j`. A back edge into an open component merges every root
/// above its target into one; a merge closes a cycle, so the search
/// stops as soon as a merged mask is full. Trivial components (no merge)
/// can never answer `true`, matching the internal-edge requirement of
/// [`find_fair_scc`].
///
/// The states visited are added to the `ltlcheck.product_states` and
/// `ltlcheck.search_visits` counters.
pub(crate) fn fair_cycle_in(labels: &LabelIndex<'_>, buchi: &Buchi) -> bool {
    count_check();
    let (graph, justice) = (labels.graph, labels.justice);
    if buchi.num_states() == 0 {
        return false;
    }
    // The acceptance mask is one u64: beyond 63 justice conditions, fall
    // back to the full decomposition.
    if justice.len() > 63 {
        return find_fair_scc(&explore(graph, buchi), graph, buchi, justice).is_some();
    }
    let idx = ProductIndex::new(labels, buchi);
    let full = u64::MAX >> (63 - justice.len());
    let marks = &labels.marks[..];
    let mark =
        |g: u32, b: u32| marks[idx.label(g)] | u64::from(buchi.states()[b as usize].accepting);

    // DFS number per dense key: 0 = unvisited, DONE = its SCC is closed.
    const DONE: u32 = u32::MAX;
    let mut num = vec![0u32; idx.num_keys()];
    // Visited keys whose SCC is still open, in DFS order.
    let mut open: Vec<usize> = Vec::new();
    // (DFS number of the root, acceptance mask of its partial SCC).
    let mut roots: Vec<(u32, u64)> = Vec::new();
    // DFS frames: (g, b, graph-successor cursor, Büchi-successor cursor).
    let mut call: Vec<(u32, u32, usize, usize)> = Vec::new();
    let mut visits = 0u32;
    let mut found = false;

    'search: for (g0, b0) in idx.initial() {
        let k0 = idx.key(g0, b0);
        if num[k0] != 0 {
            continue;
        }
        visits += 1;
        num[k0] = visits;
        open.push(k0);
        roots.push((visits, mark(g0, b0)));
        call.push((g0, b0, 0, 0));
        while let Some(&mut (g, b, ref mut gi, ref mut bi)) = call.last_mut() {
            let gs = &graph.succs[g as usize];
            let bs = &buchi.states()[b as usize].succs;
            if *gi < gs.len() && !bs.is_empty() {
                let (g2, b2) = (gs[*gi] as u32, bs[*bi] as u32);
                *bi += 1;
                if *bi == bs.len() {
                    *bi = 0;
                    *gi += 1;
                }
                if !idx.matches(g2, b2) {
                    continue;
                }
                let k2 = idx.key(g2, b2);
                match num[k2] {
                    0 => {
                        visits += 1;
                        num[k2] = visits;
                        open.push(k2);
                        roots.push((visits, mark(g2, b2)));
                        call.push((g2, b2, 0, 0));
                    }
                    DONE => {}
                    target => {
                        // Back edge into an open SCC: everything from the
                        // target's root up to here is one component.
                        let mut merged = 0;
                        while roots.last().is_some_and(|&(r, _)| r > target) {
                            merged |= roots.pop().map_or(0, |(_, m)| m);
                        }
                        if let Some(top) = roots.last_mut() {
                            top.1 |= merged;
                            if top.1 == full {
                                found = true;
                                break 'search;
                            }
                        }
                    }
                }
                continue;
            }
            call.pop();
            let k = idx.key(g, b);
            if roots.last().is_some_and(|&(r, _)| r == num[k]) {
                roots.pop();
                while let Some(w) = open.pop() {
                    num[w] = DONE;
                    if w == k {
                        break;
                    }
                }
            }
        }
    }

    if obskit::enabled() {
        obskit::counter_add("ltlcheck.product_states", u64::from(visits));
        obskit::counter_add("ltlcheck.search_visits", u64::from(visits));
    }
    found
}

/// Extracts a lasso counterexample through the fair accepting SCC
/// `target_comp`: a BFS stem from an initial state, then a cycle that
/// visits an accepting state and one witness per justice condition.
#[allow(clippy::expect_used, reason = "SCC/witness lookups are invariants")]
fn extract_lasso(
    ex: &Exploration,
    graph: &LabelGraph,
    buchi: &Buchi,
    justice: &[Justice],
    target_comp: usize,
) -> Counterexample {
    let Exploration {
        states,
        parents,
        comp,
        ..
    } = ex;
    let n = states.len();

    // Entry: any state of the SCC discovered earliest in the BFS.
    let entry = (0..n as u32)
        .find(|&v| comp[v as usize] as usize == target_comp)
        .expect("component non-empty");

    // Stem: BFS parent chain from an initial state to `entry`.
    let mut stem_ids = vec![entry];
    let mut cur = entry;
    while let Some(p) = parents[cur as usize] {
        stem_ids.push(p);
        cur = p;
    }
    stem_ids.reverse();

    // Cycle: inside the SCC, walk entry → accepting witness → each justice
    // witness → back to entry, via BFS restricted to the SCC. Every
    // segment reuses one dense parent table (`NONE` = undiscovered) and
    // one index queue; the queue lists exactly the states a segment
    // discovered, so the reset after it touches nothing else.
    const NONE: u32 = u32::MAX;
    let mut par = vec![NONE; n];
    let mut queue: Vec<u32> = Vec::new();
    let in_comp = |v: u32| comp[v as usize] as usize == target_comp;
    let mut bfs_path = |from: u32, to: u32, require_step: bool| -> Vec<u32> {
        // Path of nodes after `from` ending at `to` (possibly empty if
        // from == to and !require_step).
        if from == to && !require_step {
            return Vec::new();
        }
        // Expand `from` first without marking it, so a self-loop is found.
        let mut v = from;
        let mut head = 0;
        loop {
            for &w in ex.succs(v) {
                if in_comp(w) && par[w as usize] == NONE {
                    par[w as usize] = v;
                    queue.push(w);
                }
            }
            let Some(&next) = queue.get(head) else {
                break;
            };
            head += 1;
            if next == to {
                break;
            }
            v = next;
        }
        // Walk parent pointers until `from` is the *parent*, so a loop
        // that starts and ends at the same state keeps its interior.
        let mut path = vec![to];
        let mut cur = to;
        loop {
            let p = par[cur as usize];
            assert_ne!(p, NONE, "target reachable within SCC");
            if p == from {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        for &w in &queue {
            par[w as usize] = NONE;
        }
        queue.clear();
        path
    };

    // Witness list: one accepting state, one per justice condition.
    let mut waypoints: Vec<u32> = Vec::new();
    let acc_witness = (0..n as u32)
        .find(|&v| in_comp(v) && buchi.states()[states[v as usize].1 as usize].accepting)
        .expect("accepting state in SCC");
    waypoints.push(acc_witness);
    for j in justice {
        let w = (0..n as u32)
            .find(|&v| {
                in_comp(v) && {
                    let (g, _) = states[v as usize];
                    let (props, acts) = graph.labels[g as usize];
                    j.holds(props, acts)
                }
            })
            .expect("justice witness in SCC");
        waypoints.push(w);
    }

    let mut cycle_ids: Vec<u32> = Vec::new();
    let mut pos = entry;
    for &wp in &waypoints {
        let seg = bfs_path(pos, wp, false);
        cycle_ids.extend(seg);
        pos = wp;
    }
    // Close the loop (require at least one step overall).
    let closing = bfs_path(pos, entry, cycle_ids.is_empty());
    cycle_ids.extend(closing);
    // `cycle_ids` holds the states *after* entry around the loop; the cycle
    // itself starts at entry.
    let mut full_cycle = vec![entry];
    full_cycle.extend(
        cycle_ids
            .iter()
            .copied()
            .take(cycle_ids.len().saturating_sub(1)),
    );
    // The final element of cycle_ids is `entry` again (dropped above); if
    // the loop was a pure self-loop, full_cycle is just [entry].

    let to_step = |v: u32| -> CexStep {
        let (g, _) = states[v as usize];
        let (props, acts) = graph.labels[g as usize];
        CexStep {
            state: graph.origin[g as usize],
            props,
            acts,
        }
    };
    let stem: Vec<CexStep> = stem_ids[..stem_ids.len() - 1]
        .iter()
        .map(|&v| to_step(v))
        .collect();
    let cycle: Vec<CexStep> = full_cycle.into_iter().map(to_step).collect();
    obskit::observe("ltlcheck.lasso_len", (stem.len() + cycle.len()) as u64);
    Counterexample { stem, cycle }
}

/// Evaluates an LTL formula on the ultimately periodic word
/// `prefix · cycleᵚ` with exact infinite-word semantics.
///
/// Used to confirm counterexamples (every [`Counterexample`] returned by
/// [`check_graph_fair`] satisfies the *negation* of its specification) and as a
/// ground-truth oracle in the crate's property tests.
///
/// # Panics
///
/// Panics if `cycle` is empty — an ultimately periodic word needs a
/// non-empty repeating part.
pub fn holds_on_lasso(
    phi: &Ltl,
    prefix: &[(PropSet, ActSet)],
    cycle: &[(PropSet, ActSet)],
) -> bool {
    assert!(!cycle.is_empty(), "lasso cycle must be non-empty");
    let p = prefix.len();
    let n = p + cycle.len();
    let succ = |i: usize| -> usize {
        if i + 1 < n {
            i + 1
        } else {
            p
        }
    };
    let label = |i: usize| -> (PropSet, ActSet) {
        if i < p {
            prefix[i]
        } else {
            cycle[i - p]
        }
    };

    fn eval(
        phi: &Ltl,
        n: usize,
        succ: &dyn Fn(usize) -> usize,
        label: &dyn Fn(usize) -> (PropSet, ActSet),
    ) -> Vec<bool> {
        match phi {
            Ltl::True => vec![true; n],
            Ltl::False => vec![false; n],
            Ltl::Atom(a) => (0..n)
                .map(|i| {
                    let (props, acts) = label(i);
                    a.holds(props, acts)
                })
                .collect(),
            Ltl::Not(inner) => eval(inner, n, succ, label)
                .into_iter()
                .map(|b| !b)
                .collect(),
            Ltl::And(l, r) => {
                let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
                lv.into_iter().zip(rv).map(|(a, b)| a && b).collect()
            }
            Ltl::Or(l, r) => {
                let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
                lv.into_iter().zip(rv).map(|(a, b)| a || b).collect()
            }
            Ltl::Next(inner) => {
                let iv = eval(inner, n, succ, label);
                (0..n).map(|i| iv[succ(i)]).collect()
            }
            Ltl::Until(l, r) => {
                let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
                // Least fixpoint of val[i] = rv[i] ∨ (lv[i] ∧ val[succ(i)]).
                let mut val = vec![false; n];
                let mut changed = true;
                while changed {
                    changed = false;
                    for i in (0..n).rev() {
                        let v = rv[i] || (lv[i] && val[succ(i)]);
                        if v != val[i] {
                            val[i] = v;
                            changed = true;
                        }
                    }
                }
                val
            }
            Ltl::Release(l, r) => {
                let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
                // Greatest fixpoint of val[i] = rv[i] ∧ (lv[i] ∨ val[succ(i)]).
                let mut val = vec![true; n];
                let mut changed = true;
                while changed {
                    changed = false;
                    for i in (0..n).rev() {
                        let v = rv[i] && (lv[i] || val[succ(i)]);
                        if v != val[i] {
                            val[i] = v;
                            changed = true;
                        }
                    }
                }
                val
            }
        }
    }

    eval(phi, n, &succ, &label)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use autokit::{ControllerBuilder, Guard};
    use proptest::prelude::*;

    fn setup() -> (Vocab, WorldModel) {
        let mut v = Vocab::new();
        let green = v.add_prop("green").unwrap();
        v.add_prop("ped").unwrap();
        v.add_act("go").unwrap();
        v.add_act("stop").unwrap();
        let mut model = WorldModel::new("light");
        let g = model.add_state(PropSet::singleton(green));
        let r = model.add_state(PropSet::empty());
        model.add_transition(g, r);
        model.add_transition(r, g);
        model.add_transition(g, g);
        model.add_transition(r, r);
        (v, model)
    }

    fn good_controller(v: &Vocab) -> Controller {
        let green = v.prop("green").unwrap();
        let go = v.act("go").unwrap();
        let stop = v.act("stop").unwrap();
        ControllerBuilder::new("good", 1)
            .initial(0)
            .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
            .transition(
                0,
                Guard::always().forbids(green),
                ActSet::singleton(stop),
                0,
            )
            .build()
            .unwrap()
    }

    /// `model ⊗ ctrl ⊨ phi` under `justice`.
    fn check(model: &WorldModel, ctrl: &Controller, phi: &Ltl, justice: &[Justice]) -> Verdict {
        check_graph_fair(&Product::build(model, ctrl).label_graph(), phi, justice)
    }

    fn reckless_controller(v: &Vocab) -> Controller {
        let go = v.act("go").unwrap();
        ControllerBuilder::new("reckless", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(go), 0)
            .build()
            .unwrap()
    }

    #[test]
    fn good_controller_satisfies_safety() {
        let (v, model) = setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        assert!(check(&model, &good_controller(&v), &phi, &[]).holds());
    }

    #[test]
    fn reckless_controller_violates_safety_with_witness() {
        let (v, model) = setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        let verdict = check(&model, &reckless_controller(&v), &phi, &[]);
        let Verdict::Fails(cex) = verdict else {
            panic!("expected violation");
        };
        // The counterexample must actually violate the property: the word
        // it denotes satisfies ¬φ.
        let neg = Ltl::not(phi);
        assert!(holds_on_lasso(
            &neg,
            &cex.stem_labels(),
            &cex.cycle_labels()
        ));
        // And some step shows `go` while `¬green`.
        let go = v.act("go").unwrap();
        let green = v.prop("green").unwrap();
        let witness = cex
            .stem
            .iter()
            .chain(&cex.cycle)
            .any(|s| s.acts.contains(go) && !s.props.contains(green));
        assert!(witness, "{}", cex.display(&v));
    }

    #[test]
    fn liveness_holds_for_good_controller() {
        let (v, model) = setup();
        // Whenever green occurs, the controller eventually goes.
        let phi = parse("G(green -> go)", &v).unwrap();
        assert!(check(&model, &good_controller(&v), &phi, &[]).holds());
    }

    #[test]
    fn liveness_fails_when_never_acting() {
        let (v, model) = setup();
        let stop = v.act("stop").unwrap();
        let idle = ControllerBuilder::new("idle", 1)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(stop), 0)
            .build()
            .unwrap();
        let phi = parse("F go", &v).unwrap();
        assert!(!check(&model, &idle, &phi, &[]).holds());
    }

    #[test]
    fn justice_rejects_temporal_conditions() {
        let (v, _) = setup();
        let bad = parse("F green", &v).unwrap();
        assert!(Justice::new("bad", bad).is_err());
        let good = parse("green & !ped", &v).unwrap();
        assert!(Justice::new("good", good).is_ok());
    }

    #[test]
    fn fairness_exempts_unfair_paths() {
        let (v, model) = setup();
        let green = v.prop("green").unwrap();
        let go = v.act("go").unwrap();
        let stop = v.act("stop").unwrap();
        // A controller that waits for green before going, then loops.
        let waiter = ControllerBuilder::new("waiter", 1)
            .initial(0)
            .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
            .transition(
                0,
                Guard::always().forbids(green),
                ActSet::singleton(stop),
                0,
            )
            .build()
            .unwrap();
        // Without fairness, the adversary keeps the light red forever and
        // `F go` fails.
        let phi = parse("F go", &v).unwrap();
        assert!(!check(&model, &waiter, &phi, &[]).holds());
        // Under "the light is green infinitely often", it holds.
        let justice = [Justice::new("green io", parse("green", &v).unwrap()).unwrap()];
        assert!(check(&model, &waiter, &phi, &justice).holds());
    }

    #[test]
    fn fair_counterexamples_visit_justice_witnesses() {
        let (v, model) = setup();
        let ctrl = reckless_controller(&v);
        // Violated even under fairness (safety violation).
        let phi = parse("G(!green -> !go)", &v).unwrap();
        let justice = [Justice::new("green io", parse("green", &v).unwrap()).unwrap()];
        let Verdict::Fails(cex) = check(&model, &ctrl, &phi, &justice) else {
            panic!("expected violation");
        };
        // The cycle must contain a step where the justice condition holds.
        let green = v.prop("green").unwrap();
        assert!(cex.cycle.iter().any(|s| s.props.contains(green)));
        // And the lasso still violates the formula.
        assert!(holds_on_lasso(
            &Ltl::not(phi),
            &cex.stem_labels(),
            &cex.cycle_labels()
        ));
    }

    #[test]
    fn unsatisfiable_fairness_makes_everything_hold() {
        let (v, model) = setup();
        let ctrl = reckless_controller(&v);
        let phi = parse("false", &v).unwrap();
        // `green & ped` never holds in this model.
        let justice = [Justice::new("impossible", parse("green & ped", &v).unwrap()).unwrap()];
        assert!(check(&model, &ctrl, &phi, &justice).holds());
    }

    #[test]
    fn verify_all_counts_satisfied() {
        let (v, model) = setup();
        let safe = parse("G(!green -> !go)", &v).unwrap();
        let live = parse("G F (go | stop)", &v).unwrap();
        let wrong = parse("G go", &v).unwrap();
        let report = verify_all_fair(
            &model,
            &good_controller(&v),
            [("safe", &safe), ("live", &live), ("wrong", &wrong)],
            &[],
        );
        assert_eq!(report.num_satisfied(), 2);
        assert_eq!(report.failed(), vec!["wrong"]);
        assert!((report.fraction_satisfied() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Regression for the empty-suite convention: an empty rule book must
    /// never manufacture a "perfect" response. Both ranking quantities
    /// bottom out at zero.
    #[test]
    fn empty_suite_is_not_perfect() {
        let report = VerificationReport {
            results: Vec::new(),
        };
        assert_eq!(report.num_satisfied(), 0);
        assert_eq!(report.fraction_satisfied(), 0.0);
        assert!(report.failed().is_empty());
    }

    #[test]
    fn certified_verdicts_match_plain_verdicts() {
        let (v, model) = setup();
        let phi = parse("G(!green -> !go)", &v).unwrap();
        for ctrl in [good_controller(&v), reckless_controller(&v)] {
            let product = autokit::Product::build(&model, &ctrl);
            let graph = product.label_graph();
            let plain = check_graph_fair(&graph, &phi, &[]);
            let certified = check_graph_fair_certified(&graph, &phi, &[]);
            assert_eq!(plain.holds(), certified.holds());
            assert_eq!(plain, certified.verdict());
            if let CertifiedVerdict::Holds(cert) = &certified {
                // The certificate covers a non-trivial explored set with a
                // consistent component ranking.
                assert_eq!(cert.states.len(), cert.comp.len());
                assert!(!cert.states.is_empty());
                assert!(cert.buchi.num_states() > 0);
            }
        }
    }

    /// Single-state stutter cycles: the smallest possible lasso, where
    /// `succ` maps the unique position to itself.
    #[test]
    fn lasso_oracle_single_state_stutter() {
        let (v, _) = setup();
        let green = v.prop("green").unwrap();
        let go = v.act("go").unwrap();
        let g = (PropSet::singleton(green), ActSet::empty());
        let none = (PropSet::empty(), ActSet::empty());
        let act = (PropSet::empty(), ActSet::singleton(go));

        // On a pure stutter cycle, G, F and the plain atom coincide.
        let always = parse("G green", &v).unwrap();
        let eventually = parse("F green", &v).unwrap();
        assert!(holds_on_lasso(&always, &[], &[g]));
        assert!(holds_on_lasso(&eventually, &[], &[g]));
        assert!(!holds_on_lasso(&always, &[], &[none]));
        assert!(!holds_on_lasso(&eventually, &[], &[none]));
        // X on a self-loop is the identity.
        let next = parse("X go", &v).unwrap();
        assert!(holds_on_lasso(&next, &[], &[act]));
        assert!(!holds_on_lasso(&next, &[], &[none]));
        // A prefix ahead of the stutter state is still consumed first.
        assert!(holds_on_lasso(&eventually, &[none, none], &[g]));
        assert!(!holds_on_lasso(&always, &[none], &[g]));
    }

    /// `Until` discharged exactly on the stem/cycle boundary: the
    /// obligation is met by the *first* cycle position, so the stem
    /// carries the left operand the whole way.
    #[test]
    fn lasso_oracle_until_at_boundary() {
        let (v, _) = setup();
        let green = v.prop("green").unwrap();
        let ped = v.prop("ped").unwrap();
        let g = (PropSet::singleton(green), ActSet::empty());
        let p = (PropSet::singleton(ped), ActSet::empty());
        let none = (PropSet::empty(), ActSet::empty());

        let phi = parse("green U ped", &v).unwrap();
        // green,green | ped,... — discharged at the boundary.
        assert!(holds_on_lasso(&phi, &[g, g], &[p, none]));
        // green,green | none,ped — the gap at the boundary breaks it.
        assert!(!holds_on_lasso(&phi, &[g, g], &[none, p]));
        // Discharged at the *last* stem position, one before the boundary.
        assert!(holds_on_lasso(&phi, &[g, p], &[none]));
        // The right operand holding only in the unreachable part of the
        // stem (before the loop re-enters at the cycle start) is not
        // revisited: after the boundary the word never sees `ped` again,
        // so G(green U ped) fails even though the stem satisfied it once.
        let global = parse("G(green U ped)", &v).unwrap();
        assert!(!holds_on_lasso(&global, &[p], &[g]));
    }

    /// Nested `Release`: `a R (b R c)` — the inner release must hold at
    /// every position until the outer is released.
    #[test]
    fn lasso_oracle_nested_release() {
        let (v, _) = setup();
        let green = v.prop("green").unwrap();
        let ped = v.prop("ped").unwrap();
        let both = (
            {
                let mut s = PropSet::singleton(green);
                s.insert(ped);
                s
            },
            ActSet::empty(),
        );
        let g = (PropSet::singleton(green), ActSet::empty());
        let p = (PropSet::singleton(ped), ActSet::empty());
        let none = (PropSet::empty(), ActSet::empty());

        // green R ped: ped must hold until (and including when) green
        // joins it.
        let inner = parse("green R ped", &v).unwrap();
        assert!(holds_on_lasso(&inner, &[p, p], &[both]));
        assert!(holds_on_lasso(&inner, &[], &[p])); // ped forever
        assert!(!holds_on_lasso(&inner, &[p], &[g])); // ped drops too early

        // Nested: green R (green R ped) — on words where ped holds
        // forever, every release is trivially satisfied.
        let nested = parse("green R (green R ped)", &v).unwrap();
        assert!(holds_on_lasso(&nested, &[], &[p]));
        // Once green arrives together with ped, both layers release.
        assert!(holds_on_lasso(&nested, &[p], &[both, none]));
        // If ped drops before green ever shows up, the inner release is
        // violated at the position after the drop.
        assert!(!holds_on_lasso(&nested, &[p], &[none]));
    }

    #[test]
    fn lasso_oracle_basics() {
        let (v, _) = setup();
        let green = v.prop("green").unwrap();
        let g = (PropSet::singleton(green), ActSet::empty());
        let none = (PropSet::empty(), ActSet::empty());
        let phi = parse("G F green", &v).unwrap();
        assert!(holds_on_lasso(&phi, &[], &[none, g]));
        assert!(!holds_on_lasso(&phi, &[g, g], &[none]));
        let phi = parse("green U !green", &v).unwrap();
        assert!(holds_on_lasso(&phi, &[g, g, none], &[g]));
        assert!(!holds_on_lasso(&phi, &[], &[g]));
    }

    /// A label graph over the `setup()` vocabulary: node `i` carries
    /// `labels[i]` (bit 0 green, bit 1 ped, bit 2 go) and the listed
    /// successors; node 0 is initial.
    fn tiny_graph(labels: &[u8], succs: Vec<Vec<usize>>) -> LabelGraph {
        let (v, _) = setup();
        let n = labels.len();
        LabelGraph {
            labels: decode(labels, &v),
            origin: vec![ProductState { model: 0, ctrl: 0 }; n],
            succs,
            initial: vec![0],
        }
    }

    /// `fair_cycle_exists` and the lasso search agree on one query, and
    /// the common answer is `expected`.
    fn assert_emptiness(graph: &LabelGraph, justice: &[Justice], expected: bool) {
        let buchi = Arc::new(Buchi::from_ltl(&Ltl::True));
        assert_eq!(fair_cycle_exists(graph, &buchi, justice), expected);
        assert_eq!(!lasso_search(graph, buchi, justice).holds(), expected);
    }

    fn green_and_ped_io() -> Vec<Justice> {
        let (v, _) = setup();
        vec![
            Justice::new("green io", parse("green", &v).unwrap()).unwrap(),
            Justice::new("ped io", parse("ped", &v).unwrap()).unwrap(),
        ]
    }

    /// A trivial SCC (no self-loop) carrying every mark is not a cycle:
    /// node 0 is green and ped but is left forever for node 1, which
    /// carries neither.
    #[test]
    fn on_the_fly_trivial_scc_with_every_mark_is_empty() {
        let graph = tiny_graph(&[0b011, 0b000], vec![vec![1], vec![1]]);
        assert_emptiness(&graph, &green_and_ped_io(), false);
    }

    /// A self-loop carrying every mark is a fair accepting cycle — also
    /// with more justice conditions than the one-word acceptance mask
    /// holds.
    #[test]
    fn on_the_fly_self_loop_with_every_mark_is_nonempty() {
        let graph = tiny_graph(&[0b000, 0b011], vec![vec![1], vec![1]]);
        assert_emptiness(&graph, &green_and_ped_io(), true);
        let many: Vec<Justice> = green_and_ped_io().into_iter().cycle().take(70).collect();
        assert_emptiness(&graph, &many, true);
    }

    /// Marks split across two SCCs joined one way: {0, 1} sees green,
    /// {2, 3} sees ped, and no cycle sees both. Adding the back edge
    /// 3 → 0 merges the two into one fair SCC.
    #[test]
    fn on_the_fly_marks_split_across_sccs_is_empty() {
        let succs = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let graph = tiny_graph(&[0b001, 0b000, 0b010, 0b000], succs.clone());
        assert_emptiness(&graph, &green_and_ped_io(), false);
        let mut joined = succs;
        joined[3].push(0);
        let graph = tiny_graph(&[0b001, 0b000, 0b010, 0b000], joined);
        assert_emptiness(&graph, &green_and_ped_io(), true);
    }

    /// Generator for random LTL formulas over two props and one action of
    /// the `setup()` vocabulary (ids are stable by insertion order).
    fn arb_ltl() -> impl Strategy<Value = Ltl> {
        let (v, _) = setup();
        let a = v.prop("green").unwrap();
        let b = v.prop("ped").unwrap();
        let s = v.act("go").unwrap();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            Just(Ltl::prop(a)),
            Just(Ltl::prop(b)),
            Just(Ltl::act(s)),
        ];
        leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Ltl::not),
                inner.clone().prop_map(Ltl::next),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::or(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::until(l, r)),
                (inner.clone(), inner).prop_map(|(l, r)| Ltl::release(l, r)),
            ]
        })
    }

    /// Generator for random propositional conditions (justice shapes).
    fn arb_condition() -> impl Strategy<Value = Ltl> {
        let (v, _) = setup();
        let a = v.prop("green").unwrap();
        let b = v.prop("ped").unwrap();
        let s = v.act("go").unwrap();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::prop(a)),
            Just(Ltl::prop(b)),
            Just(Ltl::act(s)),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Ltl::not),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
                (inner.clone(), inner).prop_map(|(l, r)| Ltl::or(l, r)),
            ]
        })
    }

    fn arb_word() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        (
            proptest::collection::vec(0u8..8, 0..4),
            proptest::collection::vec(0u8..8, 1..4),
        )
    }

    fn decode(word: &[u8], v: &Vocab) -> Vec<(PropSet, ActSet)> {
        let a = v.prop("green").unwrap();
        let b = v.prop("ped").unwrap();
        let s = v.act("go").unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Büchi translation agrees with direct LTL evaluation on
        /// random lasso words: a single-path graph satisfies φ iff the
        /// word does.
        #[test]
        fn buchi_agrees_with_lasso_oracle(
            (prefix_raw, cycle_raw) in arb_word(),
            phi in arb_ltl(),
        ) {
            let (v, _) = setup();
            let prefix = decode(&prefix_raw, &v);
            let cycle = decode(&cycle_raw, &v);

            // Build a single-lasso LabelGraph.
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
            let graph = LabelGraph {
                labels,
                origin: vec![ProductState { model: 0, ctrl: 0 }; n],
                succs,
                initial: vec![0],
            };
            let expected = holds_on_lasso(&phi, &prefix, &cycle);
            let got = check_graph_fair(&graph, &phi, &[]).holds();
            prop_assert_eq!(got, expected, "phi = {:?}", phi);
        }

        /// Counterexamples are sound: the reported lasso violates the
        /// specification per the exact oracle.
        #[test]
        fn counterexamples_are_sound(phi in arb_ltl()) {
            let (v, model) = setup();
            let ctrl = reckless_controller(&v);
            if let Verdict::Fails(cex) = check(&model, &ctrl, &phi, &[]) {
                prop_assert!(!cex.cycle.is_empty());
                let neg = Ltl::not(phi);
                prop_assert!(holds_on_lasso(&neg, &cex.stem_labels(), &cex.cycle_labels()));
            }
        }

        /// With fairness, counterexample cycles contain a witness of every
        /// justice condition and still violate the specification.
        #[test]
        fn fair_counterexamples_are_sound(phi in arb_ltl()) {
            let (v, model) = setup();
            let ctrl = good_controller(&v);
            let justice = [
                Justice::new("green io", parse("green", &v).unwrap()).unwrap(),
                Justice::new("red io", parse("!green", &v).unwrap()).unwrap(),
            ];
            if let Verdict::Fails(cex) = check(&model, &ctrl, &phi, &justice) {
                prop_assert!(!cex.cycle.is_empty());
                for j in &justice {
                    prop_assert!(
                        cex.cycle.iter().any(|s| j.holds(s.props, s.acts)),
                        "cycle misses justice witness {}",
                        j.name()
                    );
                }
                let neg = Ltl::not(phi);
                prop_assert!(holds_on_lasso(&neg, &cex.stem_labels(), &cex.cycle_labels()));
            }
        }
    }

    proptest! {
        // Each case is a handful of tiny products, so many cases are
        // cheap, and an off-by-one in root merging can need hundreds of
        // cases to surface.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The on-the-fly emptiness search answers exactly what the
        /// lasso-producing search answers, on random label graphs
        /// (including dead ends and unreachable nodes), random formulas
        /// and zero to three random justice conditions.
        #[test]
        fn on_the_fly_agrees_with_lasso_search(
            labels in proptest::collection::vec(0u8..8, 1..7),
            raw_succs in proptest::collection::vec(proptest::collection::vec(0usize..7, 0..4), 7),
            raw_initial in proptest::collection::vec(0usize..7, 1..3),
            phi in arb_ltl(),
            conditions in proptest::collection::vec(arb_condition(), 0..4),
        ) {
            let (v, _) = setup();
            let n = labels.len();
            let succs: Vec<Vec<usize>> = raw_succs[..n]
                .iter()
                .map(|row| row.iter().map(|&t| t % n).collect())
                .collect();
            let mut initial: Vec<usize> = raw_initial.iter().map(|&i| i % n).collect();
            initial.sort_unstable();
            initial.dedup();
            let graph = LabelGraph {
                labels: decode(&labels, &v),
                origin: vec![ProductState { model: 0, ctrl: 0 }; n],
                succs,
                initial,
            };
            let justice: Vec<Justice> = conditions
                .into_iter()
                .enumerate()
                .map(|(j, c)| Justice::new(format!("j{j}"), c).unwrap())
                .collect();
            let buchi = Arc::new(Buchi::from_ltl(&phi));
            prop_assert_eq!(
                fair_cycle_exists(&graph, &buchi, &justice),
                !lasso_search(&graph, Arc::clone(&buchi), &justice).holds(),
                "phi = {:?}",
                phi
            );
        }
    }
}
