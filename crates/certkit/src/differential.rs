//! Decide-only vs certified differential harness.
//!
//! Scoring ranks every response by
//! [`ltlcheck::analysis::holds_all_fair`]: one on-the-fly emptiness
//! search per spec, over a label index shared by the whole suite, that
//! answers yes or no and emits no evidence. The certified checker
//! ([`ltlcheck::check_graph_fair_certified`]) decides the same question
//! and attaches a lasso or an emptiness certificate, which
//! [`check_certified`](crate::check_certified) re-validates from
//! scratch. This module runs a spec suite through both, the decide-only
//! side exactly as scoring calls it, and reports every spec where the
//! two verdicts differ. A disagreement whose certified side validates
//! means the decide-only search is wrong, which would silently poison
//! every preference pair the training loop ranks. Each disagreement is
//! shrunk to a minimal reproducer (greedy delta-debugging over graph
//! nodes, edges and formula subterms) and serializes to JSON.

use crate::{check_graph_fair_validated, CertError};
use autokit::{ActSet, LabelGraph, ProductState, PropSet, Vocab, MAX_ACTS, MAX_PROPS};
use ltlcheck::analysis::holds_all_fair;
use ltlcheck::{parse, Justice, Ltl};
use obskit::json::{DecodeError, FromJson, ToJson, Value};

/// A spec on which the decide-only and certified verdicts differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// The graph both paths checked.
    pub graph: LabelGraph,
    /// The specification both paths checked.
    pub phi: Ltl,
    /// Names of the justice assumptions in force (conditions are
    /// reconstructed by the repro consumer from its own domain).
    pub justice_names: Vec<String>,
    /// The decide-only verdict ([`holds_all_fair`]).
    pub decided_holds: bool,
    /// The certified verdict
    /// ([`check_graph_fair_certified`](ltlcheck::check_graph_fair_certified)).
    pub certified_holds: bool,
}

/// Both paths' verdicts on one spec suite.
#[derive(Debug, Clone, Default)]
pub struct SuiteCheck {
    /// Per spec, the certified verdict, whose evidence
    /// [`check_certified`](crate::check_certified) accepted.
    pub certified: Vec<bool>,
    /// The specs whose decide-only verdict differs, by index into the
    /// suite, each already [`minimize`]d.
    pub disagreements: Vec<(usize, Disagreement)>,
}

/// Decides `specs` on `graph` with one [`holds_all_fair`] call, as
/// scoring does, and certifies each spec with
/// [`check_graph_fair_validated`]: certified model checking whose
/// evidence [`check_certified`](crate::check_certified) must accept.
///
/// # Errors
///
/// The index of the first spec whose certified evidence is rejected, and
/// why. That is a certified-checker bug, so no disagreement is reported
/// against it.
pub fn differential<'a>(
    graph: &LabelGraph,
    specs: impl IntoIterator<Item = &'a Ltl>,
    justice: &[Justice],
) -> Result<SuiteCheck, (usize, CertError)> {
    let specs: Vec<&Ltl> = specs.into_iter().collect();
    let decided = holds_all_fair(graph, specs.iter().copied(), justice);
    let mut suite = SuiteCheck::default();
    for (i, (phi, decided_holds)) in specs.into_iter().zip(decided).enumerate() {
        let certified_holds = certified(graph, phi, justice).map_err(|e| (i, e))?;
        suite.certified.push(certified_holds);
        if decided_holds != certified_holds {
            let dis = Disagreement {
                graph: graph.clone(),
                phi: phi.clone(),
                justice_names: justice.iter().map(|j| j.name().to_owned()).collect(),
                decided_holds,
                certified_holds,
            };
            suite.disagreements.push((i, minimize(&dis, justice)));
        }
    }
    Ok(suite)
}

/// The certified verdict of `phi`, once its evidence is accepted.
fn certified(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> Result<bool, CertError> {
    check_graph_fair_validated(graph, phi, justice).map(|v| v.holds())
}

/// The decide-only verdict of `phi` alone.
fn decided(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    holds_all_fair(graph, [phi], justice)[0]
}

/// Greedily shrinks a disagreement while it still reproduces: drop graph
/// nodes, then individual edges, then simplify the formula. Every
/// candidate is re-checked both ways, one spec at a time, and kept only
/// while the verdicts differ and the certified evidence still validates,
/// so the result is a (locally) minimal disagreement that blames the
/// decide-only path.
pub fn minimize(dis: &Disagreement, justice: &[Justice]) -> Disagreement {
    let still_disagrees = |graph: &LabelGraph, phi: &Ltl| -> bool {
        !graph.initial.is_empty()
            && certified(graph, phi, justice).is_ok_and(|c| c != decided(graph, phi, justice))
    };
    let mut cur = dis.clone();
    loop {
        let mut shrunk = false;
        // Nodes.
        for v in 0..cur.graph.num_nodes() {
            if cur.graph.num_nodes() <= 1 {
                break;
            }
            let g = remove_node(&cur.graph, v);
            if still_disagrees(&g, &cur.phi) {
                cur.graph = g;
                shrunk = true;
                break;
            }
        }
        if shrunk {
            continue;
        }
        // Edges.
        'edges: for v in 0..cur.graph.num_nodes() {
            for k in 0..cur.graph.succs[v].len() {
                let mut g = cur.graph.clone();
                g.succs[v].remove(k);
                if still_disagrees(&g, &cur.phi) {
                    cur.graph = g;
                    shrunk = true;
                    break 'edges;
                }
            }
        }
        if shrunk {
            continue;
        }
        // Formula. Only strictly smaller candidates are accepted, which
        // guarantees termination of the outer loop.
        for cand in shrinks(&cur.phi) {
            if cand.size() < cur.phi.size() && still_disagrees(&cur.graph, &cand) {
                cur.phi = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    cur.decided_holds = decided(&cur.graph, &cur.phi, justice);
    if let Ok(holds) = certified(&cur.graph, &cur.phi, justice) {
        cur.certified_holds = holds;
    }
    cur
}

/// The graph with node `v` (and all edges touching it) removed and the
/// remaining nodes re-indexed.
fn remove_node(graph: &LabelGraph, v: usize) -> LabelGraph {
    let remap = |u: usize| if u > v { u - 1 } else { u };
    let keep = |u: &usize| *u != v;
    LabelGraph {
        labels: graph
            .labels
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != v)
            .map(|(_, &l)| l)
            .collect(),
        origin: graph
            .origin
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != v)
            .map(|(_, &o)| o)
            .collect(),
        succs: graph
            .succs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != v)
            .map(|(_, s)| s.iter().filter(|u| keep(u)).map(|&u| remap(u)).collect())
            .collect(),
        initial: graph
            .initial
            .iter()
            .filter(|u| keep(u))
            .map(|&u| remap(u))
            .collect(),
    }
}

/// Shrink candidates for a formula: the constants, each operand, and
/// each operand recursively shrunk in place.
fn shrinks(phi: &Ltl) -> Vec<Ltl> {
    let mut out = vec![Ltl::True, Ltl::False];
    match phi {
        Ltl::True | Ltl::False | Ltl::Atom(_) => {}
        Ltl::Not(x) => {
            out.push((**x).clone());
            out.extend(shrinks(x).into_iter().map(Ltl::not));
        }
        Ltl::Next(x) => {
            out.push((**x).clone());
            out.extend(shrinks(x).into_iter().map(Ltl::next));
        }
        Ltl::And(l, r) => binary_shrinks(&mut out, l, r, Ltl::and),
        Ltl::Or(l, r) => binary_shrinks(&mut out, l, r, Ltl::or),
        Ltl::Until(l, r) => binary_shrinks(&mut out, l, r, Ltl::until),
        Ltl::Release(l, r) => binary_shrinks(&mut out, l, r, Ltl::release),
    }
    out
}

fn binary_shrinks(out: &mut Vec<Ltl>, l: &Ltl, r: &Ltl, rebuild: impl Fn(Ltl, Ltl) -> Ltl) {
    out.push(l.clone());
    out.push(r.clone());
    out.extend(shrinks(l).into_iter().map(|s| rebuild(s, r.clone())));
    out.extend(shrinks(r).into_iter().map(|s| rebuild(l.clone(), s)));
}

/// Serializes a disagreement as pretty-printed JSON, ready to be dumped
/// to a repro file; [`Disagreement::from_json`] reads it back.
///
/// The graph is `{"labels": [[prop_bits, act_bits], ..], "origin":
/// [[model, ctrl], ..], "succs": [[..], ..], "initial": [..]}`. The
/// formula is LTL text over the id vocabulary: proposition `i` is named
/// `p<i>` and action `i` is `a<i>`.
pub fn repro_json(dis: &Disagreement) -> String {
    dis.to_json().to_json_pretty()
}

/// The vocabulary repro formulas are written in: every id a label set
/// can hold, named by its index.
fn id_vocab() -> Vocab {
    let mut vocab = Vocab::new();
    for i in 0..MAX_PROPS {
        vocab.add_prop(&format!("p{i}")).ok();
    }
    for i in 0..MAX_ACTS {
        vocab.add_act(&format!("a{i}")).ok();
    }
    vocab
}

impl ToJson for Disagreement {
    fn to_json(&self) -> Value {
        let g = &self.graph;
        let labels: Vec<Vec<u32>> = g
            .labels
            .iter()
            .map(|(p, a)| vec![p.bits(), a.bits()])
            .collect();
        let origin: Vec<Vec<usize>> = g.origin.iter().map(|s| vec![s.model, s.ctrl]).collect();
        let graph = Value::obj([
            ("labels", labels.to_json()),
            ("origin", origin.to_json()),
            ("succs", g.succs.to_json()),
            ("initial", g.initial.to_json()),
        ]);
        Value::obj([
            ("graph", graph),
            ("phi", Value::Str(self.phi.to_string(&id_vocab()))),
            ("justice_names", self.justice_names.to_json()),
            ("decided_holds", self.decided_holds.to_json()),
            ("certified_holds", self.certified_holds.to_json()),
        ])
    }
}

/// Rejects a graph whose node lists disagree in length or whose edges
/// and initial nodes point past the last node, so a loaded repro is safe
/// to hand to either checker.
impl FromJson for Disagreement {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let g = v.field("graph")?;
        let graph = LabelGraph {
            labels: pairs(g, "labels")?
                .into_iter()
                .map(|(p, a)| (PropSet::from_bits(p), ActSet::from_bits(a)))
                .collect(),
            origin: pairs(g, "origin")?
                .into_iter()
                .map(|(model, ctrl)| ProductState { model, ctrl })
                .collect(),
            succs: g.field_as("succs")?,
            initial: g.field_as("initial")?,
        };
        let n = graph.num_nodes();
        if graph.origin.len() != n || graph.succs.len() != n {
            return Err(DecodeError("graph: node lists differ in length".to_owned()));
        }
        let nodes = graph.succs.iter().flatten().chain(&graph.initial);
        if let Some(bad) = nodes.copied().find(|&i| i >= n) {
            return Err(DecodeError(format!("graph: node {bad} of {n}")));
        }
        let text: String = v.field_as("phi")?;
        let phi = parse(&text, &id_vocab()).map_err(|e| DecodeError(format!("phi: {e}")))?;
        Ok(Disagreement {
            graph,
            phi,
            justice_names: v.field_as("justice_names")?,
            decided_holds: v.field_as("decided_holds")?,
            certified_holds: v.field_as("certified_holds")?,
        })
    }
}

/// The field `key` of `v` as a list of two-element arrays.
fn pairs<T: FromJson + Copy>(v: &Value, key: &str) -> Result<Vec<(T, T)>, DecodeError> {
    let lists: Vec<Vec<T>> = v.field_as(key)?;
    lists
        .into_iter()
        .map(|pair| match pair[..] {
            [a, b] => Ok((a, b)),
            _ => Err(DecodeError(format!("{key}: expected pairs"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    fn two_state_graph(v: &Vocab) -> LabelGraph {
        let a = v.prop("a").unwrap();
        LabelGraph {
            labels: vec![
                (PropSet::singleton(a), ActSet::empty()),
                (PropSet::empty(), ActSet::empty()),
            ],
            origin: vec![ProductState { model: 0, ctrl: 0 }; 2],
            succs: vec![vec![0, 1], vec![0, 1]],
            initial: vec![0],
        }
    }

    #[test]
    fn agreeing_backends_yield_none() {
        let v = vocab();
        let graph = two_state_graph(&v);
        let specs: Vec<Ltl> = ["G a", "F !a", "G F a", "a U b"]
            .iter()
            .map(|spec| parse(spec, &v).unwrap())
            .collect();
        let suite = differential(&graph, &specs, &[]).unwrap();
        assert!(suite.disagreements.is_empty());
        assert_eq!(suite.certified, [false; 4]);
        // Visiting `a` infinitely often makes `G F a` hold.
        let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
        let suite = differential(&graph, &specs, &justice).unwrap();
        assert!(suite.disagreements.is_empty());
        assert_eq!(suite.certified, [false, false, true, false]);
    }

    /// Minimization shrinks a fabricated disagreement down to a tiny
    /// reproducer while preserving the property "the paths disagree" —
    /// exercised here with a fake disagreement observed on an agreeing
    /// pair, where minimize must simply return a consistent record.
    #[test]
    fn minimize_is_stable_on_agreement() {
        let v = vocab();
        let graph = two_state_graph(&v);
        let phi = parse("G F a", &v).unwrap();
        let dis = Disagreement {
            graph: graph.clone(),
            phi: phi.clone(),
            justice_names: Vec::new(),
            decided_holds: true,
            certified_holds: false,
        };
        // No shrink reproduces (there is no real disagreement), so the
        // record keeps its shape and the verdict fields are refreshed to
        // the true (agreeing) values.
        let min = minimize(&dis, &[]);
        assert_eq!(min.decided_holds, min.certified_holds);
        assert_eq!(min.graph.num_nodes(), graph.num_nodes());
    }

    #[test]
    fn repro_round_trips_through_json() {
        let v = vocab();
        let mut dis = Disagreement {
            graph: two_state_graph(&v),
            phi: parse("G F a", &v).unwrap(),
            justice_names: vec!["a io".to_owned()],
            decided_holds: true,
            certified_holds: false,
        };
        let json = repro_json(&dis);
        let back = Disagreement::from_json(&obskit::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, dis);
        // A repro that points past its last node is rejected, not loaded.
        dis.graph.succs[1].push(2);
        let parsed = obskit::json::parse(&repro_json(&dis)).unwrap();
        assert!(Disagreement::from_json(&parsed).is_err());
    }

    /// Text over quotes, backslashes, control characters and non-ASCII
    /// letters, to exercise the string escapes.
    const TEXT: &str = "[az \"\\\n\u{1}ü]{0,8}";

    /// Formulas up to depth 3 over every proposition and action id.
    fn arb_ltl() -> impl Strategy<Value = Ltl> {
        let v = id_vocab();
        let props: Vec<Ltl> = v.props().map(Ltl::prop).collect();
        let acts: Vec<Ltl> = v.acts().map(Ltl::act).collect();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            (0..props.len()).prop_map(move |i| props[i].clone()),
            (0..acts.len()).prop_map(move |i| acts[i].clone()),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_json(parse(to_json(x))) == x` for arbitrary repros.
        #[test]
        fn arbitrary_repro_round_trips(
            graph in crate::tests::arb_graph(),
            phi in arb_ltl(),
            justice_names in proptest::collection::vec(TEXT, 0..3),
            decided_holds in any::<bool>(),
            certified_holds in any::<bool>(),
        ) {
            let dis = Disagreement {
                graph,
                phi,
                justice_names,
                decided_holds,
                certified_holds,
            };
            let parsed = obskit::json::parse(&repro_json(&dis)).unwrap();
            prop_assert_eq!(Disagreement::from_json(&parsed), Ok(dis));
        }
    }
}
