//! An independent LTL-on-lasso evaluator.
//!
//! This is certkit's own ground-truth oracle for ultimately periodic
//! words `prefix · cycleᵚ`. It deliberately shares **no code** with
//! `ltlcheck`: atoms are evaluated by a local match, and `Until`/
//! `Release` are decided by bounded forward scans along the (eventually
//! periodic) successor chain instead of the vector fixpoints
//! `ltlcheck::holds_on_lasso` uses. Agreement between the two
//! implementations is itself checked by property tests.

use autokit::{ActSet, PropSet};
use ltlcheck::{Atom, Ltl};

/// One step label of a word: observed propositions and emitted actions.
pub type Label = (PropSet, ActSet);

/// Evaluates an atom against one step label, without calling
/// [`Atom::holds`].
pub fn atom_holds(atom: Atom, props: PropSet, acts: ActSet) -> bool {
    match atom {
        Atom::Prop(p) => props.contains(p),
        Atom::Act(a) => acts.contains(a),
    }
}

/// Evaluates a **propositional** formula on one step label.
///
/// Returns `None` if the formula contains a temporal operator.
pub fn eval_prop(phi: &Ltl, props: PropSet, acts: ActSet) -> Option<bool> {
    match phi {
        Ltl::True => Some(true),
        Ltl::False => Some(false),
        Ltl::Atom(a) => Some(atom_holds(*a, props, acts)),
        Ltl::Not(inner) => eval_prop(inner, props, acts).map(|b| !b),
        Ltl::And(l, r) => Some(eval_prop(l, props, acts)? && eval_prop(r, props, acts)?),
        Ltl::Or(l, r) => Some(eval_prop(l, props, acts)? || eval_prop(r, props, acts)?),
        Ltl::Next(_) | Ltl::Until(_, _) | Ltl::Release(_, _) => None,
    }
}

/// Evaluates an LTL formula on the ultimately periodic word
/// `prefix · cycleᵚ` with exact infinite-word semantics.
///
/// Independent reimplementation of `ltlcheck::holds_on_lasso`; see the
/// module docs for how the algorithms differ.
///
/// # Panics
///
/// Panics if `cycle` is empty.
pub fn holds_on_lasso(phi: &Ltl, prefix: &[Label], cycle: &[Label]) -> bool {
    assert!(!cycle.is_empty(), "lasso cycle must be non-empty");
    let p = prefix.len();
    let n = p + cycle.len();
    let succ = |i: usize| if i + 1 < n { i + 1 } else { p };
    let label = |i: usize| if i < p { prefix[i] } else { cycle[i - p] };
    eval(phi, n, &succ, &label)[0]
}

/// Per-position truth values of `phi` over the `n` positions of the
/// lasso, computed bottom-up.
fn eval(
    phi: &Ltl,
    n: usize,
    succ: &dyn Fn(usize) -> usize,
    label: &dyn Fn(usize) -> Label,
) -> Vec<bool> {
    match phi {
        Ltl::True => vec![true; n],
        Ltl::False => vec![false; n],
        Ltl::Atom(a) => (0..n)
            .map(|i| {
                let (props, acts) = label(i);
                atom_holds(*a, props, acts)
            })
            .collect(),
        Ltl::Not(inner) => eval(inner, n, succ, label).iter().map(|b| !b).collect(),
        Ltl::And(l, r) => {
            let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
            (0..n).map(|i| lv[i] && rv[i]).collect()
        }
        Ltl::Or(l, r) => {
            let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
            (0..n).map(|i| lv[i] || rv[i]).collect()
        }
        Ltl::Next(inner) => {
            let iv = eval(inner, n, succ, label);
            (0..n).map(|i| iv[succ(i)]).collect()
        }
        Ltl::Until(l, r) => {
            let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
            // Forward scan: `l U r` holds at `i` iff, walking the chain
            // from `i`, `r` is reached before `l` first fails. The chain
            // visits at most `n` distinct positions, so if `n + 1` steps
            // discharge nothing the obligation repeats forever.
            (0..n)
                .map(|i| {
                    let mut j = i;
                    for _ in 0..=n {
                        if rv[j] {
                            return true;
                        }
                        if !lv[j] {
                            return false;
                        }
                        j = succ(j);
                    }
                    false
                })
                .collect()
        }
        Ltl::Release(l, r) => {
            let (lv, rv) = (eval(l, n, succ, label), eval(r, n, succ, label));
            // Forward scan: `l R r` holds at `i` iff `r` holds along the
            // chain up to and including the first position where `l`
            // holds — or forever. Visiting `n + 1` positions without a
            // failure of `r` means `r` holds on every reachable position.
            (0..n)
                .map(|i| {
                    let mut j = i;
                    for _ in 0..=n {
                        if !rv[j] {
                            return false;
                        }
                        if lv[j] {
                            return true;
                        }
                        j = succ(j);
                    }
                    true
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokit::Vocab;
    use ltlcheck::parse;
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    fn decode(word: &[u8], v: &Vocab) -> Vec<Label> {
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
    fn eval_prop_rejects_temporal() {
        let v = vocab();
        let phi = parse("F a", &v).unwrap();
        assert_eq!(eval_prop(&phi, PropSet::empty(), ActSet::empty()), None);
        let phi = parse("a & !b", &v).unwrap();
        let a = v.prop("a").unwrap();
        assert_eq!(
            eval_prop(&phi, PropSet::singleton(a), ActSet::empty()),
            Some(true)
        );
        assert_eq!(
            eval_prop(&phi, PropSet::empty(), ActSet::empty()),
            Some(false)
        );
    }

    #[test]
    fn scan_semantics_basics() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let la = (PropSet::singleton(a), ActSet::empty());
        let l0 = (PropSet::empty(), ActSet::empty());
        let gfa = parse("G F a", &v).unwrap();
        assert!(holds_on_lasso(&gfa, &[], &[l0, la]));
        assert!(!holds_on_lasso(&gfa, &[la, la], &[l0]));
        let until = parse("a U b", &v).unwrap();
        assert!(!holds_on_lasso(&until, &[], &[la]));
        let release = parse("b R a", &v).unwrap();
        assert!(holds_on_lasso(&release, &[], &[la]));
    }

    fn arb_ltl() -> impl Strategy<Value = Ltl> {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The scan-based evaluator agrees with ltlcheck's fixpoint-based
        /// oracle on random formulas and random lasso words.
        #[test]
        fn agrees_with_ltlcheck_oracle(
            prefix_raw in proptest::collection::vec(0u8..8, 0..4),
            cycle_raw in proptest::collection::vec(0u8..8, 1..4),
            phi in arb_ltl(),
        ) {
            let v = vocab();
            let prefix = decode(&prefix_raw, &v);
            let cycle = decode(&cycle_raw, &v);
            let ours = holds_on_lasso(&phi, &prefix, &cycle);
            let theirs = ltlcheck::holds_on_lasso(&phi, &prefix, &cycle);
            prop_assert_eq!(ours, theirs, "phi = {:?}", phi);
        }
    }
}
