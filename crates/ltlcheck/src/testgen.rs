//! Test-only generators shared by the crate's property tests.

use crate::Ltl;
use autokit::Vocab;
use proptest::prelude::*;

/// Two single-word propositions, one quoted multi-word proposition and
/// one action; ids follow insertion order.
pub(crate) fn vocab() -> Vocab {
    let mut v = Vocab::new();
    v.add_prop("a").unwrap();
    v.add_prop("b").unwrap();
    v.add_prop("car from left").unwrap();
    v.add_act("s").unwrap();
    v
}

/// Random formulas over [`vocab`], including the `→`, `□` and `◇` sugar
/// the parser and printer produce.
pub(crate) fn arb_ltl() -> impl Strategy<Value = Ltl> {
    let v = vocab();
    let a = v.prop("a").unwrap();
    let b = v.prop("b").unwrap();
    let car = v.prop("car from left").unwrap();
    let s = v.act("s").unwrap();
    let leaf = prop_oneof![
        Just(Ltl::True),
        Just(Ltl::False),
        Just(Ltl::prop(a)),
        Just(Ltl::prop(b)),
        Just(Ltl::prop(car)),
        Just(Ltl::act(s)),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Ltl::not),
            inner.clone().prop_map(Ltl::next),
            inner.clone().prop_map(Ltl::always),
            inner.clone().prop_map(Ltl::eventually),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::or(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::implies(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::until(l, r)),
            (inner.clone(), inner).prop_map(|(l, r)| Ltl::release(l, r)),
        ]
    })
}
