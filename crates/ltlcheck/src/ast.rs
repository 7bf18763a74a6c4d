use autokit::{ActId, ActSet, PropId, PropSet, Vocab};
use std::fmt;
use std::sync::Arc;

/// An atomic proposition of a specification: either an environment
/// observation from `P` or a controller action from `P_A`.
///
/// The paper's specifications mix both freely, e.g.
/// `Φ₁ = □(pedestrian → ◇ stop)` refers to the observation `pedestrian`
/// and the action `stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    /// An observation proposition `p ∈ P`.
    Prop(PropId),
    /// An action proposition `a ∈ P_A`.
    Act(ActId),
}

impl Atom {
    /// Evaluates the atom against one step label `ψ = (σ, a)`.
    pub fn holds(self, props: PropSet, acts: ActSet) -> bool {
        match self {
            Atom::Prop(p) => props.contains(p),
            Atom::Act(a) => acts.contains(a),
        }
    }

    /// The atom's name in a vocabulary.
    pub fn name(self, vocab: &Vocab) -> &str {
        match self {
            Atom::Prop(p) => vocab.prop_name(p),
            Atom::Act(a) => vocab.act_name(a),
        }
    }
}

/// A linear temporal logic formula over [`Atom`]s.
///
/// Subformulas are shared via [`Arc`], so cloning is cheap and formulas can
/// be built compositionally:
///
/// ```
/// use autokit::Vocab;
/// use ltlcheck::{Atom, Ltl};
///
/// let mut v = Vocab::new();
/// let ped = v.add_prop("pedestrian")?;
/// let stop = v.add_act("stop")?;
///
/// // Φ₁ = □(pedestrian → ◇ stop); `→` desugars to `¬· ∨ ·`.
/// let phi = Ltl::always(Ltl::implies(
///     Ltl::prop(ped),
///     Ltl::eventually(Ltl::act(stop)),
/// ));
/// assert_eq!(phi.to_string(&v), "G((!(\"pedestrian\")) | (F(\"stop\")))");
/// # Ok::<(), autokit::AutokitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ltl {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atomic proposition.
    Atom(Atom),
    /// Negation `¬φ`.
    Not(Arc<Ltl>),
    /// Conjunction `φ ∧ ψ`.
    And(Arc<Ltl>, Arc<Ltl>),
    /// Disjunction `φ ∨ ψ`.
    Or(Arc<Ltl>, Arc<Ltl>),
    /// Next `○φ`.
    Next(Arc<Ltl>),
    /// Until `φ U ψ`.
    Until(Arc<Ltl>, Arc<Ltl>),
    /// Release `φ R ψ` (the dual of until).
    Release(Arc<Ltl>, Arc<Ltl>),
}

impl Ltl {
    /// Atom over an observation proposition.
    pub fn prop(p: PropId) -> Ltl {
        Ltl::Atom(Atom::Prop(p))
    }

    /// Atom over an action proposition.
    pub fn act(a: ActId) -> Ltl {
        Ltl::Atom(Atom::Act(a))
    }

    /// `¬φ`.
    ///
    /// (A static constructor, deliberately named after the connective —
    /// not the `std::ops::Not` trait method.)
    #[allow(clippy::should_implement_trait, reason = "named after the connective")]
    pub fn not(phi: Ltl) -> Ltl {
        Ltl::Not(Arc::new(phi))
    }

    /// `φ ∧ ψ`.
    pub fn and(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::And(Arc::new(lhs), Arc::new(rhs))
    }

    /// `φ ∨ ψ`.
    pub fn or(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::Or(Arc::new(lhs), Arc::new(rhs))
    }

    /// `φ → ψ`, desugared to `¬φ ∨ ψ`.
    pub fn implies(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::or(Ltl::not(lhs), rhs)
    }

    /// `φ ↔ ψ`.
    pub fn iff(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::and(
            Ltl::implies(lhs.clone(), rhs.clone()),
            Ltl::implies(rhs, lhs),
        )
    }

    /// Next `○φ`.
    pub fn next(phi: Ltl) -> Ltl {
        Ltl::Next(Arc::new(phi))
    }

    /// Until `φ U ψ`.
    pub fn until(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::Until(Arc::new(lhs), Arc::new(rhs))
    }

    /// Release `φ R ψ`.
    pub fn release(lhs: Ltl, rhs: Ltl) -> Ltl {
        Ltl::Release(Arc::new(lhs), Arc::new(rhs))
    }

    /// Eventually `◇φ`, desugared to `true U φ`.
    pub fn eventually(phi: Ltl) -> Ltl {
        Ltl::until(Ltl::True, phi)
    }

    /// Always `□φ`, desugared to `false R φ`.
    pub fn always(phi: Ltl) -> Ltl {
        Ltl::release(Ltl::False, phi)
    }

    /// Disjunction over an iterator (`false` when empty).
    pub fn any(parts: impl IntoIterator<Item = Ltl>) -> Ltl {
        let mut iter = parts.into_iter();
        match iter.next() {
            None => Ltl::False,
            Some(first) => iter.fold(first, Ltl::or),
        }
    }

    /// Conjunction over an iterator (`true` when empty).
    pub fn all(parts: impl IntoIterator<Item = Ltl>) -> Ltl {
        let mut iter = parts.into_iter();
        match iter.next() {
            None => Ltl::True,
            Some(first) => iter.fold(first, Ltl::and),
        }
    }

    /// Rewrites the formula into **negation normal form**: negations are
    /// pushed down to atoms using De Morgan's laws and the temporal
    /// dualities `¬○φ = ○¬φ`, `¬(φ U ψ) = ¬φ R ¬ψ`, `¬(φ R ψ) = ¬φ U ¬ψ`.
    ///
    /// The GPVW tableau construction requires NNF input.
    pub fn nnf(&self) -> Ltl {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, negated: bool) -> Ltl {
        match (self, negated) {
            (Ltl::True, false) | (Ltl::False, true) => Ltl::True,
            (Ltl::True, true) | (Ltl::False, false) => Ltl::False,
            (Ltl::Atom(a), false) => Ltl::Atom(*a),
            (Ltl::Atom(a), true) => Ltl::Not(Arc::new(Ltl::Atom(*a))),
            (Ltl::Not(inner), neg) => inner.nnf_inner(!neg),
            (Ltl::And(l, r), false) => Ltl::and(l.nnf_inner(false), r.nnf_inner(false)),
            (Ltl::And(l, r), true) => Ltl::or(l.nnf_inner(true), r.nnf_inner(true)),
            (Ltl::Or(l, r), false) => Ltl::or(l.nnf_inner(false), r.nnf_inner(false)),
            (Ltl::Or(l, r), true) => Ltl::and(l.nnf_inner(true), r.nnf_inner(true)),
            (Ltl::Next(inner), neg) => Ltl::next(inner.nnf_inner(neg)),
            (Ltl::Until(l, r), false) => Ltl::until(l.nnf_inner(false), r.nnf_inner(false)),
            (Ltl::Until(l, r), true) => Ltl::release(l.nnf_inner(true), r.nnf_inner(true)),
            (Ltl::Release(l, r), false) => Ltl::release(l.nnf_inner(false), r.nnf_inner(false)),
            (Ltl::Release(l, r), true) => Ltl::until(l.nnf_inner(true), r.nnf_inner(true)),
        }
    }

    /// `true` iff the formula is in negation normal form (negation only on
    /// atoms).
    pub fn is_nnf(&self) -> bool {
        match self {
            Ltl::True | Ltl::False | Ltl::Atom(_) => true,
            Ltl::Not(inner) => matches!(**inner, Ltl::Atom(_)),
            Ltl::And(l, r) | Ltl::Or(l, r) | Ltl::Until(l, r) | Ltl::Release(l, r) => {
                l.is_nnf() && r.is_nnf()
            }
            Ltl::Next(inner) => inner.is_nnf(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Ltl::True | Ltl::False | Ltl::Atom(_) => 1,
            Ltl::Not(inner) | Ltl::Next(inner) => 1 + inner.size(),
            Ltl::And(l, r) | Ltl::Or(l, r) | Ltl::Until(l, r) | Ltl::Release(l, r) => {
                1 + l.size() + r.size()
            }
        }
    }

    /// All atoms occurring in the formula, deduplicated.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Ltl::True | Ltl::False => {}
            Ltl::Atom(a) => out.push(*a),
            Ltl::Not(inner) | Ltl::Next(inner) => inner.collect_atoms(out),
            Ltl::And(l, r) | Ltl::Or(l, r) | Ltl::Until(l, r) | Ltl::Release(l, r) => {
                l.collect_atoms(out);
                r.collect_atoms(out);
            }
        }
    }

    /// Renders the formula with quoted atom names from `vocab`, in the
    /// ASCII syntax accepted by [`crate::parse`].
    pub fn to_string(&self, vocab: &Vocab) -> String {
        let mut out = String::new();
        self.fmt_with(vocab, &mut out);
        out
    }

    fn fmt_with(&self, vocab: &Vocab, out: &mut String) {
        use fmt::Write as _;
        match self {
            Ltl::True => out.push_str("true"),
            Ltl::False => out.push_str("false"),
            Ltl::Atom(a) => {
                let _ = write!(out, "\"{}\"", a.name(vocab));
            }
            Ltl::Not(inner) => {
                out.push_str("!(");
                inner.fmt_with(vocab, out);
                out.push(')');
            }
            Ltl::And(l, r) => {
                out.push('(');
                l.fmt_with(vocab, out);
                out.push_str(") & (");
                r.fmt_with(vocab, out);
                out.push(')');
            }
            Ltl::Or(l, r) => {
                // Render `(!a) | b` as implication-free disjunction; the
                // parser re-reads either form identically.
                out.push('(');
                l.fmt_with(vocab, out);
                out.push_str(") | (");
                r.fmt_with(vocab, out);
                out.push(')');
            }
            Ltl::Next(inner) => {
                out.push_str("X(");
                inner.fmt_with(vocab, out);
                out.push(')');
            }
            Ltl::Until(l, r) => {
                if **l == Ltl::True {
                    out.push_str("F(");
                    r.fmt_with(vocab, out);
                    out.push(')');
                } else {
                    out.push('(');
                    l.fmt_with(vocab, out);
                    out.push_str(") U (");
                    r.fmt_with(vocab, out);
                    out.push(')');
                }
            }
            Ltl::Release(l, r) => {
                if **l == Ltl::False {
                    out.push_str("G(");
                    r.fmt_with(vocab, out);
                    out.push(')');
                } else {
                    out.push('(');
                    l.fmt_with(vocab, out);
                    out.push_str(") R (");
                    r.fmt_with(vocab, out);
                    out.push(')');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> (Vocab, PropId, PropId, ActId) {
        let mut v = Vocab::new();
        let a = v.add_prop("a").unwrap();
        let b = v.add_prop("b").unwrap();
        let s = v.add_act("s").unwrap();
        (v, a, b, s)
    }

    #[test]
    fn sugar_desugars() {
        let (_, a, _, _) = vocab();
        assert_eq!(
            Ltl::eventually(Ltl::prop(a)),
            Ltl::until(Ltl::True, Ltl::prop(a))
        );
        assert_eq!(
            Ltl::always(Ltl::prop(a)),
            Ltl::release(Ltl::False, Ltl::prop(a))
        );
        assert_eq!(
            Ltl::implies(Ltl::prop(a), Ltl::True),
            Ltl::or(Ltl::not(Ltl::prop(a)), Ltl::True)
        );
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let (_, a, b, _) = vocab();
        let phi = Ltl::not(Ltl::until(Ltl::prop(a), Ltl::and(Ltl::prop(b), Ltl::True)));
        let nnf = phi.nnf();
        assert!(nnf.is_nnf());
        assert_eq!(
            nnf,
            Ltl::release(
                Ltl::not(Ltl::prop(a)),
                Ltl::or(Ltl::not(Ltl::prop(b)), Ltl::False)
            )
        );
    }

    #[test]
    fn double_negation_cancels() {
        let (_, a, _, _) = vocab();
        let phi = Ltl::not(Ltl::not(Ltl::prop(a)));
        assert_eq!(phi.nnf(), Ltl::prop(a));
    }

    #[test]
    fn nnf_of_negated_constants() {
        assert_eq!(Ltl::not(Ltl::True).nnf(), Ltl::False);
        assert_eq!(Ltl::not(Ltl::False).nnf(), Ltl::True);
    }

    #[test]
    fn atoms_deduplicated() {
        let (_, a, b, s) = vocab();
        let phi = Ltl::and(
            Ltl::or(Ltl::prop(a), Ltl::prop(b)),
            Ltl::until(Ltl::prop(a), Ltl::act(s)),
        );
        assert_eq!(
            phi.atoms(),
            vec![Atom::Prop(a), Atom::Prop(b), Atom::Act(s)]
        );
    }

    #[test]
    fn atom_holds_checks_right_component() {
        let (_, a, _, s) = vocab();
        let props = PropSet::singleton(a);
        let acts = ActSet::singleton(s);
        assert!(Atom::Prop(a).holds(props, ActSet::empty()));
        assert!(!Atom::Prop(a).holds(PropSet::empty(), acts));
        assert!(Atom::Act(s).holds(PropSet::empty(), acts));
        assert!(!Atom::Act(s).holds(props, ActSet::empty()));
    }

    #[test]
    fn any_all_identities() {
        let (_, a, _, _) = vocab();
        assert_eq!(Ltl::any([]), Ltl::False);
        assert_eq!(Ltl::all([]), Ltl::True);
        assert_eq!(Ltl::any([Ltl::prop(a)]), Ltl::prop(a));
        assert_eq!(Ltl::all([Ltl::prop(a)]), Ltl::prop(a));
    }

    #[test]
    fn size_counts_nodes() {
        let (_, a, b, _) = vocab();
        let phi = Ltl::always(Ltl::implies(Ltl::prop(a), Ltl::eventually(Ltl::prop(b))));
        // G(...) = Release(False, Or(Not(a), Until(True, b)))
        assert_eq!(phi.size(), 8);
    }
}
