use crate::{ActSet, AutokitError, PropSet, Result};

/// Index of a state in a [`Controller`].
pub type CtrlState = usize;

/// A transition guard: a conjunction of literals over the proposition set.
///
/// A guard is satisfied by a symbol `σ ∈ 2^P` iff every proposition in
/// `pos` is in `σ` and no proposition in `neg` is. This is exactly the
/// guard language the GLM2FSA grammar produces (`if no car from left and no
/// pedestrian at right …`), and it keeps guard evaluation O(1).
///
/// [`Guard::always`] (empty `pos` and `neg`) matches every symbol.
///
/// # Example
///
/// ```
/// use autokit::{Guard, PropSet, Vocab};
/// let mut v = Vocab::new();
/// let car = v.add_prop("car from left")?;
/// let ped = v.add_prop("pedestrian at right")?;
/// let guard = Guard::always().requires(car).forbids(ped);
/// assert!(guard.matches(PropSet::singleton(car)));
/// assert!(!guard.matches(PropSet::singleton(car).with(ped)));
/// # Ok::<(), autokit::AutokitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Guard {
    /// Propositions that must hold.
    pub pos: PropSet,
    /// Propositions that must not hold.
    pub neg: PropSet,
}

impl Guard {
    /// The guard that matches every symbol (`true`).
    pub const fn always() -> Self {
        Guard {
            pos: PropSet::empty(),
            neg: PropSet::empty(),
        }
    }

    /// Adds a positive literal.
    #[must_use]
    pub fn requires(mut self, prop: crate::PropId) -> Self {
        self.pos.insert(prop);
        self
    }

    /// Adds a negative literal.
    #[must_use]
    pub fn forbids(mut self, prop: crate::PropId) -> Self {
        self.neg.insert(prop);
        self
    }

    /// Evaluates the guard against a symbol.
    pub fn matches(self, sigma: PropSet) -> bool {
        sigma.is_superset(self.pos) && sigma.is_disjoint(self.neg)
    }

    /// `true` iff the guard is syntactically unsatisfiable (some literal
    /// appears both positively and negatively).
    pub fn is_contradictory(self) -> bool {
        !self.pos.is_disjoint(self.neg)
    }

    /// The negation of this guard as a disjunction of literal guards.
    ///
    /// `¬(a ∧ b ∧ ¬c)` = `¬a ∨ ¬b ∨ c`; each disjunct is returned as its own
    /// single-literal [`Guard`]. Used by GLM2FSA to build "else" branches.
    pub fn negation(self) -> Vec<Guard> {
        let mut out = Vec::new();
        for p in self.pos.iter() {
            out.push(Guard {
                pos: PropSet::empty(),
                neg: PropSet::singleton(p),
            });
        }
        for p in self.neg.iter() {
            out.push(Guard {
                pos: PropSet::singleton(p),
                neg: PropSet::empty(),
            });
        }
        out
    }
}

/// One controller transition `δ(q, σ, a, q') = 1`, with the symbol
/// component factored as a [`Guard`] over `2^P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlTransition {
    /// Source state.
    pub from: CtrlState,
    /// Guard over the observed symbol.
    pub guard: Guard,
    /// Emitted action set (empty = `ε`).
    pub action: ActSet,
    /// Destination state.
    pub to: CtrlState,
}

/// A finite-state-automaton controller `A = ⟨Σ, A, Q, q₀, δ⟩` (paper,
/// Section 3).
///
/// Input symbols are `σ ∈ 2^P` (environment observations), output symbols
/// are `a ∈ 2^{P_A}` (actions, with `ε` = no-op). The transition function
/// is non-deterministic; [`Controller::enabled`] returns every transition
/// whose guard matches an observation.
///
/// Controllers are usually constructed from natural-language step lists by
/// the `glm2fsa` crate, but can be built manually via [`ControllerBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Controller {
    name: String,
    num_states: usize,
    initial: CtrlState,
    transitions: Vec<CtrlTransition>,
    /// Per-state transition index for O(out-degree) lookup.
    outgoing: Vec<Vec<usize>>,
}

impl Controller {
    /// Display name (usually the task description, e.g. `"turn right at
    /// the traffic light"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state `q₀`.
    pub fn initial(&self) -> CtrlState {
        self.initial
    }

    /// All transitions.
    pub fn transitions(&self) -> &[CtrlTransition] {
        &self.transitions
    }

    /// Transitions leaving `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn outgoing(&self, state: CtrlState) -> impl Iterator<Item = &CtrlTransition> {
        self.outgoing[state].iter().map(|&i| &self.transitions[i])
    }

    /// Transitions from `state` enabled under observation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn enabled(
        &self,
        state: CtrlState,
        sigma: PropSet,
    ) -> impl Iterator<Item = &CtrlTransition> {
        self.outgoing(state).filter(move |t| t.guard.matches(sigma))
    }

    /// `true` iff some transition is enabled from `state` under `sigma`.
    pub fn has_enabled(&self, state: CtrlState, sigma: PropSet) -> bool {
        self.enabled(state, sigma).next().is_some()
    }

    /// States with no outgoing transitions at all (potential deadlocks in
    /// the product automaton).
    pub fn terminal_states(&self) -> Vec<CtrlState> {
        (0..self.num_states)
            .filter(|&s| self.outgoing[s].is_empty())
            .collect()
    }

    /// The set of actions the controller can ever emit.
    pub fn action_alphabet(&self) -> ActSet {
        self.transitions
            .iter()
            .fold(ActSet::empty(), |acc, t| acc | t.action)
    }
}

/// Builder for [`Controller`].
///
/// # Example
///
/// ```
/// use autokit::{ActSet, ControllerBuilder, Guard, Vocab};
/// let mut v = Vocab::new();
/// let green = v.add_prop("green traffic light")?;
/// let go = v.add_act("go straight")?;
/// let stop = v.add_act("stop")?;
///
/// let ctrl = ControllerBuilder::new("cross when green", 2)
///     .initial(0)
///     .transition(0, Guard::always().requires(green), ActSet::singleton(go), 1)
///     .transition(0, Guard::always().forbids(green), ActSet::singleton(stop), 0)
///     .transition(1, Guard::always(), ActSet::empty(), 1)
///     .build()?;
/// assert_eq!(ctrl.num_states(), 2);
/// # Ok::<(), autokit::AutokitError>(())
/// ```
#[derive(Debug)]
pub struct ControllerBuilder {
    name: String,
    num_states: usize,
    initial: Option<CtrlState>,
    transitions: Vec<CtrlTransition>,
}

impl ControllerBuilder {
    /// Starts a builder for a controller with `num_states` states.
    pub fn new(name: impl Into<String>, num_states: usize) -> Self {
        ControllerBuilder {
            name: name.into(),
            num_states,
            initial: None,
            transitions: Vec::new(),
        }
    }

    /// Sets the initial state `q₀`.
    #[must_use]
    pub fn initial(mut self, state: CtrlState) -> Self {
        self.initial = Some(state);
        self
    }

    /// Adds a transition.
    #[must_use]
    pub fn transition(
        mut self,
        from: CtrlState,
        guard: Guard,
        action: ActSet,
        to: CtrlState,
    ) -> Self {
        self.transitions.push(CtrlTransition {
            from,
            guard,
            action,
            to,
        });
        self
    }

    /// Finalizes the controller.
    ///
    /// # Errors
    ///
    /// Returns [`AutokitError::NoInitialState`] if no initial state was
    /// set, and [`AutokitError::InvalidState`] if the initial state or any
    /// transition endpoint is out of range.
    pub fn build(self) -> Result<Controller> {
        let initial = self.initial.ok_or(AutokitError::NoInitialState)?;
        if initial >= self.num_states {
            return Err(AutokitError::InvalidState(initial));
        }
        for t in &self.transitions {
            if t.from >= self.num_states {
                return Err(AutokitError::InvalidState(t.from));
            }
            if t.to >= self.num_states {
                return Err(AutokitError::InvalidState(t.to));
            }
        }
        let mut outgoing = vec![Vec::new(); self.num_states];
        for (i, t) in self.transitions.iter().enumerate() {
            outgoing[t.from].push(i);
        }
        Ok(Controller {
            name: self.name,
            num_states: self.num_states,
            initial,
            transitions: self.transitions,
            outgoing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PropId, Vocab};
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("green").unwrap();
        v.add_prop("car").unwrap();
        v.add_act("go").unwrap();
        v.add_act("stop").unwrap();
        v
    }

    #[test]
    fn guard_semantics() {
        let v = vocab();
        let green = v.prop("green").unwrap();
        let car = v.prop("car").unwrap();
        let g = Guard::always().requires(green).forbids(car);
        assert!(g.matches(PropSet::singleton(green)));
        assert!(!g.matches(PropSet::singleton(green).with(car)));
        assert!(!g.matches(PropSet::empty()));
        assert!(Guard::always().matches(PropSet::empty()));
    }

    #[test]
    fn guard_negation_covers_complement() {
        let v = vocab();
        let green = v.prop("green").unwrap();
        let car = v.prop("car").unwrap();
        let g = Guard::always().requires(green).forbids(car);
        let negs = g.negation();
        // Over all 4 symbols: exactly the symbols not matching g match some
        // negation disjunct.
        for bits in 0..4u32 {
            let sigma = PropSet::from_bits(bits);
            let matched_neg = negs.iter().any(|n| n.matches(sigma));
            assert_eq!(matched_neg, !g.matches(sigma), "sigma={bits:b}");
        }
        let _ = (green, car);
    }

    #[test]
    fn contradictory_guard_detected() {
        let p = PropId(0);
        let g = Guard::always().requires(p).forbids(p);
        assert!(g.is_contradictory());
        assert!(!g.matches(PropSet::empty()));
        assert!(!g.matches(PropSet::singleton(p)));
    }

    #[test]
    fn builder_validates_states() {
        let bad = ControllerBuilder::new("x", 2).initial(5).build();
        assert!(matches!(bad, Err(AutokitError::InvalidState(5))));

        let bad = ControllerBuilder::new("x", 2)
            .initial(0)
            .transition(0, Guard::always(), ActSet::empty(), 9)
            .build();
        assert!(matches!(bad, Err(AutokitError::InvalidState(9))));

        let bad = ControllerBuilder::new("x", 2).build();
        assert!(matches!(bad, Err(AutokitError::NoInitialState)));
    }

    #[test]
    fn enabled_filters_by_guard() {
        let v = vocab();
        let green = v.prop("green").unwrap();
        let go = v.act("go").unwrap();
        let stop = v.act("stop").unwrap();
        let ctrl = ControllerBuilder::new("t", 1)
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
        let when_green: Vec<_> = ctrl.enabled(0, PropSet::singleton(green)).collect();
        assert_eq!(when_green.len(), 1);
        assert!(when_green[0].action.contains(go));
        let when_red: Vec<_> = ctrl.enabled(0, PropSet::empty()).collect();
        assert_eq!(when_red.len(), 1);
        assert!(when_red[0].action.contains(stop));
    }

    #[test]
    fn terminal_states_and_alphabet() {
        let v = vocab();
        let go = v.act("go").unwrap();
        let ctrl = ControllerBuilder::new("t", 3)
            .initial(0)
            .transition(0, Guard::always(), ActSet::singleton(go), 1)
            .build()
            .unwrap();
        assert_eq!(ctrl.terminal_states(), vec![1, 2]);
        assert_eq!(ctrl.action_alphabet(), ActSet::singleton(go));
    }

    proptest! {
        #[test]
        fn guard_matches_iff_literals_hold(
            pos in any::<u32>(), neg in any::<u32>(), sigma in any::<u32>()
        ) {
            let g = Guard { pos: PropSet::from_bits(pos), neg: PropSet::from_bits(neg) };
            let s = PropSet::from_bits(sigma);
            let expected = (pos & sigma) == pos && (neg & sigma) == 0;
            prop_assert_eq!(g.matches(s), expected);
        }

        #[test]
        fn negation_is_exact_complement(pos in 0u32..16, neg in 0u32..16, sigma in 0u32..16) {
            let g = Guard { pos: PropSet::from_bits(pos), neg: PropSet::from_bits(neg) };
            prop_assume!(!g.is_contradictory());
            let s = PropSet::from_bits(sigma);
            let neg_matches = g.negation().iter().any(|n| n.matches(s));
            prop_assert_eq!(neg_matches, !g.matches(s));
        }
    }
}
