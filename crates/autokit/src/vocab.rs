use crate::{ActSet, AutokitError, PropSet, Result};
use std::collections::HashMap;
use std::fmt;

/// Maximum number of atomic propositions a [`Vocab`] can hold.
///
/// Symbols `σ ∈ 2^P` are stored as `u32` bitsets, so the proposition set is
/// capped at 32 entries. The paper's driving domain uses 10 propositions and
/// 4 actions, so this leaves ample headroom.
pub const MAX_PROPS: usize = 32;

/// Maximum number of action propositions a [`Vocab`] can hold.
pub const MAX_ACTS: usize = 32;

/// Identifier of an atomic proposition in a [`Vocab`].
///
/// Propositions describe environment observations, e.g. `green traffic
/// light` or `pedestrian at right` in the paper's driving domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropId(pub(crate) u8);

/// Identifier of an action proposition in a [`Vocab`].
///
/// Actions are the controller's outputs, e.g. `stop` or `turn right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActId(pub(crate) u8);

impl PropId {
    /// Numeric index of this proposition within its vocabulary.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ActId {
    /// Numeric index of this action within its vocabulary.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned vocabulary of atomic propositions `P` and actions `P_A`.
///
/// Every automaton in this crate is built against a single `Vocab`; symbols
/// are bitsets indexed by [`PropId`] / [`ActId`]. The vocabulary corresponds
/// to the paper's externally provided sets of behaviours and control
/// signals (Section 4.1: "We encode the set of behaviors in an atomic
/// proposition set P and the set of actions in an atomic proposition set
/// P_A").
///
/// # Example
///
/// ```
/// use autokit::Vocab;
///
/// let mut vocab = Vocab::new();
/// let ped = vocab.add_prop("pedestrian in front")?;
/// let stop = vocab.add_act("stop")?;
/// assert_eq!(vocab.prop_name(ped), "pedestrian in front");
/// assert_eq!(vocab.act_name(stop), "stop");
/// # Ok::<(), autokit::AutokitError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vocab {
    props: Vec<String>,
    acts: Vec<String>,
    prop_index: HashMap<String, PropId>,
    act_index: HashMap<String, ActId>,
}

/// `_` is not allowed: the LTL parser reads it as a space, so a name
/// containing it could never be parsed back.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || " -".contains(c))
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an atomic proposition and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`AutokitError::DuplicateName`] if the name is already
    /// registered (as a proposition *or* an action — the two namespaces are
    /// shared, because LTL specifications mix both),
    /// [`AutokitError::InvalidName`] for names outside `[a-z0-9 -]`, and
    /// [`AutokitError::VocabFull`] past [`MAX_PROPS`] entries.
    pub fn add_prop(&mut self, name: &str) -> Result<PropId> {
        if !valid_name(name) {
            return Err(AutokitError::InvalidName(name.to_owned()));
        }
        if self.prop_index.contains_key(name) || self.act_index.contains_key(name) {
            return Err(AutokitError::DuplicateName(name.to_owned()));
        }
        if self.props.len() >= MAX_PROPS {
            return Err(AutokitError::VocabFull {
                kind: "propositions",
                max: MAX_PROPS,
            });
        }
        let id = PropId(self.props.len() as u8);
        self.props.push(name.to_owned());
        self.prop_index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Registers an action proposition and returns its id.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Vocab::add_prop`], with the cap
    /// [`MAX_ACTS`].
    pub fn add_act(&mut self, name: &str) -> Result<ActId> {
        if !valid_name(name) {
            return Err(AutokitError::InvalidName(name.to_owned()));
        }
        if self.prop_index.contains_key(name) || self.act_index.contains_key(name) {
            return Err(AutokitError::DuplicateName(name.to_owned()));
        }
        if self.acts.len() >= MAX_ACTS {
            return Err(AutokitError::VocabFull {
                kind: "actions",
                max: MAX_ACTS,
            });
        }
        let id = ActId(self.acts.len() as u8);
        self.acts.push(name.to_owned());
        self.act_index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks up a proposition by name.
    pub fn prop(&self, name: &str) -> Result<PropId> {
        self.prop_index
            .get(name)
            .copied()
            .ok_or_else(|| AutokitError::UnknownName(name.to_owned()))
    }

    /// Looks up an action by name.
    pub fn act(&self, name: &str) -> Result<ActId> {
        self.act_index
            .get(name)
            .copied()
            .ok_or_else(|| AutokitError::UnknownName(name.to_owned()))
    }

    /// Name of a proposition.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different vocabulary and is out of range.
    pub fn prop_name(&self, id: PropId) -> &str {
        &self.props[id.index()]
    }

    /// Name of an action.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different vocabulary and is out of range.
    pub fn act_name(&self, id: ActId) -> &str {
        &self.acts[id.index()]
    }

    /// Number of registered propositions `|P|`.
    pub fn num_props(&self) -> usize {
        self.props.len()
    }

    /// Number of registered actions `|P_A|`.
    pub fn num_acts(&self) -> usize {
        self.acts.len()
    }

    /// Iterates over all proposition ids.
    pub fn props(&self) -> impl Iterator<Item = PropId> + '_ {
        (0..self.props.len()).map(|i| PropId(i as u8))
    }

    /// Iterates over all action ids.
    pub fn acts(&self) -> impl Iterator<Item = ActId> + '_ {
        (0..self.acts.len()).map(|i| ActId(i as u8))
    }

    /// Renders a symbol `σ ∈ 2^P` as a human-readable conjunction.
    pub fn display_props(&self, set: PropSet) -> String {
        let names: Vec<&str> = self
            .props()
            .filter(|p| set.contains(*p))
            .map(|p| self.prop_name(p))
            .collect();
        if names.is_empty() {
            "∅".to_owned()
        } else {
            names.join(" ∧ ")
        }
    }

    /// Renders an action set `a ∈ 2^{P_A}` as a human-readable conjunction.
    pub fn display_acts(&self, set: ActSet) -> String {
        let names: Vec<&str> = self
            .acts()
            .filter(|a| set.contains(*a))
            .map(|a| self.act_name(a))
            .collect();
        if names.is_empty() {
            "ε".to_owned()
        } else {
            names.join(" ∧ ")
        }
    }
}

impl fmt::Display for Vocab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P = {{{}}}, P_A = {{{}}}",
            self.props.join(", "),
            self.acts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_props() {
        let mut v = Vocab::new();
        let a = v.add_prop("green traffic light").unwrap();
        let b = v.add_prop("pedestrian in front").unwrap();
        assert_ne!(a, b);
        assert_eq!(v.prop("green traffic light").unwrap(), a);
        assert_eq!(v.prop_name(b), "pedestrian in front");
        assert_eq!(v.num_props(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut v = Vocab::new();
        v.add_prop("stop sign").unwrap();
        assert!(matches!(
            v.add_prop("stop sign"),
            Err(AutokitError::DuplicateName(_))
        ));
        // Names are shared across props and actions.
        assert!(matches!(
            v.add_act("stop sign"),
            Err(AutokitError::DuplicateName(_))
        ));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut v = Vocab::new();
        assert!(matches!(v.add_prop(""), Err(AutokitError::InvalidName(_))));
        assert!(matches!(
            v.add_prop("Green Light"),
            Err(AutokitError::InvalidName(_))
        ));
        assert!(matches!(
            v.add_act("go!"),
            Err(AutokitError::InvalidName(_))
        ));
        assert!(matches!(
            v.add_prop("a_b"),
            Err(AutokitError::InvalidName(_))
        ));
    }

    #[test]
    fn vocab_capacity_enforced() {
        let mut v = Vocab::new();
        for i in 0..MAX_PROPS {
            v.add_prop(&format!("p{i}")).unwrap();
        }
        assert!(matches!(
            v.add_prop("overflow"),
            Err(AutokitError::VocabFull { .. })
        ));
    }

    #[test]
    fn unknown_lookup_fails() {
        let v = Vocab::new();
        assert!(matches!(v.prop("nope"), Err(AutokitError::UnknownName(_))));
        assert!(matches!(v.act("nope"), Err(AutokitError::UnknownName(_))));
    }

    #[test]
    fn display_sets() {
        let mut v = Vocab::new();
        let g = v.add_prop("green").unwrap();
        let r = v.add_prop("red").unwrap();
        let s = v.add_act("stop").unwrap();
        let set = PropSet::empty().with(g).with(r);
        assert_eq!(v.display_props(set), "green ∧ red");
        assert_eq!(v.display_props(PropSet::empty()), "∅");
        assert_eq!(v.display_acts(ActSet::empty().with(s)), "stop");
        assert_eq!(v.display_acts(ActSet::empty()), "ε");
    }
}
