use crate::vocab::{ActId, PropId};
use std::fmt;
use std::ops::{BitAnd, BitOr, Not, Sub};

macro_rules! bitset_type {
    ($(#[$meta:meta])* $name:ident, $id:ty, $ctor:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(u32);

        impl $name {
            /// The empty set.
            pub const fn empty() -> Self {
                Self(0)
            }

            /// The set containing exactly `id`.
            pub fn singleton(id: $id) -> Self {
                Self(1 << id.index())
            }

            /// Builds a set from raw bits. Bits above the vocabulary size are
            /// meaningless but harmless; they never match any id.
            pub const fn from_bits(bits: u32) -> Self {
                Self(bits)
            }

            /// Raw bit representation.
            pub const fn bits(self) -> u32 {
                self.0
            }

            /// Returns this set with `id` added (builder style).
            #[must_use]
            pub fn with(self, id: $id) -> Self {
                Self(self.0 | (1 << id.index()))
            }

            /// Returns this set with `id` removed (builder style).
            #[must_use]
            pub fn without(self, id: $id) -> Self {
                Self(self.0 & !(1 << id.index()))
            }

            /// Adds `id` in place.
            pub fn insert(&mut self, id: $id) {
                self.0 |= 1 << id.index();
            }

            /// Removes `id` in place.
            pub fn remove(&mut self, id: $id) {
                self.0 &= !(1 << id.index());
            }

            /// Membership test.
            pub fn contains(self, id: $id) -> bool {
                self.0 & (1 << id.index()) != 0
            }

            /// `true` iff every element of `other` is in `self`.
            pub fn is_superset(self, other: Self) -> bool {
                self.0 & other.0 == other.0
            }

            /// `true` iff the two sets share no element.
            pub fn is_disjoint(self, other: Self) -> bool {
                self.0 & other.0 == 0
            }

            /// `true` iff the set is empty.
            pub fn is_empty(self) -> bool {
                self.0 == 0
            }

            /// Number of elements.
            pub fn len(self) -> usize {
                self.0.count_ones() as usize
            }

            /// Iterates over the ids contained in the set, ascending.
            pub fn iter(self) -> impl Iterator<Item = $id> {
                (0..32u8)
                    .filter(move |i| self.0 & (1 << i) != 0)
                    .map($ctor)
            }
        }

        impl BitOr for $name {
            type Output = Self;
            fn bitor(self, rhs: Self) -> Self {
                Self(self.0 | rhs.0)
            }
        }

        impl BitAnd for $name {
            type Output = Self;
            fn bitand(self, rhs: Self) -> Self {
                Self(self.0 & rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 & !rhs.0)
            }
        }

        impl Not for $name {
            type Output = Self;
            fn not(self) -> Self {
                Self(!self.0)
            }
        }

        impl FromIterator<$id> for $name {
            fn from_iter<I: IntoIterator<Item = $id>>(iter: I) -> Self {
                let mut set = Self::empty();
                for id in iter {
                    set.insert(id);
                }
                set
            }
        }

        impl Extend<$id> for $name {
            fn extend<I: IntoIterator<Item = $id>>(&mut self, iter: I) {
                for id in iter {
                    self.insert(id);
                }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#b})", stringify!($name), self.0)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

bitset_type!(
    /// A symbol `σ ∈ 2^P`: the set of atomic propositions currently true.
    ///
    /// `PropSet` is the alphabet element of both world models (state labels)
    /// and controllers (transition guards are evaluated against it).
    ///
    /// # Example
    ///
    /// ```
    /// use autokit::{Vocab, PropSet};
    /// let mut v = Vocab::new();
    /// let green = v.add_prop("green traffic light")?;
    /// let ped = v.add_prop("pedestrian in front")?;
    /// let sigma = PropSet::empty().with(green);
    /// assert!(sigma.contains(green));
    /// assert!(!sigma.contains(ped));
    /// # Ok::<(), autokit::AutokitError>(())
    /// ```
    PropSet,
    PropId,
    PropId
);

bitset_type!(
    /// An action symbol `a ∈ 2^{P_A}`: the set of actions the controller
    /// emits in one step. The empty set is the paper's "no operation"
    /// symbol `ε`.
    ///
    /// # Example
    ///
    /// ```
    /// use autokit::{Vocab, ActSet};
    /// let mut v = Vocab::new();
    /// let stop = v.add_act("stop")?;
    /// assert!(ActSet::empty().is_empty()); // ε
    /// assert!(ActSet::singleton(stop).contains(stop));
    /// # Ok::<(), autokit::AutokitError>(())
    /// ```
    ActSet,
    ActId,
    ActId
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(i: u8) -> PropId {
        PropId(i)
    }

    #[test]
    fn basic_set_ops() {
        let s = PropSet::empty().with(pid(0)).with(pid(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(pid(0)));
        assert!(s.contains(pid(3)));
        assert!(!s.contains(pid(1)));
        assert!(!s.is_empty());
        assert!(s.without(pid(0)).without(pid(3)).is_empty());
    }

    #[test]
    fn subset_and_disjoint() {
        let a = PropSet::empty().with(pid(1)).with(pid(2));
        let b = PropSet::empty().with(pid(1));
        assert!(a.is_superset(b));
        assert!(!b.is_superset(a));
        assert!(b.is_disjoint(PropSet::singleton(pid(5))));
        assert!(!b.is_disjoint(a));
    }

    #[test]
    fn iterator_roundtrip() {
        let s = PropSet::empty().with(pid(0)).with(pid(7)).with(pid(31));
        let collected: PropSet = s.iter().collect();
        assert_eq!(collected, s);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn boolean_algebra() {
        let a = PropSet::from_bits(0b1010);
        let b = PropSet::from_bits(0b0110);
        assert_eq!((a | b).bits(), 0b1110);
        assert_eq!((a & b).bits(), 0b0010);
        assert_eq!((a - b).bits(), 0b1000);
    }

    proptest! {
        #[test]
        fn union_is_superset(a in any::<u32>(), b in any::<u32>()) {
            let (a, b) = (PropSet::from_bits(a), PropSet::from_bits(b));
            prop_assert!((a | b).is_superset(a));
            prop_assert!((a | b).is_superset(b));
        }

        #[test]
        fn intersection_is_subset(a in any::<u32>(), b in any::<u32>()) {
            let (a, b) = (PropSet::from_bits(a), PropSet::from_bits(b));
            prop_assert!(a.is_superset(a & b));
            prop_assert!(b.is_superset(a & b));
        }

        #[test]
        fn difference_disjoint_from_subtrahend(a in any::<u32>(), b in any::<u32>()) {
            let (a, b) = (PropSet::from_bits(a), PropSet::from_bits(b));
            prop_assert!((a - b).is_disjoint(b));
        }

        #[test]
        fn insert_remove_inverse(bits in any::<u32>(), i in 0u8..32) {
            let mut s = ActSet::from_bits(bits);
            let id = ActId(i);
            s.insert(id);
            prop_assert!(s.contains(id));
            s.remove(id);
            prop_assert!(!s.contains(id));
        }

        #[test]
        fn len_matches_iter(bits in any::<u32>()) {
            let s = PropSet::from_bits(bits);
            prop_assert_eq!(s.len(), s.iter().count());
        }
    }
}
