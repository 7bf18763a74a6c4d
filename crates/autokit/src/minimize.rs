//! Controller minimization by bisimulation quotient.
//!
//! GLM2FSA constructions produce one state per instruction step, which is
//! often redundant — consecutive observation steps with identical
//! behaviour, or duplicated wait states. The bisimulation quotient merges
//! states with identical stepwise behaviour. Bisimilarity implies trace
//! equivalence, so every LTL verdict over the product automaton is
//! preserved (the test suite checks this against the verification stack).
//!
//! The partition-refinement works on signatures: two states are separated
//! as soon as they differ in their set of `(guard, action, target block)`
//! transition triples. Guards are compared syntactically, which is sound
//! (states merged by the quotient are genuinely bisimilar) though not
//! complete (semantically equal but syntactically different guards can
//! keep states apart).

use crate::{Controller, ControllerBuilder};
use std::collections::HashMap;

/// One transition triple in a refinement signature:
/// `(guard.pos, guard.neg, action, target block)` as raw bits.
type SigTriple = (u32, u32, u32, u32);

impl Controller {
    /// Returns the bisimulation quotient of this controller: an
    /// equivalent controller with bisimilar states merged.
    ///
    /// The result has at most as many states as the original and exactly
    /// the same behaviours; verification verdicts are unchanged.
    ///
    /// # Example
    ///
    /// ```
    /// use autokit::{ActSet, ControllerBuilder, Guard};
    ///
    /// // Two chained no-op states behave identically.
    /// let ctrl = ControllerBuilder::new("redundant", 3)
    ///     .initial(0)
    ///     .transition(0, Guard::always(), ActSet::empty(), 1)
    ///     .transition(1, Guard::always(), ActSet::empty(), 2)
    ///     .transition(2, Guard::always(), ActSet::empty(), 2)
    ///     .build()?;
    /// let min = ctrl.bisimulation_quotient();
    /// assert!(min.num_states() < ctrl.num_states());
    /// # Ok::<(), autokit::AutokitError>(())
    /// ```
    #[allow(clippy::expect_used, reason = "the rebuild maps valid indices")]
    pub fn bisimulation_quotient(&self) -> Controller {
        let n = self.num_states();
        if n == 0 {
            return self.clone();
        }
        // Start with one block; refine until stable.
        let mut block = vec![0u32; n];
        let mut num_blocks = 1u32;
        loop {
            // Signature: sorted, deduplicated transition triples with
            // target blocks.
            let mut signatures: Vec<Vec<SigTriple>> = (0..n)
                .map(|q| {
                    let mut sig: Vec<SigTriple> = self
                        .outgoing(q)
                        .map(|t| {
                            (
                                t.guard.pos.bits(),
                                t.guard.neg.bits(),
                                t.action.bits(),
                                block[t.to],
                            )
                        })
                        .collect();
                    sig.sort_unstable();
                    sig.dedup();
                    sig
                })
                .collect();
            let mut index: HashMap<(u32, Vec<SigTriple>), u32> = HashMap::new();
            let mut next_block = vec![0u32; n];
            let mut next_count = 0u32;
            for q in 0..n {
                let key = (block[q], std::mem::take(&mut signatures[q]));
                let b = *index.entry(key).or_insert_with(|| {
                    let b = next_count;
                    next_count += 1;
                    b
                });
                next_block[q] = b;
            }
            if next_count == num_blocks {
                break;
            }
            block = next_block;
            num_blocks = next_count;
        }

        // Rebuild over blocks.
        let mut builder = ControllerBuilder::new(self.name(), num_blocks as usize)
            .initial(block[self.initial()] as usize);
        let mut seen: std::collections::HashSet<(u32, u32, u32, u32, u32)> =
            std::collections::HashSet::new();
        for t in self.transitions() {
            let key = (
                block[t.from],
                t.guard.pos.bits(),
                t.guard.neg.bits(),
                t.action.bits(),
                block[t.to],
            );
            if seen.insert(key) {
                builder = builder.transition(
                    block[t.from] as usize,
                    t.guard,
                    t.action,
                    block[t.to] as usize,
                );
            }
        }
        builder.build().expect("quotient preserves well-formedness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActSet, Guard, PropId, PropSet, WorldModel};

    fn pid(i: u8) -> PropId {
        crate::vocab::PropId(i)
    }

    #[test]
    fn distinct_behaviours_are_not_merged() {
        let p = pid(0);
        let ctrl = ControllerBuilder::new("distinct", 2)
            .initial(0)
            .transition(0, Guard::always().requires(p), ActSet::from_bits(1), 1)
            .transition(1, Guard::always().forbids(p), ActSet::from_bits(2), 0)
            .build()
            .unwrap();
        let min = ctrl.bisimulation_quotient();
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn chained_noops_collapse() {
        let ctrl = ControllerBuilder::new("noops", 4)
            .initial(0)
            .transition(0, Guard::always(), ActSet::empty(), 1)
            .transition(1, Guard::always(), ActSet::empty(), 2)
            .transition(2, Guard::always(), ActSet::empty(), 3)
            .transition(3, Guard::always(), ActSet::empty(), 3)
            .build()
            .unwrap();
        let min = ctrl.bisimulation_quotient();
        assert_eq!(min.num_states(), 1);
        assert_eq!(min.transitions().len(), 1);
    }

    #[test]
    fn duplicate_branches_merge() {
        // States 1 and 2 have identical outgoing behaviour.
        let p = pid(0);
        let ctrl = ControllerBuilder::new("dup", 3)
            .initial(0)
            .transition(0, Guard::always().requires(p), ActSet::empty(), 1)
            .transition(0, Guard::always().forbids(p), ActSet::empty(), 2)
            .transition(1, Guard::always(), ActSet::from_bits(1), 0)
            .transition(2, Guard::always(), ActSet::from_bits(1), 0)
            .build()
            .unwrap();
        let min = ctrl.bisimulation_quotient();
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn quotient_preserves_product_language() {
        // Build a model, a redundant controller, and compare the label
        // graphs' reachable label sets (a cheap language-invariance
        // proxy; full verdict preservation is covered in ltlcheck's
        // integration tests).
        let p = pid(0);
        let mut model = WorldModel::new("m");
        let a = model.add_state(PropSet::singleton(p));
        let b = model.add_state(PropSet::empty());
        model.add_transition(a, b);
        model.add_transition(b, a);
        model.add_transition(a, a);

        let ctrl = ControllerBuilder::new("redundant", 3)
            .initial(0)
            .transition(0, Guard::always(), ActSet::empty(), 1)
            .transition(1, Guard::always(), ActSet::empty(), 2)
            .transition(2, Guard::always().requires(p), ActSet::from_bits(1), 0)
            .transition(2, Guard::always().forbids(p), ActSet::empty(), 2)
            .build()
            .unwrap();
        let min = ctrl.bisimulation_quotient();
        assert!(min.num_states() <= ctrl.num_states());

        let labels = |c: &Controller| -> std::collections::BTreeSet<(u32, u32)> {
            let product = crate::Product::build(&model, c);
            product
                .edges()
                .iter()
                .map(|e| (e.props.bits(), e.acts.bits()))
                .collect()
        };
        assert_eq!(labels(&ctrl), labels(&min));
    }

    #[test]
    fn initial_state_tracked_through_quotient() {
        let ctrl = ControllerBuilder::new("init", 2)
            .initial(1)
            .transition(1, Guard::always(), ActSet::from_bits(1), 0)
            .transition(0, Guard::always(), ActSet::from_bits(1), 1)
            .build()
            .unwrap();
        let min = ctrl.bisimulation_quotient();
        // Both states have the same behaviour: a single merged state.
        assert_eq!(min.num_states(), 1);
        assert_eq!(min.initial(), 0);
    }
}
