//! Property: controller minimization never introduces unreachable-state
//! lints.
//!
//! `autokit::Controller::bisimulation_quotient` merges bisimilar states
//! and copies transitions (guards included) onto the blocks, so every
//! state reachable in the original maps to a reachable block. Hence a
//! controller with no `SL101` findings must minimize to a controller with
//! no `SL101` findings — and in general the quotient can only *lose*
//! unreachable states (by merging them away), never gain them.

use autokit::{ActSet, Controller, ControllerBuilder, Guard, PropSet};
use proptest::prelude::*;
use speclint::{lint_controller, ControllerContext, LintCode};

fn arb_controller() -> impl Strategy<Value = Controller> {
    (
        1usize..5, // number of states
        proptest::collection::vec((0usize..5, 0u32..16, 0u32..16, 0u32..4, 0usize..5), 0..12), // (from, guard.pos, guard.neg, action, to)
    )
        .prop_map(|(nq, transitions)| {
            let mut builder = ControllerBuilder::new("random", nq).initial(0);
            for (from, pos, neg, act, to) in transitions {
                builder = builder.transition(
                    from % nq,
                    Guard {
                        pos: PropSet::from_bits(pos),
                        neg: PropSet::from_bits(neg),
                    },
                    ActSet::from_bits(act),
                    to % nq,
                );
            }
            #[allow(clippy::expect_used, reason = "every index is reduced mod nq")]
            builder.build().expect("indices are in range")
        })
}

fn unreachable_count(ctrl: &Controller) -> usize {
    lint_controller(ctrl, ControllerContext::default())
        .iter()
        .filter(|d| d.code == LintCode::UnreachableState)
        .count()
}

proptest! {
    #[test]
    fn quotient_never_regains_unreachable_state_lints(ctrl in arb_controller()) {
        let before = unreachable_count(&ctrl);
        let after = unreachable_count(&ctrl.bisimulation_quotient());
        prop_assert!(
            after <= before,
            "quotient has {after} unreachable states, original had {before}"
        );
        if before == 0 {
            prop_assert_eq!(after, 0, "lint-clean controller minimized into SL101 findings");
        }
    }
}
