//! Scaled-up conservative world models for stress-testing the checker.
//!
//! The paper's scenario models top out at a few dozen states. These
//! builders parameterize the "conservative perspective" (Algorithm 1
//! without pruning, every transition allowed) by the number of distinct
//! environment labels, producing traffic worlds 10–100× larger. The
//! `certkit` differential gate checks the decide-only path against the
//! certified checker on one of them.
//!
//! The label set is nested: `scaled_conservative_model(d, 32)` is the
//! dense model over the five scenario propositions (all their masks),
//! and larger budgets extend the same enumeration over the rest of the
//! driving vocabulary, so every size is a superset of the last.

use autokit::presets::DrivingDomain;
use autokit::{PropSet, WorldModel, WorldModelBuilder};

/// The fixed proposition order scaling enumerates over. The first five
/// are the scenario propositions; the remainder extend the environment
/// with the rest of the driving vocabulary.
fn scaling_props(d: &DrivingDomain) -> [autokit::PropId; 10] {
    [
        d.green_tl,
        d.car_left,
        d.opposite_car,
        d.ped_right,
        d.ped_front,
        d.car_right,
        d.ped_left,
        d.stop_sign,
        d.green_ll,
        d.flashing_ll,
    ]
}

/// The first `labels` environment labels of the nested enumeration.
///
/// # Panics
///
/// Panics if `labels` exceeds the `2^10` distinct labels the driving
/// vocabulary supports.
fn scaled_labels(d: &DrivingDomain, labels: usize) -> Vec<PropSet> {
    let props = scaling_props(d);
    assert!(
        labels <= 1 << props.len(),
        "at most {} distinct labels",
        1usize << props.len()
    );
    (0..labels as u32)
        .map(|mask| {
            let mut l = PropSet::empty();
            for (i, &p) in props.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    l.insert(p);
                }
            }
            l
        })
        .collect()
}

/// A conservative (fully connected, unpruned) traffic world over the
/// first `labels` environment labels. `labels = 32` is the dense model
/// over the five scenario propositions; the product's label graph grows
/// quadratically in `labels`.
pub fn scaled_conservative_model(d: &DrivingDomain, labels: usize) -> WorldModel {
    WorldModelBuilder::new(&d.vocab)
        .name(format!("conservative traffic ({labels} labels)"))
        .restrict_labels(scaled_labels(d, labels))
        .allow_transitions(|_, _| true)
        .conservative()
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_nested_and_distinct() {
        let d = DrivingDomain::new();
        let small = scaled_labels(&d, 32);
        let big = scaled_labels(&d, 128);
        assert_eq!(&big[..32], &small[..]);
        let mut dedup = big.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), big.len());
    }

    #[test]
    fn thirty_two_labels_are_every_mask_over_the_scenario_props() {
        // The nested enumeration starts with all masks over these five
        // props, in mask order.
        let d = DrivingDomain::new();
        let dense_props = [
            d.green_tl,
            d.car_left,
            d.opposite_car,
            d.ped_right,
            d.ped_front,
        ];
        let dense: Vec<PropSet> = (0..32u32)
            .map(|mask| {
                let mut l = PropSet::empty();
                for (i, &p) in dense_props.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        l.insert(p);
                    }
                }
                l
            })
            .collect();
        assert_eq!(scaled_labels(&d, 32), dense);
    }

    #[test]
    fn model_is_conservative_and_total() {
        let d = DrivingDomain::new();
        let m = scaled_conservative_model(&d, 48);
        assert_eq!(m.num_states(), 48);
        for s in m.states() {
            assert_eq!(m.successors(s).len(), 48);
        }
    }

    /// The decide-only path scoring runs agrees with the certified
    /// checker on a scaled model past the 32-label dense model.
    #[test]
    fn backends_agree_on_a_scaled_model() {
        let d = DrivingDomain::new();
        let lex = glm2fsa::Lexicon::driving(&d);
        let ctrl = glm2fsa::synthesize(
            "turn right",
            &["If no car from the left and no pedestrian at your right, turn right."],
            &lex,
            glm2fsa::FsaOptions::default(),
        )
        .unwrap();
        let ctrl = glm2fsa::with_default_action(&ctrl, d.stop);
        let model = scaled_conservative_model(&d, 40);
        let graph = autokit::Product::build(&model, &ctrl).label_graph();
        let specs = ltlcheck::specs::driving_specs(&d);
        let decided =
            ltlcheck::analysis::holds_all_fair(&graph, specs.iter().map(|s| &s.formula), &[]);
        for (spec, decided) in specs.iter().zip(decided) {
            let certified = ltlcheck::check_graph_fair_certified(&graph, &spec.formula, &[]);
            assert_eq!(decided, certified.holds(), "{}", spec.name);
        }
    }
}
