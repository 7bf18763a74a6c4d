//! Preset autonomous-driving world models from the paper.
//!
//! The paper's Section 5.1 fixes a driving vocabulary of ten observation
//! propositions and four actions, and builds one world model per road
//! scenario (its Figures 5, 6, 15, 16 and 17). The per-scenario models are
//! unioned into a "universal model representing the entire system", against
//! which synthesized controllers are verified.
//!
//! The dynamics follow the paper's figures: traffic-light phases advance
//! along their cycle, while at most one traffic participant (car or
//! pedestrian) appears or disappears per step. The single-change discipline
//! keeps models small without losing the adversarial interleavings that
//! matter — e.g. the Φ₅ counterexample of Section 5.1, where the light
//! turns red and a car arrives from the left *while* the controller is
//! waiting on pedestrians, is representable.

use crate::{ActId, PropId, PropSet, Vocab, WorldModel};

/// The autonomous-driving vocabulary and scenario models.
///
/// # Example
///
/// ```
/// use autokit::presets::DrivingDomain;
///
/// let domain = DrivingDomain::new();
/// let universal = domain.universal_model();
/// assert!(universal.num_states() > 20);
/// assert_eq!(domain.vocab.num_props(), 10);
/// assert_eq!(domain.vocab.num_acts(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DrivingDomain {
    /// The shared vocabulary (`P`, `P_A`).
    pub vocab: Vocab,
    /// `green traffic light`
    pub green_tl: PropId,
    /// `green left-turn light`
    pub green_ll: PropId,
    /// `flashing left-turn light`
    pub flashing_ll: PropId,
    /// `opposite car`
    pub opposite_car: PropId,
    /// `car from left`
    pub car_left: PropId,
    /// `car from right`
    pub car_right: PropId,
    /// `pedestrian at left`
    pub ped_left: PropId,
    /// `pedestrian at right`
    pub ped_right: PropId,
    /// `pedestrian in front`
    pub ped_front: PropId,
    /// `stop sign`
    pub stop_sign: PropId,
    /// `stop`
    pub stop: ActId,
    /// `turn left`
    pub turn_left: ActId,
    /// `turn right`
    pub turn_right: ActId,
    /// `go straight`
    pub go_straight: ActId,
}

impl Default for DrivingDomain {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of propositions that differ between two labels.
fn hamming(a: PropSet, b: PropSet) -> u32 {
    (a.bits() ^ b.bits()).count_ones()
}

impl DrivingDomain {
    /// Builds the paper's driving vocabulary.
    #[allow(clippy::expect_used, reason = "distinct literals, fresh `Vocab`")]
    pub fn new() -> Self {
        let mut vocab = Vocab::new();
        let green_tl = vocab.add_prop("green traffic light").expect("fresh vocab");
        let green_ll = vocab
            .add_prop("green left-turn light")
            .expect("fresh vocab");
        let flashing_ll = vocab
            .add_prop("flashing left-turn light")
            .expect("fresh vocab");
        let opposite_car = vocab.add_prop("opposite car").expect("fresh vocab");
        let car_left = vocab.add_prop("car from left").expect("fresh vocab");
        let car_right = vocab.add_prop("car from right").expect("fresh vocab");
        let ped_left = vocab.add_prop("pedestrian at left").expect("fresh vocab");
        let ped_right = vocab.add_prop("pedestrian at right").expect("fresh vocab");
        let ped_front = vocab.add_prop("pedestrian in front").expect("fresh vocab");
        let stop_sign = vocab.add_prop("stop sign").expect("fresh vocab");
        let stop = vocab.add_act("stop").expect("fresh vocab");
        let turn_left = vocab.add_act("turn left").expect("fresh vocab");
        let turn_right = vocab.add_act("turn right").expect("fresh vocab");
        let go_straight = vocab.add_act("go straight").expect("fresh vocab");
        DrivingDomain {
            vocab,
            green_tl,
            green_ll,
            flashing_ll,
            opposite_car,
            car_left,
            car_right,
            ped_left,
            ped_right,
            ped_front,
            stop_sign,
            stop,
            turn_left,
            turn_right,
            go_straight,
        }
    }

    /// Enumerates all subsets of `free` bits, each unioned with `base`.
    fn labels_over(&self, base: PropSet, free: &[PropId]) -> Vec<PropSet> {
        let n = free.len();
        (0..(1usize << n))
            .map(|mask| {
                let mut label = base;
                for (i, &p) in free.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        label.insert(p);
                    }
                }
                label
            })
            .collect()
    }

    /// Regular traffic-light intersection (paper Figure 5).
    ///
    /// The traffic light toggles between green and red on its own schedule;
    /// cars (from the left and the opposite direction) and pedestrians (at
    /// the right, in front) arrive and leave one at a time.
    pub fn traffic_light_model(&self) -> WorldModel {
        let free = [
            self.car_left,
            self.opposite_car,
            self.ped_right,
            self.ped_front,
        ];
        let labels = self
            .labels_over(PropSet::empty(), &free)
            .into_iter()
            .flat_map(|l| [l, l.with(self.green_tl)])
            .collect::<Vec<_>>();
        let traffic = PropSet::empty()
            .with(self.car_left)
            .with(self.opposite_car)
            .with(self.ped_right)
            .with(self.ped_front);
        let mut model = WorldModel::new("traffic light intersection");
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                // Light may toggle or stay; at most one participant changes.
                if hamming(li & traffic, lj & traffic) <= 1 {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// Intersection with a protected left-turn signal (paper Figure 15).
    ///
    /// The left-turn light cycles green → flashing → off → green; the
    /// phases are mutually exclusive. Opposite cars and pedestrians in
    /// front arrive/leave one at a time.
    pub fn left_turn_light_model(&self) -> WorldModel {
        let phases = [
            PropSet::singleton(self.green_ll),
            PropSet::singleton(self.flashing_ll),
            PropSet::empty(),
        ];
        let free = [self.opposite_car, self.ped_front];
        let mut model = WorldModel::new("left-turn signal intersection");
        let mut labels = Vec::new();
        for &phase in &phases {
            for l in self.labels_over(phase, &free) {
                labels.push(l);
            }
        }
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        let phase_of = |l: PropSet| -> usize {
            if l.contains(self.green_ll) {
                0
            } else if l.contains(self.flashing_ll) {
                1
            } else {
                2
            }
        };
        let traffic = PropSet::empty()
            .with(self.opposite_car)
            .with(self.ped_front);
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                let (pi, pj) = (phase_of(li), phase_of(lj));
                let phase_ok = pj == pi || pj == (pi + 1) % 3;
                if phase_ok && hamming(li & traffic, lj & traffic) <= 1 {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// Yield-based wide median (paper Figure 6): `σ₁ = car from left`,
    /// `σ₂ = car from right`.
    pub fn wide_median_model(&self) -> WorldModel {
        let free = [self.car_left, self.car_right];
        let labels = self.labels_over(PropSet::empty(), &free);
        let mut model = WorldModel::new("wide median");
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                if hamming(li, lj) <= 1 {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// Two-way stop sign (paper Figure 16). The `stop sign` proposition
    /// holds in every state; cross traffic and pedestrians arrive one at a
    /// time.
    pub fn two_way_stop_model(&self) -> WorldModel {
        let base = PropSet::singleton(self.stop_sign);
        let free = [self.car_left, self.car_right, self.ped_front];
        let labels = self.labels_over(base, &free);
        let mut model = WorldModel::new("two-way stop");
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                if hamming(li, lj) <= 1 {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// Roundabout (paper Figure 17). Per the figure's caption, `car`
    /// represents `car from left` and `ped` represents `pedestrian at left
    /// ∧ pedestrian at right`, so the two pedestrian propositions toggle
    /// together.
    pub fn roundabout_model(&self) -> WorldModel {
        let ped = PropSet::empty().with(self.ped_left).with(self.ped_right);
        let car = PropSet::singleton(self.car_left);
        let labels = [PropSet::empty(), car, ped, car | ped];
        let mut model = WorldModel::new("roundabout");
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                // One "entity" (the car, or the pedestrian pair) changes at
                // a time.
                let car_change = (li & car) != (lj & car);
                let ped_change = (li & ped) != (lj & ped);
                if !(car_change && ped_change) {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// The union of all five scenario models — the paper's "universal model
    /// representing the entire system" (Section 5.1).
    pub fn universal_model(&self) -> WorldModel {
        self.traffic_light_model()
            .union(&self.left_turn_light_model())
            .union(&self.wide_median_model())
            .union(&self.two_way_stop_model())
            .union(&self.roundabout_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_matches_paper() {
        let d = DrivingDomain::new();
        assert_eq!(d.vocab.num_props(), 10);
        assert_eq!(d.vocab.num_acts(), 4);
        assert_eq!(d.vocab.prop_name(d.green_tl), "green traffic light");
        assert_eq!(d.vocab.act_name(d.go_straight), "go straight");
        // Lookup by the paper's names round-trips.
        assert_eq!(d.vocab.prop("car from left").unwrap(), d.car_left);
        assert_eq!(d.vocab.act("turn right").unwrap(), d.turn_right);
    }

    #[test]
    fn traffic_light_model_shape() {
        let d = DrivingDomain::new();
        let m = d.traffic_light_model();
        // 2 light phases × 2^4 participant combinations.
        assert_eq!(m.num_states(), 32);
        // Every state can at least stay put.
        for s in m.states() {
            assert!(m.has_transition(s, s));
        }
    }

    #[test]
    fn traffic_light_single_change_discipline() {
        let d = DrivingDomain::new();
        let m = d.traffic_light_model();
        let traffic = PropSet::empty()
            .with(d.car_left)
            .with(d.opposite_car)
            .with(d.ped_right)
            .with(d.ped_front);
        for s in m.states() {
            for &t in m.successors(s) {
                assert!(hamming(m.label(s) & traffic, m.label(t) & traffic) <= 1);
            }
        }
    }

    #[test]
    fn phi5_edge_case_representable() {
        // The paper's Section 5.1 counterexample: from (green, no car) the
        // environment can move to (¬green, car from left) in two steps
        // while a pedestrian situation holds.
        let d = DrivingDomain::new();
        let m = d.traffic_light_model();
        let start = m
            .states()
            .find(|&s| m.label(s) == PropSet::singleton(d.green_tl).with(d.ped_right))
            .expect("state exists");
        // One step: light drops to red, pedestrian stays.
        let mid = m
            .successors(start)
            .iter()
            .copied()
            .find(|&s| m.label(s) == PropSet::singleton(d.ped_right))
            .expect("red+ped reachable");
        // Next step: car arrives from the left.
        let end = m
            .successors(mid)
            .iter()
            .copied()
            .find(|&s| m.label(s) == PropSet::singleton(d.ped_right).with(d.car_left));
        assert!(end.is_some());
    }

    #[test]
    fn left_turn_phases_cycle() {
        let d = DrivingDomain::new();
        let m = d.left_turn_light_model();
        assert_eq!(m.num_states(), 12);
        // From a green-LL state the flashing phase is reachable, but a
        // direct green→green (stay) is also allowed.
        let green = m
            .states()
            .find(|&s| m.label(s) == PropSet::singleton(d.green_ll))
            .unwrap();
        let succ_phases: Vec<PropSet> = m
            .successors(green)
            .iter()
            .map(|&s| m.label(s) & (PropSet::empty().with(d.green_ll).with(d.flashing_ll)))
            .collect();
        assert!(succ_phases.contains(&PropSet::singleton(d.green_ll)));
        assert!(succ_phases.contains(&PropSet::singleton(d.flashing_ll)));
        // Skipping straight from green to off is not allowed.
        assert!(!succ_phases.contains(&PropSet::empty()));
    }

    #[test]
    fn two_way_stop_always_has_sign() {
        let d = DrivingDomain::new();
        let m = d.two_way_stop_model();
        assert_eq!(m.num_states(), 8);
        for s in m.states() {
            assert!(m.label(s).contains(d.stop_sign));
        }
    }

    #[test]
    fn roundabout_pedestrians_move_together() {
        let d = DrivingDomain::new();
        let m = d.roundabout_model();
        assert_eq!(m.num_states(), 4);
        for s in m.states() {
            let l = m.label(s);
            assert_eq!(l.contains(d.ped_left), l.contains(d.ped_right));
        }
    }

    #[test]
    fn universal_model_is_disjoint_union() {
        let d = DrivingDomain::new();
        let u = d.universal_model();
        let expected = d.traffic_light_model().num_states()
            + d.left_turn_light_model().num_states()
            + d.wide_median_model().num_states()
            + d.two_way_stop_model().num_states()
            + d.roundabout_model().num_states();
        assert_eq!(u.num_states(), expected);
    }
}
