use autokit::{presets::DrivingDomain, PropSet};
use rand::Rng;

/// Which road scenario the simulator plays out — one per world model in
/// the paper's Figures 5, 6, 15, 16 and 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Regular traffic-light intersection (Figure 5).
    TrafficLight,
    /// Intersection with a protected left-turn signal (Figure 15).
    LeftTurnSignal,
    /// Yield-based wide median (Figure 6).
    WideMedian,
    /// Two-way stop sign (Figure 16).
    TwoWayStop,
    /// Roundabout (Figure 17).
    Roundabout,
}

impl ScenarioKind {
    /// All five scenarios.
    pub fn all() -> [ScenarioKind; 5] {
        [
            ScenarioKind::TrafficLight,
            ScenarioKind::LeftTurnSignal,
            ScenarioKind::WideMedian,
            ScenarioKind::TwoWayStop,
            ScenarioKind::Roundabout,
        ]
    }
}

/// Stochastic-dynamics parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Per-tick probability that an absent car/pedestrian arrives.
    pub arrival: f64,
    /// Per-tick probability that a present car/pedestrian departs.
    pub departure: f64,
    /// Ticks the (traffic or left-turn) light stays green.
    pub green_ticks: u32,
    /// Ticks the light stays non-green (red).
    pub red_ticks: u32,
    /// Ticks of the flashing left-turn phase.
    pub flashing_ticks: u32,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            arrival: 0.2,
            departure: 0.45,
            green_ticks: 6,
            red_ticks: 6,
            flashing_ticks: 3,
        }
    }
}

/// Mutable simulation state of one scenario instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    kind: ScenarioKind,
    cfg: ScenarioConfig,
    /// Remaining ticks in the current light phase.
    phase_left: u32,
    /// Current light phase index (meaning depends on `kind`).
    phase: u8,
    car_left: bool,
    car_right: bool,
    opposite: bool,
    ped_left: bool,
    ped_right: bool,
    ped_front: bool,
}

impl Scenario {
    /// Creates a scenario in its initial state (light green, roads clear).
    pub fn new(kind: ScenarioKind, cfg: ScenarioConfig) -> Self {
        Scenario {
            kind,
            cfg,
            phase_left: cfg.green_ticks,
            phase: 0,
            car_left: false,
            car_right: false,
            opposite: false,
            ped_left: false,
            ped_right: false,
            ped_front: false,
        }
    }

    /// The scenario's kind.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        *self = Scenario::new(self.kind, self.cfg);
    }

    /// The current observation `σ ∈ 2^P` under a driving vocabulary.
    pub fn observe(&self, d: &DrivingDomain) -> PropSet {
        let mut sigma = PropSet::empty();
        match self.kind {
            ScenarioKind::TrafficLight => {
                if self.phase == 0 {
                    sigma.insert(d.green_tl);
                }
                if self.car_left {
                    sigma.insert(d.car_left);
                }
                if self.opposite {
                    sigma.insert(d.opposite_car);
                }
                if self.ped_right {
                    sigma.insert(d.ped_right);
                }
                if self.ped_front {
                    sigma.insert(d.ped_front);
                }
            }
            ScenarioKind::LeftTurnSignal => {
                match self.phase {
                    0 => sigma.insert(d.green_ll),
                    1 => sigma.insert(d.flashing_ll),
                    _ => {}
                }
                if self.opposite {
                    sigma.insert(d.opposite_car);
                }
                if self.ped_front {
                    sigma.insert(d.ped_front);
                }
            }
            ScenarioKind::WideMedian => {
                if self.car_left {
                    sigma.insert(d.car_left);
                }
                if self.car_right {
                    sigma.insert(d.car_right);
                }
            }
            ScenarioKind::TwoWayStop => {
                sigma.insert(d.stop_sign);
                if self.car_left {
                    sigma.insert(d.car_left);
                }
                if self.car_right {
                    sigma.insert(d.car_right);
                }
                if self.ped_front {
                    sigma.insert(d.ped_front);
                }
            }
            ScenarioKind::Roundabout => {
                if self.car_left {
                    sigma.insert(d.car_left);
                }
                if self.ped_left {
                    // Roundabout pedestrians occupy both crosswalk sides
                    // (paper Figure 17's `ped` abbreviation).
                    sigma.insert(d.ped_left);
                    sigma.insert(d.ped_right);
                }
            }
        }
        sigma
    }

    /// Advances the environment by one tick.
    pub fn advance(&mut self, rng: &mut impl Rng) {
        // Light phase timers.
        let phases: &[u32] = match self.kind {
            ScenarioKind::TrafficLight => &[self.cfg.green_ticks, self.cfg.red_ticks],
            ScenarioKind::LeftTurnSignal => &[
                self.cfg.green_ticks,
                self.cfg.flashing_ticks,
                self.cfg.red_ticks,
            ],
            _ => &[],
        };
        if !phases.is_empty() {
            if self.phase_left <= 1 {
                self.phase = (self.phase + 1) % phases.len() as u8;
                self.phase_left = phases[self.phase as usize].max(1);
            } else {
                self.phase_left -= 1;
            }
        }

        // Bernoulli arrivals/departures per participant.
        let cfg = self.cfg;
        let flip = |present: &mut bool, rng: &mut dyn rand::RngCore| {
            let p: f64 = rng.gen();
            if *present {
                if p < cfg.departure {
                    *present = false;
                }
            } else if p < cfg.arrival {
                *present = true;
            }
        };
        match self.kind {
            ScenarioKind::TrafficLight => {
                flip(&mut self.car_left, rng);
                flip(&mut self.opposite, rng);
                flip(&mut self.ped_right, rng);
                flip(&mut self.ped_front, rng);
            }
            ScenarioKind::LeftTurnSignal => {
                flip(&mut self.opposite, rng);
                flip(&mut self.ped_front, rng);
            }
            ScenarioKind::WideMedian => {
                flip(&mut self.car_left, rng);
                flip(&mut self.car_right, rng);
            }
            ScenarioKind::TwoWayStop => {
                flip(&mut self.car_left, rng);
                flip(&mut self.car_right, rng);
                flip(&mut self.ped_front, rng);
            }
            ScenarioKind::Roundabout => {
                flip(&mut self.car_left, rng);
                flip(&mut self.ped_left, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_state_is_green_and_clear() {
        let d = DrivingDomain::new();
        let s = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let sigma = s.observe(&d);
        assert!(sigma.contains(d.green_tl));
        assert_eq!(sigma.len(), 1);
    }

    #[test]
    fn light_cycles_with_configured_period() {
        let d = DrivingDomain::new();
        let cfg = ScenarioConfig {
            green_ticks: 2,
            red_ticks: 3,
            arrival: 0.0,
            ..ScenarioConfig::default()
        };
        let mut s = Scenario::new(ScenarioKind::TrafficLight, cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let mut greens = Vec::new();
        for _ in 0..10 {
            greens.push(s.observe(&d).contains(d.green_tl));
            s.advance(&mut rng);
        }
        assert_eq!(
            greens,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
    }

    #[test]
    fn left_turn_light_has_three_phases() {
        let d = DrivingDomain::new();
        let cfg = ScenarioConfig {
            green_ticks: 1,
            flashing_ticks: 1,
            red_ticks: 1,
            arrival: 0.0,
            ..ScenarioConfig::default()
        };
        let mut s = Scenario::new(ScenarioKind::LeftTurnSignal, cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let sigma = s.observe(&d);
            seen.push((sigma.contains(d.green_ll), sigma.contains(d.flashing_ll)));
            s.advance(&mut rng);
        }
        assert_eq!(
            seen,
            vec![
                (true, false),
                (false, true),
                (false, false),
                (true, false),
                (false, true),
                (false, false)
            ]
        );
    }

    #[test]
    fn stop_sign_always_present() {
        let d = DrivingDomain::new();
        let mut s = Scenario::new(ScenarioKind::TwoWayStop, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            assert!(s.observe(&d).contains(d.stop_sign));
            s.advance(&mut rng);
        }
    }

    #[test]
    fn roundabout_pedestrians_paired() {
        let d = DrivingDomain::new();
        let mut s = Scenario::new(
            ScenarioKind::Roundabout,
            ScenarioConfig {
                arrival: 0.8,
                ..ScenarioConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen_ped = false;
        for _ in 0..50 {
            let sigma = s.observe(&d);
            assert_eq!(sigma.contains(d.ped_left), sigma.contains(d.ped_right));
            seen_ped |= sigma.contains(d.ped_left);
            s.advance(&mut rng);
        }
        assert!(seen_ped, "high arrival rate should produce pedestrians");
    }

    #[test]
    fn arrivals_and_departures_both_occur() {
        let d = DrivingDomain::new();
        let mut s = Scenario::new(ScenarioKind::WideMedian, ScenarioConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut present_ticks = 0;
        let mut absent_ticks = 0;
        for _ in 0..300 {
            if s.observe(&d).contains(d.car_left) {
                present_ticks += 1;
            } else {
                absent_ticks += 1;
            }
            s.advance(&mut rng);
        }
        assert!(present_ticks > 20, "cars should arrive: {present_ticks}");
        assert!(absent_ticks > 20, "cars should depart: {absent_ticks}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let d = DrivingDomain::new();
        let mut s = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let initial = s.observe(&d);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            s.advance(&mut rng);
        }
        s.reset();
        assert_eq!(s.observe(&d), initial);
    }
}
