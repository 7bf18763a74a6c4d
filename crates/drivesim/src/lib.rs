//! # drivesim — a discrete-time autonomous-driving scenario simulator
//!
//! The paper's **empirical evaluation** path (Section 4.2) runs
//! controllers in the Carla simulator and collects operation traces
//! `(2^P × 2^{P_A})^N` — sequences of perceived propositions and emitted
//! actions — which are then checked against the specifications to obtain
//! per-specification satisfaction rates `P_Φ` (its Figure 11).
//!
//! This crate is the reproduction's Carla stand-in. It simulates the same
//! five road scenarios the paper models (traffic-light intersection,
//! protected left turn, wide median, two-way stop, roundabout) as
//! stochastic processes over the `autokit` driving vocabulary:
//!
//! * traffic lights advance through their phases on configurable timers,
//! * cars and pedestrians arrive and depart as Bernoulli events,
//! * the controller observes the scene each tick, takes the transitions
//!   its guards enable, and its action is recorded alongside the
//!   observation — the grounding function `G(C, S)` of Equation 2.
//!
//! The returned [`autokit::Trace`]s plug directly into
//! `ltlcheck::finite::satisfaction_rate`.
//!
//! ## Example
//!
//! ```
//! use autokit::presets::DrivingDomain;
//! use drivesim::{ground, Scenario, ScenarioConfig, ScenarioKind};
//! use glm2fsa::{synthesize, Lexicon};
//! use rand::SeedableRng;
//!
//! let d = DrivingDomain::new();
//! let lex = Lexicon::driving(&d);
//! let ctrl = synthesize(
//!     "turn right",
//!     &["If no car from the left and no pedestrian at your right, turn right."],
//!     &lex,
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
//! let trace = ground(&ctrl, &mut scenario, &d, &mut rng, 40);
//! assert_eq!(trace.len(), 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formal;
pub mod scaled;

mod incident;
mod route;
mod scenario;
mod sim;

pub use incident::{detect_incidents, detect_incidents_for, Incident, IncidentKind};
pub use route::{drive_route, MissionOutcome, Route, RouteLeg};
pub use scenario::{Scenario, ScenarioConfig, ScenarioKind};
pub use sim::{ground, ground_many, ExecutionPolicy};
