//! # autokit — automaton toolkit for verifiable controller synthesis
//!
//! This crate provides the automaton-based formalisms from *"Fine-Tuning
//! Language Models Using Formal Methods Feedback"* (MLSys 2024), Section 3
//! and Appendix A:
//!
//! * [`Vocab`] — an interned vocabulary of atomic propositions `P`
//!   (environment observations) and action propositions `P_A` (controller
//!   outputs).
//! * [`PropSet`] / [`ActSet`] — symbols `σ ∈ 2^P` and `a ∈ 2^{P_A}`,
//!   represented as bitsets.
//! * [`WorldModel`] — a transition system `M = ⟨Γ_M, Q_M, δ_M, λ_M⟩`
//!   encoding the static and dynamic information of a system or
//!   environment, built either directly or via the paper's Algorithm 1
//!   ([`WorldModelBuilder`]).
//! * [`Controller`] — a finite-state automaton
//!   `A = ⟨Σ, A, Q, q₀, δ⟩` mapping observed symbols to actions, with
//!   guards that are conjunctions of literals over `P` ([`Guard`]).
//! * [`Product`] — the product automaton `𝔓 = M ⊗ C` of Appendix A, whose
//!   labeled trajectories over `2^{P ∪ P_A}` are the objects that get
//!   model-checked against LTL specifications.
//! * [`presets`] — the autonomous-driving world models from the paper's
//!   Figures 5, 6, 15, 16 and 17, plus the combined "universal" model.
//!
//! The crate is deliberately free of any verification logic: the `ltlcheck`
//! crate consumes [`Product`] structures and checks them against linear
//! temporal logic specifications.
//!
//! ## Example
//!
//! ```
//! use autokit::{Vocab, WorldModelBuilder, PropSet};
//!
//! // The traffic-light example from the paper's Section 4.1: the light
//! // cycles green → yellow → red → green.
//! let mut vocab = Vocab::new();
//! let green = vocab.add_prop("green").unwrap();
//! let yellow = vocab.add_prop("yellow").unwrap();
//! let red = vocab.add_prop("red").unwrap();
//!
//! let model = WorldModelBuilder::new(&vocab)
//!     .allow_transitions(|from: PropSet, to: PropSet| {
//!         (from.contains(green) && to.contains(yellow))
//!             || (from.contains(yellow) && to.contains(red))
//!             || (from.contains(red) && to.contains(green))
//!     })
//!     .keep_singletons_only()
//!     .build();
//!
//! // Algorithm 1 prunes the 2^3 candidate states down to the three
//! // reachable singleton labels.
//! assert_eq!(model.num_states(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod dot;
mod error;
mod minimize;
pub mod presets;
mod product;
mod sets;
mod trace;
mod vocab;
mod world;

pub use controller::{Controller, ControllerBuilder, CtrlState, CtrlTransition, Guard};
pub use dot::ToDot;
pub use error::AutokitError;
pub use product::{LabelGraph, Product, ProductEdge, ProductState};
pub use sets::{ActSet, PropSet};
pub use trace::{Step, Trace};
pub use vocab::{ActId, PropId, Vocab, MAX_ACTS, MAX_PROPS};
pub use world::{ModelState, WorldModel, WorldModelBuilder};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AutokitError>;
