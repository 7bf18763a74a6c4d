//! # dpo-af — Direct Preference Optimization via Automated Feedback
//!
//! The end-to-end pipeline of *"Fine-Tuning Language Models Using Formal
//! Methods Feedback"* (MLSys 2024), assembled from the workspace's
//! substrate crates:
//!
//! ```text
//!            ┌──────────────┐   sample m responses    ┌──────────────┐
//!  prompts ─►│   tinylm      │ ──────────────────────► │   glm2fsa    │
//!            │ (cond. LM)    │                         │ align+parse  │
//!            └──────▲───────┘                          └──────┬───────┘
//!                   │ DPO (LoRA)                              │ FSA
//!            ┌──────┴───────┐   rank by #specs        ┌──────▼───────┐
//!            │     dpo       │ ◄───────────────────── │   ltlcheck   │
//!            │ (preferences) │   satisfied            │  M ⊗ C ⊨ Φᵢ  │
//!            └──────────────┘                         └──────────────┘
//! ```
//!
//! * [`domain`] — the autonomous-driving task set, response templates and
//!   pretraining corpus (the stand-in for Llama2's prior knowledge).
//! * [`feedback`] — automated feedback: formal verification of a response
//!   against the 15 specifications in its task's scenario model (with the
//!   scenario's justice assumptions), and empirical evaluation via
//!   `drivesim` rollouts.
//! * [`pipeline`] — the DPO-AF loop: sample → verify → rank → fine-tune,
//!   with periodic checkpoints. Formal scoring fans out across a `parkit`
//!   work-stealing pool and memoizes verdicts in a [`cache::VerifyCache`];
//!   both are pure performance features — artifacts are byte-identical at
//!   any thread count and any cache capacity.
//! * [`experiments`] — one module per paper artifact (Figures 7, 8, 9,
//!   11, 12 and the Section 5.1 demonstrations), each returning a
//!   serializable result consumed by the `bench` crate's binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod domain;
pub mod experiments;
pub mod feedback;
pub mod pipeline;

pub use cache::{CachedScore, VerifyCache};
pub use domain::{DomainBundle, Style, TaskSpec};
pub use feedback::{score_response, ScoredResponse};
pub use pipeline::{DpoAf, FeedbackSource, PipelineConfig, RunArtifacts};
