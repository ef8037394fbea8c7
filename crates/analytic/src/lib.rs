//! Analytical cost-model priors and guideline pruning for the ACCLAiM
//! autotuner.
//!
//! ACCLAiM's dominant cost is benchmark time: every candidate the
//! forest cannot rule out must be measured before it can be retired.
//! This crate attacks that cost *before the first benchmark runs*,
//! with two classical tools:
//!
//! 1. **Analytical cost models** ([`CostModel`]) — Hockney/LogGP-style
//!    per-algorithm formulas for the ten tuned MPICH algorithms,
//!    parameterized from the same netsim [`NetworkParams`] the
//!    simulator prices schedules with (Nuriyev & Lastovetsky show such
//!    models select collective algorithms well enough for runtime
//!    use). Predictions are deterministic and unit-consistent
//!    (microseconds) with simulated costs. The full formula catalog,
//!    with an executable example per algorithm, lives in the
//!    [`model`] module docs.
//! 2. **Self-consistency guidelines** ([`GuidelineSet`]) — Hunold-style
//!    performance guidelines ("allreduce ≤ reduce + bcast", dominance
//!    within a collective) that retire candidates whose analytical
//!    cost violates a constraint by a configurable margin, spending
//!    zero benchmark time on them.
//!
//! The [`AnalyticPrior`] adapter converts both into the learner's
//! existing warm-start currency: prediction rows ride in
//! [`WarmStart::priors`] (deweighted evidence that never retires a
//! candidate and is never written back to the store), pruned
//! candidates in [`WarmStart::pruned`]. A cold tune therefore starts
//! from a full analytical sketch of the candidate space instead of
//! nothing — fewer iterations to the variance plateau, and strictly
//! less simulated benchmark cost (`tests/analytic_priors.rs` pins
//! both, per seed).
//!
//! Everything is gated on
//! [`AnalyticPriorsConfig`](acclaim_core::AnalyticPriorsConfig)
//! (default **disabled**): with the config off no warm start is built
//! and every run is bit-identical to pre-analytic behavior.
//!
//! [`WarmStart::priors`]: acclaim_core::WarmStart
//! [`WarmStart::pruned`]: acclaim_core::WarmStart
//! [`NetworkParams`]: acclaim_netsim::NetworkParams

#![warn(missing_docs)]

pub mod guidelines;
pub mod model;
pub mod prior;

pub use guidelines::{Guideline, GuidelineSet, Violation};
pub use model::{CostModel, ModelParams};
pub use prior::AnalyticPrior;
