//! The ACCLAiM autotuner — the paper's primary contribution.
//!
//! ACCLAiM ("Advancing Collective Communication Autotuning using
//! Machine Learning", Wilkins et al., IEEE CLUSTER 2022) makes
//! ML-based MPI collective algorithm selection *practical* on
//! production systems with four advances, each a module here:
//!
//! * [`selection`] — jackknife-variance training-point selection from
//!   the deployed model itself, plus every-5th non-P2 substitution;
//! * [`convergence`] — the test-set-free cumulative-variance stop rule;
//! * [`collector`] — greedy topology-aware parallel data collection;
//! * [`rules`] — MPICH JSON tuning-file generation (Fig. 9) and the
//!   runtime selector;
//! * [`learner`] — the active-learning loop tying them together, with
//!   the prior-art baselines expressible as selection policies;
//! * [`baselines`] — the Hunold et al. per-algorithm-forest baseline;
//! * [`acclaim`] — the end-to-end job pipeline (train → file → run).
//!
//! Cross-job persistence (caching converged models and measurements
//! between runs) lives one layer up in `acclaim-store`; this crate only
//! exposes the warm-start hooks ([`learner::WarmStart`],
//! [`Acclaim::tune_with_warm`]) it plugs into.

#![warn(missing_docs)]

pub mod acclaim;
pub mod baselines;
pub mod collector;
pub mod convergence;
pub mod learner;
pub mod model;
pub mod rules;
pub mod selection;

pub use acclaim::{application_impact, Acclaim, AcclaimConfig, ApplicationImpact, JobTuning};
pub use collector::{
    robust_aggregate, run_attempt, AttemptOutcome, CollectionPolicy, CollectionStats, FaultEvent,
    FaultStats, RobustAgg,
};
pub use convergence::{SlowdownThreshold, VarianceConvergence};
pub use learner::{
    ActiveLearner, AnalyticPriorsConfig, CollectionStrategy, CriterionConfig, IterationRecord,
    LearnerConfig, SelectionPolicy, TrainingOutcome, WarmStart,
};
pub use model::{PerfModel, TrainingSample};
pub use rules::{generate_rules, CollectiveRules, Rule, RuleSet, TunedSelector, TuningFile};
pub use selection::{
    all_candidates, rank_by_variance, rank_by_variance_flat, Candidate, NonP2Injector,
    RefreshStats, VarianceScanCache,
};
