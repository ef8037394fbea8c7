//! From-scratch machine-learning substrate for the ACCLAiM reproduction.
//!
//! The paper models collective performance with scikit-learn random
//! forests. ACCLAiM's contributions need ensemble internals — the
//! jackknife variance of Wager et al. over the individual trees'
//! predictions drives both training-point selection and the
//! test-set-free convergence criterion — so this crate implements CART
//! regression trees ([`tree`]), bagged random forests with per-tree
//! prediction access ([`forest`]), the jackknife ([`jackknife`]), and
//! the evaluation metrics including *average slowdown* ([`metrics`]).

#![warn(missing_docs)]

pub mod data;
pub mod flat;
pub mod forest;
pub mod jackknife;
pub mod metrics;
pub mod tree;

pub use data::FeatureMatrix;
pub use flat::FlatForest;
pub use forest::{bootstrap_weight, BootstrapScheme, ForestConfig, RandomForest, TreeUpdate};
pub use jackknife::jackknife_variance;
pub use metrics::{average_slowdown, CONVERGENCE_SLOWDOWN};
pub use tree::{DecisionTree, DirtyRegion, TreeConfig};
