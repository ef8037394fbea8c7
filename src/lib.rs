//! # ACCLAiM — ML-based MPI collective algorithm autotuning
//!
//! A from-scratch Rust reproduction of *"ACCLAiM: Advancing the
//! Practicality of MPI Collective Communication Autotuning Using
//! Machine Learning"* (Wilkins, Guo, Thakur, Dinda, Hardavellas —
//! IEEE CLUSTER 2022), including every substrate the paper depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`netsim`] | Dragonfly cluster & network simulator (round + DES engines) |
//! | [`collectives`] | 10 MPICH collective algorithms as message schedules |
//! | [`ml`] | CART trees, random forests, jackknife variance |
//! | [`dataset`] | feature space, benchmark database, traces |
//! | [`core`] | the autotuner: selection, convergence, parallel collection, rules |
//! | [`store`] | persistent cross-job tuning store with warm starts |
//! | [`serve`] | tuning-as-a-service: job queue, shared store index, rule serving |
//! | [`analytic`] | Hockney/LogGP cost-model catalog, guideline pruning, cold-start priors |
//! | [`obs`] | zero-dependency tracing and metrics substrate |
//!
//! See `ARCHITECTURE.md` in the repository root for the dependency
//! graph and a walkthrough of one tuning iteration.
//!
//! ## Quickstart
//!
//! ```
//! use acclaim::prelude::*;
//!
//! // A small job: 8 nodes of a Bebop-like machine.
//! let cluster = Cluster::bebop_like();
//! let alloc = Allocation::contiguous(&cluster.topology, 8);
//! let db = BenchmarkDatabase::new(DatasetConfig {
//!     cluster: cluster.with_allocation(alloc),
//!     bench: MicrobenchConfig::fast(),
//!     noise: NoiseModel::mild(),
//!     seed: 1,
//! });
//!
//! // Tune bcast over a small grid and get the MPICH tuning file.
//! let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 1024, 16384]);
//! let mut config = AcclaimConfig::new(space);
//! config.learner.max_iterations = 10; // keep the doctest quick
//! let tuning = Acclaim::new(config).tune(&db, &[Collective::Bcast]);
//!
//! let selector = tuning.selector();
//! let choice = selector.select(Collective::Bcast, Point::new(8, 2, 1024));
//! assert_eq!(choice.collective(), Collective::Bcast);
//! ```
//!
//! ## Warm-starting across jobs
//!
//! Training costs machine time at every job start; the persistent
//! tuning store amortizes it across jobs. The first tune of a
//! configuration runs cold and persists its measurements, forest, and
//! rules; the second probes the store, warm-starts, and converges in
//! strictly fewer iterations at a fraction of the collection cost:
//!
//! ```
//! use acclaim::prelude::*;
//!
//! let dir = std::env::temp_dir().join("acclaim-facade-doc-store");
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = TuningStore::open(&dir).unwrap();
//! let db = BenchmarkDatabase::new(DatasetConfig::tiny());
//! let config = AcclaimConfig::new(FeatureSpace::tiny());
//!
//! let obs = Obs::disabled();
//! let cold = tune_with_store(Some(&store), &config, &db, &[Collective::Reduce], &obs).unwrap();
//! let warm = tune_with_store(Some(&store), &config, &db, &[Collective::Reduce], &obs).unwrap();
//!
//! let (cold, warm) = (&cold.reports[0].1, &warm.reports[0].1);
//! assert!(warm.log.len() < cold.log.len());
//! assert!(warm.stats.wall_us < cold.stats.wall_us);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## Inspecting a model's selections
//!
//! The runtime side — what an MPI library would consult — is a
//! [`prelude::TunedSelector`] over the generated file:
//!
//! ```
//! use acclaim::prelude::*;
//!
//! let db = BenchmarkDatabase::new(DatasetConfig::tiny());
//! let mut config = AcclaimConfig::new(FeatureSpace::tiny());
//! config.learner.max_iterations = 8;
//! let tuning = Acclaim::new(config).tune(&db, &[Collective::Allreduce]);
//!
//! // Every context of the emitted file is complete and pruned.
//! for ctx in &tuning.tuning_file.collectives[0].contexts {
//!     assert!(ctx.is_complete() && ctx.is_pruned());
//! }
//! // Selections answer at any point, trained or not.
//! let alg = tuning.selector().select(Collective::Allreduce, Point::new(4, 2, 777));
//! assert_eq!(alg.collective(), Collective::Allreduce);
//! ```

pub use acclaim_analytic as analytic;
pub use acclaim_collectives as collectives;
pub use acclaim_core as core;
pub use acclaim_dataset as dataset;
pub use acclaim_ml as ml;
pub use acclaim_netsim as netsim;
pub use acclaim_obs as obs;
pub use acclaim_serve as serve;
pub use acclaim_store as store;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use acclaim_analytic::{AnalyticPrior, CostModel, GuidelineSet};
    pub use acclaim_collectives::{
        mpich_default, Algorithm, Collective, Measurement, MicrobenchConfig,
    };
    pub use acclaim_core::{
        all_candidates, application_impact, rank_by_variance, Acclaim, AcclaimConfig,
        ActiveLearner, AnalyticPriorsConfig, Candidate, CollectionPolicy, CollectionStrategy,
        CriterionConfig, FaultEvent, FaultStats, JobTuning, LearnerConfig, PerfModel, RobustAgg,
        SelectionPolicy, TrainingOutcome, TrainingSample, TunedSelector, TuningFile,
        VarianceConvergence, VarianceScanCache, WarmStart,
    };
    pub use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace, Point, Sample};
    pub use acclaim_ml::{
        average_slowdown, DirtyRegion, FlatForest, ForestConfig, RandomForest, TreeUpdate,
        CONVERGENCE_SLOWDOWN,
    };
    pub use acclaim_netsim::{
        Allocation, Cluster, FaultModel, FlowSim, NetworkParams, NoiseModel, RoundSim, Topology,
    };
    pub use acclaim_obs::{Diag, Obs};
    pub use acclaim_serve::{JobStatus, Priority, ServeConfig, TuneRequest, TuneService};
    pub use acclaim_store::{
        tune_with_store, ClusterSignature, Compatibility, StoreEntry, StorePlan, TuningStore,
    };
}
