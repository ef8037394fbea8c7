//! Persistent cross-job tuning store with warm starts.
//!
//! ACCLAiM's practicality argument (paper Sec. V-D) is a break-even
//! one: autotuning pays off only when the job runs long enough to
//! amortize the training time. This crate moves the break-even point
//! by amortizing training across *jobs*, the direction the
//! offline-tuning literature (Hunold et al.'s guidelines, AITuning's
//! persistent tuning database) points: measurements, converged forest
//! snapshots, and emitted rule tables are cached on disk and reused
//! the next time a compatible job tunes.
//!
//! The pieces:
//!
//! * [`ClusterSignature`] — the content-addressing key: topology
//!   shape, a fingerprint of the measurement environment, the
//!   feature-space axes, the collective, and the fault preset.
//!   Signatures classify as exact / near / incompatible
//!   ([`Compatibility`]); a network-parameter drift invalidates
//!   outright.
//! * [`TuningStore`] — the on-disk store: one JSON entry per
//!   signature, with `put`/`get`/`probe`, maintenance (`gc`), and
//!   portability (`export`/`import`).
//! * [`StorePlan`] — the orchestration every tune path shares: probe,
//!   build a [`acclaim_core::WarmStart`], train through the ordinary
//!   [`acclaim_core::Acclaim`] pipeline, write the converged
//!   artifacts back. [`tune_with_store`] runs it over a
//!   [`TuningStore`] (or none). On an exact hit the learner skips the
//!   cold bootstrap entirely and converges in a handful of
//!   plateau-length iterations; on a near hit the cached rows become
//!   deweighted priors the learner may overrule.
//!
//! A cold probe (miss) leaves the run bit-identical to a store-less
//! tune — the warm-start hooks in `acclaim-core` are gated exactly
//! like the fault and tracing layers.
//!
//! # Example: warm-starting a second job
//!
//! ```
//! use acclaim_core::{Acclaim, AcclaimConfig};
//! use acclaim_collectives::Collective;
//! use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
//! use acclaim_obs::Obs;
//! use acclaim_store::{tune_with_store, TuningStore};
//!
//! let dir = std::env::temp_dir().join("acclaim-store-doc-warm");
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = TuningStore::open(&dir).unwrap();
//! let db = BenchmarkDatabase::new(DatasetConfig::tiny());
//! let mut config = AcclaimConfig::new(FeatureSpace::tiny());
//! config.learner.max_iterations = 30;
//!
//! // First job: cold — trains from scratch, then persists.
//! let obs = Obs::disabled();
//! let cold = tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &obs).unwrap();
//! assert_eq!(store.keys().unwrap().len(), 1);
//!
//! // Second job, same configuration: exact hit — converges faster.
//! let warm = tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &obs).unwrap();
//! assert!(warm.reports[0].1.reused_points > 0);
//! assert!(warm.reports[0].1.log.len() < cold.reports[0].1.log.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! # Example: probing a signature directly
//!
//! ```
//! use acclaim_collectives::Collective;
//! use acclaim_core::CollectionPolicy;
//! use acclaim_dataset::{DatasetConfig, FeatureSpace};
//! use acclaim_store::{ClusterSignature, Compatibility};
//!
//! let sig = ClusterSignature::new(
//!     &DatasetConfig::tiny(),
//!     &FeatureSpace::tiny(),
//!     Collective::Bcast,
//!     &CollectionPolicy::default(),
//! );
//! // The key is a stable 16-hex-digit content address.
//! assert_eq!(sig.key().len(), 16);
//!
//! // A differently shaped job on the same machine is "near": its
//! // measurements are reusable as deweighted priors only.
//! let mut other = sig.clone();
//! other.nodes = vec![2];
//! match sig.compatibility(&other) {
//!     Compatibility::Near(w) => assert!(w > 0.0 && w < 1.0),
//!     c => panic!("expected a near match, got {c:?}"),
//! }
//! ```

#![warn(missing_docs)]

mod rows;
mod signature;
mod store;
mod warm;

pub use signature::{ClusterSignature, Compatibility, NEAR_WEIGHT_FLOOR};
pub use store::{
    EntryFormat, GcReport, ImportReport, Probe, StoreEntry, StoreSummary, TuningStore,
    STORE_SCHEMA_VERSION,
};
pub use warm::{entry_from_outcome, tune_with_store, StorePlan, WriteBack};
