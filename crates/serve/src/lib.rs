//! Tuning-as-a-service for ACCLAiM: a concurrent front end over the
//! persistent tuning store.
//!
//! ACCLAiM's practicality argument (paper Sec. V-D) is per-job: tune
//! at startup, amortize over the job's lifetime. The `acclaim-store`
//! crate stretched the amortization across jobs; this crate stretches
//! it across *tenants* — a cluster-level service that many jobs hit
//! concurrently, so each distinct cluster signature is trained at most
//! once no matter how many jobs ask, and every later request is a
//! sub-millisecond rule lookup.
//!
//! The pieces:
//!
//! * [`TuneService`] — the daemon core: a priority [`Priority`] job
//!   queue with cancellation and anti-starvation, a worker pool
//!   that bounds concurrent tunes, request coalescing (identical
//!   queued requests ride one training run), and cache-serving ("tune"
//!   means *ensure tuned* — an exact hit answers without retraining).
//! * [`SharedStore`] — the daemon's one sharded, lock-safe key map
//!   over the on-disk [`acclaim_store::TuningStore`]: each key's
//!   signature and pre-warmed serving model, rebuilt on open, probing
//!   in O(map) instead of O(disk).
//! * [`protocol`] — the line-delimited JSON wire format the CLI's
//!   `serve`/`client` commands speak over a local socket.
//! * [`loadgen`] — a deterministic load generator: seeded virtual
//!   clients drive thousands of concurrent tune sessions; everything
//!   asserted on is seed-determined, never interleaving-determined.
//!
//! Training goes through the same probe → warm-start → train →
//! write-back [`acclaim_store::StorePlan`] as
//! [`acclaim_store::tune_with_store`], so a
//! single-session service run produces bit-identical artifacts to the
//! CLI path by construction.
//!
//! # Example
//!
//! ```
//! use acclaim_collectives::Collective;
//! use acclaim_core::AcclaimConfig;
//! use acclaim_dataset::{DatasetConfig, FeatureSpace};
//! use acclaim_obs::Obs;
//! use acclaim_serve::{JobStatus, Priority, ServeConfig, TuneRequest, TuneService};
//!
//! let dir = std::env::temp_dir().join("acclaim-serve-doc");
//! # std::fs::remove_dir_all(&dir).ok();
//! let service = TuneService::open(&dir, ServeConfig::default(), Obs::disabled()).unwrap();
//! let mut config = AcclaimConfig::new(FeatureSpace::tiny());
//! config.learner.max_iterations = 12;
//! let handle = service.submit(TuneRequest {
//!     dataset: DatasetConfig::tiny(),
//!     config,
//!     collectives: vec![Collective::Bcast],
//!     priority: Priority::Normal,
//! });
//! let JobStatus::Done(result) = handle.wait() else { panic!("tune failed") };
//! assert!(!result.cached && result.fresh_points > 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

mod drift;
mod index;
pub mod loadgen;
pub mod protocol;
mod queue;
mod service;

pub use drift::{DriftConfig, DriftSignatureStatus, DriftStatusReport};
pub use index::SharedStore;
pub use queue::{JobId, JobStatus, Priority};
pub use service::{
    DriftSample, JobHandle, QueryRequest, QueryResponse, QuerySource, ServeConfig, ServiceHooks,
    ServiceStats, TuneRequest, TuneResult, TuneService,
};
