//! Cluster and network simulator substrate for the ACCLAiM reproduction.
//!
//! The ACCLAiM paper ([Wilkins et al., CLUSTER 2022]) evaluates its
//! autotuner on real machines: a 64-node Xeon cluster for the simulated
//! comparisons and *Theta* (a 4,392-node KNL system with an Aries Dragonfly
//! interconnect) for the production experiments. This crate substitutes a
//! synthetic but behaviour-preserving equivalent: a hierarchical Dragonfly
//! topology model ([`topology`]), a parameterized latency/bandwidth/
//! contention network model ([`params`]), and two simulation engines that
//! execute *message-level communication schedules* of collective
//! algorithms:
//!
//! * [`roundsim`] — a fast round-synchronous simulator with per-resource
//!   contention counting. Used for exhaustive benchmark-database
//!   generation where millions of messages must be evaluated quickly.
//! * [`des`] — a flow-level discrete-event simulator with max-min fair
//!   bandwidth sharing. Slower, but it models asynchronous per-rank
//!   progress; it is used to validate `roundsim` on small configurations.
//!   Its event loop pops from a binary heap ordered by time, ties
//!   broken by scheduling order, so its results are deterministic.
//!
//! Time is measured in microseconds (`f64`), sizes in bytes (`u64`), and
//! bandwidths in bytes per microsecond (1 GB/s = 1000 B/µs).
//!
//! [Wilkins et al., CLUSTER 2022]: https://doi.org/10.1109/CLUSTER51413.2022.00035

pub mod cluster;
pub mod des;
pub mod fault;
pub mod fingerprint;
pub mod noise;
pub mod params;
pub mod roundsim;
pub mod schedule;
pub mod topology;

pub use cluster::Cluster;
pub use des::FlowSim;
pub use fault::{BenchFault, FaultModel, NodeFailure};
pub use fingerprint::{stable_hash64, Fingerprint};
pub use noise::NoiseModel;
pub use params::NetworkParams;
pub use roundsim::RoundSim;
pub use schedule::{MaterializedSchedule, Msg, RingPhase, Schedule, Step};
pub use topology::{Allocation, Layer, Topology};
