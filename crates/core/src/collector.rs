//! Topology-aware parallel data collection (paper Sec. IV-D).
//!
//! Previous autotuners benchmark points one at a time to avoid network
//! congestion. ACCLAiM instead packs multiple benchmarks onto disjoint
//! congestion domains of the job's allocation with a greedy algorithm:
//!
//! 1. take the highest-variance uncollected point `p` needing `n` nodes;
//! 2. try to place it on the next `n` *sequential* unused nodes;
//! 3. on success, mark those nodes — and any remaining nodes in the same
//!    racks — as used, and repeat;
//! 4. on the first failure, stop and run the scheduled wave in parallel.
//!
//! Disallowing shared racks prevents layer-1 congestion; sequential
//! placement prevents two runs from straddling the same rack pair
//! (layer 2). Only the fat layer-3 links may see incidental sharing.
//!
//! The module also holds fault-tolerant collection: the policy, one
//! benchmark attempt under injected faults, and the per-run retry
//! queue with its fault counters and event log.

use crate::selection::Candidate;
use acclaim_netsim::{Allocation, BenchFault, FaultModel, Topology};
use acclaim_obs::{Counter, Obs};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// One benchmark placed within a wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Index into the priority-ordered candidate list handed to the
    /// scheduler.
    pub candidate_index: usize,
    /// First logical node of the run.
    pub start_node: u32,
    /// Node count of the run.
    pub node_count: u32,
}

/// A set of benchmarks that run concurrently.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Wave {
    /// The placements in scheduling order.
    pub placements: Vec<Placement>,
}

impl Wave {
    /// Number of benchmarks running in parallel.
    pub fn parallelism(&self) -> usize {
        self.placements.len()
    }
}

/// Schedule one wave over `allocation` from a priority-ordered candidate
/// list (highest variance first). Returns an empty wave only when
/// `ordered` is empty.
///
/// Panics if the first candidate needs more nodes than the whole
/// allocation (the feature space must be bounded by the job size).
pub fn schedule_wave(topology: &Topology, allocation: &Allocation, ordered: &[Candidate]) -> Wave {
    let total = allocation.len();
    let mut wave = Wave::default();
    let mut next_free: u32 = 0;

    for (idx, cand) in ordered.iter().enumerate() {
        let n = cand.point.nodes;
        if n > total {
            // Only the *first* candidate being oversized is a hard error
            // (the feature space must be bounded by the job size); a
            // mid-list oversized candidate is just a misfit that ends
            // the wave, like any other.
            assert!(
                idx > 0,
                "candidate needs {n} nodes but the job holds {total}"
            );
            break;
        }
        if next_free + n > total {
            break; // paper step 4: first misfit ends the wave
        }
        wave.placements.push(Placement {
            candidate_index: idx,
            start_node: next_free,
            node_count: n,
        });
        next_free += n;
        // Step 3: burn the rest of every rack the run touched.
        if next_free < total {
            let last_rack = topology.rack_of(allocation.node(next_free - 1));
            while next_free < total && topology.rack_of(allocation.node(next_free)) == last_rack {
                next_free += 1;
            }
        }
    }
    wave
}

/// Wall-clock statistics of a collection run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CollectionStats {
    /// Total wall time (µs): sum of per-wave maxima for parallel
    /// collection, plain sum for sequential.
    pub wall_us: f64,
    /// Wall time the same points would cost sequentially.
    pub sequential_wall_us: f64,
    /// Number of waves executed.
    pub waves: usize,
    /// Number of points collected.
    pub points: usize,
}

impl CollectionStats {
    /// Speedup of parallel collection over sequential (≥ 1 in theory;
    /// greedy choices can occasionally lose, see Fig. 13's discussion).
    pub fn speedup(&self) -> f64 {
        if self.wall_us == 0.0 {
            // A degenerate run with nonzero sequential cost but zero
            // parallel cost is infinitely sped up, not neutral; only
            // the empty run (both zero) reports 1.0.
            if self.sequential_wall_us == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.sequential_wall_us / self.wall_us
        }
    }

    /// Mean benchmarks per wave.
    pub fn average_parallelism(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.points as f64 / self.waves as f64
        }
    }

    /// Fold one wave's point costs (µs) into the statistics.
    pub fn add_wave(&mut self, costs: &[f64]) {
        self.add_wave_counting(costs, costs.len());
    }

    /// [`CollectionStats::add_wave`] for fault-injected collection,
    /// where some slots burn wall time without yielding a point:
    /// `collected_points` is the number of slots that actually produced
    /// a training sample (≤ `costs.len()`).
    pub fn add_wave_counting(&mut self, costs: &[f64], collected_points: usize) {
        assert!(!costs.is_empty(), "waves cannot be empty");
        debug_assert!(collected_points <= costs.len());
        self.wall_us += costs.iter().copied().fold(f64::MIN, f64::max);
        self.sequential_wall_us += costs.iter().sum::<f64>();
        self.waves += 1;
        self.points += collected_points;
    }
}

/// How an attempt's repeated measurements are folded into one training
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustAgg {
    /// Plain mean of the valid measurements (fault-sensitive: one
    /// under-timeout straggler contaminates the value).
    Mean,
    /// Lower median with MAD outlier rejection, then the mean of the
    /// survivors. The lower median is deliberate: stragglers only
    /// inflate measurements, so ties break toward the uncontaminated
    /// side. With a majority of clean repeats this recovers the clean
    /// value exactly.
    Median,
}

impl RobustAgg {
    /// Parse a CLI spelling (`median` | `mean`).
    pub fn parse(s: &str) -> Option<RobustAgg> {
        match s {
            "mean" => Some(RobustAgg::Mean),
            "median" => Some(RobustAgg::Median),
            _ => None,
        }
    }
}

/// Outliers are rejected beyond this many (floored) MADs from the
/// median.
const MAD_REJECTION_K: f64 = 3.0;

/// Aggregate one attempt's valid measurements. Returns the value and
/// the number of rejected outliers.
pub fn robust_aggregate(values: &[f64], agg: RobustAgg) -> (f64, u32) {
    assert!(!values.is_empty(), "cannot aggregate zero measurements");
    let mean = |vs: &[f64]| vs.iter().sum::<f64>() / vs.len() as f64;
    match agg {
        RobustAgg::Mean => (mean(values), 0),
        RobustAgg::Median => {
            let lower_median = |vs: &mut Vec<f64>| {
                vs.sort_by(f64::total_cmp);
                vs[(vs.len() - 1) / 2]
            };
            let med = lower_median(&mut values.to_vec());
            let mut deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
            let mad = lower_median(&mut deviations);
            // Repeated lookups of a memoized simulator sample are
            // identical, collapsing the MAD to zero; a relative floor
            // keeps the rejection band meaningful in that degenerate
            // case (and harmless in the realistic spread case).
            let scale = mad.max(1e-9 * med.abs()).max(f64::MIN_POSITIVE);
            let kept: Vec<f64> = values
                .iter()
                .copied()
                .filter(|v| (v - med).abs() <= MAD_REJECTION_K * scale)
                .collect();
            ((mean(&kept)), (values.len() - kept.len()) as u32)
        }
    }
}

/// Policy for fault-tolerant collection, threaded through
/// [`crate::LearnerConfig`]. With `faults` disabled the collector takes
/// the plain path and every other knob is inert, so the default policy
/// is behaviorally identical to pre-fault-model builds (the
/// `fault_golden` integration test proves bit-identity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionPolicy {
    /// Fault injection model (disabled by default).
    pub faults: FaultModel,
    /// Re-attempts allowed per point after a failed attempt; a point
    /// exceeding this is abandoned (never collected).
    pub max_retries: u32,
    /// Per-benchmark timeout as a multiple of the benchmark's predicted
    /// fault-free wall cost (the wave's predicted slot cost). A run
    /// exceeding it is killed at the timeout and its measurement
    /// discarded.
    pub bench_timeout_factor: f64,
    /// Back-to-back measurements per attempt; a majority must survive
    /// the timeout for the attempt to succeed (the paper measures each
    /// point multiple times on the shared machine).
    pub repeats: u32,
    /// Cap on the exponential retry backoff, in waves.
    pub backoff_cap_waves: u32,
    /// Aggregation across an attempt's valid measurements.
    pub agg: RobustAgg,
}

impl Default for CollectionPolicy {
    fn default() -> Self {
        CollectionPolicy {
            faults: FaultModel::none(),
            max_retries: 3,
            bench_timeout_factor: 3.0,
            repeats: 1,
            backoff_cap_waves: 8,
            agg: RobustAgg::Median,
        }
    }
}

impl CollectionPolicy {
    /// Production-grade resilience: [`FaultModel::production`] injection,
    /// triple measurements with median+MAD aggregation, 3x timeouts, and
    /// up to 4 retries with capped exponential backoff.
    pub fn production() -> Self {
        CollectionPolicy {
            faults: FaultModel::production(),
            max_retries: 4,
            bench_timeout_factor: 3.0,
            repeats: 3,
            backoff_cap_waves: 8,
            agg: RobustAgg::Median,
        }
    }

    /// True when the fault-tolerant path is active.
    pub fn is_enabled(&self) -> bool {
        self.faults.is_enabled()
    }

    /// Waves to wait before re-attempting a point that has failed
    /// `attempts` times: capped exponential backoff (1, 2, 4, …).
    pub fn backoff_waves(&self, attempts: u32) -> u64 {
        let exp = attempts.saturating_sub(1).min(63);
        (1u64 << exp).min(self.backoff_cap_waves.max(1) as u64)
    }
}

/// Fraction of the predicted wall cost a failed (crashed) run burns
/// before the failure is detected.
const FAILED_RUN_COST_FRACTION: f64 = 0.5;

/// The result of executing one collection slot (one attempt) under a
/// fault policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptOutcome {
    /// Wall cost the slot charged to the wave (µs), including timed-out
    /// and failed repeats.
    pub wall_us: f64,
    /// The aggregated measurement, if a majority of repeats survived.
    pub value_us: Option<f64>,
    /// Repeats that produced a (possibly contaminated) measurement.
    pub valid: u32,
    /// Repeats killed at the timeout.
    pub timeouts: u32,
    /// Repeats that failed outright.
    pub failures: u32,
    /// Valid measurements rejected by MAD screening.
    pub outliers_rejected: u32,
}

/// Execute one attempt: `repeats` back-to-back measurements of a point
/// whose fault-free measurement is (`clean_mean_us`, `clean_wall_us`),
/// under `policy`'s fault model, driven by a deterministic per-
/// (point, attempt) RNG. The attempt succeeds when a strict majority of
/// repeats yields a measurement; the value is then the policy's robust
/// aggregate of those measurements.
pub fn run_attempt<R: Rng + ?Sized>(
    clean_mean_us: f64,
    clean_wall_us: f64,
    policy: &CollectionPolicy,
    rng: &mut R,
) -> AttemptOutcome {
    let repeats = policy.repeats.max(1);
    let timeout_us = policy.bench_timeout_factor.max(1.0) * clean_wall_us;
    let mut out = AttemptOutcome {
        wall_us: 0.0,
        value_us: None,
        valid: 0,
        timeouts: 0,
        failures: 0,
        outliers_rejected: 0,
    };
    let mut values = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        match policy.faults.draw(rng) {
            BenchFault::Fail => {
                out.wall_us += clean_wall_us * FAILED_RUN_COST_FRACTION;
                out.failures += 1;
            }
            BenchFault::Straggle(factor) => {
                let wall = clean_wall_us * factor;
                if wall > timeout_us {
                    out.wall_us += timeout_us;
                    out.timeouts += 1;
                } else {
                    out.wall_us += wall;
                    values.push(clean_mean_us * factor);
                }
            }
            BenchFault::None => {
                out.wall_us += clean_wall_us;
                values.push(clean_mean_us);
            }
        }
    }
    out.valid = values.len() as u32;
    if out.valid * 2 > repeats {
        let (value, rejected) = robust_aggregate(&values, policy.agg);
        out.value_us = Some(value);
        out.outliers_rejected = rejected;
    }
    out
}

/// Aggregate fault-handling counters for one training run. All zero
/// when faults are disabled; each field is mirrored into an
/// `acclaim-obs` counter (`collect.*`) during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Points re-queued after a failed attempt.
    pub retries: u64,
    /// Individual benchmark runs killed at the timeout.
    pub timeouts: u64,
    /// Individual benchmark runs that failed outright.
    pub failures: u64,
    /// Valid measurements rejected by MAD screening.
    pub outliers_rejected: u64,
    /// Nodes evicted from the allocation after hard failures.
    pub node_evictions: u64,
    /// Points abandoned after exhausting their retries.
    pub points_abandoned: u64,
    /// Candidates dropped because the degraded allocation can no longer
    /// host them.
    pub candidates_dropped: u64,
}

impl FaultStats {
    /// True when nothing fault-related happened.
    pub fn is_quiet(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Fold another run's counters in (per-collective → job totals).
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.failures += other.failures;
        self.outliers_rejected += other.outliers_rejected;
        self.node_evictions += other.node_evictions;
        self.points_abandoned += other.points_abandoned;
        self.candidates_dropped += other.candidates_dropped;
    }
}

/// One entry of the fault event log kept in
/// [`crate::TrainingOutcome`] — the retry schedule and allocation
/// history, recorded so that runs can be compared event-for-event
/// (the determinism tests) and summarized for the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A point's attempt failed; it re-enters collection at
    /// `eligible_wave`.
    Retry {
        /// Wave in which the attempt ran.
        wave: u64,
        /// The point (pool identity).
        candidate: Candidate,
        /// Attempts made so far, including this one.
        attempt: u32,
        /// First wave the point may be rescheduled in.
        eligible_wave: u64,
    },
    /// A point exhausted its retries and leaves the pool uncollected.
    Abandoned {
        /// Wave of the final failed attempt.
        wave: u64,
        /// The abandoned point.
        candidate: Candidate,
        /// Total attempts made.
        attempts: u32,
    },
    /// A node hard-failed and was evicted from the allocation.
    NodeEvicted {
        /// Wave before which the eviction took effect.
        wave: u64,
        /// Global node id.
        node: u32,
    },
    /// Candidates left the pool because the degraded allocation can no
    /// longer host them.
    CandidatesDropped {
        /// Wave before which the drop happened.
        wave: u64,
        /// Number of candidates dropped.
        count: u32,
    },
}

/// Salt folded into the learner seed to derive the fault RNG streams,
/// keeping fault draws independent of the learner's selection RNG
/// (whose stream must be untouched for the faults-disabled path to
/// stay bit-identical).
const FAULT_SEED_SALT: u64 = 0xFA01_7FA0;

/// A point waiting out its retry backoff.
struct DeferredPoint {
    cand: Candidate,
    eligible_wave: u64,
}

/// Per-run fault-handling state: the retry queue with capped
/// exponential backoff, per-point attempt counts, node-eviction
/// bookkeeping, aggregate [`FaultStats`] (mirrored into `collect.*`
/// obs counters), and the chronological [`FaultEvent`] log.
pub(crate) struct FaultRuntime {
    pub(crate) policy: CollectionPolicy,
    seed: u64,
    pub(crate) stats: FaultStats,
    pub(crate) events: Vec<FaultEvent>,
    deferred: Vec<DeferredPoint>,
    attempts: HashMap<Candidate, u32>,
    m_retries: Counter,
    m_timeouts: Counter,
    m_failures: Counter,
    m_outliers: Counter,
    m_evictions: Counter,
    m_abandoned: Counter,
    m_dropped: Counter,
}

impl FaultRuntime {
    pub(crate) fn new(policy: CollectionPolicy, seed: u64, obs: &Obs) -> Self {
        FaultRuntime {
            policy,
            seed: seed ^ FAULT_SEED_SALT,
            stats: FaultStats::default(),
            events: Vec::new(),
            deferred: Vec::new(),
            attempts: HashMap::new(),
            m_retries: obs.counter("collect.retries"),
            m_timeouts: obs.counter("collect.timeouts"),
            m_failures: obs.counter("collect.failures"),
            m_outliers: obs.counter("collect.outliers_rejected"),
            m_evictions: obs.counter("collect.node_evictions"),
            m_abandoned: obs.counter("collect.points_abandoned"),
            m_dropped: obs.counter("collect.candidates_dropped"),
        }
    }

    /// Attempts already charged against `c` (0 for a fresh point).
    pub(crate) fn attempt_index(&self, c: &Candidate) -> u32 {
        self.attempts.get(c).copied().unwrap_or(0)
    }

    /// The deterministic fault RNG for `c`'s next attempt. Identity-
    /// seeded per (candidate, attempt) — the same style as the
    /// benchmark database's per-sample streams — so fault draws are
    /// independent of collection order and of the selection RNG.
    pub(crate) fn attempt_rng(&self, c: &Candidate) -> StdRng {
        let mut h = DefaultHasher::new();
        c.hash(&mut h);
        self.attempt_index(c).hash(&mut h);
        StdRng::seed_from_u64(self.seed ^ h.finish())
    }

    /// Fold one attempt's repeat-level outcomes into the counters.
    pub(crate) fn record_attempt(&mut self, out: &AttemptOutcome) {
        self.stats.timeouts += out.timeouts as u64;
        self.stats.failures += out.failures as u64;
        self.stats.outliers_rejected += out.outliers_rejected as u64;
        self.m_timeouts.add(out.timeouts as u64);
        self.m_failures.add(out.failures as u64);
        self.m_outliers.add(out.outliers_rejected as u64);
    }

    /// The point was collected; clear its attempt history.
    pub(crate) fn on_success(&mut self, c: &Candidate) {
        self.attempts.remove(c);
    }

    /// The attempt produced nothing: queue a retry with capped
    /// exponential backoff, or abandon the point once its retries are
    /// exhausted. Returns true when the point is abandoned.
    pub(crate) fn on_failure(&mut self, c: Candidate, wave: u64) -> bool {
        let attempts = self.attempt_index(&c) + 1;
        if attempts > self.policy.max_retries {
            self.attempts.remove(&c);
            self.stats.points_abandoned += 1;
            self.m_abandoned.incr();
            self.events.push(FaultEvent::Abandoned {
                wave,
                candidate: c,
                attempts,
            });
            true
        } else {
            self.attempts.insert(c, attempts);
            let eligible_wave = wave + self.policy.backoff_waves(attempts);
            self.deferred.push(DeferredPoint {
                cand: c,
                eligible_wave,
            });
            self.stats.retries += 1;
            self.m_retries.incr();
            self.events.push(FaultEvent::Retry {
                wave,
                candidate: c,
                attempt: attempts,
                eligible_wave,
            });
            false
        }
    }

    /// Drain the points whose backoff has elapsed by `wave`, in
    /// queueing order.
    pub(crate) fn take_ready(&mut self, wave: u64) -> Vec<Candidate> {
        let mut ready = Vec::new();
        self.deferred.retain(|d| {
            if d.eligible_wave <= wave {
                ready.push(d.cand);
                false
            } else {
                true
            }
        });
        ready
    }

    /// The points still waiting out a backoff.
    pub(crate) fn backing_off(&self) -> HashSet<Candidate> {
        self.deferred.iter().map(|d| d.cand).collect()
    }

    /// Earliest wave at which any deferred point becomes eligible.
    pub(crate) fn next_eligible_wave(&self) -> Option<u64> {
        self.deferred.iter().map(|d| d.eligible_wave).min()
    }

    /// Evict the nodes whose hard failure has onset by `now_us` from
    /// the allocation. Returns true when the allocation shrank.
    pub(crate) fn evict_dead(&mut self, now_us: f64, alloc: &mut Allocation, wave: u64) -> bool {
        let dead: Vec<u32> = self
            .policy
            .faults
            .dead_nodes_at(now_us)
            .into_iter()
            .filter(|n| alloc.nodes().contains(n))
            .collect();
        if dead.is_empty() {
            return false;
        }
        *alloc = alloc.excluding(&dead);
        for node in dead {
            self.stats.node_evictions += 1;
            self.m_evictions.incr();
            self.events.push(FaultEvent::NodeEvicted { wave, node });
        }
        true
    }

    /// Drop the points the degraded allocation can no longer host
    /// from the retry queue, and record the `dropped` candidates that
    /// left the pool with them (queued points are live pool members, so
    /// the pool's count covers them).
    pub(crate) fn drop_oversized(&mut self, max_nodes: u32, dropped: usize, wave: u64) {
        self.deferred.retain(|d| d.cand.point.nodes <= max_nodes);
        if dropped > 0 {
            let count = dropped as u32;
            self.stats.candidates_dropped += count as u64;
            self.m_dropped.add(count as u64);
            self.events
                .push(FaultEvent::CandidatesDropped { wave, count });
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_collectives::Algorithm;
    use acclaim_dataset::Point;
    use rand::{rngs::StdRng, SeedableRng};

    fn cand(nodes: u32) -> Candidate {
        Candidate {
            point: Point::new(nodes, 1, 1_024),
            algorithm: Algorithm::BcastBinomial,
        }
    }

    /// 4 racks of 4 nodes.
    fn topo() -> Topology {
        Topology::new(4, 4)
    }

    #[test]
    fn single_rack_allocation_runs_one_benchmark_per_wave() {
        let t = Topology::new(16, 4);
        let alloc = Allocation::single_rack(&t, 16);
        let w = schedule_wave(&t, &alloc, &[cand(2), cand(2), cand(2)]);
        // First run takes 2 nodes and burns the rest of the rack.
        assert_eq!(w.parallelism(), 1);
    }

    #[test]
    fn separate_racks_host_parallel_benchmarks() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 16); // all 4 racks
        let w = schedule_wave(&t, &alloc, &[cand(2), cand(2), cand(2), cand(2), cand(2)]);
        // Each 2-node run burns its 4-node rack: 4 racks -> 4 runs.
        assert_eq!(w.parallelism(), 4);
        // Runs land on distinct racks.
        let racks: Vec<u32> = w
            .placements
            .iter()
            .map(|p| t.rack_of(alloc.node(p.start_node)))
            .collect();
        let set: std::collections::HashSet<u32> = racks.iter().copied().collect();
        assert_eq!(set.len(), racks.len(), "no two runs share a rack");
    }

    #[test]
    fn exact_rack_fill_does_not_burn_the_next_rack() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 16);
        let w = schedule_wave(&t, &alloc, &[cand(4), cand(4), cand(4), cand(4)]);
        assert_eq!(w.parallelism(), 4);
        assert_eq!(
            w.placements
                .iter()
                .map(|p| p.start_node)
                .collect::<Vec<_>>(),
            vec![0, 4, 8, 12]
        );
    }

    #[test]
    fn multi_rack_run_blocks_its_racks() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 16);
        // 6-node run spans racks 0 and 1; the rest of rack 1 burns, so
        // the next run starts at rack 2 and the third fills rack 3.
        let w = schedule_wave(&t, &alloc, &[cand(6), cand(4), cand(4)]);
        assert_eq!(w.parallelism(), 3);
        assert_eq!(w.placements[1].start_node, 8, "next run starts at rack 2");
        assert_eq!(w.placements[2].start_node, 12);
    }

    #[test]
    fn first_misfit_ends_the_wave_even_if_later_points_fit() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 16);
        // 8-node run (racks 0-1), then a 12-node run cannot fit (only
        // 8 nodes remain) — the wave stops, ignoring the fitting 4-node
        // candidate behind it (greedy per the paper).
        let w = schedule_wave(&t, &alloc, &[cand(8), cand(12), cand(4)]);
        assert_eq!(w.parallelism(), 1);
    }

    #[test]
    fn max_parallel_allocation_hosts_many_single_node_runs() {
        let t = Topology::new(4, 8);
        let alloc = Allocation::max_parallel(&t, 4);
        let w = schedule_wave(&t, &alloc, &[cand(1), cand(1), cand(1), cand(1)]);
        assert_eq!(w.parallelism(), 4, "distinct pairs never conflict");
    }

    #[test]
    #[should_panic(expected = "job holds")]
    fn oversized_candidate_rejected() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 8);
        schedule_wave(&t, &alloc, &[cand(9)]);
    }

    #[test]
    fn mid_list_oversized_candidate_ends_the_wave_without_panicking() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 16);
        // Regression: the assert used to fire on ANY oversized candidate,
        // so [cand(4), cand(20)] panicked instead of ending the wave.
        let w = schedule_wave(&t, &alloc, &[cand(4), cand(20), cand(4)]);
        assert_eq!(w.parallelism(), 1, "wave ends at the oversized misfit");
        assert_eq!(w.placements[0].node_count, 4);
    }

    #[test]
    fn empty_candidates_empty_wave() {
        let t = topo();
        let alloc = Allocation::contiguous(&t, 8);
        assert_eq!(schedule_wave(&t, &alloc, &[]).parallelism(), 0);
    }

    #[test]
    fn stats_accumulate_speedup_and_parallelism() {
        let mut s = CollectionStats::default();
        s.add_wave(&[10.0, 6.0]);
        s.add_wave(&[4.0]);
        assert_eq!(s.wall_us, 14.0);
        assert_eq!(s.sequential_wall_us, 20.0);
        assert_eq!(s.waves, 2);
        assert_eq!(s.points, 3);
        assert!((s.speedup() - 20.0 / 14.0).abs() < 1e-12);
        assert!((s.average_parallelism() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_speedups_are_reported_honestly() {
        // Regression: zero parallel wall with nonzero sequential wall
        // used to report a silent 1.0.
        let degenerate = CollectionStats {
            wall_us: 0.0,
            sequential_wall_us: 5.0,
            waves: 1,
            points: 1,
        };
        assert_eq!(degenerate.speedup(), f64::INFINITY);
        let empty = CollectionStats::default();
        assert_eq!(empty.speedup(), 1.0);
    }

    #[test]
    fn add_wave_counting_separates_cost_from_points() {
        let mut s = CollectionStats::default();
        s.add_wave_counting(&[10.0, 6.0, 3.0], 2); // one slot failed
        assert_eq!(s.points, 2);
        assert_eq!(s.wall_us, 10.0);
        assert_eq!(s.sequential_wall_us, 19.0);
    }

    #[test]
    fn median_aggregation_rejects_straggler_contamination() {
        // Two clean repeats and one under-timeout straggler: the median
        // path recovers the clean value exactly; the mean path does not.
        let values = [100.0, 100.0, 250.0];
        let (med, rejected) = robust_aggregate(&values, RobustAgg::Median);
        assert_eq!(med, 100.0);
        assert_eq!(rejected, 1);
        let (mean, r0) = robust_aggregate(&values, RobustAgg::Mean);
        assert!((mean - 150.0).abs() < 1e-9);
        assert_eq!(r0, 0);
    }

    #[test]
    fn median_aggregation_keeps_identical_values() {
        let (v, rejected) = robust_aggregate(&[42.0, 42.0, 42.0], RobustAgg::Median);
        assert_eq!(v, 42.0);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn clean_attempt_returns_the_clean_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = CollectionPolicy::default(); // faults disabled
        let out = run_attempt(100.0, 1_000.0, &policy, &mut rng);
        assert_eq!(out.value_us, Some(100.0));
        assert_eq!(out.wall_us, 1_000.0);
        assert_eq!((out.timeouts, out.failures), (0, 0));
    }

    #[test]
    fn always_failing_attempt_burns_partial_wall_and_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let policy = CollectionPolicy {
            faults: FaultModel {
                failure_probability: 1.0,
                straggler_probability: 0.0,
                straggler_factor: 1.0,
                node_failures: Vec::new(),
            },
            repeats: 3,
            ..CollectionPolicy::default()
        };
        let out = run_attempt(100.0, 1_000.0, &policy, &mut rng);
        assert_eq!(out.value_us, None);
        assert_eq!(out.failures, 3);
        assert!((out.wall_us - 1_500.0).abs() < 1e-9, "3 x half wall");
    }

    #[test]
    fn extreme_stragglers_are_killed_at_the_timeout() {
        let mut rng = StdRng::seed_from_u64(3);
        let policy = CollectionPolicy {
            faults: FaultModel {
                failure_probability: 0.0,
                straggler_probability: 1.0,
                // Log-uniform in [64, 64] is degenerate only at the top;
                // force the extreme by a huge factor so every draw lands
                // far above the 3x timeout.
                straggler_factor: 1e9,
                node_failures: Vec::new(),
            },
            repeats: 2,
            bench_timeout_factor: 3.0,
            ..CollectionPolicy::default()
        };
        let out = run_attempt(100.0, 1_000.0, &policy, &mut rng);
        // Virtually certain: both repeats time out (P(ok) ≈ ln3/ln1e9).
        assert!(out.timeouts >= 1);
        assert!(out.wall_us <= 2.0 * 3.0 * 1_000.0 + 1e-9);
        if out.timeouts == 2 {
            assert_eq!(out.value_us, None);
        }
    }

    #[test]
    fn attempts_are_deterministic_per_rng_seed() {
        let policy = CollectionPolicy::production();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| run_attempt(100.0, 1_000.0, &policy, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = CollectionPolicy {
            backoff_cap_waves: 8,
            ..CollectionPolicy::default()
        };
        assert_eq!(policy.backoff_waves(1), 1);
        assert_eq!(policy.backoff_waves(2), 2);
        assert_eq!(policy.backoff_waves(3), 4);
        assert_eq!(policy.backoff_waves(4), 8);
        assert_eq!(policy.backoff_waves(10), 8, "cap holds");
    }

    #[test]
    fn fault_stats_merge_and_quietness() {
        let mut a = FaultStats::default();
        assert!(a.is_quiet());
        let b = FaultStats {
            retries: 2,
            timeouts: 3,
            ..FaultStats::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.timeouts, 6);
        assert!(!a.is_quiet());
    }
}
