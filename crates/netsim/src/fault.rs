//! Deterministic, seeded fault model for data collection.
//!
//! The paper's production story (Sec. IV-D) accepts a noisy shared
//! machine: Theta microbenchmarks run next to other jobs and compensate
//! by repeating measurements. [`crate::NoiseModel`] covers the *benign*
//! end of that spectrum — jitter that perturbs a measurement but lets it
//! complete. This module covers the rest of it:
//!
//! * **benchmark failures** — a run crashes or is killed (job preemption,
//!   OOM, transient launch errors) and returns nothing;
//! * **stragglers** — a run completes but takes a heavy-tailed multiple
//!   of its expected time (severe congestion, a slow node), contaminating
//!   the measurement and possibly exceeding the collector's timeout;
//! * **node hard failures** — a node of the allocation dies at a given
//!   onset time and never comes back, shrinking the allocation for every
//!   subsequent wave.
//!
//! Like the noise model, every draw is driven by a caller-provided seeded
//! RNG, so identical seeds reproduce identical fault schedules.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A whole-node hard failure: global node id `node` dies at `onset_us`
/// of simulated collection time and is excluded from the allocation for
/// every wave scheduled after that instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFailure {
    /// Global node id (as held by the job's `Allocation`).
    pub node: u32,
    /// Simulated collection time at which the node dies (µs).
    pub onset_us: f64,
}

/// The outcome the fault model assigns to one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchFault {
    /// The run behaves normally.
    None,
    /// The run completes, but both its wall time and its reported
    /// measurement are inflated by this factor (> 1).
    Straggle(f64),
    /// The run fails outright and returns no measurement.
    Fail,
}

/// Deterministic per-benchmark fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Probability that a single benchmark run fails outright.
    pub failure_probability: f64,
    /// Probability that a run straggles (heavy-tail congestion).
    pub straggler_probability: f64,
    /// Upper bound of the straggler multiplier (≥ 1). A straggling run
    /// draws its factor log-uniformly from `[1, straggler_factor]`, so
    /// mild contamination is more common than a full-blown stall.
    pub straggler_factor: f64,
    /// Scheduled whole-node hard failures.
    #[serde(default)]
    pub node_failures: Vec<NodeFailure>,
}

impl FaultModel {
    /// No faults at all.
    pub fn none() -> Self {
        FaultModel {
            failure_probability: 0.0,
            straggler_probability: 0.0,
            straggler_factor: 1.0,
            node_failures: Vec::new(),
        }
    }

    /// Production-grade injection: 5% of runs fail, 15% straggle with a
    /// tail reaching 8x — roughly half of the stragglers blow through a
    /// 3x collection timeout, the rest contaminate their measurement.
    pub fn production() -> Self {
        FaultModel {
            failure_probability: 0.05,
            straggler_probability: 0.15,
            straggler_factor: 8.0,
            node_failures: Vec::new(),
        }
    }

    /// Add a scheduled node hard failure.
    pub fn with_node_failure(mut self, node: u32, onset_us: f64) -> Self {
        assert!(onset_us >= 0.0, "onset cannot precede the job");
        self.node_failures.push(NodeFailure { node, onset_us });
        self
    }

    /// True when this model can inject anything.
    pub fn is_enabled(&self) -> bool {
        self.failure_probability > 0.0
            || self.straggler_probability > 0.0
            || !self.node_failures.is_empty()
    }

    /// Draw the fault outcome of one benchmark run.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> BenchFault {
        if self.failure_probability > 0.0 && rng.random::<f64>() < self.failure_probability {
            return BenchFault::Fail;
        }
        if self.straggler_probability > 0.0 && rng.random::<f64>() < self.straggler_probability {
            let factor = self.straggler_factor.max(1.0).powf(rng.random::<f64>());
            return BenchFault::Straggle(factor);
        }
        BenchFault::None
    }

    /// Global node ids whose failure onset is at or before `now_us`.
    pub fn dead_nodes_at(&self, now_us: f64) -> Vec<u32> {
        self.node_failures
            .iter()
            .filter(|f| f.onset_us <= now_us)
            .map(|f| f.node)
            .collect()
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn disabled_model_never_faults() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FaultModel::none();
        assert!(!f.is_enabled());
        for _ in 0..64 {
            assert_eq!(f.draw(&mut rng), BenchFault::None);
        }
    }

    #[test]
    fn fault_rates_match_configuration() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = FaultModel {
            failure_probability: 0.10,
            straggler_probability: 0.20,
            straggler_factor: 8.0,
            node_failures: Vec::new(),
        };
        let n = 50_000;
        let mut fails = 0usize;
        let mut straggles = 0usize;
        for _ in 0..n {
            match f.draw(&mut rng) {
                BenchFault::Fail => fails += 1,
                BenchFault::Straggle(m) => {
                    assert!((1.0..=8.0).contains(&m), "multiplier {m} out of range");
                    straggles += 1;
                }
                BenchFault::None => {}
            }
        }
        let fail_rate = fails as f64 / n as f64;
        // Straggle draws happen only on non-failing runs.
        let straggle_rate = straggles as f64 / (n - fails) as f64;
        assert!((fail_rate - 0.10).abs() < 0.01, "fail rate {fail_rate}");
        assert!(
            (straggle_rate - 0.20).abs() < 0.01,
            "straggle rate {straggle_rate}"
        );
    }

    #[test]
    fn straggler_tail_is_log_uniform_ish() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = FaultModel {
            failure_probability: 0.0,
            straggler_probability: 1.0,
            straggler_factor: 8.0,
            node_failures: Vec::new(),
        };
        let mut above_3x = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if let BenchFault::Straggle(m) = f.draw(&mut rng) {
                if m > 3.0 {
                    above_3x += 1;
                }
            }
        }
        // P(8^u > 3) = 1 - ln3/ln8 ≈ 0.4717.
        let rate = above_3x as f64 / n as f64;
        assert!((rate - 0.4717).abs() < 0.02, "tail rate {rate}");
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let f = FaultModel::production();
        let draw_all = |seed: u64| -> Vec<BenchFault> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..128).map(|_| f.draw(&mut rng)).collect()
        };
        assert_eq!(draw_all(9), draw_all(9));
    }

    #[test]
    fn dead_nodes_respect_onset() {
        let f = FaultModel::none()
            .with_node_failure(3, 100.0)
            .with_node_failure(7, 500.0);
        assert!(f.is_enabled());
        assert!(f.dead_nodes_at(0.0).is_empty());
        assert_eq!(f.dead_nodes_at(100.0), vec![3]);
        assert_eq!(f.dead_nodes_at(1e9), vec![3, 7]);
    }
}
