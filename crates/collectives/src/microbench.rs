//! OSU-style microbenchmark harness over the simulator.
//!
//! ACCLAiM collects its training data with the OSU microbenchmark suite
//! (Sec. V of the paper): each point launches the collective repeatedly
//! (warmup + timed iterations) and reports the mean. The harness also
//! accounts the *wall-clock cost* of collecting the point — launch
//! overhead plus every iteration actually executed — because training
//! time, the paper's central concern, is the sum of these costs.

use crate::registry::Algorithm;
use acclaim_netsim::{Cluster, NoiseModel, RoundSim};
use acclaim_obs::Obs;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Iteration policy of the microbenchmark (OSU defaults scaled down for
/// collective benchmarks: fewer timed iterations for large messages).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicrobenchConfig {
    /// Untimed warmup iterations.
    pub warmup: u32,
    /// Timed iterations for messages at or below `large_threshold`.
    pub iterations_small: u32,
    /// Timed iterations for messages above `large_threshold`.
    pub iterations_large: u32,
    /// Message-size boundary between the two iteration counts (bytes).
    pub large_threshold: u64,
    /// Fixed per-point setup cost (communicator creation, binary launch)
    /// in microseconds.
    pub launch_overhead_us: f64,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            warmup: 5,
            iterations_small: 50,
            iterations_large: 20,
            large_threshold: 65_536,
            launch_overhead_us: 200_000.0, // 0.2 s
        }
    }
}

impl MicrobenchConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        MicrobenchConfig {
            warmup: 1,
            iterations_small: 5,
            iterations_large: 3,
            large_threshold: 65_536,
            launch_overhead_us: 10_000.0,
        }
    }

    /// Timed iterations for a message of `bytes`.
    pub fn iterations(&self, bytes: u64) -> u32 {
        if bytes <= self.large_threshold {
            self.iterations_small
        } else {
            self.iterations_large
        }
    }
}

/// The result of benchmarking one (algorithm, nodes, ppn, size) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Mean collective time over the timed iterations (µs).
    pub mean_us: f64,
    /// Timed iterations executed.
    pub iterations: u32,
    /// Wall-clock cost of collecting the point, including launch
    /// overhead and warmup (µs). Training time sums these.
    pub wall_us: f64,
}

/// Benchmark `algorithm` on the whole `cluster` with `ppn` ranks per
/// node and message size `bytes`.
///
/// The deterministic collective time comes from the round simulator;
/// each iteration perturbs it with measurement noise.
pub fn measure<R: Rng + ?Sized>(
    cluster: &Cluster,
    ppn: u32,
    algorithm: Algorithm,
    bytes: u64,
    config: &MicrobenchConfig,
    noise: &NoiseModel,
    rng: &mut R,
) -> Measurement {
    measure_with_obs(
        cluster,
        ppn,
        algorithm,
        bytes,
        config,
        noise,
        rng,
        &Obs::disabled(),
    )
}

/// [`measure`] with tracing: wraps the simulation in a
/// `netsim/microbench` span (algorithm, shape, and simulated base time
/// as attributes) and runs the round simulator with
/// [`RoundSim::with_obs`] so its `netsim.roundsim.*` metrics land in
/// the same recorder. Identical results to [`measure`].
#[allow(clippy::too_many_arguments)]
pub fn measure_with_obs<R: Rng + ?Sized>(
    cluster: &Cluster,
    ppn: u32,
    algorithm: Algorithm,
    bytes: u64,
    config: &MicrobenchConfig,
    noise: &NoiseModel,
    rng: &mut R,
    obs: &Obs,
) -> Measurement {
    let mut span = obs.span("netsim", "microbench");
    if obs.is_enabled() {
        span.set_attr("algorithm", format!("{algorithm:?}"));
        span.set_attr("nodes", cluster.num_nodes() as u64);
        span.set_attr("ppn", ppn as u64);
        span.set_attr("bytes", bytes);
    }
    let ranks = cluster.num_nodes() * ppn;
    let sched = algorithm.schedule(ranks, bytes);
    let base = RoundSim::with_obs(obs).simulate(cluster, ppn, sched.as_ref());
    span.set_attr("base_us", base);
    let iterations = config.iterations(bytes);

    let mut wall = config.launch_overhead_us;
    for _ in 0..config.warmup {
        wall += noise.perturb(base, rng);
    }
    let mut sum = 0.0;
    for _ in 0..iterations {
        let t = noise.perturb(base, rng);
        sum += t;
        wall += t;
    }
    Measurement {
        mean_us: sum / iterations as f64,
        iterations,
        wall_us: wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Collective;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_cluster() -> Cluster {
        let c = Cluster::bebop_like();
        let alloc = acclaim_netsim::Allocation::contiguous(&c.topology, 8);
        c.with_allocation(alloc)
    }

    #[test]
    fn noiseless_measurement_equals_simulator() {
        let c = small_cluster();
        let mut rng = StdRng::seed_from_u64(1);
        let m = measure(
            &c,
            2,
            Algorithm::BcastBinomial,
            4_096,
            &MicrobenchConfig::fast(),
            &NoiseModel::none(),
            &mut rng,
        );
        let sched = Algorithm::BcastBinomial.schedule(16, 4_096);
        let base = RoundSim::new().simulate(&c, 2, sched.as_ref());
        assert!((m.mean_us - base).abs() < 1e-9);
    }

    #[test]
    fn wall_cost_includes_launch_and_warmup() {
        let c = small_cluster();
        let cfg = MicrobenchConfig::fast();
        let mut rng = StdRng::seed_from_u64(2);
        let m = measure(
            &c,
            1,
            Algorithm::ReduceBinomial,
            1_024,
            &cfg,
            &NoiseModel::none(),
            &mut rng,
        );
        let expected = cfg.launch_overhead_us + (cfg.warmup + m.iterations) as f64 * m.mean_us;
        assert!((m.wall_us - expected).abs() < 1e-6);
        assert!(m.wall_us > m.mean_us * m.iterations as f64);
    }

    #[test]
    fn large_messages_use_fewer_iterations() {
        let cfg = MicrobenchConfig::default();
        assert_eq!(cfg.iterations(1_024), cfg.iterations_small);
        assert_eq!(cfg.iterations(1 << 20), cfg.iterations_large);
    }

    #[test]
    fn measurements_are_deterministic_per_seed() {
        let c = small_cluster();
        let cfg = MicrobenchConfig::fast();
        let noise = NoiseModel::mild();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            measure(
                &c,
                2,
                Algorithm::AllgatherRing,
                8_192,
                &cfg,
                &noise,
                &mut rng,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).mean_us, run(8).mean_us);
    }

    #[test]
    fn every_algorithm_measures_positive_time() {
        let c = small_cluster();
        let cfg = MicrobenchConfig::fast();
        let mut rng = StdRng::seed_from_u64(3);
        for col in Collective::ALL {
            for &a in col.algorithms() {
                let m = measure(&c, 2, a, 4_096, &cfg, &NoiseModel::none(), &mut rng);
                assert!(m.mean_us > 0.0, "{a:?}");
            }
        }
    }
}
