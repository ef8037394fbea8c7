//! The analytical cost-model catalog: Hockney/LogGP formulas for the
//! ten tuned MPICH algorithms, parameterized from the same
//! [`NetworkParams`] the simulator prices schedules with.
//!
//! [`NetworkParams`]: acclaim_netsim::NetworkParams
//!
//! # Parameterization
//!
//! Every formula is built from three primitives, all derived from the
//! cluster description so predictions are deterministic and
//! unit-consistent (microseconds) with simulated costs:
//!
//! * **α(point)** — per-message latency: `2·cpu_overhead_us` (LogGP's
//!   send + receive overhead `o`) plus the wire latency of the layer
//!   spanning the job (`L`, scaled by the placement factor). The
//!   spanning layer is the network layer between rank 0 and the last
//!   rank — a collective is gated by its slowest hop.
//! * **X(b)** — per-message transfer time of `b` bytes: packetized
//!   wire bytes over the NIC bandwidth (memory bandwidth for
//!   single-node jobs), divided by the alignment/non-P2 de-rating
//!   factor, plus the ragged-transfer setup latency. This is Hockney's
//!   `β·m` with the simulator's size-dependent corrections, i.e. LogGP's
//!   `G·(m-1)` gap term.
//! * **R(b)** — local reduction time of `b` bytes
//!   (`bytes / reduce_bandwidth`), Rabenseifner's `γ·m` term.
//!
//! With `p` ranks, `lg = ⌈log₂ p⌉`, and `m` the point's message size,
//! each algorithm's cost is the standard Thakur et al. round
//! decomposition, spelled out per algorithm below. Halving/doubling
//! byte series are evaluated round-by-round (not in closed form) so
//! the packetization and alignment corrections apply to the bytes each
//! round actually moves.
//!
//! # Model catalog
//!
//! One entry per tuned algorithm. Every example predicts a small (1 KiB)
//! and a large (1 MiB) message on an 8-node × 4-ppn slice of the
//! Bebop-flavored machine and checks the scaling direction the formula
//! implies. For allgather, `m` is the **per-rank contribution** (the
//! convention the schedules in `acclaim-collectives` use); rooted and
//! reduction collectives take the total payload.
//!
//! ### `allgather.ring` — `(p-1)·(α + X(m))`
//!
//! `p-1` neighbor exchanges of the fixed per-rank block: latency-bound
//! at small sizes (`(p-1)·α`), bandwidth-optimal at large sizes (every
//! byte crosses each link once).
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::AllgatherRing, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::AllgatherRing, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! // 31 rounds of latency dominate a recursive-doubling start at 1 KiB.
//! let rd = m.predict_us(Algorithm::AllgatherRecursiveDoubling, Point::new(8, 4, 1024));
//! assert!(small > rd);
//! ```
//!
//! ### `allgather.recursive_doubling` — `lg·α + Σₖ X(min(2ᵏ·m, rest))`
//!
//! Exchanged blocks double every round until all `(p-1)·m` foreign
//! bytes have arrived: `lg` latencies instead of `p-1`, same total
//! bytes.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::AllgatherRecursiveDoubling, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::AllgatherRecursiveDoubling, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! ```
//!
//! ### `allgather.brucks` — `lg·α + Σₖ X(min(2ᵏ·m, rest)) + local(p·m)`
//!
//! Bruck's rotation: the recursive-doubling exchange pattern for any
//! `p` (not just powers of two) plus a final local rotation of the
//! full `p·m` buffer, priced at memory bandwidth.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::AllgatherBrucks, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::AllgatherBrucks, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! // The rotation epilogue makes Brucks dominate plain recursive doubling.
//! let rd = m.predict_us(Algorithm::AllgatherRecursiveDoubling, Point::new(8, 4, 1024));
//! assert!(small >= rd);
//! ```
//!
//! ### `allreduce.recursive_doubling` — `lg·(α + X(m) + R(m))`
//!
//! Every round exchanges and reduces the full vector: the small-message
//! winner (`lg` latencies) that wastes bandwidth at large `m`.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::AllreduceRecursiveDoubling, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::AllreduceRecursiveDoubling, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! ```
//!
//! ### `allreduce.reduce_scatter_allgather` — `2·lg·α + 2·Σₖ X(m/2ᵏ⁺¹) + Σₖ R(m/2ᵏ⁺¹)`
//!
//! Rabenseifner: recursive-halving reduce-scatter (each round moves and
//! reduces half the remaining vector, `≈ m·(p-1)/p` bytes total) then
//! the mirror-image recursive-doubling allgather. Twice the latencies
//! of recursive doubling, but each byte is sent only `≈2(p-1)/p` times —
//! the large-message winner.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::AllreduceReduceScatterAllgather, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::AllreduceReduceScatterAllgather, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! // Crossover: recursive doubling wins small, Rabenseifner wins large.
//! let rd_small = m.predict_us(Algorithm::AllreduceRecursiveDoubling, Point::new(8, 4, 1024));
//! let rd_large = m.predict_us(Algorithm::AllreduceRecursiveDoubling, Point::new(8, 4, 1 << 20));
//! assert!(rd_small < small && rd_large > large);
//! ```
//!
//! ### `bcast.binomial` — `lg·(α + X(m))`
//!
//! The binomial tree forwards the full payload down `lg` levels; its
//! critical path pays `lg` full-size transfers, so it loses at large
//! `m` where scatter-based broadcasts pipeline.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::BcastBinomial, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::BcastBinomial, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! ```
//!
//! ### `bcast.scatter_recursive_doubling_allgather` — `lg·α + Σₖ X(m/2ᵏ⁺¹) + lg·α + Σₖ X(min(2ᵏ·m/p, rest))`
//!
//! Binomial scatter of recursively-halved segments (`≈ m·(p-1)/p` bytes
//! down the critical path) then a recursive-doubling allgather of the
//! `m/p` blocks: `2·lg` latencies, `≈ 2m` bytes — the van de Geijn
//! large-message broadcast for power-of-two ranks.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(
//!     Algorithm::BcastScatterRecursiveDoublingAllgather, Point::new(8, 4, 1024));
//! let large = m.predict_us(
//!     Algorithm::BcastScatterRecursiveDoublingAllgather, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! // Crossover against the binomial tree.
//! let bin_small = m.predict_us(Algorithm::BcastBinomial, Point::new(8, 4, 1024));
//! let bin_large = m.predict_us(Algorithm::BcastBinomial, Point::new(8, 4, 1 << 20));
//! assert!(bin_small < small && bin_large > large);
//! ```
//!
//! ### `bcast.scatter_ring_allgather` — `lg·α + Σₖ X(m/2ᵏ⁺¹) + (p-1)·(α + X(m/p))`
//!
//! The same scatter followed by a ring allgather: `p-1` extra
//! latencies buy near-perfect bandwidth at the largest sizes (each
//! link carries every byte exactly once).
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::BcastScatterRingAllgather, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::BcastScatterRingAllgather, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! ```
//!
//! ### `reduce.binomial` — `lg·(α + X(m) + R(m))`
//!
//! The mirror image of the binomial broadcast with a reduction at
//! every merge.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::ReduceBinomial, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::ReduceBinomial, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! ```
//!
//! ### `reduce.scatter_gather` — `2·lg·α + Σₖ X(m/2ᵏ⁺¹) + Σₖ R(m/2ᵏ⁺¹) + Σₖ X(min(2ᵏ·m/p, rest))`
//!
//! Recursive-halving reduce-scatter then a binomial gather of the
//! reduced `m/p` blocks to the root — Rabenseifner's reduce, the
//! large-message winner for the rooted reduction.
//!
//! ```
//! use acclaim_analytic::CostModel;
//! use acclaim_collectives::Algorithm;
//! use acclaim_dataset::Point;
//! use acclaim_netsim::Cluster;
//! let m = CostModel::new(Cluster::bebop_like());
//! let small = m.predict_us(Algorithm::ReduceScatterGather, Point::new(8, 4, 1024));
//! let large = m.predict_us(Algorithm::ReduceScatterGather, Point::new(8, 4, 1 << 20));
//! assert!(small > 0.0 && large > small);
//! // Crossover against the binomial reduction.
//! let bin_small = m.predict_us(Algorithm::ReduceBinomial, Point::new(8, 4, 1024));
//! let bin_large = m.predict_us(Algorithm::ReduceBinomial, Point::new(8, 4, 1 << 20));
//! assert!(bin_small < small && bin_large > large);
//! ```

use acclaim_collectives::{Algorithm, Collective};
use acclaim_dataset::{DatasetConfig, Point};
use acclaim_netsim::{Cluster, Layer};
use serde::{Deserialize, Serialize};

/// The Hockney/LogGP primitives of one point, as derived from the
/// cluster description — reported by [`CostModel::params_at`] so the
/// CLI (`acclaim analytic predict`) and docs can show the numbers the
/// formulas run on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Per-message latency α (µs): send + receive CPU overhead plus
    /// the placement-scaled wire latency of the job's spanning layer.
    pub alpha_us: f64,
    /// Nominal per-byte transfer time β (µs/byte): the inverse of the
    /// NIC bandwidth (memory bandwidth on one node), before the
    /// per-message packetization and alignment corrections.
    pub beta_us_per_byte: f64,
    /// Per-byte local reduction time γ (µs/byte).
    pub gamma_us_per_byte: f64,
}

/// Analytical predictor for the ten tuned algorithms.
///
/// Deterministic, allocation-free per call, and unit-consistent with
/// the simulator: all parameters come from the [`Cluster`] the
/// benchmark database prices schedules on, so a prediction and a
/// simulated measurement can be compared directly in microseconds.
/// See the [module docs](self) for the catalog of formulas.
#[derive(Debug, Clone)]
pub struct CostModel {
    cluster: Cluster,
    scale: f64,
}

impl CostModel {
    /// Model the given cluster.
    pub fn new(cluster: Cluster) -> Self {
        CostModel {
            cluster,
            scale: 1.0,
        }
    }

    /// Model the cluster a benchmark database simulates.
    pub fn from_dataset(config: &DatasetConfig) -> Self {
        CostModel::new(config.cluster.clone())
    }

    /// Uniformly mis-scale every prediction by `factor` — a diagnostic
    /// hook for robustness tests ("a 100x-wrong model must not change
    /// the converged selection"). Relative orderings, and therefore
    /// guideline ratios, are unchanged.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale must be positive");
        self.scale *= factor;
        self
    }

    /// The cluster the model was derived from.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The α/β/γ primitives at `point` (before the per-message
    /// packetization/alignment corrections the formulas apply).
    pub fn params_at(&self, point: Point) -> ModelParams {
        let p = &self.cluster.params;
        let bw = if point.nodes <= 1 {
            p.mem_bandwidth
        } else {
            p.nic_bandwidth
        };
        ModelParams {
            alpha_us: self.alpha(point),
            beta_us_per_byte: 1.0 / bw,
            gamma_us_per_byte: 1.0 / p.reduce_bandwidth,
        }
    }

    /// Predicted cost (µs) of running `algorithm` at `point`.
    ///
    /// For allgather algorithms `point.msg_bytes` is the per-rank
    /// contribution; for bcast/reduce/allreduce it is the total
    /// payload — the same conventions the schedules use. Single-rank
    /// points cost nothing.
    pub fn predict_us(&self, algorithm: Algorithm, point: Point) -> f64 {
        let ranks = point.ranks();
        if ranks <= 1 {
            return 0.0;
        }
        let lg = (u32::BITS - (ranks - 1).leading_zeros()) as usize; // ceil(log2 ranks)
        let a = self.alpha(point);
        let m = point.msg_bytes as f64;
        let p = ranks as f64;

        let cost = match algorithm {
            Algorithm::AllgatherRing => (p - 1.0) * (a + self.xfer(m, point)),
            Algorithm::AllgatherRecursiveDoubling => {
                lg as f64 * a + self.doubling_xfer(m, (p - 1.0) * m, point)
            }
            Algorithm::AllgatherBrucks => {
                lg as f64 * a + self.doubling_xfer(m, (p - 1.0) * m, point) + self.local(p * m)
            }
            Algorithm::AllreduceRecursiveDoubling => {
                lg as f64 * (a + self.xfer(m, point) + self.reduce(m))
            }
            Algorithm::AllreduceReduceScatterAllgather => {
                let (halving, reduced) = self.halving_xfer_reduce(m, lg, point);
                // Reduce-scatter down, allgather back up the same series.
                2.0 * lg as f64 * a + 2.0 * halving + reduced
            }
            Algorithm::BcastBinomial => lg as f64 * (a + self.xfer(m, point)),
            Algorithm::BcastScatterRecursiveDoublingAllgather => {
                let (scatter, _) = self.halving_xfer_reduce(m, lg, point);
                let block = m / p;
                2.0 * lg as f64 * a + scatter + self.doubling_xfer(block, (p - 1.0) * block, point)
            }
            Algorithm::BcastScatterRingAllgather => {
                let (scatter, _) = self.halving_xfer_reduce(m, lg, point);
                lg as f64 * a + scatter + (p - 1.0) * (a + self.xfer(m / p, point))
            }
            Algorithm::ReduceBinomial => lg as f64 * (a + self.xfer(m, point) + self.reduce(m)),
            Algorithm::ReduceScatterGather => {
                let (halving, reduced) = self.halving_xfer_reduce(m, lg, point);
                let block = m / p;
                2.0 * lg as f64 * a
                    + halving
                    + reduced
                    + self.doubling_xfer(block, (p - 1.0) * block, point)
            }
        };
        cost * self.scale
    }

    /// Predictions for every algorithm of `collective` at `point`, in
    /// registry order.
    pub fn predictions(&self, collective: Collective, point: Point) -> Vec<(Algorithm, f64)> {
        collective
            .algorithms()
            .iter()
            .map(|&a| (a, self.predict_us(a, point)))
            .collect()
    }

    /// The analytically cheapest algorithm of `collective` at `point`
    /// (ties break toward registry order).
    pub fn best(&self, collective: Collective, point: Point) -> (Algorithm, f64) {
        self.predictions(collective, point)
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every collective has at least one algorithm")
    }

    /// α: send+receive overhead plus the spanning layer's latency.
    fn alpha(&self, point: Point) -> f64 {
        let p = &self.cluster.params;
        let layer = if point.nodes <= 1 {
            Layer::IntraNode
        } else {
            self.cluster
                .layer_between_ranks(0, (point.nodes - 1) * point.ppn, point.ppn)
        };
        2.0 * p.cpu_overhead_us + p.latency(layer, self.cluster.job_latency_factor)
    }

    /// X(b): transfer time of one `bytes`-byte message (bandwidth and
    /// alignment terms only; α is charged per round by the caller).
    fn xfer(&self, bytes: f64, point: Point) -> f64 {
        if bytes < 1.0 {
            return 0.0;
        }
        let b = bytes.ceil() as u64;
        let p = &self.cluster.params;
        let bw = if point.nodes <= 1 {
            p.mem_bandwidth
        } else {
            p.nic_bandwidth
        };
        p.wire_bytes(b) as f64 / (bw * p.bandwidth_derating(b)) + p.alignment_latency(b)
    }

    /// R(b): local reduction of `bytes`.
    fn reduce(&self, bytes: f64) -> f64 {
        if bytes < 1.0 {
            return 0.0;
        }
        self.cluster.params.reduce_time(bytes.ceil() as u64)
    }

    /// Local memory traffic (Bruck's rotation epilogue).
    fn local(&self, bytes: f64) -> f64 {
        if bytes < 1.0 {
            return 0.0;
        }
        bytes / self.cluster.params.mem_bandwidth
    }

    /// Σₖ X over a doubling series: rounds move `start, 2·start, …`
    /// bytes until `total` has been transferred (recursive-doubling and
    /// Bruck-style allgathers; also binomial gathers of scattered
    /// blocks).
    fn doubling_xfer(&self, start: f64, total: f64, point: Point) -> f64 {
        let mut cost = 0.0;
        let mut chunk = start;
        let mut remaining = total;
        while remaining > 0.0 && chunk > 0.0 {
            let send = chunk.min(remaining);
            cost += self.xfer(send, point);
            remaining -= send;
            chunk *= 2.0;
        }
        cost
    }

    /// (Σₖ X(m/2ᵏ⁺¹), Σₖ R(m/2ᵏ⁺¹)) over `lg` halving rounds — the
    /// recursive-halving reduce-scatter / binomial-scatter series. The
    /// caller adds the reduction sum only when rounds actually reduce.
    fn halving_xfer_reduce(&self, m: f64, lg: usize, point: Point) -> (f64, f64) {
        let mut xfer = 0.0;
        let mut red = 0.0;
        let mut half = m / 2.0;
        for _ in 0..lg {
            xfer += self.xfer(half, point);
            red += self.reduce(half);
            half /= 2.0;
        }
        (xfer, red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Cluster::bebop_like())
    }

    #[test]
    fn every_algorithm_predicts_positive_finite_costs() {
        let m = model();
        for &a in &Algorithm::ALL {
            for &msg in &[16u64, 1 << 10, 1 << 17, 1 << 20] {
                for &(n, ppn) in &[(2u32, 1u32), (8, 4), (32, 16)] {
                    let t = m.predict_us(a, Point::new(n, ppn, msg));
                    assert!(t.is_finite() && t > 0.0, "{a} at {n}x{ppn}x{msg}: {t}");
                }
            }
        }
    }

    #[test]
    fn costs_grow_with_message_size() {
        // Not strictly monotone at tiny sizes (ragged sub-packet rounds
        // pay alignment latencies that aligned larger rounds dodge),
        // but across decades the bandwidth term must dominate.
        let m = model();
        for &a in &Algorithm::ALL {
            let p = |msg| m.predict_us(a, Point::new(8, 4, msg));
            assert!(p(1 << 20) > p(1 << 14), "{a}");
            assert!(p(1 << 20) > 4.0 * p(1 << 10), "{a}");
        }
    }

    #[test]
    fn single_rank_is_free() {
        let m = model();
        for &a in &Algorithm::ALL {
            assert_eq!(m.predict_us(a, Point::new(1, 1, 1 << 20)), 0.0);
        }
    }

    #[test]
    fn scaling_preserves_relative_order() {
        let m = model();
        let s = model().scaled(100.0);
        for &c in &Collective::ALL {
            for &msg in &[1u64 << 10, 1 << 20] {
                let pt = Point::new(16, 8, msg);
                assert_eq!(m.best(c, pt).0, s.best(c, pt).0);
                let t = m.predict_us(c.algorithms()[0], pt);
                let st = s.predict_us(c.algorithms()[0], pt);
                assert!((st / t - 100.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn predictions_correlate_with_simulated_best() {
        // The model only has to *rank* usefully: its per-collective
        // winner must be within a small factor of the simulated best
        // at every grid point of the tiny dataset.
        let cfg = DatasetConfig::tiny();
        let db = acclaim_dataset::BenchmarkDatabase::new(cfg.clone());
        let m = CostModel::from_dataset(&cfg);
        let space = acclaim_dataset::FeatureSpace::tiny();
        for &c in &Collective::ALL {
            for pt in space.points() {
                let (pick, _) = m.best(c, pt);
                let slowdown = db.slowdown(pt, pick);
                assert!(
                    slowdown < 4.0,
                    "{c:?} at {pt:?}: model pick {pick} is {slowdown:.2}x the best"
                );
            }
        }
    }
}
