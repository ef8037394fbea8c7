//! The autotuner's feature space (Sec. II-C of the paper).
//!
//! Each model input ("feature value") is a triple of number of nodes,
//! processes per node (PPN), and message size. The training grid uses
//! power-of-two values; production jobs also hit non-P2 node counts and
//! message sizes (Sec. III-B), which ACCLAiM samples around P2 anchors.

use serde::{Deserialize, Serialize};

/// One benchmark/query point in the feature space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Point {
    /// Number of nodes.
    pub nodes: u32,
    /// Processes (ranks) per node.
    pub ppn: u32,
    /// Message size in bytes (per-rank contribution for allgather).
    pub msg_bytes: u64,
}

impl Point {
    /// A new point; all coordinates must be positive.
    pub fn new(nodes: u32, ppn: u32, msg_bytes: u64) -> Self {
        assert!(nodes >= 1 && ppn >= 1 && msg_bytes >= 1);
        Point {
            nodes,
            ppn,
            msg_bytes,
        }
    }

    /// Total rank count.
    #[inline]
    pub fn ranks(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// ML feature vector: log2 of each input (fractional for non-P2
    /// values, which lets tree models see the P2 grid and the space
    /// between it on one scale), plus the derived `log2(ranks)` —
    /// algorithm crossovers align with the total rank count, which a
    /// tree cannot synthesize from `log2(nodes)` and `log2(ppn)`
    /// without a staircase of splits.
    pub fn features(&self) -> [f64; 4] {
        [
            (self.msg_bytes as f64).log2(),
            (self.nodes as f64).log2(),
            (self.ppn as f64).log2(),
            (self.ranks() as f64).log2(),
        ]
    }

    /// Feature vector with the algorithm index appended (ACCLAiM's
    /// per-collective model enumerates "algorithm" as a feature, Sec. V).
    pub fn features_with_algorithm(&self, algorithm_index: usize) -> [f64; 5] {
        let f = self.features();
        [f[0], f[1], f[2], f[3], algorithm_index as f64]
    }

    /// True when every coordinate is a power of two.
    pub fn is_p2(&self) -> bool {
        self.nodes.is_power_of_two()
            && self.ppn.is_power_of_two()
            && self.msg_bytes.is_power_of_two()
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}n x {}ppn x {}B", self.nodes, self.ppn, self.msg_bytes)
    }
}

/// A rectangular grid of candidate feature values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpace {
    /// Node-count axis, ascending.
    pub nodes: Vec<u32>,
    /// PPN axis, ascending.
    pub ppns: Vec<u32>,
    /// Message-size axis (bytes), ascending.
    pub msg_sizes: Vec<u64>,
}

impl FeatureSpace {
    /// Build a space from explicit axes (sorted, deduplicated).
    pub fn new(mut nodes: Vec<u32>, mut ppns: Vec<u32>, mut msg_sizes: Vec<u64>) -> Self {
        assert!(!nodes.is_empty() && !ppns.is_empty() && !msg_sizes.is_empty());
        nodes.sort_unstable();
        nodes.dedup();
        ppns.sort_unstable();
        ppns.dedup();
        msg_sizes.sort_unstable();
        msg_sizes.dedup();
        FeatureSpace {
            nodes,
            ppns,
            msg_sizes,
        }
    }

    /// P2 powers in `[lo, hi]`.
    fn powers(lo: u64, hi: u64) -> Vec<u64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi {
            v.push(x);
            x *= 2;
        }
        v
    }

    /// The paper's simulated-comparison grid (Sec. II-A: up to 64 nodes,
    /// 32 ranks per node, 1 MB messages): 6 x 6 x 18 = 648 points.
    pub fn p2_simulation() -> Self {
        FeatureSpace::new(
            Self::powers(2, 64).iter().map(|&x| x as u32).collect(),
            Self::powers(1, 32).iter().map(|&x| x as u32).collect(),
            Self::powers(8, 1 << 20),
        )
    }

    /// The production grid of Sec. VI-E (up to 128 nodes, 16 PPN, 1 MB).
    pub fn p2_production() -> Self {
        FeatureSpace::new(
            Self::powers(2, 128).iter().map(|&x| x as u32).collect(),
            Self::powers(1, 16).iter().map(|&x| x as u32).collect(),
            Self::powers(8, 1 << 20),
        )
    }

    /// A tiny space for unit tests (2-8 nodes, 1-2 ppn, 64B-4KB).
    pub fn tiny() -> Self {
        FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 256, 1_024, 4_096])
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.nodes.len() * self.ppns.len() * self.msg_sizes.len()
    }

    /// True when the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All grid points, message-size-major within nodes within ppn.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.len());
        for &ppn in &self.ppns {
            for &nodes in &self.nodes {
                for &m in &self.msg_sizes {
                    out.push(Point::new(nodes, ppn, m));
                }
            }
        }
        out
    }

    /// Largest node count in the grid.
    pub fn max_nodes(&self) -> u32 {
        *self.nodes.last().expect("non-empty axis")
    }

    /// Stable fingerprint of the grid axes (order-independent by
    /// construction: [`FeatureSpace::new`] sorts and deduplicates).
    /// Part of the persistent tuning store's cluster signature.
    pub fn fingerprint(&self) -> u64 {
        let mut f = acclaim_netsim::Fingerprint::new();
        f.write_u64(self.nodes.len() as u64);
        for &n in &self.nodes {
            f.write_u32(n);
        }
        f.write_u64(self.ppns.len() as u64);
        for &p in &self.ppns {
            f.write_u32(p);
        }
        f.write_u64(self.msg_sizes.len() as u64);
        for &m in &self.msg_sizes {
            f.write_u64(m);
        }
        f.finish()
    }

    /// The grid's message-size neighbors around `msg`: the largest grid
    /// size below and smallest above (used for ACCLAiM's non-P2
    /// sampling window and for rule midpoints).
    pub fn msg_neighbors(&self, msg: u64) -> (Option<u64>, Option<u64>) {
        let below = self.msg_sizes.iter().rev().find(|&&s| s < msg).copied();
        let above = self.msg_sizes.iter().find(|&&s| s > msg).copied();
        (below, above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_log2() {
        let p = Point::new(8, 4, 1_024);
        assert_eq!(p.features(), [10.0, 3.0, 2.0, 5.0]);
        assert_eq!(p.features_with_algorithm(2), [10.0, 3.0, 2.0, 5.0, 2.0]);
        assert_eq!(p.ranks(), 32);
    }

    #[test]
    fn nonp2_features_are_fractional() {
        let p = Point::new(7, 4, 1_000);
        let f = p.features();
        assert!(f[0] > 9.9 && f[0] < 10.0);
        assert!(f[1] > 2.8 && f[1] < 2.9);
        assert!(!p.is_p2());
        assert!(Point::new(8, 4, 1_024).is_p2());
    }

    #[test]
    fn simulation_space_matches_paper_dimensions() {
        let s = FeatureSpace::p2_simulation();
        assert_eq!(s.nodes, vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(s.ppns, vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(s.msg_sizes.len(), 18); // 2^3 ..= 2^20
        assert_eq!(s.len(), 6 * 6 * 18);
        assert_eq!(s.points().len(), s.len());
    }

    #[test]
    fn production_space_extends_to_128_nodes() {
        let s = FeatureSpace::p2_production();
        assert_eq!(s.max_nodes(), 128);
        assert_eq!(*s.ppns.last().unwrap(), 16);
    }

    #[test]
    fn points_are_unique() {
        let s = FeatureSpace::tiny();
        let pts = s.points();
        let set: std::collections::HashSet<Point> = pts.iter().copied().collect();
        assert_eq!(set.len(), pts.len());
    }

    #[test]
    fn msg_neighbors() {
        let s = FeatureSpace::tiny(); // 64, 256, 1024, 4096
        assert_eq!(s.msg_neighbors(256), (Some(64), Some(1_024)));
        assert_eq!(s.msg_neighbors(64), (None, Some(256)));
        assert_eq!(s.msg_neighbors(4_096), (Some(1_024), None));
        assert_eq!(s.msg_neighbors(300), (Some(256), Some(1_024)));
    }

    #[test]
    fn axes_are_sorted_and_deduped() {
        let s = FeatureSpace::new(vec![8, 2, 8], vec![2, 1], vec![100, 10, 100]);
        assert_eq!(s.nodes, vec![2, 8]);
        assert_eq!(s.ppns, vec![1, 2]);
        assert_eq!(s.msg_sizes, vec![10, 100]);
    }
}
