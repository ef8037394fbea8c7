//! Flat structure-of-arrays forest inference for point queries.
//!
//! [`crate::RandomForest`] stores each tree as a `Vec<Node>` of 40-byte
//! array-of-structs records walked with a data-dependent branch per
//! level. [`FlatForest`] re-lays the fitted forest out for the serve
//! daemon's `Query` path:
//!
//! * **Packed node arena, children adjacent.** One contiguous arena of
//!   16-byte `{threshold, feature, left}` records (leaf values live in
//!   a parallel column) plus per-tree root offsets — a traversal step
//!   touches a single cache line. Nodes are re-laid out in BFS order so
//!   each internal node's children occupy adjacent slots: the right
//!   child is always `left + 1`, and a step becomes the branchless
//!   `next = left + (row[feature] > threshold)`.
//! * **Self-looping leaves.** A leaf stores `left = self` and
//!   `threshold = +∞`, so the step function is idempotent at leaves
//!   (`row[f] > +∞` is false; the node steps to itself).
//!
//! Bit-identity contract: for every tree `t` and row `r` of finite
//! (non-NaN) features, the flat traversal takes exactly the branch
//! `row[feature] <= threshold` takes (`lo + (x > t)` is its De Morgan
//! complement on non-NaN input), and thresholds and leaf values are
//! copied verbatim, so [`FlatForest::tree_predict`] returns exactly the
//! `f64` that the source tree's [`crate::DecisionTree::predict`]
//! returns, which the tests below enforce across seeds.

use crate::forest::RandomForest;
use crate::tree::LEAF;

/// One arena node: 16 bytes, so a traversal step touches a single
/// cache line (leaf values live in a parallel column, read only when a
/// row flushes).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// Split threshold; `+∞` for self-looping leaves.
    threshold: f64,
    /// Split feature (`0` for leaves — unused but always in-bounds).
    feature: u32,
    /// Absolute arena index of the left child; right is `left + 1`;
    /// leaves point to themselves.
    left: u32,
}

/// A fitted forest flattened into one packed node arena.
///
/// Nodes are indexed by arena position; children are stored as
/// absolute arena indices at flatten time so traversal needs no
/// per-tree base offset. Construction is a single O(nodes) BFS copy
/// pass — cheap enough to rebuild after every (incremental) refit.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    /// The node arena, every tree back to back in BFS order.
    nodes: Vec<PackedNode>,
    /// Leaf prediction per node (unused for split nodes), kept out of
    /// the hot 16-byte records so stepping never drags it into cache.
    value: Vec<f64>,
    /// Arena index of each tree's root.
    roots: Vec<u32>,
}

impl FlatForest {
    /// Flatten `forest` into a contiguous arena, re-laying each tree
    /// out in BFS order so siblings are adjacent (`right == left + 1`)
    /// and rewriting leaves into the self-looping form.
    pub fn from_forest(forest: &RandomForest) -> Self {
        let total: usize = forest.trees().iter().map(|t| t.node_count()).sum();
        assert!(total < u32::MAX as usize, "forest too large to flatten");
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(total),
            value: Vec::with_capacity(total),
            roots: Vec::with_capacity(forest.n_trees()),
        };
        // The arena is filled through the spare-capacity pointers:
        // flattening runs on every refit, and each slot is written
        // exactly once at a known index, so the push path's capacity
        // check and double length update per node are pure overhead.
        let nodes_out = flat.nodes.spare_capacity_mut().as_mut_ptr();
        let value_out = flat.value.spare_capacity_mut().as_mut_ptr();
        // BFS scratch reused across trees: `order[k]` is the source
        // index of arena slot `base + k`. Because BFS enqueues each
        // internal node's children back to back, a node's arena slot is
        // known the moment it is *enqueued* — so each node is emitted
        // when its queue position is processed, in one pass, with no
        // inverse `source index -> slot` map.
        let mut order: Vec<u32> = Vec::new();
        let mut base = 0usize;
        for tree in forest.trees() {
            let nodes = tree.raw_nodes();
            flat.roots.push(base as u32);
            order.clear();
            order.push(0);
            let mut head = 0;
            while head < order.len() {
                let n = &nodes[order[head] as usize];
                // Leaf or split is a coin flip on fully-grown trees, so
                // this is written branchless: enqueue both children
                // unconditionally, then retract them (and select the
                // self-loop / +inf leaf encoding) by the leaf flag —
                // mispredicting a 50/50 branch per node costs more than
                // two wasted u32 pushes.
                let leaf = (n.feature == LEAF) as usize;
                let left = [(base + order.len()) as u32, (base + head) as u32][leaf];
                order.push(n.left);
                order.push(n.right);
                order.truncate(order.len() - 2 * leaf);
                // SAFETY: `base` is the sum of node counts of earlier
                // trees, `head < order.len() <= node_count(tree)`, and
                // `total` is the sum over all trees, so
                // `base + head < total` — inside the reserved capacity.
                // BFS visits each source node exactly once, so no slot
                // is written twice and, by the time `set_len` runs
                // below, every slot `0..total` has been initialized.
                unsafe {
                    (*nodes_out.add(base + head)).write(PackedNode {
                        threshold: [n.threshold, f64::INFINITY][leaf],
                        feature: [n.feature as u32, 0][leaf],
                        left,
                    });
                    (*value_out.add(base + head)).write(n.value);
                }
                head += 1;
            }
            base += order.len();
        }
        debug_assert_eq!(base, total);
        // SAFETY: the loop above initialized every slot in `0..total`
        // (each tree contributes exactly `node_count` BFS emissions).
        unsafe {
            flat.nodes.set_len(total);
            flat.value.set_len(total);
        }
        flat
    }

    /// Number of trees in the flattened ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One branchless traversal step from arena slot `i`: returns the
    /// child picked by `row[feature] <= threshold` (complemented to
    /// `left + (row[feature] > threshold)`), or `i` itself at a leaf.
    #[inline(always)]
    fn step(&self, i: usize, row: &[f64]) -> usize {
        let n = &self.nodes[i];
        n.left as usize + (row[n.feature as usize] > n.threshold) as usize
    }

    /// Prediction of one tree — bit-identical to
    /// [`crate::DecisionTree::predict`] of the source forest's tree.
    #[inline]
    pub fn tree_predict(&self, tree: usize, row: &[f64]) -> f64 {
        let mut i = self.roots[tree] as usize;
        loop {
            let next = self.step(i, row);
            if next == i {
                return self.value[i];
            }
            i = next;
        }
    }

    /// Ensemble prediction: the mean over trees, accumulated in tree
    /// order — bit-identical to [`RandomForest::predict`].
    pub fn predict(&self, row: &[f64]) -> f64 {
        let n = self.n_trees();
        (0..n).map(|t| self.tree_predict(t, row)).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMatrix;
    use crate::forest::ForestConfig;
    use proptest::prelude::*;

    /// A deterministic synthetic dataset: mildly nonlinear response on
    /// 3 features so trees actually split.
    fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<f64>) {
        let mut x = FeatureMatrix::new(3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            let a = (h & 0xffff) as f64 / 65536.0;
            let b = ((h >> 16) & 0xffff) as f64 / 65536.0;
            let c = ((h >> 32) & 0xffff) as f64 / 65536.0;
            x.push_row(&[a, b, c]);
            y.push(a * 3.0 + b * b - (c * 6.0).sin() + a * b);
        }
        (x, y)
    }

    fn forest(seed: u64, n: usize, trees: usize) -> (RandomForest, FeatureMatrix) {
        let (x, y) = dataset(n, seed);
        let config = ForestConfig {
            seed,
            n_trees: trees,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&config, &x, &y);
        (f, x)
    }

    #[test]
    fn flatten_preserves_shape() {
        let (f, _) = forest(0, 120, 8);
        let flat = FlatForest::from_forest(&f);
        assert_eq!(flat.n_trees(), f.n_trees());
        let total: usize = f.trees().iter().map(|t| t.node_count()).sum();
        assert_eq!(flat.node_count(), total);
    }

    #[test]
    fn bit_identity_across_seeds_0_to_4() {
        for seed in 0..5u64 {
            let (f, x) = forest(seed, 160, 16);
            let flat = FlatForest::from_forest(&f);
            for r in 0..x.len() {
                let row = x.row(r);
                assert_eq!(f.predict(row).to_bits(), flat.predict(row).to_bits());
                for t in 0..f.n_trees() {
                    assert_eq!(
                        f.tree(t).predict(row).to_bits(),
                        flat.tree_predict(t, row).to_bits()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary query rows (not just training rows) predict
        /// bit-identically through the flat arena.
        #[test]
        fn random_rows_bit_identical(
            seed in 0u64..5,
            rows in proptest::collection::vec(
                proptest::collection::vec(-2.0f64..2.0, 3..4), 1..40),
        ) {
            let (f, _) = forest(seed, 200, 12);
            let flat = FlatForest::from_forest(&f);
            for row in &rows {
                prop_assert_eq!(f.predict(row).to_bits(), flat.predict(row).to_bits());
            }
        }
    }
}
