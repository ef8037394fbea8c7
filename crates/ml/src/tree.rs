//! CART regression tree with variance-reduction (MSE) splits.
//!
//! Built from scratch (the paper uses scikit-learn's
//! `RandomForestRegressor`; we need our own to expose per-tree ensemble
//! predictions for the jackknife). Splits minimize the summed squared
//! error of the two children; per-split feature subsampling supports the
//! random forest above it.
//!
//! The builder is presorted end to end: a `Presort` holds the training
//! multiset and, per feature, that multiset stably sorted by the
//! feature's value. Each node owns one window `lo..hi` of all of these
//! arrays; a split stably partitions the window, which leaves each
//! child's window in exactly the order a fresh stable sort of the child
//! would produce. `best_split` scans its orders straight from the
//! window, so no node ever sorts.
//!
//! Builds are a pure function of `(multiset of training rows, tree
//! seed)`: any randomness (per-split feature subsampling) is seeded from
//! the node's position in the tree, never from a shared stream consumed
//! in traversal order. That locality is what makes incremental refits
//! possible — given the old tree, `DecisionTree::grow` rebuilds only the
//! path a newly appended sample takes while reusing every untouched
//! subtree bit-for-bit — and a forest keeps each tree's `Presort`
//! between refits, so an append costs one insertion per feature order
//! instead of a re-sort.

use crate::data::FeatureMatrix;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters of a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Features examined per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Node {
    /// Split feature, or `usize::MAX` for leaves.
    pub(crate) feature: usize,
    /// Split threshold (`x[feature] <= threshold` goes left); unused for
    /// leaves.
    pub(crate) threshold: f64,
    /// Leaf prediction; unused for split nodes.
    pub(crate) value: f64,
    /// Child indices (left, right); unused for leaves.
    pub(crate) left: u32,
    pub(crate) right: u32,
}

pub(crate) const LEAF: usize = usize::MAX;

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fit a tree on the rows of `x` selected by `indices` (with
    /// repetitions allowed, supporting bootstrap samples). The `rng`
    /// only supplies the tree seed; see [`DecisionTree::fit_seeded`].
    pub fn fit<R: Rng + ?Sized>(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: &[usize],
        rng: &mut R,
    ) -> Self {
        Self::fit_seeded(config, x, y, indices, rng.next_u64())
    }

    /// Fit a tree deterministically: the result depends only on the
    /// multiset `indices` (in the given order), the config, and
    /// `tree_seed`. Per-split feature subsampling draws from an RNG
    /// seeded by `(tree_seed, node depth, node path)`, so identical
    /// subtree inputs always produce identical subtrees regardless of
    /// what the rest of the tree looks like.
    pub fn fit_seeded(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: &[usize],
        tree_seed: u64,
    ) -> Self {
        let rows = indices
            .iter()
            .map(|&i| u32::try_from(i).expect("row index exceeds u32"))
            .collect();
        Self::grow(config, x, y, Presort::new(x, rows), tree_seed, None).0
    }

    /// Grow the tree [`DecisionTree::fit_seeded`] builds on `presort`'s
    /// multiset, consuming `presort` as the builder's working copy.
    ///
    /// With `base = Some((old, new_sample))`, `presort` must be the
    /// multiset `old` was grown on with the copies of `new_sample`
    /// appended at the end ([`Presort::append`]). Splits are then
    /// recomputed only along the path the new sample takes: wherever
    /// the recomputed split partitions the old rows the way the old
    /// split did, the sibling subtree (whose multiset is unchanged) is
    /// copied verbatim instead of rebuilt. The returned [`DirtyRegion`]
    /// bounds where the new tree may predict differently from `old`;
    /// without a base it is the whole space.
    pub(crate) fn grow(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        presort: Presort,
        tree_seed: u64,
        base: Option<(&DecisionTree, usize)>,
    ) -> (Self, DirtyRegion) {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let n = presort.rows.len();
        assert!(n > 0, "cannot fit on zero samples");
        let mut builder = Builder {
            config,
            x,
            y,
            tree_seed,
            nodes: Vec::new(),
            window: presort,
            scratch: Vec::new(),
            region_conds: Vec::new(),
            dirty: Vec::new(),
        };
        let dirty = match base {
            Some((old, new_sample)) => {
                builder.rebuild_path(&old.nodes, 0, 0, n, 0, 0, new_sample);
                DirtyRegion {
                    regions: builder.dirty,
                }
            }
            None => {
                builder.build(0, n, 0, 0);
                DirtyRegion::whole()
            }
        };
        (
            DecisionTree {
                nodes: builder.nodes,
            },
            dirty,
        )
    }

    /// Predict the target for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut node = &self.nodes[0];
        while node.feature != LEAF {
            node = if row[node.feature] <= node.threshold {
                &self.nodes[node.left as usize]
            } else {
                &self.nodes[node.right as usize]
            };
        }
        node.value
    }

    /// Walk the tree from the root carrying a caller-owned `state`, for
    /// consumers that evaluate a whole region at once instead of one row
    /// per root-to-leaf walk. At each split, `split(&state, feature,
    /// threshold)` returns the states of the left (`x[feature] <=
    /// threshold`) and right children; `None` prunes that child. Each
    /// reached leaf is handed to `leaf(state, value)`.
    pub fn descend<S>(
        &self,
        root: S,
        mut split: impl FnMut(&S, usize, f64) -> (Option<S>, Option<S>),
        mut leaf: impl FnMut(S, f64),
    ) {
        let mut stack = vec![(0u32, root)];
        while let Some((i, state)) = stack.pop() {
            let n = &self.nodes[i as usize];
            if n.feature == LEAF {
                leaf(state, n.value);
                continue;
            }
            let (left, right) = split(&state, n.feature, n.threshold);
            stack.extend(right.map(|s| (n.right, s)));
            stack.extend(left.map(|s| (n.left, s)));
        }
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node arena, for crate-internal consumers (the SoA
    /// [`crate::FlatForest`] flattener).
    pub(crate) fn raw_nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            let n = &nodes[i];
            if n.feature == LEAF {
                0
            } else {
                1 + depth_of(nodes, n.left as usize).max(depth_of(nodes, n.right as usize))
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// One axis constraint of a dirty region: `lo < x[feature] <= hi`.
type Cond = (usize, f64, f64);

/// The part of feature space where a refit tree's predictions may
/// differ from the pre-refit tree's.
///
/// A union of axis-aligned boxes (conjunctions of `(feature, lo, hi)`
/// conditions), collected
/// while an incremental refit walks the new sample's path:
/// the box delimiting each rebuilt subtree, plus — when a reused split
/// kept its partition but moved its threshold — the band between the old
/// and new thresholds (rows in the band route differently even though
/// both subtrees were preserved). Everywhere outside the region the two
/// trees predict bit-identically, which is what lets a per-tree
/// prediction cache skip rows a refit could not have touched.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DirtyRegion {
    regions: Vec<Vec<Cond>>,
}

impl DirtyRegion {
    /// Nothing dirty (predictions unchanged everywhere).
    pub fn none() -> Self {
        DirtyRegion::default()
    }

    /// Everything dirty (a full rebuild).
    pub fn whole() -> Self {
        DirtyRegion {
            regions: vec![Vec::new()],
        }
    }

    /// True when no row is dirty.
    pub fn is_none(&self) -> bool {
        self.regions.is_empty()
    }

    /// True when every row is dirty.
    pub fn is_whole(&self) -> bool {
        self.regions.iter().any(Vec::is_empty)
    }

    /// The region's boxes. Each is a conjunction of `(feature, lo, hi)`
    /// conditions `lo < x[feature] <= hi`; an empty box is the whole
    /// space.
    pub fn boxes(&self) -> impl Iterator<Item = &[(usize, f64, f64)]> {
        self.regions.iter().map(Vec::as_slice)
    }

    /// Whether `row`'s prediction may have changed.
    pub fn contains(&self, row: &[f64]) -> bool {
        self.regions
            .iter()
            .any(|conds| conds.iter().all(|&(f, lo, hi)| row[f] > lo && row[f] <= hi))
    }

    /// Union with another region (e.g. a later append to the same tree).
    pub fn merge(&mut self, other: DirtyRegion) {
        if self.is_whole() {
            return;
        }
        if other.is_whole() {
            *self = DirtyRegion::whole();
            return;
        }
        self.regions.extend(other.regions);
    }
}

/// Mix a node's position into a per-node RNG seed (splitmix64-style
/// finalizer). A node is identified by its depth and the left/right
/// path bits taken from the root, so the seed is independent of how the
/// rest of the tree is built.
fn node_seed(tree_seed: u64, depth: usize, path: u64) -> u64 {
    let mut h = tree_seed
        ^ (depth as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ path.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A training multiset with one stable order per feature: `orders[f]`
/// is `rows` stably sorted by `x[., f]` (ties keep their order in
/// `rows`). Indices are `u32` to keep the kept per-tree copies small.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Presort {
    rows: Vec<u32>,
    orders: Vec<Vec<u32>>,
}

impl Presort {
    /// Sort `rows` once per feature.
    pub(crate) fn new(x: &FeatureMatrix, rows: Vec<u32>) -> Self {
        let orders = (0..x.n_features())
            .map(|f| {
                let mut order = rows.clone();
                order.sort_by(|&a, &b| value(x, a, f).total_cmp(&value(x, b, f)));
                order
            })
            .collect();
        Presort { rows, orders }
    }

    /// The multiset, in its canonical order.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Append `copies` copies of row `sample` to the multiset. In each
    /// feature order they go in at the upper bound of their value — the
    /// position a fresh stable sort gives rows that come last in
    /// `rows` — so the orders stay exactly [`Presort::new`]'s without a
    /// re-sort.
    pub(crate) fn append(&mut self, x: &FeatureMatrix, sample: usize, copies: usize) {
        let row = u32::try_from(sample).expect("row index exceeds u32");
        self.rows.extend(std::iter::repeat_n(row, copies));
        for (f, order) in self.orders.iter_mut().enumerate() {
            let v = x.get(sample, f);
            let at = order.partition_point(|&i| value(x, i, f).total_cmp(&v).is_le());
            order.splice(at..at, std::iter::repeat_n(row, copies));
        }
    }
}

#[inline]
fn value(x: &FeatureMatrix, row: u32, f: usize) -> f64 {
    x.get(row as usize, f)
}

struct Builder<'a> {
    config: &'a TreeConfig,
    x: &'a FeatureMatrix,
    y: &'a [f64],
    tree_seed: u64,
    nodes: Vec<Node>,
    /// The working copy of the tree's presort. The node being split owns
    /// the window `lo..hi` of its rows and of every feature order; a
    /// split stably partitions that window into its children's.
    window: Presort,
    scratch: Vec<u32>,
    /// Conjunction of split decisions taken so far on the refit path
    /// (maintained by `rebuild_path` only).
    region_conds: Vec<Cond>,
    /// Accumulated dirty boxes (see [`DirtyRegion`]).
    dirty: Vec<Vec<Cond>>,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    score: f64,
}

impl Builder<'_> {
    /// Build the subtree over the window `lo..hi`; returns its node
    /// index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize, path: u64) -> u32 {
        let node_id = self.push_leaf(lo, hi);
        let Some(split) = self.try_split(lo, hi, depth, path) else {
            return node_id;
        };
        let mid = self.partition(lo, hi, &split);
        let left = self.build(lo, mid, depth + 1, path.wrapping_shl(1));
        let right = self.build(mid, hi, depth + 1, path.wrapping_shl(1) | 1);
        self.finish_split(node_id, &split, left, right);
        node_id
    }

    /// Rebuild the subtree over the window `lo..hi` (the old subtree's
    /// multiset plus appended copies of `new_sample`), reusing subtrees
    /// whose multiset did not change. `old_i` is the corresponding node
    /// in the pre-append tree. Produces bit-for-bit what `build` would,
    /// and records in `self.dirty` the boxes where predictions may
    /// differ from the old subtree's.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_path(
        &mut self,
        old: &[Node],
        old_i: u32,
        lo: usize,
        hi: usize,
        depth: usize,
        path: u64,
        new_sample: usize,
    ) -> u32 {
        let node_id = self.push_leaf(lo, hi);
        let Some(split) = self.try_split(lo, hi, depth, path) else {
            // Rebuilt leaf: its mean absorbed the appended copies.
            self.dirty.push(self.region_conds.clone());
            return node_id;
        };
        let old_node = old[old_i as usize];
        // The old subtree is reusable when the new split sends every old
        // row to the side the old split sent it to. Equal thresholds
        // trivially agree; otherwise (the threshold midpoint moved, e.g.
        // because the appended value sits next to the old boundary) scan
        // the old rows for a disagreement.
        let reusable = old_node.feature == split.feature
            && (old_node.threshold == split.threshold
                || self.window.rows[lo..hi].iter().all(|&i| {
                    let v = value(self.x, i, split.feature);
                    i as usize == new_sample || (v <= old_node.threshold) == (v <= split.threshold)
                }));
        let mid = self.partition(lo, hi, &split);
        let (left, right) = if reusable {
            // Every appended copy lands on one side, so the other side's
            // multiset — and therefore its entire subtree — is unchanged
            // and can be copied verbatim. If the threshold moved, rows
            // between the two thresholds route differently even though
            // both subtrees survive: mark that band dirty.
            if old_node.threshold != split.threshold {
                let (lo, hi) = if old_node.threshold < split.threshold {
                    (old_node.threshold, split.threshold)
                } else {
                    (split.threshold, old_node.threshold)
                };
                let mut band = self.region_conds.clone();
                band.push((split.feature, lo, hi));
                self.dirty.push(band);
            }
            if self.x.get(new_sample, split.feature) <= split.threshold {
                self.region_conds
                    .push((split.feature, f64::NEG_INFINITY, split.threshold));
                let left = self.rebuild_path(
                    old,
                    old_node.left,
                    lo,
                    mid,
                    depth + 1,
                    path.wrapping_shl(1),
                    new_sample,
                );
                self.region_conds.pop();
                let right = copy_subtree(old, old_node.right, &mut self.nodes);
                (left, right)
            } else {
                let left = copy_subtree(old, old_node.left, &mut self.nodes);
                self.region_conds
                    .push((split.feature, split.threshold, f64::INFINITY));
                let right = self.rebuild_path(
                    old,
                    old_node.right,
                    mid,
                    hi,
                    depth + 1,
                    path.wrapping_shl(1) | 1,
                    new_sample,
                );
                self.region_conds.pop();
                (left, right)
            }
        } else {
            // The partition moved (or the old node was a leaf): rebuild
            // this whole subtree from its partitioned windows — all of it
            // is dirty.
            self.dirty.push(self.region_conds.clone());
            let left = self.build(lo, mid, depth + 1, path.wrapping_shl(1));
            let right = self.build(mid, hi, depth + 1, path.wrapping_shl(1) | 1);
            (left, right)
        };
        self.finish_split(node_id, &split, left, right);
        node_id
    }

    /// Push a leaf predicting the mean of the window's targets.
    fn push_leaf(&mut self, lo: usize, hi: usize) -> u32 {
        let node_id = self.nodes.len() as u32;
        let rows = &self.window.rows[lo..hi];
        let mean = rows.iter().map(|&i| self.y[i as usize]).sum::<f64>() / rows.len() as f64;
        self.nodes.push(Node {
            feature: LEAF,
            threshold: 0.0,
            value: mean,
            left: 0,
            right: 0,
        });
        node_id
    }

    /// The split for this node, if stopping criteria allow one and one
    /// improves on the parent.
    fn try_split(&self, lo: usize, hi: usize, depth: usize, path: u64) -> Option<BestSplit> {
        let n = hi - lo;
        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || n < 2 * self.config.min_samples_leaf
        {
            return None;
        }
        self.best_split(lo, hi, depth, path)
    }

    /// Turn the placeholder leaf `node_id` into a split node.
    fn finish_split(&mut self, node_id: u32, split: &BestSplit, left: u32, right: u32) {
        let node = &mut self.nodes[node_id as usize];
        node.feature = split.feature;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
    }

    /// Stably partition the window `lo..hi` of the rows and of every
    /// feature order so rows with `x[feature] <= threshold` come first;
    /// returns the boundary. A stable partition of a stable sort is the
    /// stable sort of the partitioned rows, so each child's windows are
    /// exactly what presorting the child afresh would give — which keeps
    /// the prefix-scan float sums, and so every split, bit-identical.
    fn partition(&mut self, lo: usize, hi: usize, split: &BestSplit) -> usize {
        let (x, f, threshold) = (self.x, split.feature, split.threshold);
        let goes_left = |row: u32| value(x, row, f) <= threshold;
        let mid =
            lo + stable_partition(&mut self.window.rows[lo..hi], goes_left, &mut self.scratch);
        debug_assert!(mid > lo && mid < hi, "degenerate split survived");
        for (g, order) in self.window.orders.iter_mut().enumerate() {
            if g == f {
                // Sorted by the split feature already: the left rows lead.
                debug_assert!(order[lo..mid].iter().all(|&r| goes_left(r)));
                continue;
            }
            stable_partition(&mut order[lo..hi], goes_left, &mut self.scratch);
        }
        mid
    }

    /// Exhaustive best split over the node's feature subset
    /// ([`split_candidates`]): minimize left/right summed squared error
    /// via a prefix scan of each feature's presorted window.
    fn best_split(&self, lo: usize, hi: usize, depth: usize, path: u64) -> Option<BestSplit> {
        let candidates = split_candidates(
            self.config,
            self.x.n_features(),
            self.tree_seed,
            depth,
            path,
        );
        let y = self.y;
        let rows = &self.window.rows[lo..hi];
        let total_sum: f64 = rows.iter().map(|&i| y[i as usize]).sum();
        let total_sq: f64 = rows.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let n = rows.len() as f64;
        let parent_score = total_sq - total_sum * total_sum / n;

        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<BestSplit> = None;
        for f in candidates {
            let order = &self.window.orders[f][lo..hi];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut this_v = value(self.x, order[0], f);
            for (pos, pair) in order.windows(2).enumerate() {
                let yi = y[pair[0] as usize];
                left_sum += yi;
                left_sq += yi * yi;
                let next_v = value(self.x, pair[1], f);
                let left_n = pos + 1;
                let right_n = order.len() - left_n;
                // No split between equal values, nor one that leaves a
                // side below the minimum leaf size.
                if this_v != next_v && left_n >= min_leaf && right_n >= min_leaf {
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let score = (left_sq - left_sum * left_sum / left_n as f64)
                        + (right_sq - right_sum * right_sum / right_n as f64);
                    if score + 1e-12 < best.as_ref().map_or(parent_score, |b| b.score) {
                        best = Some(BestSplit {
                            feature: f,
                            threshold: 0.5 * (this_v + next_v),
                            score,
                        });
                    }
                }
                this_v = next_v;
            }
        }
        best
    }
}

/// The features a node's split examines: all of them in natural order,
/// or with `max_features = Some(k)` a `k`-subset drawn from an RNG seeded
/// by the node's position alone — never from state left by other nodes,
/// so a path refit that copies subtrees instead of building them draws
/// the same subsets a scratch build does.
fn split_candidates(
    config: &TreeConfig,
    n_features: usize,
    tree_seed: u64,
    depth: usize,
    path: u64,
) -> Vec<usize> {
    let k = config
        .max_features
        .unwrap_or(n_features)
        .clamp(1, n_features);
    let mut features: Vec<usize> = (0..n_features).collect();
    if k < n_features {
        let mut rng = StdRng::seed_from_u64(node_seed(tree_seed, depth, path));
        features.shuffle(&mut rng);
        features.truncate(k);
    }
    features
}

/// Partition `items` in place so those satisfying `goes_left` come
/// first; returns the boundary. Stable on BOTH sides: each side keeps
/// its items in their original relative order. Stability is what keeps
/// the presorted windows exact and incremental refits bit-identical to
/// scratch fits — an appended sample lands at the end of one side and
/// leaves the other side's ordering (and hence its float summation
/// order) untouched.
fn stable_partition(
    items: &mut [u32],
    goes_left: impl Fn(u32) -> bool,
    scratch: &mut Vec<u32>,
) -> usize {
    // Branch-free: every item is written to both sides' cursors and
    // only the matching cursor advances, so a mixed split costs no
    // mispredictions. `mid <= i` keeps the in-place writes behind the
    // read position.
    scratch.clear();
    scratch.resize(items.len(), 0);
    let (mut mid, mut right) = (0, 0);
    for i in 0..items.len() {
        let item = items[i];
        let left = goes_left(item);
        items[mid] = item;
        scratch[right] = item;
        mid += left as usize;
        right += !left as usize;
    }
    items[mid..].copy_from_slice(&scratch[..right]);
    mid
}

/// Copy the subtree rooted at `old_i` into `out` in build order
/// (pre-order, left before right), remapping child indices; returns the
/// new root index. Reproduces exactly the layout a fresh build emits.
fn copy_subtree(old: &[Node], old_i: u32, out: &mut Vec<Node>) -> u32 {
    let node_id = out.len() as u32;
    out.push(old[old_i as usize]);
    if old[old_i as usize].feature != LEAF {
        let left = copy_subtree(old, old[old_i as usize].left, out);
        let right = copy_subtree(old, old[old_i as usize].right, out);
        let node = &mut out[node_id as usize];
        node.left = left;
        node.right = right;
    }
    node_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn fit(x: &FeatureMatrix, y: &[f64], config: &TreeConfig) -> DecisionTree {
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(42);
        DecisionTree::fit(config, x, y, &idx, &mut rng)
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![5.0; 3];
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[9.0]), 5.0);
    }

    #[test]
    fn step_function_is_learned_exactly() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.predict(&[3.0]), 1.0);
        assert_eq!(t.predict(&[15.0]), 2.0);
        assert_eq!(t.predict(&[9.4]), 1.0);
        assert_eq!(t.predict(&[9.6]), 2.0);
    }

    #[test]
    fn descent_reaches_the_leaf_predict_does() {
        let rows: Vec<Vec<f64>> = (0..48).map(|i| vec![(i * 5 % 8) as f64]).collect();
        let y: Vec<f64> = (0..48).map(|i| ((i * 7919) % 23) as f64).collect();
        let tree = fit(&FeatureMatrix::from_rows(&rows), &y, &TreeConfig::default());
        // Paint the values 0..8 by narrowing an index range per split.
        let mut painted = [f64::NAN; 8];
        let mut leaves = 0;
        let split = |&(lo, hi): &(usize, usize), _, t: f64| {
            let k = lo + (lo..hi).filter(|&v| v as f64 <= t).count();
            ((k > lo).then_some((lo, k)), (k < hi).then_some((k, hi)))
        };
        tree.descend((0, 8), split, |(lo, hi), value| {
            leaves += 1;
            painted[lo..hi].fill(value);
        });
        assert_eq!(
            leaves,
            tree.node_count().div_ceil(2),
            "every leaf reached once"
        );
        for (v, p) in painted.iter().enumerate() {
            assert_eq!(p.to_bits(), tree.predict(&[v as f64]).to_bits());
        }
    }

    #[test]
    fn two_feature_interaction() {
        // y = 10 when (a > 0.5 and b > 0.5), else 0: needs two levels.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                rows.push(vec![a as f64 / 3.0, b as f64 / 3.0]);
                y.push(if a >= 2 && b >= 2 { 10.0 } else { 0.0 });
            }
        }
        let x = FeatureMatrix::from_rows(&rows);
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.predict(&[1.0, 1.0]), 10.0);
        assert_eq!(t.predict(&[1.0, 0.0]), 0.0);
        assert_eq!(t.predict(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let shallow = fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 2,
                ..TreeConfig::default()
            },
        );
        assert!(shallow.depth() <= 2);
        let deep = fit(&x, &y, &TreeConfig::default());
        assert!(deep.depth() > 2);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = fit(
            &x,
            &y,
            &TreeConfig {
                min_samples_leaf: 5,
                ..TreeConfig::default()
            },
        );
        // Only one split can satisfy two leaves of >= 5 samples.
        assert!(t.node_count() <= 3, "got {} nodes", t.node_count());
    }

    #[test]
    fn duplicate_feature_values_never_split_apart() {
        let x = FeatureMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 10.0, 0.0, 10.0];
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.node_count(), 1, "identical rows cannot be separated");
        assert_eq!(t.predict(&[1.0]), 5.0);
    }

    /// The builder as it was before presorting: every node stably sorts
    /// its own rows once per candidate feature. Kept as the oracle the
    /// presorted build must reproduce node for node.
    struct Reference<'a> {
        config: &'a TreeConfig,
        x: &'a FeatureMatrix,
        y: &'a [f64],
        tree_seed: u64,
        nodes: Vec<Node>,
    }

    impl Reference<'_> {
        fn fit(
            config: &TreeConfig,
            x: &FeatureMatrix,
            y: &[f64],
            indices: &[usize],
            tree_seed: u64,
        ) -> Vec<Node> {
            let mut r = Reference {
                config,
                x,
                y,
                tree_seed,
                nodes: Vec::new(),
            };
            r.build(&mut indices.to_vec(), 0, 0);
            r.nodes
        }

        fn build(&mut self, indices: &mut [usize], depth: usize, path: u64) -> u32 {
            let node_id = self.nodes.len() as u32;
            let mean = indices.iter().map(|&i| self.y[i]).sum::<f64>() / indices.len() as f64;
            self.nodes.push(Node {
                feature: LEAF,
                threshold: 0.0,
                value: mean,
                left: 0,
                right: 0,
            });
            if depth >= self.config.max_depth
                || indices.len() < self.config.min_samples_split
                || indices.len() < 2 * self.config.min_samples_leaf
            {
                return node_id;
            }
            let Some((feature, threshold)) = self.best_split(indices, depth, path) else {
                return node_id;
            };
            let (mut left, right): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| self.x.get(i, feature) <= threshold);
            let mid = left.len();
            left.extend(right);
            indices.copy_from_slice(&left);
            let (l, r) = indices.split_at_mut(mid);
            let left = self.build(l, depth + 1, path.wrapping_shl(1));
            let right = self.build(r, depth + 1, path.wrapping_shl(1) | 1);
            let node = &mut self.nodes[node_id as usize];
            node.feature = feature;
            node.threshold = threshold;
            node.left = left;
            node.right = right;
            node_id
        }

        fn best_split(&self, indices: &[usize], depth: usize, path: u64) -> Option<(usize, f64)> {
            let candidates = split_candidates(
                self.config,
                self.x.n_features(),
                self.tree_seed,
                depth,
                path,
            );
            let total_sum: f64 = indices.iter().map(|&i| self.y[i]).sum();
            let total_sq: f64 = indices.iter().map(|&i| self.y[i] * self.y[i]).sum();
            let n = indices.len() as f64;
            let parent_score = total_sq - total_sum * total_sum / n;
            let mut best: Option<(usize, f64, f64)> = None;
            for f in candidates {
                let mut order = indices.to_vec();
                order.sort_by(|&a, &b| self.x.get(a, f).total_cmp(&self.x.get(b, f)));
                let min_leaf = self.config.min_samples_leaf;
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                    left_sum += self.y[i];
                    left_sq += self.y[i] * self.y[i];
                    let left_n = pos + 1;
                    let right_n = order.len() - left_n;
                    if left_n < min_leaf || right_n < min_leaf {
                        continue;
                    }
                    let this_v = self.x.get(i, f);
                    let next_v = self.x.get(order[pos + 1], f);
                    if this_v == next_v {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let score = (left_sq - left_sum * left_sum / left_n as f64)
                        + (right_sq - right_sum * right_sum / right_n as f64);
                    if score + 1e-12 < best.map_or(parent_score, |b| b.2) {
                        best = Some((f, 0.5 * (this_v + next_v), score));
                    }
                }
            }
            best.map(|(f, threshold, _)| (f, threshold))
        }
    }

    /// Nodes as bit patterns, so `-0.0` vs `0.0` or a last-ulp drift in a
    /// leaf mean counts as a difference.
    fn node_bits(nodes: &[Node]) -> Vec<(usize, u64, u64, u32, u32)> {
        nodes
            .iter()
            .map(|n| {
                (
                    n.feature,
                    n.threshold.to_bits(),
                    n.value.to_bits(),
                    n.left,
                    n.right,
                )
            })
            .collect()
    }

    /// A random oracle case: a small matrix whose columns take few
    /// distinct values (so ties are common), continuous targets (so a
    /// changed summation order shows in the bits), a training multiset,
    /// and a tree config.
    struct OracleCase {
        x: FeatureMatrix,
        y: Vec<f64>,
        indices: Vec<usize>,
        config: TreeConfig,
    }

    impl OracleCase {
        fn draw(seed: u64, resample: bool) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_rows = rng.random_range(2..40usize);
            let n_features = rng.random_range(1..6usize);
            let levels = rng.random_range(2..8u32);
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|_| {
                    (0..n_features)
                        .map(|_| rng.random_range(0..levels) as f64 * 0.5)
                        .collect()
                })
                .collect();
            let y = (0..n_rows).map(|_| rng.random_range(-3.0..6.0)).collect();
            let indices: Vec<usize> = if resample {
                // `BootstrapScheme::Resample`: n draws in draw order.
                (0..n_rows).map(|_| rng.random_range(0..n_rows)).collect()
            } else {
                // Hashed-bootstrap shape: ascending, multiplicity 0..=4.
                let mut idx: Vec<usize> = (0..n_rows)
                    .flat_map(|i| std::iter::repeat_n(i, rng.random_range(0..5usize)))
                    .collect();
                if idx.is_empty() {
                    idx.push(rng.random_range(0..n_rows));
                }
                idx
            };
            let config = TreeConfig {
                max_depth: rng.random_range(1..16usize),
                min_samples_leaf: rng.random_range(1..4usize),
                min_samples_split: rng.random_range(2..5usize),
                max_features: match rng.random_range(0..2u32) {
                    0 => None,
                    _ => Some(rng.random_range(1..n_features + 1)),
                },
            };
            OracleCase {
                x: FeatureMatrix::from_rows(&rows),
                y,
                indices,
                config,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn presorted_build_matches_per_node_sort_oracle(
            seed in 0u64..u64::MAX,
            resample in 0u32..2,
        ) {
            let c = OracleCase::draw(seed, resample == 1);
            let tree_seed = seed.rotate_left(17);
            let fast = DecisionTree::fit_seeded(&c.config, &c.x, &c.y, &c.indices, tree_seed);
            let oracle = Reference::fit(&c.config, &c.x, &c.y, &c.indices, tree_seed);
            prop_assert_eq!(node_bits(&fast.nodes), node_bits(&oracle), "seed {}", seed);
        }

        #[test]
        fn path_refit_on_appended_presort_matches_oracle(
            seed in 0u64..u64::MAX,
            copies in 1usize..5,
        ) {
            let c = OracleCase::draw(seed, false);
            let tree_seed = seed.rotate_left(17);
            let old = DecisionTree::fit_seeded(&c.config, &c.x, &c.y, &c.indices, tree_seed);
            // Append a copy of a random existing row as a new last row, so
            // its values tie with rows already in every feature order.
            let mut rng = StdRng::seed_from_u64(!seed);
            let src = rng.random_range(0..c.x.len());
            let mut rows: Vec<Vec<f64>> = c.x.rows().map(<[f64]>::to_vec).collect();
            rows.push(rows[src].clone());
            let x = FeatureMatrix::from_rows(&rows);
            let mut y = c.y.clone();
            y.push(rng.random_range(-3.0..6.0));
            let new_sample = x.len() - 1;
            let rows32 = c.indices.iter().map(|&i| i as u32).collect();
            let mut presort = Presort::new(&x, rows32);
            presort.append(&x, new_sample, copies);

            let mut indices = c.indices.clone();
            indices.extend(std::iter::repeat_n(new_sample, copies));
            prop_assert_eq!(&presort, &Presort::new(&x, presort.rows().to_vec()));
            let (refit, _) =
                DecisionTree::grow(&c.config, &x, &y, presort, tree_seed, Some((&old, new_sample)));
            let oracle = Reference::fit(&c.config, &x, &y, &indices, tree_seed);
            prop_assert_eq!(node_bits(&refit.nodes), node_bits(&oracle), "seed {}", seed);
        }
    }

    proptest! {
        #[test]
        fn predictions_stay_within_target_range(
            ys in proptest::collection::vec(-1000.0f64..1000.0, 2..60),
        ) {
            let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64, (i * 7 % 13) as f64]).collect();
            let x = FeatureMatrix::from_rows(&rows);
            let t = fit(&x, &ys, &TreeConfig::default());
            let (lo, hi) = ys.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            for row in x.rows() {
                let p = t.predict(row);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
            }
        }

        #[test]
        fn full_depth_tree_interpolates_training_data(
            ys in proptest::collection::vec(-100.0f64..100.0, 2..40),
        ) {
            // Distinct feature values + unlimited depth => zero training error.
            let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let x = FeatureMatrix::from_rows(&rows);
            let t = fit(&x, &ys, &TreeConfig { max_depth: 64, ..TreeConfig::default() });
            for (i, row) in x.rows().enumerate() {
                prop_assert!((t.predict(row) - ys[i]).abs() < 1e-9);
            }
        }
    }
}
