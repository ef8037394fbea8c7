//! Flat structure-of-arrays forest inference (the PR 6 tentpole).
//!
//! [`crate::RandomForest`] stores each tree as a `Vec<Node>` of 40-byte
//! array-of-structs records walked with a data-dependent branch per
//! level: the traversal is one long dependent chain (load node → load
//! feature → compare → pick child), and the `<=` branch is
//! unpredictable by construction — splits are chosen to send about
//! half the rows each way. [`FlatForest`] re-lays the fitted forest
//! out for throughput:
//!
//! * **Packed node arena, children adjacent.** One contiguous arena of
//!   16-byte `{threshold, feature, left}` records (leaf values live in
//!   a parallel column, touched only at flush) plus per-tree root
//!   offsets — a traversal step touches a single cache line. Nodes are
//!   re-laid out in BFS order so each internal node's children occupy
//!   adjacent slots: the right child is always `left + 1`, and a step
//!   becomes the branchless
//!   `next = left + (row[feature] > threshold)`— a compare and an add,
//!   no branch to mispredict.
//! * **Self-looping leaves.** A leaf stores `left = self` and
//!   `threshold = +∞`, so the step function is idempotent at leaves
//!   (`row[f] > +∞` is false; the node steps to itself). Batch loops
//!   can therefore step several rows in lock-step without per-row
//!   "done" branches, checking for completion only every few steps.
//! * **Lane interleaving, tree-major blocks.** Batch evaluation walks
//!   one tree with `LANES` rows in flight: the rows' dependent
//!   chains are independent, so the out-of-order core overlaps their
//!   load-compare latencies instead of serializing one row's walk.
//!   Rows are processed in [`FLAT_BLOCK_ROWS`] chunks with the tree
//!   loop outermost, keeping one tree's columns hot while a block
//!   streams past.
//!
//! Bit-identity contract: for every tree `t` and row `r` of finite
//! (non-NaN) features — all candidate feature vectors are — the flat
//! traversal takes exactly the branch `row[feature] <= threshold`
//! takes (`lo + (x > t)` is its De Morgan complement on non-NaN
//! input), and thresholds and leaf values are copied verbatim, so
//! [`FlatForest::tree_predict`] returns exactly the `f64` that
//! [`crate::RandomForest::tree_predict`] returns. The fused variance
//! scan ([`FlatForest::variance_rows_into`]) then feeds the per-tree
//! predictions of each row, in tree order, through the *same*
//! [`jackknife_variance`] two-pass accumulation as the scalar
//! [`crate::forest_variance_at`] path — so flat variances are
//! bit-identical too, which the proptests below and the workspace
//! `flat_equivalence` suite enforce across seeds.

use crate::forest::RandomForest;
use crate::jackknife::jackknife_variance;
use crate::tree::LEAF;

/// Rows evaluated per cache block. 256 rows × 64 trees × 8 bytes keeps
/// the block's prediction matrix (~128 KiB) plus one tree's columns
/// comfortably inside L2 while amortizing the tree-major loop.
pub const FLAT_BLOCK_ROWS: usize = 256;

/// Rows stepped in lock-step through one tree. Eight independent
/// load-compare chains are enough to cover the ~15-cycle per-step
/// latency on current cores without spilling the cursor array.
const LANES: usize = 8;

/// Steps taken between completion checks in the lock-step walk. Leaves
/// self-loop, so overshooting is idempotent; checking every eight steps
/// trades a handful of wasted leaf-steps for branch-free inner code
/// (measured best among 2/4/8/16 at the bench shape — fully-grown CART
/// trees here have mean leaf depth ~16, so the overshoot stays small
/// relative to the walk).
const STEP_CHUNK: usize = 8;

/// Per-lane feature-buffer width in the batch stepper (a power of two
/// so feature indices can be masked instead of bounds-checked). Rows
/// wider than this fall back to the scalar walk; candidate feature
/// vectors are 5 wide.
const MAX_FEATS: usize = 8;

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
    /// [`RandomForest::tree_predict`] on the source forest.
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

    /// Per-tree predictions written into `out` (cleared first), in tree
    /// order — bit-identical to [`RandomForest::predict_per_tree`].
    pub fn predict_per_tree(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n_trees()).map(|t| self.tree_predict(t, row)));
    }

    /// Evaluate every tree at every row, writing the row-major
    /// `rows.len() × n_trees` prediction matrix into `out`
    /// (`out[r * n_trees + t]` = tree `t` at row `r`). The loops are
    /// cache-blocked tree-major: rows are processed in
    /// [`FLAT_BLOCK_ROWS`] chunks, and within a chunk the tree loop is
    /// outermost so one tree's SoA columns stay resident while the
    /// whole block streams past.
    pub fn predict_rows_into<R: AsRef<[f64]>>(&self, rows: &[R], out: &mut [f64]) {
        let t = self.n_trees();
        assert_eq!(out.len(), rows.len() * t, "output matrix shape mismatch");
        let mut fblock = [0.0f64; FLAT_BLOCK_ROWS * MAX_FEATS];
        for (block, out_block) in rows
            .chunks(FLAT_BLOCK_ROWS)
            .zip(out.chunks_mut(FLAT_BLOCK_ROWS * t))
        {
            pack_features(block, &mut fblock);
            for tree in 0..t {
                self.fill_tree_block(tree, block, &fblock, out_block, t);
            }
        }
    }

    /// Walk `block`'s rows through one tree with [`LANES`] rows in
    /// flight, writing each row's prediction at
    /// `out[row * stride + tree]`. Between chunks of [`STEP_CHUNK`]
    /// branchless steps, lanes whose row reached a leaf flush their
    /// result and *refill* with the next pending row — fully-grown
    /// CART trees have a wide leaf-depth spread, and refilling keeps
    /// every lane busy instead of idling the shallow rows until the
    /// deepest of the batch finishes. Leaves self-loop, so a lane
    /// overshoots by at most `STEP_CHUNK - 1` idempotent steps.
    ///
    /// `fblock` is the block's feature matrix as packed by
    /// [`pack_features`] — built once per block by the caller and
    /// shared across all trees, so no per-(row, tree) feature copies
    /// happen anywhere on the hot path.
    fn fill_tree_block<R: AsRef<[f64]>>(
        &self,
        tree: usize,
        block: &[R],
        fblock: &[f64; FLAT_BLOCK_ROWS * MAX_FEATS],
        out: &mut [f64],
        stride: usize,
    ) {
        let root = self.roots[tree] as usize;
        let m = block.len();
        let width = block.first().map_or(0, |r| r.as_ref().len());
        if m < LANES || width > MAX_FEATS {
            // Too few rows to fill the lanes (or rows too wide for the
            // packed feature matrix); the scalar walk is fine.
            for (i, row) in block.iter().enumerate() {
                out[i * stride + tree] = self.tree_predict(tree, row.as_ref());
            }
            return;
        }
        // All loops below have compile-time trip counts ([`LANES`],
        // [`STEP_CHUNK`]) so the stepper unrolls and the lane cursors
        // live in registers. A feature probe is one L1 load from the
        // shared block matrix at an index masked to its (power-of-two)
        // length — no slice pointer chase, no bounds check. A step
        // then costs one 16-byte [`PackedNode`] load, the feature
        // load, and a branchless compare-and-add. `fbase[l]` caches
        // `row_of[l] * MAX_FEATS` so the hot loop does no multiply.
        const FMASK: usize = FLAT_BLOCK_ROWS * MAX_FEATS - 1;
        let nodes = self.nodes.as_slice();
        let mut cur = [root; LANES];
        let mut row_of = [0usize; LANES];
        let mut fbase = [0usize; LANES];
        let mut parked = [false; LANES];
        for l in 0..LANES {
            row_of[l] = l;
            fbase[l] = l * MAX_FEATS;
        }
        let mut next_row = LANES;
        let mut done = 0;
        while done < m {
            for _ in 0..STEP_CHUNK {
                for l in 0..LANES {
                    // SAFETY: every cursor is either a root (pushed by
                    // `from_forest` for each tree) or a child index
                    // written by the flattener, and the flattener only
                    // writes absolute indices inside the arena — leaves
                    // point to themselves, internal nodes to slots it
                    // allocated. The feature index is masked to the
                    // block matrix length. The bit-identity proptests
                    // and the workspace `flat_equivalence` suite cover
                    // this path across seeds.
                    let n = unsafe { nodes.get_unchecked(cur[l]) };
                    // The child address depends only on the node load —
                    // not on the feature compare — so its cache line can
                    // be requested ~a compare-latency early. That hides
                    // part of the L2 hit on the cold leaf fringe (the
                    // per-tree subarena is evicted from L1 between row
                    // blocks). Siblings are adjacent, so one prefetch
                    // covers both children 3 times out of 4.
                    #[cfg(target_arch = "x86_64")]
                    unsafe {
                        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                        _mm_prefetch(
                            nodes.as_ptr().add(n.left as usize) as *const i8,
                            _MM_HINT_T0,
                        );
                    }
                    let x = fblock[(fbase[l] + (n.feature as usize & (MAX_FEATS - 1))) & FMASK];
                    cur[l] = n.left as usize + (x > n.threshold) as usize;
                }
            }
            for l in 0..LANES {
                // The flush branch mispredicts when a lane's row
                // arrives at its leaf, roughly once per (row, tree) —
                // but a branchless variant measured *slower*: flushing
                // unconditionally loads `value[cur[l]]` every check,
                // tripling the random traffic into the (deliberately
                // cold) value column.
                //
                // SAFETY: same cursor invariant as the stepper above
                // (`cur[l]` is always a valid arena index, and `value`
                // has one slot per node); the output index is
                // `row_of[l] * stride + tree` with `row_of[l] < m` and
                // `tree < stride`, which is inside `out`'s
                // `m * stride` slice by the caller's shape assert.
                let at_leaf = unsafe { nodes.get_unchecked(cur[l]).left as usize == cur[l] };
                if !parked[l] && at_leaf {
                    unsafe {
                        *out.get_unchecked_mut(row_of[l] * stride + tree) =
                            *self.value.get_unchecked(cur[l]);
                    }
                    done += 1;
                    if next_row < m {
                        row_of[l] = next_row;
                        fbase[l] = next_row * MAX_FEATS;
                        next_row += 1;
                        cur[l] = root;
                    } else {
                        // Out of rows: park the lane on its leaf (the
                        // step is idempotent there) until all finish.
                        parked[l] = true;
                    }
                }
            }
        }
    }

    /// Fused jackknife variance scan: one variance per row, written
    /// into `out`, without materializing a per-tree prediction vector
    /// per candidate. Per-tree predictions live only in a single
    /// block-scoped scratch matrix reused across blocks; each row's
    /// slice of that matrix is fed, in tree order, through the exact
    /// [`jackknife_variance`] two-pass accumulation the scalar
    /// [`crate::forest_variance_at`] path uses — so results are
    /// bit-identical to the pointer-chasing path.
    pub fn variance_rows_into<R: AsRef<[f64]>>(&self, rows: &[R], out: &mut [f64]) {
        let t = self.n_trees();
        assert_eq!(out.len(), rows.len(), "one variance per row");
        let mut scratch = vec![0.0f64; rows.len().min(FLAT_BLOCK_ROWS) * t];
        let mut fblock = [0.0f64; FLAT_BLOCK_ROWS * MAX_FEATS];
        for (block, out_block) in rows
            .chunks(FLAT_BLOCK_ROWS)
            .zip(out.chunks_mut(FLAT_BLOCK_ROWS))
        {
            pack_features(block, &mut fblock);
            let buf = &mut scratch[..block.len() * t];
            for tree in 0..t {
                self.fill_tree_block(tree, block, &fblock, buf, t);
            }
            for (i, v) in out_block.iter_mut().enumerate() {
                *v = jackknife_variance(&buf[i * t..(i + 1) * t]);
            }
        }
    }
}

/// Pack one row block's features into the shared row-major matrix the
/// lane stepper probes: row `i`'s features start at `i * MAX_FEATS`.
/// Copied once per block and reused by every tree — previously each
/// (row, tree) lane refill re-copied the row, which at the ablation
/// shape (1944 rows × 64 trees) moved ~5 MB of features per scan.
/// Rows wider than [`MAX_FEATS`] are left unpacked; those blocks take
/// the scalar fallback and never read the matrix.
fn pack_features<R: AsRef<[f64]>>(block: &[R], fblock: &mut [f64; FLAT_BLOCK_ROWS * MAX_FEATS]) {
    let width = block.first().map_or(0, |r| r.as_ref().len());
    if width > MAX_FEATS {
        return;
    }
    for (i, row) in block.iter().enumerate() {
        fblock[i * MAX_FEATS..i * MAX_FEATS + width].copy_from_slice(row.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMatrix;
    use crate::forest::ForestConfig;
    use crate::jackknife::forest_variance_at;
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
            let mut scratch = Vec::new();
            let mut flat_scratch = Vec::new();
            for r in 0..x.len() {
                let row = x.row(r);
                assert_eq!(f.predict(row).to_bits(), flat.predict(row).to_bits());
                for t in 0..f.n_trees() {
                    assert_eq!(
                        f.tree_predict(t, row).to_bits(),
                        flat.tree_predict(t, row).to_bits()
                    );
                }
                f.predict_per_tree(row, &mut scratch);
                flat.predict_per_tree(row, &mut flat_scratch);
                assert_eq!(scratch, flat_scratch);
            }
        }
    }

    #[test]
    fn fused_variance_matches_scalar_path_bitwise() {
        for seed in 0..5u64 {
            let (f, x) = forest(seed, 300, 24);
            let flat = FlatForest::from_forest(&f);
            let rows: Vec<Vec<f64>> = (0..x.len()).map(|r| x.row(r).to_vec()).collect();
            let mut fused = vec![0.0; rows.len()];
            flat.variance_rows_into(&rows, &mut fused);
            let mut scratch = Vec::new();
            for (r, row) in rows.iter().enumerate() {
                let scalar = forest_variance_at(&f, row, &mut scratch);
                assert_eq!(
                    scalar.to_bits(),
                    fused[r].to_bits(),
                    "variance diverged at row {r} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn batch_fill_matches_per_tree_predictions() {
        // More rows than one block, to exercise the chunking seams.
        let (f, x) = forest(7, 600, 8);
        let flat = FlatForest::from_forest(&f);
        let rows: Vec<Vec<f64>> = (0..x.len()).map(|r| x.row(r).to_vec()).collect();
        let t = f.n_trees();
        let mut out = vec![0.0; rows.len() * t];
        flat.predict_rows_into(&rows, &mut out);
        for (r, row) in rows.iter().enumerate() {
            for tree in 0..t {
                assert_eq!(
                    out[r * t + tree].to_bits(),
                    f.tree_predict(tree, row).to_bits()
                );
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
            let mut vars = vec![0.0; rows.len()];
            flat.variance_rows_into(&rows, &mut vars);
            let mut scratch = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(f.predict(row).to_bits(), flat.predict(row).to_bits());
                let scalar = forest_variance_at(&f, row, &mut scratch);
                prop_assert_eq!(scalar.to_bits(), vars[i].to_bits());
            }
        }
    }
}
