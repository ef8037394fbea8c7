//! The candidate lattice the cached variance scan paints.
//!
//! Candidates form a grid: algorithm × ppn × nodes × msg. The model's
//! features are `log2 msg`, `log2 nodes`, `log2 ppn`, `log2 ranks` and
//! the algorithm index, so every leaf of a tree is an axis-aligned box,
//! and for a fixed ppn `log2 ranks` rises with nodes. The cells a leaf
//! covers are therefore, for each (algorithm, ppn), one contiguous run
//! of nodes × a contiguous msg run. [`Lattice::paint`] descends a tree
//! once, narrowing per-axis index ranges at each split, and writes each
//! reached leaf's value into its runs — no cell is walked from the root.
//! A cell holds a copied leaf value, so a painted column equals
//! per-cell [`acclaim_ml::DecisionTree::predict`] bit for bit.

use crate::selection::Candidate;
use acclaim_dataset::Point;
use acclaim_ml::{DecisionTree, DirtyRegion};

/// Axis slot of each feature index; `RANKS` marks the derived feature.
const RANKS: usize = usize::MAX;
const AXIS_OF_FEATURE: [usize; 5] = [MSG, NODES, PPN, RANKS, ALG];
const MSG: usize = 0;
const NODES: usize = 1;
const PPN: usize = 2;
const ALG: usize = 3;

/// The sorted unique feature values of a candidate set, per axis, and
/// the cell of each (algorithm, ppn, nodes, msg) combination.
#[derive(Debug, Clone)]
pub(crate) struct Lattice {
    /// Feature values per axis (msg, nodes, ppn, algorithm), ascending.
    axes: [Vec<f64>; 4],
    /// `log2 ranks` of each (ppn, nodes) pair, ppn-major; ascending in
    /// nodes for every ppn.
    ranks: Vec<f64>,
}

/// A descent state: a half-open index range per axis and the
/// `(lo, hi]` interval the splits so far allow on `log2 ranks`.
#[derive(Debug, Clone, Copy)]
struct Region {
    range: [(usize, usize); 4],
    ranks: (f64, f64),
}

impl Lattice {
    /// The lattice spanned by `candidates`, and each candidate's cell.
    pub(crate) fn new(candidates: &[Candidate]) -> (Lattice, Vec<u32>) {
        fn index<T: Ord>(axis: &[T], x: T) -> usize {
            axis.binary_search(&x).expect("value on its axis")
        }
        fn unique<T: Ord + Copy>(it: impl Iterator<Item = T>) -> Vec<T> {
            let mut v: Vec<T> = it.collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        let msg = unique(candidates.iter().map(|c| c.point.msg_bytes));
        let nodes = unique(candidates.iter().map(|c| c.point.nodes));
        let ppn = unique(candidates.iter().map(|c| c.point.ppn));
        let alg = unique(
            candidates
                .iter()
                .map(|c| c.algorithm.index_within_collective()),
        );
        // Every value goes through `Point::features_with_algorithm`, so a
        // cell's features are exactly the candidate's.
        let feature = |n: u32, p: u32, m: u64, a: usize, f: usize| {
            Point::new(n, p, m).features_with_algorithm(a)[f]
        };
        let lattice = Lattice {
            axes: [
                msg.iter().map(|&m| feature(1, 1, m, 0, 0)).collect(),
                nodes.iter().map(|&n| feature(n, 1, 1, 0, 1)).collect(),
                ppn.iter().map(|&p| feature(1, p, 1, 0, 2)).collect(),
                alg.iter().map(|&a| feature(1, 1, 1, a, 4)).collect(),
            ],
            ranks: ppn
                .iter()
                .flat_map(|&p| nodes.iter().map(move |&n| feature(n, p, 1, 0, 3)))
                .collect(),
        };
        assert!(
            lattice.len() < u32::MAX as usize,
            "candidate lattice too large"
        );
        debug_assert!(lattice.axes.iter().all(|v| v.is_sorted()));
        debug_assert!(lattice
            .ranks
            .chunks(nodes.len().max(1))
            .all(|r| r.is_sorted()));
        let cells = candidates
            .iter()
            .map(|c| {
                let cell = lattice.cell(
                    index(&alg, c.algorithm.index_within_collective()),
                    index(&ppn, c.point.ppn),
                    index(&nodes, c.point.nodes),
                ) * msg.len()
                    + index(&msg, c.point.msg_bytes);
                cell as u32
            })
            .collect();
        (lattice, cells)
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }

    /// Index of the msg run of (algorithm, ppn, nodes); cell `i` of the
    /// run is at `run * msg_len + i`.
    fn cell(&self, alg: usize, ppn: usize, nodes: usize) -> usize {
        (alg * self.axes[PPN].len() + ppn) * self.axes[NODES].len() + nodes
    }

    /// Write `tree`'s prediction into every cell of `column` whose box
    /// meets `dirty` (every cell when `None`), returning the number of
    /// cells written. Whole reached leaves are painted, which may write
    /// cells outside `dirty` — with the value they already hold.
    pub(crate) fn paint(
        &self,
        tree: &DecisionTree,
        dirty: Option<&[&DirtyRegion]>,
        column: &mut [f64],
    ) -> usize {
        debug_assert_eq!(column.len(), self.len());
        let root = Region {
            range: self.axes.each_ref().map(|v| (0, v.len())),
            ranks: (f64::NEG_INFINITY, f64::INFINITY),
        };
        let live = |r: &Region| {
            self.spans_ranks(r) && dirty.is_none_or(|d| d.iter().any(|d| self.meets(r, d)))
        };
        if !live(&root) {
            return 0;
        }
        let mut painted = 0;
        tree.descend(
            root,
            |r, feature, threshold| {
                let (mut left, mut right) = (*r, *r);
                match AXIS_OF_FEATURE[feature] {
                    RANKS => {
                        left.ranks.1 = r.ranks.1.min(threshold);
                        right.ranks.0 = r.ranks.0.max(threshold);
                    }
                    axis => {
                        let (lo, hi) = r.range[axis];
                        let k = lo + self.axes[axis][lo..hi].partition_point(|&v| v <= threshold);
                        left.range[axis].1 = k;
                        right.range[axis].0 = k;
                    }
                }
                (Some(left).filter(live), Some(right).filter(live))
            },
            |r, value| painted += self.fill(&r, value, column),
        );
        painted
    }

    /// Whether some (ppn, nodes) pair of `r` can lie in its ranks
    /// interval, judged from the extreme pairs (`log2 ranks` rises with
    /// both). Also false when an axis range is empty.
    fn spans_ranks(&self, r: &Region) -> bool {
        let [_, (n0, n1), (p0, p1), _] = r.range;
        if r.range.iter().any(|&(lo, hi)| lo >= hi) || r.ranks.0 >= r.ranks.1 {
            return false;
        }
        let n = self.axes[NODES].len();
        self.ranks[(p1 - 1) * n + n1 - 1] > r.ranks.0 && self.ranks[p0 * n + n0] <= r.ranks.1
    }

    /// Whether `r` may meet one of `dirty`'s boxes (conservative: judged
    /// per axis from the end values of each range).
    fn meets(&self, r: &Region, dirty: &DirtyRegion) -> bool {
        dirty.boxes().any(|conds| {
            conds
                .iter()
                .all(|&(feature, lo, hi)| match AXIS_OF_FEATURE[feature] {
                    RANKS => r.ranks.0.max(lo) < r.ranks.1.min(hi),
                    axis => {
                        let (a, b) = r.range[axis];
                        self.axes[axis][b - 1] > lo && self.axes[axis][a] <= hi
                    }
                })
        })
    }

    /// Write `value` into every cell of leaf region `r`.
    fn fill(&self, r: &Region, value: f64, column: &mut [f64]) -> usize {
        let [(m0, m1), (n0, n1), (p0, p1), (a0, a1)] = r.range;
        let (n_len, m_len) = (self.axes[NODES].len(), self.axes[MSG].len());
        let mut painted = 0;
        for p in p0..p1 {
            // The nodes whose `log2 ranks` lies in the leaf's interval.
            let ranks = &self.ranks[p * n_len + n0..p * n_len + n1];
            let s = n0 + ranks.partition_point(|&x| x <= r.ranks.0);
            let e = n0 + ranks.partition_point(|&x| x <= r.ranks.1);
            if s >= e {
                continue;
            }
            painted += (a1 - a0) * (e - s) * (m1 - m0);
            for a in a0..a1 {
                let run = self.cell(a, p, 0);
                if m1 - m0 == m_len {
                    column[(run + s) * m_len..(run + e) * m_len].fill(value);
                } else {
                    for n in s..e {
                        column[(run + n) * m_len + m0..(run + n) * m_len + m1].fill(value);
                    }
                }
            }
        }
        painted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PerfModel, TrainingSample};
    use acclaim_collectives::Collective;
    use acclaim_ml::ForestConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Axis values: nodes, ppn, msg.
    type Axes = (Vec<u32>, Vec<u32>, Vec<u64>);

    /// The lattice axes of a case (P2, or non-P2), and the wider axes
    /// training samples come from: a training axis that skips a lattice
    /// value puts a split midpoint exactly on it.
    fn axes(case: usize) -> (Axes, Axes) {
        let p2 = |lo, hi| (lo..=hi).map(|e| 1u32 << e).collect::<Vec<_>>();
        let msg = |lo, hi| (lo..=hi).map(|e| 1u64 << e).collect::<Vec<_>>();
        match case {
            0 => (
                (p2(1, 4), p2(0, 2), msg(3, 10)),
                (p2(0, 5), p2(0, 3), msg(2, 11)),
            ),
            _ => (
                (vec![3, 5, 6], vec![1, 3], vec![7, 100, 1000, 4096, 5000]),
                (
                    vec![2, 3, 4, 5, 6, 7],
                    vec![1, 2, 3, 4],
                    vec![4, 7, 100, 2048, 5000, 8192],
                ),
            ),
        }
    }

    /// Every Bcast candidate of `axes`, in lattice cell order.
    fn grid((nodes, ppn, msg): &Axes) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &algorithm in Collective::Bcast.algorithms() {
            for &p in ppn {
                for &n in nodes {
                    for &m in msg {
                        let point = Point::new(n, p, m);
                        out.push(Candidate { point, algorithm });
                    }
                }
            }
        }
        out
    }

    /// A case's candidates, about a fifth dropped so that some lattice
    /// cells have none, and `n` random samples from its training axes.
    fn setup(case: usize, seed: u64, n: usize) -> (Vec<Candidate>, Vec<TrainingSample>) {
        let (lattice, train) = axes(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut candidates = grid(&lattice);
        candidates.retain(|_| rng.random_range(0..5) != 0);
        let train = grid(&train);
        let samples = (0..n)
            .map(|_| {
                let c = train[rng.random_range(0..train.len())];
                let time_us = rng.random_range(1.0..1e4);
                TrainingSample {
                    point: c.point,
                    algorithm: c.algorithm,
                    time_us,
                }
            })
            .collect();
        (candidates, samples)
    }

    fn forest(n_trees: usize, seed: u64) -> ForestConfig {
        ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::for_n_features(5)
        }
    }

    /// Paint every tree of `model` whole into a tree-major matrix.
    fn paint_all(lattice: &Lattice, model: &PerfModel) -> Vec<f64> {
        let len = lattice.len();
        let mut m = vec![f64::NAN; len * model.n_trees()];
        for (t, column) in m.chunks_mut(len).enumerate() {
            assert_eq!(lattice.paint(model.forest().tree(t), None, column), len);
        }
        m
    }

    /// Assert that painted columns equal per-cell `DecisionTree::predict`
    /// bit for bit on every lattice cell, with or without a candidate,
    /// and that candidates map to their cells. Returns how many split
    /// thresholds sit exactly on a lattice value.
    fn check_painted_cells(case: usize, seed: u64, n: usize) -> usize {
        let (candidates, samples) = setup(case, seed, n);
        let model = PerfModel::fit(Collective::Bcast, &samples, &forest(8, seed));
        let (lattice, cells) = Lattice::new(&candidates);
        let full = grid(&axes(case).0);
        assert_eq!(full.len(), lattice.len());
        for (c, &cell) in candidates.iter().zip(&cells) {
            assert_eq!(
                full[cell as usize], *c,
                "candidate mapped to the wrong cell"
            );
        }
        let mut on_axis = 0;
        for (t, column) in paint_all(&lattice, &model)
            .chunks(lattice.len())
            .enumerate()
        {
            let tree = model.forest().tree(t);
            for (c, painted) in full.iter().zip(column) {
                let row = model.candidate_features(c.point, c.algorithm);
                assert_eq!(painted.to_bits(), tree.predict(&row).to_bits());
            }
            let on_lattice = |feature: usize, threshold: f64| match AXIS_OF_FEATURE[feature] {
                RANKS => lattice.ranks.contains(&threshold),
                axis => lattice.axes[axis].contains(&threshold),
            };
            tree.descend(
                (),
                |_, f, th| {
                    on_axis += usize::from(on_lattice(f, th));
                    (Some(()), Some(()))
                },
                |_, _| {},
            );
        }
        on_axis
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn painted_column_equals_per_cell_predict(
            case in 0usize..2,
            seed in 0u64..10_000,
            n in 2usize..60,
        ) {
            check_painted_cells(case, seed, n);
        }

        /// After `refit_incremental`, repainting only the refitted
        /// trees, pruned to their dirty regions, gives the matrix a
        /// whole repaint of the refitted model gives.
        #[test]
        fn pruned_repaint_equals_full_repaint(
            case in 0usize..2,
            seed in 0u64..10_000,
            n0 in 4usize..40,
            appends in 1usize..4,
        ) {
            let (candidates, samples) = setup(case, seed, n0 + 3 * appends);
            let cfg = forest(16, seed);
            let (lattice, _) = Lattice::new(&candidates);
            let len = lattice.len();
            let mut model = PerfModel::fit(Collective::Bcast, &samples[..n0], &cfg);
            let mut matrix = paint_all(&lattice, &model);
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for step in 1..=appends {
                for u in model.fit_incremental(&samples[..n0 + 3 * step], &cfg) {
                    let column = &mut matrix[u.tree * len..(u.tree + 1) * len];
                    lattice.paint(model.forest().tree(u.tree), Some(&[&u.dirty]), column);
                }
                prop_assert_eq!(bits(&matrix), bits(&paint_all(&lattice, &model)));
            }
            // An empty region prunes the root: nothing is written.
            let none = [&DirtyRegion::none()];
            let painted = lattice.paint(model.forest().tree(0), Some(&none), &mut matrix[..len]);
            prop_assert_eq!(painted, 0);
        }
    }

    #[test]
    fn thresholds_on_lattice_values_are_painted_exactly() {
        for case in 0..2 {
            let on_axis: usize = (0..8).map(|seed| check_painted_cells(case, seed, 40)).sum();
            assert!(on_axis > 0, "case {case}: no threshold on a lattice value");
        }
    }
}
