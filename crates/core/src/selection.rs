//! Training-point selection (paper Sec. IV-A and IV-B).
//!
//! ACCLAiM ranks every uncollected candidate (point × algorithm) by the
//! jackknife variance of its own random forest and benchmarks the
//! highest-variance one next — "filling gaps in its understanding". To
//! bound the number of variance evaluations, only P2 grid points are
//! ranked (Sec. IV-A); non-P2 coverage instead comes from the *every
//! fifth point* substitution of Sec. IV-B, which swaps the winning
//! candidate's message size for a random non-P2 size whose closest P2
//! value is the original.

use crate::lattice::Lattice;
use crate::model::PerfModel;
use acclaim_collectives::{Algorithm, Collective};
use acclaim_dataset::{FeatureSpace, Point};
use acclaim_ml::{DirtyRegion, TreeUpdate};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One selectable training candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Candidate {
    /// The feature-space point.
    pub point: Point,
    /// The algorithm to benchmark at the point.
    pub algorithm: Algorithm,
}

/// All candidates of a collective over a P2 grid.
pub fn all_candidates(collective: Collective, space: &FeatureSpace) -> Vec<Candidate> {
    let pts = space.points();
    collective
        .algorithms()
        .iter()
        .flat_map(|&algorithm| pts.iter().map(move |&point| Candidate { point, algorithm }))
        .collect()
}

/// Candidates ranked by model variance, descending, plus the cumulative
/// variance used as ACCLAiM's convergence signal (Sec. IV-C).
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRanking {
    /// `(candidate, jackknife variance)`, highest variance first.
    pub ranked: Vec<(Candidate, f64)>,
    /// Sum of variance over every candidate.
    pub cumulative: f64,
}

impl VarianceRanking {
    /// The highest-variance candidate, if any remain.
    pub fn top(&self) -> Option<Candidate> {
        self.ranked.first().map(|&(c, _)| c)
    }

    /// Sort `(candidate, variance)` pairs into ranking order —
    /// variance descending, then candidate — and sum the variances in
    /// that order. The comparator totally orders distinct candidates,
    /// so an unstable sort gives the one deterministic order.
    fn sorted(mut ranked: Vec<(Candidate, f64)>) -> Self {
        ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let cumulative = ranked.iter().map(|&(_, v)| v).sum();
        VarianceRanking { ranked, cumulative }
    }
}

/// Rank `candidates` by the model's jackknife variance.
pub fn rank_by_variance(model: &PerfModel, candidates: &[Candidate]) -> VarianceRanking {
    let mut scratch = Vec::new();
    let ranked = candidates
        .iter()
        .map(|&c| (c, model.variance(c.point, c.algorithm, &mut scratch)))
        .collect();
    VarianceRanking::sorted(ranked)
}

/// Lattice cells per item of [`VarianceScanCache::cell_variances`]'s
/// map: 4 KiB of each tree's column.
const VARIANCE_RUN: usize = 512;

/// A cached candidate-space variance scan — the incremental counterpart
/// of [`rank_by_variance`].
///
/// Holds the per-tree log-space prediction of every cell of the
/// candidates' lattice (algorithm × ppn × nodes × msg), one contiguous
/// column per tree. A refresh repaints the columns of the refitted
/// trees by descending each tree once and writing every reached leaf's
/// value into the cells its box covers, pruning subtrees outside the
/// tree's dirty region. The jackknife variances (and their cumulative
/// sum, ACCLAiM's convergence signal) are then recomputed from the
/// matrix. A cell holds a copied leaf value, so a cached ranking equals
/// the cold [`rank_by_variance`] scan exactly — same variances, same
/// order, same cumulative sum.
#[derive(Debug, Clone)]
pub struct VarianceScanCache {
    candidates: Vec<Candidate>,
    /// The lattice cell of each candidate, in row order.
    cells: Vec<u32>,
    lattice: Lattice,
    /// Tree-major predictions: tree `t`'s column is
    /// `preds[t * lattice.len()..(t + 1) * lattice.len()]`.
    preds: Vec<f64>,
    n_trees: usize,
    filled: bool,
}

impl VarianceScanCache {
    /// An empty cache over `candidates`; call
    /// [`VarianceScanCache::refresh`] before ranking.
    pub fn new(candidates: Vec<Candidate>) -> Self {
        let (lattice, cells) = Lattice::new(&candidates);
        VarianceScanCache {
            candidates,
            cells,
            lattice,
            preds: Vec::new(),
            n_trees: 0,
            filled: false,
        }
    }

    /// Ignored: the scan has one engine, the lattice painter. Kept so
    /// callers that selected the retired flat engine still compile.
    pub fn with_flat(self, _flat: bool) -> Self {
        self
    }

    /// The candidates currently cached, in row order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Drop candidates that fail `keep`, preserving the order of the
    /// survivors (mirrors `Vec::retain` on the candidate list). Their
    /// lattice cells stay painted but are no longer ranked.
    pub fn retain(&mut self, mut keep: impl FnMut(&Candidate) -> bool) {
        let mut w = 0;
        for r in 0..self.candidates.len() {
            if keep(&self.candidates[r]) {
                self.candidates[w] = self.candidates[r];
                self.cells[w] = self.cells[r];
                w += 1;
            }
        }
        self.candidates.truncate(w);
        self.cells.truncate(w);
    }

    /// Bring the matrix up to date after a model (re)fit. `changed`
    /// lists the trees refitted since the previous refresh (what
    /// [`crate::model::PerfModel::fit_incremental`] returns), each with
    /// the feature-space region its predictions may have moved in. Only
    /// those columns are repainted, and within a column
    /// only the leaves whose boxes meet the tree's dirty region — a cell
    /// outside it kept that tree's prediction bit-for-bit. The first
    /// refresh — or any refresh where the tree count moved or every
    /// tree changed everywhere — repaints every column whole.
    ///
    /// Returns how many lattice cells were painted; the result feeds
    /// observability only and never decisions.
    pub fn refresh(&mut self, model: &PerfModel, changed: &[TreeUpdate]) -> RefreshStats {
        let (t, cells) = (model.n_trees(), self.lattice.len());
        let refill = !self.filled || t != self.n_trees;
        if refill {
            self.preds = vec![0.0; cells * t];
        }
        let full = refill || (changed.len() >= t && changed.iter().all(|u| u.dirty.is_whole()));
        self.n_trees = t;
        self.filled = true;
        let cells_total = cells * t;
        if cells_total == 0 || (!full && changed.is_empty()) {
            return RefreshStats {
                cells_total,
                cells_recomputed: 0,
                full,
            };
        }
        // One map over the columns to repaint, on the worker pool. The
        // caller paints too, so a parked helper costs only its wake-up.
        let columns: Vec<(usize, &mut [f64])> = self
            .preds
            .chunks_mut(cells)
            .enumerate()
            .filter(|(tree, _)| full || changed.iter().any(|u| u.tree == *tree))
            .collect();
        let lattice = &self.lattice;
        let painted: Vec<usize> = columns
            .into_par_iter()
            .map(|(tree, column)| {
                let dirty: Vec<&DirtyRegion> = changed
                    .iter()
                    .filter(|u| u.tree == tree)
                    .map(|u| &u.dirty)
                    .collect();
                let dirty = (!full).then_some(&dirty[..]);
                lattice.paint(model.forest().tree(tree), dirty, column)
            })
            .collect();
        let painted = painted.into_iter().sum();
        RefreshStats {
            cells_total,
            cells_recomputed: painted,
            full,
        }
    }

    /// Rank the cached candidates by jackknife variance — bit-identical
    /// to [`rank_by_variance`] over the same candidates and model.
    pub fn ranking(&self) -> VarianceRanking {
        assert!(
            self.filled || self.candidates.is_empty(),
            "refresh the cache before ranking"
        );
        let variance = self.cell_variances();
        let ranked = self
            .candidates
            .iter()
            .zip(&self.cells)
            .map(|(&c, &cell)| (c, variance[cell as usize]))
            .collect();
        VarianceRanking::sorted(ranked)
    }

    /// [`acclaim_ml::jackknife_variance`] of every lattice cell,
    /// accumulated column by column over disjoint runs of
    /// [`VARIANCE_RUN`] cells, one run per item of a map on the worker
    /// pool. Each cell sees the same two passes in tree order `0..T`
    /// from the same `-0.0` start that `Iterator::sum` uses, so its
    /// variance is bit-identical to `jackknife_variance` of its row,
    /// however the runs are split.
    fn cell_variances(&self) -> Vec<f64> {
        let (cells, n) = (self.lattice.len(), self.n_trees as f64);
        if self.n_trees < 2 || cells == 0 {
            return vec![0.0; cells];
        }
        let runs: Vec<usize> = (0..cells).step_by(VARIANCE_RUN).collect();
        let runs: Vec<Vec<f64>> = runs
            .into_par_iter()
            .map(|lo| {
                let run = lo..(lo + VARIANCE_RUN).min(cells);
                let columns = || self.preds.chunks_exact(cells).map(|c| &c[run.clone()]);
                let mut mean = vec![-0.0; run.len()];
                for column in columns() {
                    mean.iter_mut().zip(column).for_each(|(s, &p)| *s += p);
                }
                mean.iter_mut().for_each(|s| *s /= n);
                let mut variance = vec![-0.0; run.len()];
                for column in columns() {
                    for ((s, &p), &m) in variance.iter_mut().zip(column).zip(&mean) {
                        let d = (p - m) / (n - 1.0);
                        *s += d * d;
                    }
                }
                variance.iter_mut().for_each(|s| *s /= n - 1.0);
                variance
            })
            .collect();
        runs.concat()
    }
}

/// What one [`VarianceScanCache::refresh`] actually did — the
/// DirtyRegion bookkeeping's measurable payoff. Purely observational:
/// the cached predictions are identical whether or not anyone looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Matrix size at refresh time (lattice cells × trees).
    pub cells_total: usize,
    /// Cells painted (equals `cells_total` on a full fill).
    pub cells_recomputed: usize,
    /// Whether the whole matrix was (re)filled.
    pub full: bool,
}

impl RefreshStats {
    /// Cells the dirty-region tracking skipped.
    pub fn cells_reused(&self) -> usize {
        self.cells_total - self.cells_recomputed
    }
}

/// A random non-P2 message size whose closest P2 value is `msg`
/// (the paper's example: for 8, a size in (6, 12) that is not 8).
///
/// Returns `None` when the window holds no non-P2 value (msg < 4).
pub fn nonp2_message_near<R: Rng + ?Sized>(msg: u64, rng: &mut R) -> Option<u64> {
    debug_assert!(msg.is_power_of_two(), "anchor must be a P2 grid size");
    let lo = msg - msg / 4; // 3m/4
    let hi = msg + msg / 2; // 3m/2
    if hi <= lo + 1 {
        return None;
    }
    for _ in 0..64 {
        let v = rng.random_range(lo + 1..hi);
        if !v.is_power_of_two() {
            return Some(v);
        }
    }
    None
}

/// Applies the every-N-th non-P2 substitution across the training run.
#[derive(Debug, Clone)]
pub struct NonP2Injector {
    every: usize,
    selected: usize,
}

impl NonP2Injector {
    /// Substitute every `every`-th selected point (the paper uses 5,
    /// yielding the 80-20 split of Sec. VI-B).
    pub fn new(every: usize) -> Self {
        assert!(every >= 1);
        NonP2Injector { every, selected: 0 }
    }

    /// Account one selection; on every `every`-th call, swap the
    /// candidate's message size for a non-P2 neighbor.
    pub fn apply<R: Rng + ?Sized>(&mut self, candidate: Candidate, rng: &mut R) -> Candidate {
        self.selected += 1;
        if !self.selected.is_multiple_of(self.every) {
            return candidate;
        }
        match nonp2_message_near(candidate.point.msg_bytes, rng) {
            Some(m) => Candidate {
                point: Point::new(candidate.point.nodes, candidate.point.ppn, m),
                algorithm: candidate.algorithm,
            },
            None => candidate,
        }
    }

    /// Number of selections seen so far.
    pub fn selections(&self) -> usize {
        self.selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainingSample;
    use acclaim_dataset::{BenchmarkDatabase, DatasetConfig};
    use acclaim_ml::ForestConfig;
    use rand::{rngs::StdRng, SeedableRng};

    /// Binomial-bcast samples at the first `n` points of the tiny grid.
    fn binomial_samples(n: usize) -> Vec<TrainingSample> {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let a = Algorithm::BcastBinomial;
        let points = FeatureSpace::tiny().points().into_iter().take(n);
        points
            .map(|point| TrainingSample {
                point,
                algorithm: a,
                time_us: db.time(a, point),
            })
            .collect()
    }

    #[test]
    fn all_candidates_covers_the_grid_times_algorithms() {
        let space = FeatureSpace::tiny();
        let c = all_candidates(Collective::Bcast, &space);
        assert_eq!(c.len(), space.len() * 3);
        let set: std::collections::HashSet<Candidate> = c.iter().copied().collect();
        assert_eq!(set.len(), c.len());
    }

    #[test]
    fn ranking_is_sorted_and_sums() {
        let space = FeatureSpace::tiny();
        // Sparse model: a few samples only.
        let model = PerfModel::fit(
            Collective::Bcast,
            &binomial_samples(3),
            &ForestConfig::default(),
        );
        let cands = all_candidates(Collective::Bcast, &space);
        let r = rank_by_variance(&model, &cands);
        assert_eq!(r.ranked.len(), cands.len());
        assert!(r.ranked.windows(2).all(|w| w[0].1 >= w[1].1), "descending");
        let sum: f64 = r.ranked.iter().map(|&(_, v)| v).sum();
        assert!((sum - r.cumulative).abs() < 1e-12);
        assert!(r.top().is_some());
    }

    #[test]
    fn cached_scan_equals_cold_scan_after_incremental_updates() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let space = FeatureSpace::tiny();
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let all: Vec<TrainingSample> = space
            .points()
            .into_iter()
            .flat_map(|p| Collective::Bcast.algorithms().iter().map(move |&a| (p, a)))
            .map(|(p, a)| TrainingSample {
                point: p,
                algorithm: a,
                time_us: db.time(a, p),
            })
            .collect();
        let cands = all_candidates(Collective::Bcast, &space);
        let mut model = PerfModel::fit(Collective::Bcast, &all[..6], &cfg);
        let mut cache = VarianceScanCache::new(cands.clone());
        cache.refresh(&model, &TreeUpdate::full_refit(cfg.n_trees));
        for upto in 7..=18 {
            let changed = model.fit_incremental(&all[..upto], &cfg);
            cache.refresh(&model, &changed);
            let cached = cache.ranking();
            let cold = rank_by_variance(&model, cache.candidates());
            assert_eq!(cached, cold, "cache diverged at n={upto}");
        }
    }

    #[test]
    fn all_tied_rankings_keep_the_stable_order() {
        // A 1-tree forest has zero jackknife variance everywhere, so the
        // order comes from the candidate tie-break alone.
        let cfg = ForestConfig {
            n_trees: 1,
            ..ForestConfig::default()
        };
        let model = PerfModel::fit(Collective::Bcast, &binomial_samples(5), &cfg);
        let mut cands = all_candidates(Collective::Bcast, &FeatureSpace::tiny());
        cands.reverse();
        let mut reference: Vec<(Candidate, f64)> = cands.iter().map(|&c| (c, 0.0)).collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let cold = rank_by_variance(&model, &cands);
        assert_eq!(cold.ranked, reference);
        let mut cache = VarianceScanCache::new(cands);
        cache.refresh(&model, &TreeUpdate::full_refit(1));
        assert_eq!(cache.ranking(), cold);
    }

    #[test]
    fn cache_retain_preserves_order_and_rows() {
        let space = FeatureSpace::tiny();
        let model = PerfModel::fit(
            Collective::Bcast,
            &binomial_samples(4),
            &ForestConfig::default(),
        );
        let cands = all_candidates(Collective::Bcast, &space);
        let mut cache = VarianceScanCache::new(cands.clone());
        cache.refresh(&model, &[]);
        // Drop every third candidate; the survivors' ranking must match
        // a cold scan over the same survivors.
        let dropped: Vec<Candidate> = cands.iter().copied().step_by(3).collect();
        cache.retain(|c| !dropped.contains(c));
        let expected: Vec<Candidate> = cands
            .iter()
            .copied()
            .filter(|c| !dropped.contains(c))
            .collect();
        assert_eq!(cache.candidates(), &expected[..]);
        assert_eq!(cache.ranking(), rank_by_variance(&model, &expected));
    }

    #[test]
    fn empty_cache_ranks_empty() {
        let cache = VarianceScanCache::new(Vec::new());
        let r = cache.ranking();
        assert!(r.ranked.is_empty());
        assert_eq!(r.cumulative, 0.0);
        assert!(r.top().is_none());
    }

    #[test]
    fn nonp2_window_matches_paper_example() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = nonp2_message_near(8, &mut rng).unwrap();
            assert!((7..12).contains(&v), "{v} outside (6,12)");
            assert_ne!(v, 8);
        }
    }

    #[test]
    fn nonp2_values_are_never_p2() {
        let mut rng = StdRng::seed_from_u64(4);
        for exp in 3..20 {
            for _ in 0..20 {
                if let Some(v) = nonp2_message_near(1 << exp, &mut rng) {
                    assert!(!v.is_power_of_two(), "{v}");
                }
            }
        }
    }

    #[test]
    fn tiny_anchors_have_no_window() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(nonp2_message_near(1, &mut rng), None);
        assert_eq!(nonp2_message_near(2, &mut rng), None);
    }

    #[test]
    fn injector_substitutes_every_fifth() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut inj = NonP2Injector::new(5);
        let c = Candidate {
            point: Point::new(4, 2, 1_024),
            algorithm: Algorithm::BcastBinomial,
        };
        let mut swapped = 0;
        for i in 1..=20 {
            let out = inj.apply(c, &mut rng);
            if out != c {
                swapped += 1;
                assert_eq!(i % 5, 0, "swap must land on every fifth selection");
                assert!(!out.point.msg_bytes.is_power_of_two());
                assert_eq!(out.point.nodes, c.point.nodes);
                assert_eq!(out.algorithm, c.algorithm);
            }
        }
        assert_eq!(swapped, 4, "20 selections at every=5 give 4 swaps");
        assert_eq!(inj.selections(), 20);
    }
}
