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

use crate::model::PerfModel;
use acclaim_collectives::{Algorithm, Collective};
use acclaim_dataset::{FeatureSpace, Point};
use acclaim_ml::{jackknife_variance, FlatForest, TreeUpdate, FLAT_BLOCK_ROWS};
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
}

/// Rank `candidates` by the model's jackknife variance.
pub fn rank_by_variance(model: &PerfModel, candidates: &[Candidate]) -> VarianceRanking {
    let mut scratch = Vec::new();
    let mut ranked: Vec<(Candidate, f64)> = candidates
        .iter()
        .map(|&c| (c, model.variance(c.point, c.algorithm, &mut scratch)))
        .collect();
    // Deterministic order: variance desc, then candidate identity.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let cumulative = ranked.iter().map(|&(_, v)| v).sum();
    VarianceRanking { ranked, cumulative }
}

/// [`rank_by_variance`] through the flat SoA engine: the forest is
/// flattened once and the fused cache-blocked
/// [`FlatForest::variance_rows_into`] scan replaces the per-candidate
/// pointer walk. Bit-identical output — same variances (the fused scan
/// reuses the exact scalar jackknife accumulation), same sort, same
/// cumulative sum — just faster; both paths are kept so the `bench`
/// runner can track the gap.
pub fn rank_by_variance_flat(model: &PerfModel, candidates: &[Candidate]) -> VarianceRanking {
    let flat = FlatForest::from_forest(model.forest());
    let rows: Vec<[f64; 5]> = candidates
        .iter()
        .map(|c| model.candidate_features(c.point, c.algorithm))
        .collect();
    let mut vars = vec![0.0; rows.len()];
    flat.variance_rows_into(&rows, &mut vars);
    let mut ranked: Vec<(Candidate, f64)> = candidates.iter().copied().zip(vars).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let cumulative = ranked.iter().map(|&(_, v)| v).sum();
    VarianceRanking { ranked, cumulative }
}

/// A cached candidate-space variance scan — the incremental counterpart
/// of [`rank_by_variance`].
///
/// Holds the per-tree log-space prediction of every candidate (a
/// candidates × trees matrix). After an incremental model refit only
/// the columns of the refitted trees change, so [`VarianceScanCache::refresh`]
/// updates those columns and leaves the rest untouched; the jackknife
/// variances (and their cumulative sum, ACCLAiM's convergence signal)
/// are then recomputed from the cache. Because an unchanged tree
/// predicts bit-identically, a cached ranking equals the cold
/// [`rank_by_variance`] scan exactly — same variances, same order, same
/// cumulative sum.
#[derive(Debug, Clone)]
pub struct VarianceScanCache {
    candidates: Vec<Candidate>,
    /// Candidate-major per-tree predictions (row `i` = candidate `i`).
    preds: Vec<f64>,
    n_trees: usize,
    filled: bool,
    /// Evaluate refreshes through the flat SoA engine (bit-identical;
    /// see [`FlatForest`]).
    flat: bool,
}

impl VarianceScanCache {
    /// An empty cache over `candidates`; call
    /// [`VarianceScanCache::refresh`] before ranking. Defaults to the
    /// pointer-chasing engine; see [`VarianceScanCache::with_flat`].
    pub fn new(candidates: Vec<Candidate>) -> Self {
        VarianceScanCache {
            candidates,
            preds: Vec::new(),
            n_trees: 0,
            filled: false,
            flat: false,
        }
    }

    /// Select the refresh engine: `true` flattens the forest into an
    /// SoA arena at each refresh and evaluates cache-blocked batches
    /// ([`FlatForest`]); `false` keeps the per-candidate pointer walk.
    /// Both fill the matrix with identical bits, so rankings and the
    /// cumulative-variance convergence signal are unaffected.
    pub fn with_flat(mut self, flat: bool) -> Self {
        self.flat = flat;
        self
    }

    /// Which engine refreshes run through.
    pub fn is_flat(&self) -> bool {
        self.flat
    }

    /// The candidates currently cached, in row order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Drop rows whose candidate fails `keep`, preserving the order of
    /// the survivors (mirrors `Vec::retain` on the candidate list).
    pub fn retain(&mut self, mut keep: impl FnMut(&Candidate) -> bool) {
        let t = self.n_trees;
        let mut w = 0;
        for r in 0..self.candidates.len() {
            if keep(&self.candidates[r]) {
                if w != r {
                    self.candidates[w] = self.candidates[r];
                    if self.filled {
                        self.preds.copy_within(r * t..(r + 1) * t, w * t);
                    }
                }
                w += 1;
            }
        }
        self.candidates.truncate(w);
        if self.filled {
            self.preds.truncate(w * t);
        }
    }

    /// Bring the matrix up to date after a model (re)fit. `changed`
    /// lists the trees refitted since the previous refresh (what
    /// [`crate::model::PerfModel::fit_incremental`] returns), each with
    /// the feature-space region its predictions may have moved in. Only
    /// those (row, column) cells are recomputed — a candidate outside a
    /// refitted tree's dirty region kept that tree's prediction
    /// bit-for-bit, so its cached cell is already correct. The update
    /// runs in place (no per-row allocation) over parallel row chunks.
    /// The first refresh — or any refresh where the tree count moved or
    /// every tree changed everywhere — fills the whole matrix.
    ///
    /// Returns how much work the dirty-region tracking saved; the
    /// result feeds observability only and never decisions.
    pub fn refresh(&mut self, model: &PerfModel, changed: &[TreeUpdate]) -> RefreshStats {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = model.n_trees();
        let full = !self.filled
            || t != self.n_trees
            || (changed.len() >= t && changed.iter().all(|u| u.dirty.is_whole()));
        let cells_total = self.candidates.len() * t;
        if !full && changed.is_empty() {
            return RefreshStats {
                cells_total,
                cells_recomputed: 0,
                full: false,
            };
        }
        if full {
            self.preds.clear();
            self.preds.resize(self.candidates.len() * t, 0.0);
        }
        let candidates = &self.candidates;
        let recomputed = AtomicUsize::new(0);
        // The flat arena is rebuilt from the current forest on every
        // refresh — an O(nodes) copy. The perfbench ledger measures it
        // at `ml.flatten_ms` ≈ 16–19 ms per cold `tune-large` tune
        // (64 nodes × 32 ppn), about 5% of that tune's `ml.scan_ms`.
        let flat = self.flat.then(|| FlatForest::from_forest(model.forest()));
        if full {
            if let Some(flat) = &flat {
                // Tree-major cache-blocked fill: parallel over row
                // blocks, each block streamed through the SoA arena.
                self.preds
                    .par_chunks_mut(FLAT_BLOCK_ROWS * t)
                    .enumerate()
                    .for_each(|(b, block)| {
                        let start = b * FLAT_BLOCK_ROWS;
                        let rows: Vec<[f64; 5]> = candidates[start..start + block.len() / t]
                            .iter()
                            .map(|c| model.candidate_features(c.point, c.algorithm))
                            .collect();
                        flat.predict_rows_into(&rows, block);
                    });
            } else {
                self.preds
                    .par_chunks_mut(t)
                    .enumerate()
                    .for_each(|(i, row)| {
                        let c = candidates[i];
                        let features = model.candidate_features(c.point, c.algorithm);
                        for (tree, cell) in row.iter_mut().enumerate() {
                            *cell = model.tree_log_prediction(tree, &features);
                        }
                    });
            }
        } else {
            self.preds
                .par_chunks_mut(t)
                .enumerate()
                .for_each(|(i, row)| {
                    let c = candidates[i];
                    let features = model.candidate_features(c.point, c.algorithm);
                    let mut row_hits = 0usize;
                    for u in changed {
                        if u.dirty.contains(&features) {
                            row[u.tree] = match &flat {
                                Some(f) => f.tree_predict(u.tree, &features),
                                None => model.tree_log_prediction(u.tree, &features),
                            };
                            row_hits += 1;
                        }
                    }
                    if row_hits > 0 {
                        recomputed.fetch_add(row_hits, Ordering::Relaxed);
                    }
                });
        }
        self.n_trees = t;
        self.filled = true;
        RefreshStats {
            cells_total,
            cells_recomputed: if full {
                cells_total
            } else {
                recomputed.into_inner()
            },
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
        let t = self.n_trees;
        let mut ranked: Vec<(Candidate, f64)> = self
            .candidates
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, jackknife_variance(&self.preds[i * t..(i + 1) * t])))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let cumulative = ranked.iter().map(|&(_, v)| v).sum();
        VarianceRanking { ranked, cumulative }
    }
}

/// What one [`VarianceScanCache::refresh`] actually did — the
/// DirtyRegion bookkeeping's measurable payoff. Purely observational:
/// the cached predictions are identical whether or not anyone looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Matrix size at refresh time (candidates × trees).
    pub cells_total: usize,
    /// Cells actually recomputed (equals `cells_total` on a full fill).
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
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let space = FeatureSpace::tiny();
        // Sparse model: a few samples only.
        let samples: Vec<TrainingSample> = space
            .points()
            .into_iter()
            .take(3)
            .map(|p| TrainingSample {
                point: p,
                algorithm: Algorithm::BcastBinomial,
                time_us: db.time(Algorithm::BcastBinomial, p),
            })
            .collect();
        let model = PerfModel::fit(Collective::Bcast, &samples, &ForestConfig::default());
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
    fn flat_engine_matches_pointer_engine_bit_for_bit() {
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
        let mut pointer = VarianceScanCache::new(cands.clone());
        let mut flat = VarianceScanCache::new(cands.clone()).with_flat(true);
        assert!(flat.is_flat() && !pointer.is_flat());
        pointer.refresh(&model, &TreeUpdate::full_refit(cfg.n_trees));
        flat.refresh(&model, &TreeUpdate::full_refit(cfg.n_trees));
        assert_eq!(pointer.ranking(), flat.ranking(), "full fill diverged");
        for upto in 7..=14 {
            let changed = model.fit_incremental(&all[..upto], &cfg);
            let sp = pointer.refresh(&model, &changed);
            let sf = flat.refresh(&model, &changed);
            assert_eq!(sp, sf, "refresh stats diverged at n={upto}");
            assert_eq!(pointer.ranking(), flat.ranking(), "diverged at n={upto}");
        }
        // The flat cold scan agrees with both.
        assert_eq!(
            rank_by_variance(&model, &cands),
            rank_by_variance_flat(&model, &cands)
        );
    }

    #[test]
    fn cache_retain_preserves_order_and_rows() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let space = FeatureSpace::tiny();
        let samples: Vec<TrainingSample> = space
            .points()
            .into_iter()
            .take(4)
            .map(|p| TrainingSample {
                point: p,
                algorithm: Algorithm::BcastBinomial,
                time_us: db.time(Algorithm::BcastBinomial, p),
            })
            .collect();
        let model = PerfModel::fit(Collective::Bcast, &samples, &ForestConfig::default());
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
