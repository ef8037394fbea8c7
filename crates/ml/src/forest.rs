//! Bagged random-forest regressor with per-tree prediction access.
//!
//! The paper's autotuners model collective performance with random
//! forests (one per collective, algorithm as a feature — Sec. V).
//! ACCLAiM's contributions need *ensemble internals*: the jackknife
//! variance of Sec. IV-A is computed over the individual trees'
//! predictions, which scikit-learn exposes and we therefore expose too.

use crate::data::FeatureMatrix;
use crate::tree::{DecisionTree, DirtyRegion, Presort, TreeConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How each tree's bootstrap resample is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BootstrapScheme {
    /// Classic resampling: `n` draws with replacement from an RNG whose
    /// stream depends on `n`. Appending one sample reshuffles every
    /// tree's resample, so refits are always from scratch.
    Resample,
    /// Online bagging (Oza & Russell): each `(tree, sample)` pair gets a
    /// Poisson(1)-distributed multiplicity derived by hashing
    /// `(seed, tree, sample)`. Membership is independent of the dataset
    /// size, so appending a sample leaves a tree's resample untouched
    /// unless the new sample actually lands in it (probability
    /// `1 − e⁻¹ ≈ 63%`) — the property [`RandomForest::refit_incremental`]
    /// exploits.
    #[default]
    Hashed,
}

/// Hyperparameters of the forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Ensemble size.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Draw bootstrap samples (with replacement) per tree.
    pub bootstrap: bool,
    /// How bootstrap resamples are derived (ignored when `bootstrap` is
    /// off).
    #[serde(default)]
    pub scheme: BootstrapScheme,
    /// Base RNG seed; tree `i` derives its own stream from it.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 64,
            tree: TreeConfig::default(),
            bootstrap: true,
            scheme: BootstrapScheme::default(),
            seed: 0x5eed,
        }
    }
}

impl ForestConfig {
    /// scikit-learn-flavored defaults. Modern scikit-learn regression
    /// forests consider *all* features at each split (`max_features =
    /// 1.0`) and rely on bootstrap sampling for ensemble diversity;
    /// with the autotuner's 3-4 features, per-split subsampling would
    /// cost far more accuracy than it buys in decorrelation.
    pub fn for_n_features(n_features: usize) -> Self {
        let _ = n_features;
        ForestConfig {
            tree: TreeConfig {
                max_features: None,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        }
    }
}

/// Deterministic Poisson(1) multiplicity of `sample` in `tree`'s
/// resample under [`BootstrapScheme::Hashed`]. Independent of how many
/// samples exist — the invariant incremental refits rely on.
pub fn bootstrap_weight(seed: u64, tree: usize, sample: usize) -> usize {
    let mut h = seed
        ^ (tree as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (sample as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    // Invert the Poisson(1) CDF on a uniform draw from the hash.
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut k = 0usize;
    let mut pmf = (-1.0f64).exp();
    let mut cdf = pmf;
    while u > cdf && k < 16 {
        k += 1;
        pmf /= k as f64;
        cdf += pmf;
    }
    k
}

/// One tree's change record from [`RandomForest::refit_incremental`]:
/// which tree was rebuilt, and the feature-space region in which its
/// predictions may differ from before. Outside `dirty` the tree
/// predicts bit-identically, so a per-tree prediction cache only needs
/// to re-evaluate rows inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeUpdate {
    /// Index of the rebuilt tree.
    pub tree: usize,
    /// Where its predictions may have changed.
    pub dirty: DirtyRegion,
}

impl TreeUpdate {
    /// The update set of a from-scratch fit: every tree changed,
    /// everywhere.
    pub fn full_refit(n_trees: usize) -> Vec<TreeUpdate> {
        (0..n_trees)
            .map(|tree| TreeUpdate {
                tree,
                dirty: DirtyRegion::whole(),
            })
            .collect()
    }
}

/// A fitted random forest.
///
/// While a model trains, the forest also keeps each tree's training
/// multiset with its per-feature sorted orders, so a refit appends to
/// them instead of re-sorting. That refit state is neither serialized
/// nor compared: two forests are equal when their trees and sample
/// counts are. A forest without it — freshly fitted, deserialized, or
/// after [`RandomForest::clear_refit_state`] — rebuilds it on its first
/// [`RandomForest::refit_incremental`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// How many samples the forest was (re)fitted on; the watermark
    /// `refit_incremental` appends from.
    n_samples: usize,
    /// One entry per tree while refits keep state, else empty.
    #[serde(skip)]
    refit_state: Vec<TreeSample>,
}

impl PartialEq for RandomForest {
    fn eq(&self, other: &Self) -> bool {
        self.trees == other.trees && self.n_samples == other.n_samples
    }
}

/// What one tree was last fitted on, kept between incremental refits.
#[derive(Debug, Clone)]
struct TreeSample {
    presort: Presort,
    /// The hashed resample drew no sample yet, so the tree trained on
    /// all of them (and must follow every append until one hashes in).
    all_rows: bool,
}

impl TreeSample {
    /// Tree `t`'s multiset at `n` samples, as [`RandomForest::fit`]
    /// chose it for the incremental schemes.
    fn new(config: &ForestConfig, x: &FeatureMatrix, t: usize, n: usize) -> Self {
        let n = u32::try_from(n).expect("sample count exceeds u32");
        let mut rows: Vec<u32> = if config.bootstrap {
            RandomForest::hashed_indices(config, t, n)
        } else {
            (0..n).collect()
        };
        let all_rows = rows.is_empty();
        if all_rows {
            rows = (0..n).collect();
        }
        TreeSample {
            presort: Presort::new(x, rows),
            all_rows,
        }
    }

    /// Apply the `appended` samples to tree `t` (currently `old`) and to
    /// this, its kept sample, one at a time; `None` when the tree's
    /// resample draws none of them. The returned [`DirtyRegion`] is the
    /// union over appends, so it bounds where the final tree may
    /// disagree with `old`.
    fn refit(
        &mut self,
        config: &ForestConfig,
        x: &FeatureMatrix,
        y: &[f64],
        t: usize,
        old: &DecisionTree,
        appended: std::ops::Range<usize>,
    ) -> Option<(DecisionTree, DirtyRegion)> {
        let seed = RandomForest::tree_seed(config, t);
        let mut tree: Option<DecisionTree> = None;
        let mut dirty = DirtyRegion::none();
        for s in appended {
            let w = if config.bootstrap {
                bootstrap_weight(config.seed, t, s)
            } else {
                1
            };
            if self.all_rows {
                if w > 0 {
                    // The first sample to hash in replaces the fallback.
                    let row = u32::try_from(s).expect("sample index exceeds u32");
                    self.presort = Presort::new(x, vec![row; w]);
                    self.all_rows = false;
                } else {
                    self.presort.append(x, s, 1);
                }
                let rows = self.presort.clone();
                tree = Some(DecisionTree::grow(&config.tree, x, y, rows, seed, None).0);
                dirty = DirtyRegion::whole();
            } else if w > 0 {
                self.presort.append(x, s, w);
                let base = tree.as_ref().unwrap_or(old);
                let rows = self.presort.clone();
                let (refit, region) =
                    DecisionTree::grow(&config.tree, x, y, rows, seed, Some((base, s)));
                tree = Some(refit);
                dirty.merge(region);
            }
        }
        tree.map(|tree| (tree, dirty))
    }
}

impl RandomForest {
    /// Fit `config.n_trees` trees in parallel (rayon).
    pub fn fit(config: &ForestConfig, x: &FeatureMatrix, y: &[f64]) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit a forest on zero samples");
        assert!(config.n_trees > 0, "need at least one tree");
        let n = x.len();
        let trees: Vec<DecisionTree> = (0..config.n_trees)
            .into_par_iter()
            .map(|t| Self::fit_tree(config, x, y, t))
            .collect();
        RandomForest {
            trees,
            n_samples: n,
            refit_state: Vec::new(),
        }
    }

    /// The seed tree `t` builds with (per-node streams derive from it).
    fn tree_seed(config: &ForestConfig, t: usize) -> u64 {
        config.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Tree `t`'s resample under the hashed scheme, in canonical
    /// ascending order (copies adjacent). Empty when no sample hashes in.
    fn hashed_indices(config: &ForestConfig, t: usize, n: u32) -> Vec<u32> {
        (0..n)
            .flat_map(|i| std::iter::repeat_n(i, bootstrap_weight(config.seed, t, i as usize)))
            .collect()
    }

    /// Fit tree `t` from scratch on the first `x.len()` samples.
    fn fit_tree(config: &ForestConfig, x: &FeatureMatrix, y: &[f64], t: usize) -> DecisionTree {
        let n = x.len();
        let seed = Self::tree_seed(config, t);
        if config.bootstrap && config.scheme == BootstrapScheme::Resample {
            // Independent, deterministic stream per tree.
            let mut rng = StdRng::seed_from_u64(seed);
            let indices: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            return DecisionTree::fit(&config.tree, x, y, &indices, &mut rng);
        }
        let rows = TreeSample::new(config, x, t, n).presort;
        DecisionTree::grow(&config.tree, x, y, rows, seed, None).0
    }

    /// Refit after rows were appended to `(x, y)` (all rows before the
    /// previous fit's watermark must be unchanged). Only trees whose
    /// hashed resample actually draws one of the new samples are
    /// rebuilt — and those rebuilds recompute splits only along each new
    /// sample's path, on sorted orders kept from the previous refit. The
    /// result is bit-for-bit identical to `RandomForest::fit` on the
    /// full data.
    ///
    /// Returns a [`TreeUpdate`] per rebuilt tree — its index plus the
    /// feature-space region its predictions may have changed in — so
    /// prediction caches can invalidate just those (column, row) cells.
    /// With [`BootstrapScheme::Resample`] (or when nothing was fitted
    /// yet) every resample depends on `n`, so this degrades to a full
    /// refit reporting every tree changed everywhere.
    pub fn refit_incremental(
        &mut self,
        config: &ForestConfig,
        x: &FeatureMatrix,
        y: &[f64],
    ) -> Vec<TreeUpdate> {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert_eq!(
            config.n_trees,
            self.trees.len(),
            "config/forest tree count mismatch"
        );
        assert!(
            x.len() >= self.n_samples,
            "fewer samples ({}) than the previous fit ({})",
            x.len(),
            self.n_samples
        );
        let old_n = self.n_samples;
        let new_n = x.len();
        if new_n == old_n {
            return Vec::new();
        }
        if old_n == 0 || (config.bootstrap && config.scheme == BootstrapScheme::Resample) {
            *self = Self::fit(config, x, y);
            return TreeUpdate::full_refit(self.trees.len());
        }

        let mut kept = std::mem::take(&mut self.refit_state).into_iter();
        let jobs: Vec<(usize, Option<TreeSample>)> =
            (0..self.trees.len()).map(|t| (t, kept.next())).collect();
        let refitted: Vec<(TreeSample, Option<(DecisionTree, DirtyRegion)>)> = jobs
            .into_par_iter()
            .map(|(t, kept)| {
                let mut sample = kept.unwrap_or_else(|| TreeSample::new(config, x, t, old_n));
                let refit = sample.refit(config, x, y, t, &self.trees[t], old_n..new_n);
                (sample, refit)
            })
            .collect();
        let mut changed = Vec::new();
        for (t, (sample, refit)) in refitted.into_iter().enumerate() {
            self.refit_state.push(sample);
            if let Some((tree, dirty)) = refit {
                self.trees[t] = tree;
                changed.push(TreeUpdate { tree: t, dirty });
            }
        }
        self.n_samples = new_n;
        changed
    }

    /// Drop the per-tree state kept between incremental refits, e.g.
    /// once training is over; the next refit rebuilds it.
    pub fn clear_refit_state(&mut self) {
        self.refit_state = Vec::new();
    }

    /// Whether the forest currently keeps per-tree refit state.
    pub fn has_refit_state(&self) -> bool {
        !self.refit_state.is_empty()
    }

    /// Ensemble prediction: the mean over trees.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Per-tree predictions, written into `out` (cleared first). This is
    /// the input to the jackknife variance of Sec. IV-A.
    pub fn predict_per_tree(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.trees.iter().map(|t| t.predict(row)));
    }

    /// Tree `t` of the ensemble.
    pub fn tree(&self, t: usize) -> &DecisionTree {
        &self.trees[t]
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of samples the forest was last (re)fitted on.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The fitted trees, for crate-internal consumers (the SoA
    /// [`crate::FlatForest`] flattener).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(n: usize) -> (FeatureMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 + (i % 5) as f64).collect();
        (FeatureMatrix::from_rows(&rows), y)
    }

    #[test]
    fn forest_fits_and_predicts_reasonably() {
        let (x, y) = linear_dataset(100);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        // In-range point: within 10% of truth.
        let p = f.predict(&[50.0, 0.0]);
        assert!((p - 150.0).abs() < 15.0, "p={p}");
    }

    #[test]
    fn fitting_is_deterministic_for_a_seed() {
        let (x, y) = linear_dataset(60);
        let a = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let b = RandomForest::fit(&ForestConfig::default(), &x, &y);
        assert_eq!(a, b, "same seed must give identical forests");
        let c = RandomForest::fit(
            &ForestConfig {
                seed: 1234,
                ..ForestConfig::default()
            },
            &x,
            &y,
        );
        assert_ne!(a, c, "different seed must change the ensemble");
    }

    #[test]
    fn per_tree_predictions_average_to_ensemble() {
        let (x, y) = linear_dataset(80);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let row = [33.0, 3.0];
        let mut per = Vec::new();
        f.predict_per_tree(&row, &mut per);
        assert_eq!(per.len(), f.n_trees());
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!((mean - f.predict(&row)).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_trees_differ() {
        let (x, y) = linear_dataset(50);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.5, 2.0], &mut per);
        let first = per[0];
        assert!(
            per.iter().any(|&p| (p - first).abs() > 1e-12),
            "bootstrap must diversify trees"
        );
    }

    #[test]
    fn without_bootstrap_and_full_features_trees_agree() {
        let (x, y) = linear_dataset(50);
        let cfg = ForestConfig {
            bootstrap: false,
            n_trees: 8,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&cfg, &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.0, 0.0], &mut per);
        assert!(
            per.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12),
            "identical training data + all features => identical trees"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn predictions_stay_within_target_range(
                ys in proptest::collection::vec(-500.0f64..500.0, 4..40),
            ) {
                let rows: Vec<Vec<f64>> =
                    (0..ys.len()).map(|i| vec![i as f64, (i % 3) as f64]).collect();
                let x = FeatureMatrix::from_rows(&rows);
                let cfg = ForestConfig { n_trees: 12, ..ForestConfig::default() };
                let f = RandomForest::fit(&cfg, &x, &ys);
                let (lo, hi) = ys
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                for row in x.rows() {
                    let p = f.predict(row);
                    prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
                }
                // Extrapolation queries are also bounded by the ensemble.
                let p = f.predict(&[1e6, -1e6]);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }

            #[test]
            fn per_tree_mean_equals_ensemble_everywhere(
                ys in proptest::collection::vec(-100.0f64..100.0, 4..30),
                qx in -50.0f64..100.0,
            ) {
                let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
                let x = FeatureMatrix::from_rows(&rows);
                let cfg = ForestConfig { n_trees: 8, ..ForestConfig::default() };
                let f = RandomForest::fit(&cfg, &x, &ys);
                let mut per = Vec::new();
                f.predict_per_tree(&[qx], &mut per);
                let mean = per.iter().sum::<f64>() / per.len() as f64;
                prop_assert!((mean - f.predict(&[qx])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hashed_weights_are_poisson_one_ish() {
        // Mean multiplicity ~1 and ~37% zeros over a large draw.
        let n = 20_000;
        let total: usize = (0..n).map(|i| bootstrap_weight(0x5eed, 0, i)).sum();
        let zeros = (0..n)
            .filter(|&i| bootstrap_weight(0x5eed, 0, i) == 0)
            .count();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean weight {mean}");
        let zero_frac = zeros as f64 / n as f64;
        assert!(
            (zero_frac - (-1.0f64).exp()).abs() < 0.02,
            "zero fraction {zero_frac}"
        );
    }

    #[test]
    fn incremental_refit_matches_scratch_fit_exactly() {
        let (x_full, y_full) = linear_dataset(80);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        // Fit on a prefix, then append the rest in a few batches.
        let prefix = 40;
        let x0 = FeatureMatrix::from_rows(
            &x_full
                .rows()
                .take(prefix)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..prefix]);
        for upto in [41, 50, 64, 80] {
            let x = FeatureMatrix::from_rows(
                &x_full
                    .rows()
                    .take(upto)
                    .map(<[f64]>::to_vec)
                    .collect::<Vec<_>>(),
            );
            let changed = forest.refit_incremental(&cfg, &x, &y_full[..upto]);
            let scratch = RandomForest::fit(&cfg, &x, &y_full[..upto]);
            assert_eq!(forest, scratch, "divergence at n={upto}");
            if upto == 41 {
                // Single append: ~e^-1 of trees draw weight 0 and must
                // be skipped. (Batch appends touch nearly every tree.)
                assert!(
                    changed.len() < cfg.n_trees,
                    "some trees should be untouched by a single append"
                );
            }
        }
    }

    #[test]
    fn incremental_refit_reports_exactly_the_changed_trees() {
        let (x_full, y_full) = linear_dataset(50);
        let cfg = ForestConfig {
            n_trees: 32,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full
                .rows()
                .take(49)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..49]);
        let before = forest.clone();
        let changed = forest.refit_incremental(&cfg, &x_full, &y_full);
        // Reported set == trees whose hashed weight of sample 49 is > 0.
        let expected: Vec<usize> = (0..cfg.n_trees)
            .filter(|&t| bootstrap_weight(cfg.seed, t, 49) > 0)
            .collect();
        let reported: Vec<usize> = changed.iter().map(|u| u.tree).collect();
        assert_eq!(reported, expected);
        for t in 0..cfg.n_trees {
            let same = forest.trees[t] == before.trees[t];
            assert_eq!(
                same,
                !reported.contains(&t),
                "tree {t} change status disagrees with report"
            );
        }
    }

    #[test]
    fn dirty_regions_bound_prediction_changes() {
        let (x_full, y_full) = linear_dataset(60);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full
                .rows()
                .take(55)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..55]);
        let before = forest.clone();
        let changed = forest.refit_incremental(&cfg, &x_full, &y_full);
        assert!(!changed.is_empty());
        // Probe a dense grid (including off-training coordinates): where
        // a tree's dirty region says "clean", its prediction must be
        // bit-identical to the pre-refit tree's.
        for fx in -10..140 {
            for f2 in -2..12 {
                let row = [fx as f64 * 0.5, f2 as f64 * 0.5];
                for u in &changed {
                    if !u.dirty.contains(&row) {
                        assert_eq!(
                            forest.tree(u.tree).predict(&row),
                            before.tree(u.tree).predict(&row),
                            "tree {} changed outside its dirty region at {row:?}",
                            u.tree
                        );
                    }
                }
            }
        }
        // And the regions must not be trivially "whole" for a single
        // append into an already-trained forest.
        assert!(
            changed.iter().any(|u| !u.dirty.is_whole()),
            "single-path refits should report bounded dirty regions"
        );
    }

    #[test]
    fn incremental_refit_without_bootstrap_matches_scratch() {
        let (x_full, y_full) = linear_dataset(30);
        let cfg = ForestConfig {
            n_trees: 4,
            bootstrap: false,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full
                .rows()
                .take(20)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..20]);
        let changed = forest.refit_incremental(&cfg, &x_full, &y_full);
        let reported: Vec<usize> = changed.iter().map(|u| u.tree).collect();
        assert_eq!(
            reported,
            (0..4).collect::<Vec<_>>(),
            "all trees see all samples"
        );
        assert_eq!(forest, RandomForest::fit(&cfg, &x_full, &y_full));
    }

    #[test]
    fn resample_scheme_degrades_to_full_refit() {
        let (x_full, y_full) = linear_dataset(30);
        let cfg = ForestConfig {
            n_trees: 8,
            scheme: BootstrapScheme::Resample,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full
                .rows()
                .take(20)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..20]);
        let changed = forest.refit_incremental(&cfg, &x_full, &y_full);
        assert_eq!(changed.len(), 8, "resample scheme cannot refit in place");
        assert_eq!(forest, RandomForest::fit(&cfg, &x_full, &y_full));
    }

    #[test]
    fn noop_refit_reports_no_changes() {
        let (x, y) = linear_dataset(25);
        let cfg = ForestConfig::default();
        let mut forest = RandomForest::fit(&cfg, &x, &y);
        let before = forest.clone();
        assert!(forest.refit_incremental(&cfg, &x, &y).is_empty());
        assert_eq!(forest, before);
    }

    /// The first `n` rows of `(x, y)`.
    fn prefix(x: &FeatureMatrix, y: &[f64], n: usize) -> (FeatureMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = x.rows().take(n).map(<[f64]>::to_vec).collect();
        (FeatureMatrix::from_rows(&rows), y[..n].to_vec())
    }

    #[test]
    fn kept_orders_equal_a_fresh_presort_after_every_refit() {
        let (x_full, y_full) = linear_dataset(40);
        let cfg = ForestConfig::default();
        // One sample: about e^-1 of the trees hash it out and fall back
        // to training on every sample.
        let (x1, y1) = prefix(&x_full, &y_full, 1);
        let mut forest = RandomForest::fit(&cfg, &x1, &y1);
        let mut fallback_seen = 0;
        for upto in (2..=14).chain([23, 40]) {
            let (x, y) = prefix(&x_full, &y_full, upto);
            forest.refit_incremental(&cfg, &x, &y);
            assert_eq!(forest.refit_state.len(), cfg.n_trees);
            for (t, kept) in forest.refit_state.iter().enumerate() {
                let rows = kept.presort.rows().to_vec();
                assert_eq!(
                    kept.presort,
                    Presort::new(&x, rows.clone()),
                    "tree {t} at n={upto}"
                );
                let hashed = RandomForest::hashed_indices(&cfg, t, upto as u32);
                assert_eq!(kept.all_rows, hashed.is_empty(), "tree {t} at n={upto}");
                let expected = match kept.all_rows {
                    true => (0..upto as u32).collect(),
                    false => hashed,
                };
                assert_eq!(rows, expected, "tree {t} multiset at n={upto}");
                fallback_seen += kept.all_rows as usize;
            }
            assert_eq!(
                forest,
                RandomForest::fit(&cfg, &x, &y),
                "divergence at n={upto}"
            );
        }
        assert!(fallback_seen > 0, "no tree exercised the all-rows fallback");
    }

    #[test]
    fn a_forest_without_refit_state_refits_like_one_that_kept_it() {
        let (x_full, y_full) = linear_dataset(60);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let (x, y) = prefix(&x_full, &y_full, 30);
        let mut kept = RandomForest::fit(&cfg, &x, &y);
        let (x, y) = prefix(&x_full, &y_full, 34);
        kept.refit_incremental(&cfg, &x, &y);
        assert!(kept.has_refit_state());

        let json = serde_json::to_string(&kept).unwrap();
        let mut loaded: RandomForest = serde_json::from_str(&json).unwrap();
        let mut cleared = kept.clone();
        cleared.clear_refit_state();
        assert!(!loaded.has_refit_state() && !cleared.has_refit_state());
        assert_eq!(loaded, kept, "refit state takes no part in equality");

        for upto in [35, 41, 60] {
            let (x, y) = prefix(&x_full, &y_full, upto);
            let want = kept.refit_incremental(&cfg, &x, &y);
            assert_eq!(
                loaded.refit_incremental(&cfg, &x, &y),
                want,
                "updates at n={upto}"
            );
            assert_eq!(
                cleared.refit_incremental(&cfg, &x, &y),
                want,
                "updates at n={upto}"
            );
            assert_eq!(loaded, kept, "forest at n={upto}");
            assert_eq!(cleared, kept, "forest at n={upto}");
        }
    }

    #[test]
    fn refit_state_adds_no_serialized_field() {
        let (x_full, y_full) = linear_dataset(40);
        let cfg = ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        };
        let (x, y) = prefix(&x_full, &y_full, 30);
        let mut forest = RandomForest::fit(&cfg, &x, &y);
        forest.refit_incremental(&cfg, &x_full, &y_full);
        assert!(forest.has_refit_state());
        let json = serde_json::to_string(&forest).unwrap();
        let scratch = RandomForest::fit(&cfg, &x_full, &y_full);
        assert_eq!(json, serde_json::to_string(&scratch).unwrap());
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["trees", "n_samples"]);
    }

    #[test]
    fn feature_subsampling_diversifies_trees() {
        let (x, y) = linear_dataset(50);
        let cfg = ForestConfig {
            bootstrap: false,
            n_trees: 16,
            tree: TreeConfig {
                max_features: Some(1),
                max_depth: 3,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&cfg, &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.5, 2.5], &mut per);
        let first = per[0];
        assert!(per.iter().any(|&p| (p - first).abs() > 1e-12));
    }
}
