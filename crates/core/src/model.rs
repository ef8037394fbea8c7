//! The per-collective performance model.
//!
//! ACCLAiM uses a single random forest model per collective and
//! enumerates "algorithm" as an additional feature (Sec. V). The
//! model maps (log2 msg, log2 nodes, log2 ppn, derived log2 ranks,
//! algorithm index) to the collective's execution time and answers
//! three queries:
//!
//! * predicted time of one algorithm at a point,
//! * the selected (argmin) algorithm at a point,
//! * the jackknife variance of the ensemble at a candidate — the signal
//!   driving both ACCLAiM's point selection and its convergence test.
//!
//! Internally the forest regresses `ln(time)`: collective times span
//! five orders of magnitude across the feature space, and an MSE tree
//! fit on raw microseconds would spend its entire budget on the largest
//! points. Predictions are exponentiated back to microseconds; argmin
//! selections are unaffected by the monotone transform.

use acclaim_collectives::{Algorithm, Collective};
use acclaim_dataset::Point;
use acclaim_ml::{jackknife_variance, FeatureMatrix, ForestConfig, RandomForest, TreeUpdate};
use serde::{Deserialize, Serialize};

/// One collected training sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingSample {
    /// The benchmarked point.
    pub point: Point,
    /// The algorithm benchmarked at the point.
    pub algorithm: Algorithm,
    /// Measured mean time (µs).
    pub time_us: f64,
}

/// A fitted per-collective performance model.
///
/// Keeps its feature matrix and targets alive between fits so that
/// [`PerfModel::fit_incremental`] can append freshly collected samples
/// and warm-start the forest refit ([`RandomForest::refit_incremental`])
/// instead of rebuilding every tree from scratch.
///
/// The model is serializable (forest, feature matrix, and targets
/// included) so a converged snapshot can be persisted by the tuning
/// store and reloaded in a later job. JSON round-trips are exact: the
/// vendored `serde_json` prints `f64`s in shortest-roundtrip form, so a
/// reloaded model predicts bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfModel {
    collective: Collective,
    forest: RandomForest,
    x: FeatureMatrix,
    y: Vec<f64>,
}

impl PerfModel {
    fn featurize(
        collective: Collective,
        samples: &[TrainingSample],
        x: &mut FeatureMatrix,
        y: &mut Vec<f64>,
    ) {
        for s in samples {
            assert_eq!(
                s.algorithm.collective(),
                collective,
                "sample from the wrong collective"
            );
            assert!(s.time_us > 0.0, "times must be positive");
            x.push_row(
                &s.point
                    .features_with_algorithm(s.algorithm.index_within_collective()),
            );
            y.push(s.time_us.ln());
        }
    }

    /// Fit the model on the collected samples (all of one collective).
    pub fn fit(collective: Collective, samples: &[TrainingSample], config: &ForestConfig) -> Self {
        assert!(!samples.is_empty(), "cannot fit a model on zero samples");
        let mut x = FeatureMatrix::new(5);
        let mut y = Vec::with_capacity(samples.len());
        Self::featurize(collective, samples, &mut x, &mut y);
        PerfModel {
            collective,
            forest: RandomForest::fit(config, &x, &y),
            x,
            y,
        }
    }

    /// Refit after new samples were appended to the collection.
    ///
    /// `samples` must extend the sequence this model was (re)fitted on:
    /// the first `n` entries (where `n` is the previous sample count)
    /// are assumed unchanged, and only the tail is featurized and pushed
    /// into the stored matrix. The forest is then warm-started — trees
    /// whose hashed bootstrap draws none of the new samples are kept
    /// verbatim. Returns one [`TreeUpdate`] per changed tree (index plus
    /// the feature-space region its predictions may have moved in),
    /// which is exactly what a per-tree prediction cache must
    /// invalidate.
    ///
    /// The result is bit-for-bit the model [`PerfModel::fit`] would
    /// build on the full `samples` slice with the same `config`.
    pub fn fit_incremental(
        &mut self,
        samples: &[TrainingSample],
        config: &ForestConfig,
    ) -> Vec<TreeUpdate> {
        let fitted = self.y.len();
        assert!(
            samples.len() >= fitted,
            "samples must only ever be appended ({} < {fitted})",
            samples.len()
        );
        Self::featurize(
            self.collective,
            &samples[fitted..],
            &mut self.x,
            &mut self.y,
        );
        self.forest.refit_incremental(config, &self.x, &self.y)
    }

    /// Drop the state the forest keeps between incremental refits
    /// ([`RandomForest::clear_refit_state`]) once the model is final; a
    /// later refit rebuilds it.
    pub fn clear_refit_state(&mut self) {
        self.forest.clear_refit_state();
    }

    /// The collective this model serves.
    pub fn collective(&self) -> Collective {
        self.collective
    }

    /// Number of trees in the underlying forest.
    pub fn n_trees(&self) -> usize {
        self.forest.n_trees()
    }

    /// The underlying forest — what the flat SoA scan
    /// ([`acclaim_ml::FlatForest`]) flattens. Predictions are in
    /// log-time space; see [`PerfModel::tree_log_prediction`].
    pub fn forest(&self) -> &acclaim_ml::RandomForest {
        &self.forest
    }

    /// Number of samples the model is currently fitted on.
    pub fn n_samples(&self) -> usize {
        self.y.len()
    }

    /// The feature row the model sees for a candidate (point +
    /// algorithm index). Callers evaluating several trees at the same
    /// candidate build this once and pass it to
    /// [`PerfModel::tree_log_prediction`].
    pub fn candidate_features(&self, point: Point, algorithm: Algorithm) -> [f64; 5] {
        debug_assert_eq!(algorithm.collective(), self.collective);
        point.features_with_algorithm(algorithm.index_within_collective())
    }

    /// Prediction of a single tree at a feature row (from
    /// [`PerfModel::candidate_features`]), in log-time space — the unit
    /// the jackknife variance is computed in. Used by the cached
    /// variance scan to update only refitted columns.
    pub fn tree_log_prediction(&self, tree: usize, features: &[f64]) -> f64 {
        self.forest.tree_predict(tree, features)
    }

    /// All per-tree predictions at a candidate (log-time space), written
    /// into `out`.
    pub fn per_tree_log_predictions(&self, point: Point, algorithm: Algorithm, out: &mut Vec<f64>) {
        debug_assert_eq!(algorithm.collective(), self.collective);
        self.forest.predict_per_tree(
            &point.features_with_algorithm(algorithm.index_within_collective()),
            out,
        );
    }

    /// Predicted execution time (µs) of `algorithm` at `point`.
    pub fn predict(&self, point: Point, algorithm: Algorithm) -> f64 {
        debug_assert_eq!(algorithm.collective(), self.collective);
        self.forest
            .predict(&point.features_with_algorithm(algorithm.index_within_collective()))
            .exp()
    }

    /// The algorithm the model selects at `point` (lowest predicted
    /// time — Sec. II-C-1).
    pub fn select(&self, point: Point) -> Algorithm {
        self.collective
            .algorithms()
            .iter()
            .copied()
            .min_by(|&a, &b| self.predict(point, a).total_cmp(&self.predict(point, b)))
            .expect("collectives have algorithms")
    }

    /// Jackknife variance of the ensemble at a candidate (in log-time
    /// space, i.e. relative uncertainty). `scratch` is reused across
    /// calls to avoid reallocating the per-tree buffer.
    pub fn variance(&self, point: Point, algorithm: Algorithm, scratch: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(algorithm.collective(), self.collective);
        self.forest.predict_per_tree(
            &point.features_with_algorithm(algorithm.index_within_collective()),
            scratch,
        );
        jackknife_variance(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};

    fn samples_for(db: &BenchmarkDatabase, collective: Collective) -> Vec<TrainingSample> {
        let space = FeatureSpace::tiny();
        let mut out = Vec::new();
        for p in space.points() {
            for &a in collective.algorithms() {
                out.push(TrainingSample {
                    point: p,
                    algorithm: a,
                    time_us: db.time(a, p),
                });
            }
        }
        out
    }

    #[test]
    fn fits_and_predicts_positive_times() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let m = PerfModel::fit(
            Collective::Bcast,
            &samples_for(&db, Collective::Bcast),
            &ForestConfig::default(),
        );
        for p in FeatureSpace::tiny().points() {
            for &a in Collective::Bcast.algorithms() {
                assert!(m.predict(p, a) > 0.0);
            }
        }
    }

    #[test]
    fn fully_trained_model_selects_near_optimally() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let m = PerfModel::fit(
            Collective::Reduce,
            &samples_for(&db, Collective::Reduce),
            &ForestConfig::default(),
        );
        let pts = FeatureSpace::tiny().points();
        let slowdown = db.average_slowdown(Collective::Reduce, &pts, |p| m.select(p));
        assert!(
            slowdown < 1.1,
            "full-data model should be near-optimal: {slowdown}"
        );
    }

    #[test]
    fn variance_shrinks_where_data_exists() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let all = samples_for(&db, Collective::Bcast);
        // Train on points with nodes <= 4 only.
        let partial: Vec<TrainingSample> =
            all.iter().copied().filter(|s| s.point.nodes <= 4).collect();
        let m = PerfModel::fit(Collective::Bcast, &partial, &ForestConfig::default());
        let mut scratch = Vec::new();
        let seen = Point::new(4, 1, 256);
        let unseen = Point::new(8, 2, 4_096);
        let v_seen = m.variance(seen, Algorithm::BcastBinomial, &mut scratch);
        let v_unseen = m.variance(unseen, Algorithm::BcastBinomial, &mut scratch);
        assert!(
            v_unseen > v_seen,
            "unseen corner must be more uncertain: {v_unseen} vs {v_seen}"
        );
    }

    #[test]
    fn incremental_fit_matches_scratch_fit() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let all = samples_for(&db, Collective::Bcast);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let mut m = PerfModel::fit(Collective::Bcast, &all[..10], &cfg);
        for upto in [11, 14, all.len()] {
            let changed = m.fit_incremental(&all[..upto], &cfg);
            let scratch = PerfModel::fit(Collective::Bcast, &all[..upto], &cfg);
            assert!(changed.len() <= cfg.n_trees);
            let mut scratch_preds = Vec::new();
            let mut inc_preds = Vec::new();
            for p in FeatureSpace::tiny().points() {
                for &a in Collective::Bcast.algorithms() {
                    scratch.per_tree_log_predictions(p, a, &mut scratch_preds);
                    m.per_tree_log_predictions(p, a, &mut inc_preds);
                    assert_eq!(inc_preds, scratch_preds, "divergence at n={upto}");
                }
            }
        }
    }

    #[test]
    fn json_round_trip_drops_refit_state_but_not_refit_results() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let all = samples_for(&db, Collective::Bcast);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let mut kept = PerfModel::fit(Collective::Bcast, &all[..10], &cfg);
        kept.fit_incremental(&all[..14], &cfg);
        assert!(kept.forest().has_refit_state());
        let json = serde_json::to_string(&kept).unwrap();
        // The kept state never reaches the serialized form.
        let scratch = PerfModel::fit(Collective::Bcast, &all[..14], &cfg);
        assert_eq!(json, serde_json::to_string(&scratch).unwrap());
        let mut loaded: PerfModel = serde_json::from_str(&json).unwrap();
        assert!(!loaded.forest().has_refit_state());
        for upto in [15, 20, all.len()] {
            let want = kept.fit_incremental(&all[..upto], &cfg);
            assert_eq!(loaded.fit_incremental(&all[..upto], &cfg), want, "n={upto}");
            assert_eq!(loaded.forest(), kept.forest(), "n={upto}");
        }
    }

    #[test]
    #[should_panic(expected = "appended")]
    fn incremental_fit_rejects_shrinking_history() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let all = samples_for(&db, Collective::Bcast);
        let cfg = ForestConfig::default();
        let mut m = PerfModel::fit(Collective::Bcast, &all[..10], &cfg);
        let _ = m.fit_incremental(&all[..5], &cfg);
    }

    #[test]
    #[should_panic(expected = "wrong collective")]
    fn cross_collective_samples_rejected() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let s = TrainingSample {
            point: Point::new(2, 1, 64),
            algorithm: Algorithm::ReduceBinomial,
            time_us: db.time(Algorithm::ReduceBinomial, Point::new(2, 1, 64)),
        };
        let _ = PerfModel::fit(Collective::Bcast, &[s], &ForestConfig::default());
    }
}
