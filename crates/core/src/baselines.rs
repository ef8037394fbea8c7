//! The prior-art autotuners the paper compares against (Sec. II-C).
//!
//! * **Hunold et al. [CLUSTER'20]** — one random forest *per algorithm*
//!   over the three raw inputs, predicting execution time in
//!   microseconds directly (the original design — without the log-time
//!   target and derived features the later systems benefit from),
//!   trained on a uniformly random sample of the feature space.
//!   Reproduced here directly ([`HunoldAutotuner`]).
//! * **FACT [ExaMPI'21]** — active learning with a DeepHyper surrogate.
//!   Reproduced as a [`crate::learner::LearnerConfig::fact`] preset of
//!   the shared loop (surrogate-variance selection, sequential
//!   collection, test-set slowdown convergence).

use acclaim_collectives::{Algorithm, Collective};
use acclaim_dataset::{splits, BenchmarkDatabase, FeatureSpace, Point};
use acclaim_ml::{FeatureMatrix, ForestConfig, RandomForest};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The Hunold et al. baseline: per-algorithm forests over a random
/// training sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HunoldAutotuner {
    /// Forest hyperparameters (features: raw msg bytes, nodes, ppn).
    pub forest: ForestConfig,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for HunoldAutotuner {
    fn default() -> Self {
        HunoldAutotuner {
            forest: ForestConfig::for_n_features(4),
            seed: 0x4151,
        }
    }
}

/// A trained per-algorithm ensemble.
#[derive(Debug, Clone)]
pub struct HunoldModel {
    collective: Collective,
    forests: Vec<RandomForest>,
    /// Wall-clock cost of collecting the training sample (µs).
    pub collection_wall_us: f64,
    /// Number of (point, algorithm) benchmarks collected.
    pub samples: usize,
}

impl HunoldAutotuner {
    /// Train on a uniformly random `fraction` of the feature space
    /// (every algorithm benchmarked at every sampled point, as in the
    /// original work).
    pub fn train_with_fraction(
        &self,
        db: &BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        fraction: f64,
    ) -> HunoldModel {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let points = splits::random_fraction(space, fraction, &mut rng);
        self.train_on_points(db, collective, &points)
    }

    /// Train on explicit points.
    pub fn train_on_points(
        &self,
        db: &BenchmarkDatabase,
        collective: Collective,
        points: &[Point],
    ) -> HunoldModel {
        assert!(!points.is_empty(), "need at least one training point");
        let mut wall = 0.0;
        let mut samples = 0usize;
        let forests = collective
            .algorithms()
            .iter()
            .map(|&a| {
                let mut x = FeatureMatrix::new(3);
                let mut y = Vec::with_capacity(points.len());
                for &p in points {
                    let s = db.sample(a, p);
                    // The original model: raw inputs, raw microseconds.
                    x.push_row(&[p.msg_bytes as f64, p.nodes as f64, p.ppn as f64]);
                    y.push(s.mean_us);
                    wall += s.wall_us;
                    samples += 1;
                }
                RandomForest::fit(&self.forest, &x, &y)
            })
            .collect();
        HunoldModel {
            collective,
            forests,
            collection_wall_us: wall,
            samples,
        }
    }
}

impl HunoldModel {
    /// Predicted time (µs) of one algorithm at a point.
    pub fn predict(&self, point: Point, algorithm: Algorithm) -> f64 {
        assert_eq!(algorithm.collective(), self.collective);
        self.forests[algorithm.index_within_collective()].predict(&[
            point.msg_bytes as f64,
            point.nodes as f64,
            point.ppn as f64,
        ])
    }

    /// The algorithm whose model predicts the lowest time (the original
    /// design: "selects the algorithm of the model with the lowest
    /// predicted time").
    pub fn select(&self, point: Point) -> Algorithm {
        self.collective
            .algorithms()
            .iter()
            .copied()
            .min_by(|&a, &b| self.predict(point, a).total_cmp(&self.predict(point, b)))
            .expect("collectives have algorithms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_dataset::DatasetConfig;

    fn tiny() -> (BenchmarkDatabase, FeatureSpace) {
        (
            BenchmarkDatabase::new(DatasetConfig::tiny()),
            FeatureSpace::tiny(),
        )
    }

    fn fast() -> HunoldAutotuner {
        HunoldAutotuner {
            forest: ForestConfig {
                n_trees: 16,
                ..ForestConfig::for_n_features(4)
            },
            ..HunoldAutotuner::default()
        }
    }

    #[test]
    fn full_fraction_trains_near_optimal_selector() {
        let (db, space) = tiny();
        let m = fast().train_with_fraction(&db, Collective::Bcast, &space, 1.0);
        let s = db.average_slowdown(Collective::Bcast, &space.points(), |p| m.select(p));
        assert!(s < 1.1, "full-data Hunold should be near-optimal: {s}");
        assert_eq!(m.samples, space.len() * 3);
    }

    #[test]
    fn collection_cost_scales_with_fraction() {
        let (db, space) = tiny();
        let half = fast().train_with_fraction(&db, Collective::Reduce, &space, 0.5);
        let full = fast().train_with_fraction(&db, Collective::Reduce, &space, 1.0);
        assert!(half.collection_wall_us < full.collection_wall_us);
        assert_eq!(half.samples * 2, full.samples);
    }

    #[test]
    fn selection_respects_collective() {
        let (db, space) = tiny();
        let m = fast().train_with_fraction(&db, Collective::Allgather, &space, 0.5);
        for p in space.points() {
            assert_eq!(m.select(p).collective(), Collective::Allgather);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (db, space) = tiny();
        let a = fast().train_with_fraction(&db, Collective::Bcast, &space, 0.4);
        let b = fast().train_with_fraction(&db, Collective::Bcast, &space, 0.4);
        for p in space.points() {
            assert_eq!(a.select(p), b.select(p));
        }
    }

    #[test]
    #[should_panic(expected = "at least one training point")]
    fn empty_training_rejected() {
        let (db, _) = tiny();
        fast().train_on_points(&db, Collective::Bcast, &[]);
    }
}
