//! From predictions to warm starts: the adapter that turns the model
//! catalog into the deweighted-prior rows the learner already consumes.
//!
//! [`AnalyticPrior::warm_start`] sketches a collective's entire
//! candidate grid analytically — one prior row per candidate, thinned
//! deterministically to the configured weight — and, when pruning is
//! on, retires guideline violators from the selection pool. The rows
//! ride in [`WarmStart::priors`], the same slot store-provided near-hit
//! rows use, so everything the learner guarantees about priors applies
//! unchanged: they never retire a candidate, a fresh measurement
//! outvotes them inside the forest, and persistence layers slice them
//! off `collected` before write-back (an analytical guess is never
//! stored as a measurement).
//!
//! Counters (on the run's [`Obs`]): `analytic.priors_injected` (rows
//! emitted after thinning), `analytic.candidates_pruned` (grid
//! candidates retired), and `analytic.guideline_violations` (one per
//! (candidate, guideline) failure — a candidate can violate several).

use crate::guidelines::GuidelineSet;
use crate::model::CostModel;
use acclaim_collectives::{Algorithm, Collective};
use acclaim_core::{thin_priors, AnalyticPriorsConfig, TrainingSample, WarmStart};
use acclaim_dataset::{DatasetConfig, FeatureSpace, Point};
use acclaim_obs::Obs;
use std::collections::HashSet;

/// Predictions below this floor are clamped: the learner regresses
/// `ln(time)`, so a prior row must stay strictly positive.
const MIN_PRIOR_US: f64 = 1e-3;

/// Builds [`WarmStart`]s from a [`CostModel`] under an
/// [`AnalyticPriorsConfig`].
///
/// ```
/// use acclaim_analytic::AnalyticPrior;
/// use acclaim_collectives::Collective;
/// use acclaim_core::AnalyticPriorsConfig;
/// use acclaim_dataset::{DatasetConfig, FeatureSpace};
/// use acclaim_obs::Obs;
///
/// let config = AnalyticPriorsConfig { enabled: true, ..Default::default() };
/// let prior = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), config);
/// let warm = prior.warm_start(Collective::Bcast, &FeatureSpace::tiny(), &Obs::disabled());
/// // A full analytical sketch: one prior row per grid candidate,
/// // nothing trusted as exact. Pruned candidates keep their rows.
/// assert!(warm.exact.is_empty());
/// assert_eq!(
///     warm.priors.len(),
///     FeatureSpace::tiny().len() * Collective::Bcast.algorithms().len()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticPrior {
    model: CostModel,
    config: AnalyticPriorsConfig,
}

impl AnalyticPrior {
    /// Adapter over an explicit model.
    pub fn new(model: CostModel, config: AnalyticPriorsConfig) -> Self {
        AnalyticPrior { model, config }
    }

    /// Adapter modeling the cluster a benchmark database simulates.
    pub fn from_dataset(dataset: &DatasetConfig, config: AnalyticPriorsConfig) -> Self {
        AnalyticPrior::new(CostModel::from_dataset(dataset), config)
    }

    /// The underlying model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The configuration in force.
    pub fn config(&self) -> &AnalyticPriorsConfig {
        &self.config
    }

    /// The analytical warm start for one collective: a prior row per
    /// grid candidate (thinned to `config.weight`) and, with pruning
    /// on, the guideline violators to retire. Pruned candidates keep
    /// their prior rows — the forest keeps evidence about them.
    /// Returns an empty warm start (a guaranteed learner no-op) when
    /// the config is disabled.
    pub fn warm_start(&self, collective: Collective, space: &FeatureSpace, obs: &Obs) -> WarmStart {
        if !self.config.enabled {
            return WarmStart::default();
        }
        let sketch = space
            .points()
            .into_iter()
            .flat_map(|point| {
                collective
                    .algorithms()
                    .iter()
                    .map(move |&algorithm| TrainingSample {
                        point,
                        algorithm,
                        time_us: self.model.predict_us(algorithm, point).max(MIN_PRIOR_US),
                    })
            })
            .collect();
        let rows = thin_priors(sketch, self.config.weight);
        obs.incr_counter("analytic.priors_injected", rows.len() as u64);

        let pruned = if self.config.prune {
            let set = GuidelineSet::standard(self.config.prune_margin);
            let (pruned, violations) = set.prune(&self.model, collective, space);
            obs.incr_counter("analytic.guideline_violations", violations.len() as u64);
            obs.incr_counter("analytic.candidates_pruned", pruned.len() as u64);
            pruned
        } else {
            Vec::new()
        };

        WarmStart {
            exact: Vec::new(),
            priors: rows,
            pruned,
        }
    }

    /// Compose the analytical warm start with a store-provided one.
    /// Exact store rows win: candidates already covered by a trusted
    /// measurement receive no analytical prior (the measurement would
    /// only be diluted) and are never listed as pruned (they are
    /// retired by the exact row itself, with real evidence). Store
    /// priors keep their position ahead of the analytical rows, so the
    /// persistence layers' `prior_points` slicing is unaffected.
    pub fn augment(
        &self,
        base: Option<WarmStart>,
        collective: Collective,
        space: &FeatureSpace,
        obs: &Obs,
    ) -> WarmStart {
        let analytic = self.warm_start(collective, space, obs);
        let Some(mut base) = base else {
            return analytic;
        };
        let covered: HashSet<(Point, Algorithm)> =
            base.exact.iter().map(|s| (s.point, s.algorithm)).collect();
        let fresh = |point: Point, algorithm: Algorithm| !covered.contains(&(point, algorithm));
        base.priors.extend(
            analytic
                .priors
                .into_iter()
                .filter(|s| fresh(s.point, s.algorithm)),
        );
        base.pruned.extend(
            analytic
                .pruned
                .into_iter()
                .filter(|c| fresh(c.point, c.algorithm)),
        );
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_core::Candidate;

    fn enabled() -> AnalyticPriorsConfig {
        AnalyticPriorsConfig {
            enabled: true,
            ..Default::default()
        }
    }

    #[test]
    fn disabled_config_builds_nothing() {
        let prior = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), Default::default());
        let warm = prior.warm_start(Collective::Bcast, &FeatureSpace::tiny(), &Obs::disabled());
        assert!(warm.is_empty());
    }

    #[test]
    fn counters_account_for_every_row_and_prune() {
        let obs = Obs::enabled();
        let prior = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), enabled());
        let space = FeatureSpace::tiny();
        let warm = prior.warm_start(Collective::Allreduce, &space, &obs);
        let snap = obs.metrics_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(
            counter("analytic.priors_injected"),
            warm.priors.len() as u64
        );
        assert_eq!(
            counter("analytic.candidates_pruned"),
            warm.pruned.len() as u64
        );
        assert!(counter("analytic.guideline_violations") >= counter("analytic.candidates_pruned"));
    }

    #[test]
    fn weight_thins_deterministically() {
        let mut cfg = enabled();
        cfg.weight = 0.5;
        let prior = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), cfg);
        let space = FeatureSpace::tiny();
        let a = prior.warm_start(Collective::Bcast, &space, &Obs::disabled());
        let b = prior.warm_start(Collective::Bcast, &space, &Obs::disabled());
        assert_eq!(a.priors, b.priors);
        let full = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), enabled()).warm_start(
            Collective::Bcast,
            &space,
            &Obs::disabled(),
        );
        assert!(!a.priors.is_empty() && a.priors.len() < full.priors.len());
    }

    #[test]
    fn augment_lets_exact_rows_win() {
        let prior = AnalyticPrior::from_dataset(&DatasetConfig::tiny(), enabled());
        let space = FeatureSpace::tiny();
        let pt = space.points()[0];
        let alg = Collective::Bcast.algorithms()[0];
        let exact = WarmStart::from_exact(vec![TrainingSample {
            point: pt,
            algorithm: alg,
            time_us: 42.0,
        }]);
        let warm = prior.augment(Some(exact), Collective::Bcast, &space, &Obs::disabled());
        assert_eq!(warm.exact.len(), 1);
        assert!(
            !warm
                .priors
                .iter()
                .any(|s| s.point == pt && s.algorithm == alg),
            "a trusted measurement must not be diluted by its own prior"
        );
        assert!(!warm.pruned.contains(&Candidate {
            point: pt,
            algorithm: alg
        }));
    }
}
