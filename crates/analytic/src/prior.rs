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
use acclaim_collectives::Collective;
use acclaim_core::{
    Acclaim, AcclaimConfig, AnalyticPriorsConfig, JobTuning, TrainingSample, WarmStart,
};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
use acclaim_netsim::Fingerprint;
use acclaim_obs::Obs;
use std::collections::{HashMap, HashSet};

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
        let mut rows: Vec<TrainingSample> = Vec::new();
        for point in space.points() {
            for &algorithm in collective.algorithms() {
                let time_us = self.model.predict_us(algorithm, point).max(MIN_PRIOR_US);
                let row = TrainingSample {
                    point,
                    algorithm,
                    time_us,
                };
                if survives(&row, self.config.weight) {
                    rows.push(row);
                }
            }
        }
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
        let covered: HashSet<(u32, u32, u64, &str)> = base
            .exact
            .iter()
            .map(|s| {
                (
                    s.point.nodes,
                    s.point.ppn,
                    s.point.msg_bytes,
                    s.algorithm.name(),
                )
            })
            .collect();
        let key = |p: &acclaim_dataset::Point, a: &acclaim_collectives::Algorithm| {
            (p.nodes, p.ppn, p.msg_bytes, a.name())
        };
        base.priors.extend(
            analytic
                .priors
                .into_iter()
                .filter(|s| !covered.contains(&key(&s.point, &s.algorithm))),
        );
        base.pruned.extend(
            analytic
                .pruned
                .into_iter()
                .filter(|c| !covered.contains(&key(&c.point, &c.algorithm))),
        );
        base
    }
}

/// Deterministic per-row thinning, mirroring the store's `thin_priors`:
/// a row survives iff its fingerprint falls under the weight. Depends
/// only on the row, so the same sketch is selected on every machine
/// and under every learner seed.
fn survives(s: &TrainingSample, w: f64) -> bool {
    let threshold = (w.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let mut f = Fingerprint::new();
    f.write_u32(s.point.nodes);
    f.write_u32(s.point.ppn);
    f.write_u64(s.point.msg_bytes);
    f.write_str(s.algorithm.name());
    f.write_f64(s.time_us);
    f.finish() <= threshold
}

/// The analytical warm starts for a whole job, one per collective —
/// the map orchestration layers hand to [`Acclaim::tune_with_warm`].
/// Empty (tune cold) when `config.learner.analytic_priors` is
/// disabled.
pub fn analytic_warms(
    config: &AcclaimConfig,
    dataset: &DatasetConfig,
    collectives: &[Collective],
    obs: &Obs,
) -> HashMap<Collective, WarmStart> {
    let mut warms = HashMap::new();
    if !config.learner.analytic_priors.enabled {
        return warms;
    }
    let prior = AnalyticPrior::from_dataset(dataset, config.learner.analytic_priors.clone());
    for &c in collectives {
        let warm = prior.warm_start(c, &config.space, obs);
        if !warm.is_empty() {
            warms.insert(c, warm);
        }
    }
    warms
}

/// [`Acclaim::tune_with_obs`] plus analytical priors: the store-less
/// tuning entry point honoring `config.learner.analytic_priors`. With
/// the config disabled no warm start exists and the run is
/// bit-identical to [`Acclaim::tune_with_obs`].
pub fn tune_with_analytic(
    config: &AcclaimConfig,
    db: &BenchmarkDatabase,
    collectives: &[Collective],
    obs: &Obs,
) -> JobTuning {
    let warms = analytic_warms(config, db.config(), collectives, obs);
    Acclaim::new(config.clone()).tune_with_warm(db, collectives, obs, |c| warms.get(&c).cloned())
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
        let cfg = AcclaimConfig::new(FeatureSpace::tiny());
        assert!(analytic_warms(
            &cfg,
            &DatasetConfig::tiny(),
            &Collective::ALL,
            &Obs::disabled()
        )
        .is_empty());
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
