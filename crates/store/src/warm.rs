//! Store-backed tuning: probe → warm-start → train → write back.
//!
//! [`tune_with_store`] wraps [`Acclaim::tune_with_warm`]: before each
//! collective trains, the store is probed for compatible prior work and
//! the hit is turned into a [`WarmStart`]; after the job's models
//! converge, the fresh artifacts are written back under the current
//! signature. The warm-start math:
//!
//! * An **exact** hit injects every cached measurement as a trusted
//!   row: zero collection cost, candidates retired from the selection
//!   pool, the forest warm-refits on them, and active learning runs
//!   only until the residual variance plateaus.
//! * A **near** hit (same machine, different node/ppn axes) deweights
//!   the cached rows by the signature overlap `w` (Jaccard product of
//!   the node and ppn axes): each row survives into the prior with
//!   probability `w`, decided by a stable per-row hash — deterministic,
//!   seed-independent, machine-independent. Prior rows inform the
//!   forest but never retire a candidate, so the learner is free to
//!   re-measure them; fresh rows then outvote the priors.
//!
//! Counters (all under `store.` on the run's [`Obs`]): `hits`,
//! `exact_hits`, `near_hits`, `misses`, `points_reused`,
//! `prior_points`, `entries_written`, `quarantined_entries` (corrupt
//! files skipped during probes), and the cold-vs-warm convergence
//! split `cold_iterations` / `warm_iterations`.

use crate::signature::ClusterSignature;
use crate::store::{Probe, StoreEntry, TuningStore, STORE_SCHEMA_VERSION};
use acclaim_analytic::AnalyticPrior;
use acclaim_collectives::Collective;
use acclaim_core::{
    Acclaim, AcclaimConfig, CollectiveRules, JobTuning, TrainingOutcome, TrainingSample, WarmStart,
};
use acclaim_dataset::BenchmarkDatabase;
use acclaim_netsim::Fingerprint;
use acclaim_obs::Obs;
use std::collections::HashMap;
use std::io;

/// Deterministically thin `samples` to a fraction `w`: row `s` survives
/// iff `hash(s) / 2^64 < w`. The decision depends only on the row
/// itself, so the same prior set is selected on every machine and under
/// every learner seed.
fn thin_priors(samples: &[TrainingSample], w: f64) -> Vec<TrainingSample> {
    let threshold = (w.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    samples
        .iter()
        .filter(|s| {
            let mut f = Fingerprint::new();
            f.write_u32(s.point.nodes);
            f.write_u32(s.point.ppn);
            f.write_u64(s.point.msg_bytes);
            f.write_str(s.algorithm.name());
            f.write_f64(s.time_us);
            f.finish() <= threshold
        })
        .copied()
        .collect()
}

/// Turn a probe result into the warm start the training run will use,
/// counting the outcome on `obs` (`store.hits` / `store.exact_hits` /
/// `store.near_hits` / `store.misses` / `store.quarantined_entries`).
/// Returns `None` on a miss.
///
/// This is the exact hit-to-warm-start policy of [`tune_with_store`],
/// split out so other orchestrators (the `acclaim-serve` daemon) reuse
/// it and stay bit-identical to the CLI path by construction.
pub fn warm_start_from_probe(probe: &Probe, obs: &Obs) -> Option<WarmStart> {
    obs.incr_counter("store.quarantined_entries", probe.quarantined as u64);
    if let Some(e) = &probe.exact {
        obs.incr_counter("store.hits", 1);
        obs.incr_counter("store.exact_hits", 1);
        Some(WarmStart::from_exact(e.samples.clone()))
    } else if let Some((e, w)) = &probe.near {
        obs.incr_counter("store.hits", 1);
        obs.incr_counter("store.near_hits", 1);
        Some(WarmStart::from_priors(thin_priors(&e.samples, *w)))
    } else {
        obs.incr_counter("store.misses", 1);
        None
    }
}

/// Like [`warm_start_from_probe`], but for re-tuning a signature whose
/// regime has *drifted*: cached rows are still informative but no
/// longer trustworthy, so even an exact hit becomes deweighted
/// **priors** (thinned to `weight`) instead of trusted rows. Prior
/// rows inform the warm forest but never retire a candidate, so the
/// learner is free to re-measure everything under the new regime and
/// fresh rows outvote the stale ones. A near hit composes the
/// signature overlap with `weight`. Counted as `store.hits` +
/// `store.deweighted_hits` (exact) or `store.near_hits` (near).
pub fn warm_start_deweighted(probe: &Probe, weight: f64, obs: &Obs) -> Option<WarmStart> {
    obs.incr_counter("store.quarantined_entries", probe.quarantined as u64);
    if let Some(e) = &probe.exact {
        obs.incr_counter("store.hits", 1);
        obs.incr_counter("store.deweighted_hits", 1);
        Some(WarmStart::from_priors(thin_priors(&e.samples, weight)))
    } else if let Some((e, w)) = &probe.near {
        obs.incr_counter("store.hits", 1);
        obs.incr_counter("store.near_hits", 1);
        Some(WarmStart::from_priors(thin_priors(
            &e.samples,
            (w * weight).clamp(0.0, 1.0),
        )))
    } else {
        obs.incr_counter("store.misses", 1);
        None
    }
}

/// Build the store entry persisting one collective's converged outcome
/// under `signature`. Rows are stored under the *current* signature,
/// so foreign prior rows (the first `prior_points` of `collected`) are
/// sliced off — they belong to the entry they came from. Returns
/// `None` when nothing fresh was measured (a pure exact-hit replay):
/// the existing entry already holds everything.
///
/// Like [`warm_start_from_probe`], this is the write-back half of
/// [`tune_with_store`], shared with the serving daemon.
pub fn entry_from_outcome(
    signature: &ClusterSignature,
    rules: &CollectiveRules,
    outcome: &TrainingOutcome,
) -> Option<StoreEntry> {
    let samples = outcome.collected[outcome.prior_points..].to_vec();
    if samples.is_empty() {
        return None;
    }
    Some(StoreEntry {
        version: STORE_SCHEMA_VERSION,
        signature: signature.clone(),
        samples,
        model: outcome.model.clone(),
        rules: rules.clone(),
        iterations: outcome.log.len(),
        collection_wall_us: outcome.stats.wall_us,
    })
}

/// Tune `collectives` with warm starts probed from `store`, then write
/// the converged measurements, forest, and rules back.
///
/// Behaviorally this is [`Acclaim::tune_with_obs`] plus persistence:
/// the underlying learner, convergence rule, and rule generation are
/// untouched, and a probe that misses leaves the run bit-identical to
/// a store-less tune. I/O errors surface as `Err`; a hit that fails to
/// parse is treated as a miss (and can be reclaimed with
/// [`TuningStore::gc`]).
///
/// When `config.learner.analytic_priors` is enabled, analytical
/// cost-model priors compose with whatever the store provided: exact
/// store rows win (their candidates receive no analytical prior), and
/// the analytical rows are appended after any store priors so the
/// write-back slicing (`prior_points`) is unaffected — an analytical
/// guess is never persisted as a measurement.
pub fn tune_with_store(
    store: &TuningStore,
    config: &AcclaimConfig,
    db: &BenchmarkDatabase,
    collectives: &[Collective],
    obs: &Obs,
) -> io::Result<JobTuning> {
    // Probe every collective up front (I/O, fallible), then hand the
    // results to the infallible training pipeline.
    let mut warms: HashMap<Collective, WarmStart> = HashMap::new();
    let mut signatures: HashMap<Collective, ClusterSignature> = HashMap::new();
    let analytic =
        config.learner.analytic_priors.enabled.then(|| {
            AnalyticPrior::from_dataset(db.config(), config.learner.analytic_priors.clone())
        });
    for &c in collectives {
        let sig = ClusterSignature::new(db.config(), &config.space, c, &config.learner.collection);
        let probe = store.probe(&sig)?;
        let mut warm = warm_start_from_probe(&probe, obs);
        if let Some(prior) = &analytic {
            let augmented = prior.augment(warm.take(), c, &config.space, obs);
            if !augmented.is_empty() {
                warm = Some(augmented);
            }
        }
        if let Some(warm) = warm {
            warms.insert(c, warm);
        }
        signatures.insert(c, sig);
    }

    let tuning = Acclaim::new(config.clone())
        .tune_with_warm(db, collectives, obs, |c| warms.get(&c).cloned());

    // Write back whatever was freshly measured.
    for (i, (c, outcome)) in tuning.reports.iter().enumerate() {
        let Some(entry) =
            entry_from_outcome(&signatures[c], &tuning.tuning_file.collectives[i], outcome)
        else {
            continue;
        };
        let iters = if warms.contains_key(c) {
            "store.warm_iterations"
        } else {
            "store.cold_iterations"
        };
        obs.incr_counter(iters, outcome.log.len() as u64);
        store.put(&entry)?;
        obs.incr_counter("store.entries_written", 1);
    }
    Ok(tuning)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nodes: u32, msg: u64, t: f64) -> TrainingSample {
        use acclaim_collectives::Collective;
        TrainingSample {
            point: acclaim_dataset::Point::new(nodes, 2, msg),
            algorithm: Collective::Bcast.algorithms()[0],
            time_us: t,
        }
    }

    #[test]
    fn deweighted_warm_start_demotes_exact_hits_to_priors() {
        use crate::store::TuningStore;
        use acclaim_core::{CriterionConfig, VarianceConvergence};
        use acclaim_dataset::{DatasetConfig, FeatureSpace};

        let dir = std::env::temp_dir().join("acclaim-store-deweight");
        std::fs::remove_dir_all(&dir).ok();
        let store = TuningStore::open(&dir).unwrap();
        let mut config = AcclaimConfig::new(FeatureSpace::tiny());
        config.learner.criterion =
            CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        tune_with_store(
            &store,
            &config,
            &db,
            &[acclaim_collectives::Collective::Bcast],
            &acclaim_obs::Obs::disabled(),
        )
        .unwrap();
        let sig = ClusterSignature::new(
            db.config(),
            &config.space,
            acclaim_collectives::Collective::Bcast,
            &config.learner.collection,
        );
        let probe = store.probe(&sig).unwrap();
        assert!(
            probe.exact.is_some(),
            "freshly tuned signature must exact-hit"
        );

        let obs = acclaim_obs::Obs::enabled();
        let trusted = warm_start_from_probe(&probe, &obs).unwrap();
        assert!(!trusted.exact.is_empty() && trusted.priors.is_empty());

        // Deweighting demotes the same rows to priors: candidates stay
        // live and fresh measurements can outvote the stale regime.
        let full = warm_start_deweighted(&probe, 1.0, &obs).unwrap();
        assert!(full.exact.is_empty());
        assert_eq!(full.priors, trusted.exact);

        let half = warm_start_deweighted(&probe, 0.5, &obs).unwrap();
        assert!(half.priors.len() < full.priors.len());
        let again = warm_start_deweighted(&probe, 0.5, &obs).unwrap();
        assert_eq!(half.priors, again.priors, "thinning is deterministic");

        let snap = obs.metrics_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("store.deweighted_hits"), 3);
        assert_eq!(counter("store.exact_hits"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thinning_is_deterministic_and_monotone_in_weight() {
        let rows: Vec<_> = (0u32..200)
            .map(|i| sample(2 + (i % 7), 64u64 << (i % 10), 10.0 + f64::from(i)))
            .collect();
        let half = thin_priors(&rows, 0.5);
        assert_eq!(half, thin_priors(&rows, 0.5), "must be deterministic");
        assert!(thin_priors(&rows, 1.0).len() == rows.len());
        assert!(thin_priors(&rows, 0.0).is_empty());
        let tenth = thin_priors(&rows, 0.1);
        assert!(tenth.len() < half.len() && half.len() < rows.len());
        // Lower-weight survivors are a subset of higher-weight ones
        // (same hash, lower threshold).
        assert!(tenth.iter().all(|s| half.contains(s)));
    }
}
