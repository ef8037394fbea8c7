//! Store-backed tuning: probe → warm-start → train → write back.
//!
//! [`StorePlan`] is the one warm-start and write-back policy of every
//! tune path: [`tune_with_store`] (the CLI, with or without `--store`)
//! and the `acclaim-serve` daemon's worker both run it, so their
//! outputs on the same inputs are bit-identical by construction. The
//! warm-start math:
//!
//! * An **exact** hit injects every cached measurement as a trusted
//!   row: zero collection cost, candidates retired from the selection
//!   pool, and active learning runs only until the residual variance
//!   plateaus.
//! * A **near** hit (same machine, different node/ppn axes) deweights
//!   the cached rows by the signature overlap `w` (Jaccard product of
//!   the node and ppn axes): each row survives into the prior with
//!   probability `w`, decided by a stable per-row hash
//!   ([`thin_priors`]). Prior rows inform the forest but never retire
//!   a candidate, so fresh measurements outvote them.
//! * A **drift re-tune** (a `deweight`) distrusts even an exact hit:
//!   its rows become priors thinned to the weight, and a near hit's
//!   overlap is multiplied by it.
//! * Enabled analytical priors compose with whatever the store
//!   provided ([`AnalyticPrior::augment`]).
//!
//! Counters (all under `store.` on the run's [`Obs`], none without a
//! store): `hits`, `exact_hits`, `deweighted_hits`, `near_hits`,
//! `misses`, `points_reused`, `prior_points`, `entries_written`,
//! `quarantined_entries` (corrupt files skipped during probes), and
//! the cold-vs-warm convergence split `cold_iterations` /
//! `warm_iterations`.

use crate::signature::ClusterSignature;
use crate::store::{Probe, StoreEntry, TuningStore, STORE_SCHEMA_VERSION};
use acclaim_analytic::AnalyticPrior;
use acclaim_collectives::Collective;
use acclaim_core::{
    thin_priors, Acclaim, AcclaimConfig, CollectiveRules, JobTuning, TrainingOutcome, WarmStart,
};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig};
use acclaim_obs::Obs;
use std::collections::HashMap;
use std::io;

/// Turn a probe result into a warm start, counting the outcome on
/// `obs`. A `deweight` marks a drift re-tune: an exact hit becomes
/// priors thinned to the weight (`store.deweighted_hits`) instead of
/// trusted rows (`store.exact_hits`), and a near hit's overlap is
/// multiplied by it. Returns `None` on a miss.
fn warm_start(probe: Probe, deweight: Option<f64>, obs: &Obs) -> Option<WarmStart> {
    obs.incr_counter("store.quarantined_entries", probe.quarantined as u64);
    if let Some(e) = probe.exact {
        obs.incr_counter("store.hits", 1);
        Some(match deweight {
            Some(w) => {
                obs.incr_counter("store.deweighted_hits", 1);
                WarmStart::from_priors(thin_priors(e.samples, w))
            }
            None => {
                obs.incr_counter("store.exact_hits", 1);
                WarmStart::from_exact(e.samples)
            }
        })
    } else if let Some((e, w)) = probe.near {
        obs.incr_counter("store.hits", 1);
        obs.incr_counter("store.near_hits", 1);
        let w = (w * deweight.unwrap_or(1.0)).clamp(0.0, 1.0);
        Some(WarmStart::from_priors(thin_priors(e.samples, w)))
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

/// One job's store signatures and warm starts, from probe to
/// write-back.
#[derive(Debug)]
pub struct StorePlan {
    /// One signature per requested collective, in request order.
    signatures: Vec<ClusterSignature>,
    warms: HashMap<Collective, WarmStart>,
}

/// What [`StorePlan::write_back`] persisted.
#[derive(Debug)]
pub struct WriteBack {
    /// The store key of every completed collective, in tuning order
    /// (whether or not it had fresh rows to write).
    pub keys: Vec<String>,
    /// Fresh measurements written across all entries.
    pub fresh_points: usize,
}

impl StorePlan {
    /// Plan a tune of `collectives`: build each signature from
    /// `dataset` (a request's environment, which a test hook may train
    /// on a shifted database), probe it through `probe` (`None` with no
    /// store: nothing is probed or counted), turn the hit into a warm
    /// start and compose analytical priors when the config enables
    /// them. Store priors stay ahead of the analytical rows, so the
    /// write-back slicing (`prior_points`) never persists a guess.
    pub fn probe(
        dataset: &DatasetConfig,
        config: &AcclaimConfig,
        collectives: &[Collective],
        deweight: Option<f64>,
        probe: Option<impl Fn(&ClusterSignature) -> io::Result<Probe>>,
        obs: &Obs,
    ) -> io::Result<StorePlan> {
        let analytic =
            config.learner.analytic_priors.enabled.then(|| {
                AnalyticPrior::from_dataset(dataset, config.learner.analytic_priors.clone())
            });
        let mut plan = StorePlan {
            signatures: Vec::with_capacity(collectives.len()),
            warms: HashMap::new(),
        };
        for &c in collectives {
            let sig = ClusterSignature::new(dataset, &config.space, c, &config.learner.collection);
            let probed = probe.as_ref().map(|probe| probe(&sig)).transpose()?;
            let mut warm = probed.and_then(|p| warm_start(p, deweight, obs));
            // Only store rows count here: analytical rows have their
            // own `analytic.*` counters.
            if let Some(w) = &warm {
                obs.incr_counter("store.points_reused", w.exact.len() as u64);
                obs.incr_counter("store.prior_points", w.priors.len() as u64);
            }
            if let Some(prior) = &analytic {
                warm = Some(prior.augment(warm, c, &config.space, obs)).filter(|w| !w.is_empty());
            }
            if let Some(warm) = warm {
                plan.warms.insert(c, warm);
            }
            plan.signatures.push(sig);
        }
        Ok(plan)
    }

    /// The warm start `collective` trains from, if any — the
    /// `warm_for` callback of [`Acclaim::tune_with_warm`] and
    /// [`Acclaim::tune_while`].
    pub fn warm(&self, collective: Collective) -> Option<WarmStart> {
        self.warms.get(&collective).cloned()
    }

    /// How many collectives start warm.
    pub fn warmed(&self) -> usize {
        self.warms.len()
    }

    /// Hand `put` one entry per completed collective with fresh rows
    /// (a cancelled job's `tuning` holds only those that completed),
    /// counting `store.warm_iterations` / `store.cold_iterations` and
    /// `store.entries_written`.
    pub fn write_back(
        &self,
        tuning: &JobTuning,
        mut put: impl FnMut(&StoreEntry) -> io::Result<()>,
        obs: &Obs,
    ) -> io::Result<WriteBack> {
        let mut written = WriteBack {
            keys: Vec::with_capacity(tuning.reports.len()),
            fresh_points: 0,
        };
        for (i, (c, outcome)) in tuning.reports.iter().enumerate() {
            let sig = &self.signatures[i];
            written.keys.push(sig.key());
            let Some(entry) = entry_from_outcome(sig, &tuning.tuning_file.collectives[i], outcome)
            else {
                continue;
            };
            let iters = if self.warms.contains_key(c) {
                "store.warm_iterations"
            } else {
                "store.cold_iterations"
            };
            obs.incr_counter(iters, outcome.log.len() as u64);
            written.fresh_points += entry.samples.len();
            put(&entry)?;
            obs.incr_counter("store.entries_written", 1);
        }
        Ok(written)
    }
}

/// Tune `collectives` through a [`StorePlan`] over `store`. With no
/// store the run is [`Acclaim::tune_with_obs`] plus any analytical
/// priors the config enables; a probe that misses leaves it
/// bit-identical to that. I/O errors surface as `Err`; a hit that
/// fails to parse is treated as a miss (and can be reclaimed with
/// [`TuningStore::gc`]).
pub fn tune_with_store(
    store: Option<&TuningStore>,
    config: &AcclaimConfig,
    db: &BenchmarkDatabase,
    collectives: &[Collective],
    obs: &Obs,
) -> io::Result<JobTuning> {
    let probe = store.map(|s| move |sig: &ClusterSignature| s.probe(sig));
    let plan = StorePlan::probe(db.config(), config, collectives, None, probe, obs)?;
    let tuning =
        Acclaim::new(config.clone()).tune_with_warm(db, collectives, obs, |c| plan.warm(c));
    if let Some(store) = store {
        plan.write_back(&tuning, |entry| store.put(entry).map(drop), obs)?;
    }
    Ok(tuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_core::{CriterionConfig, VarianceConvergence};
    use acclaim_dataset::FeatureSpace;

    #[test]
    fn deweighted_warm_start_demotes_exact_hits_to_priors() {
        let dir = std::env::temp_dir().join("acclaim-store-deweight");
        std::fs::remove_dir_all(&dir).ok();
        let store = TuningStore::open(&dir).unwrap();
        let mut config = AcclaimConfig::new(FeatureSpace::tiny());
        config.learner.criterion =
            CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        tune_with_store(
            Some(&store),
            &config,
            &db,
            &[Collective::Bcast],
            &Obs::disabled(),
        )
        .unwrap();
        let sig = ClusterSignature::new(
            db.config(),
            &config.space,
            Collective::Bcast,
            &config.learner.collection,
        );
        let probe = store.probe(&sig).unwrap();
        assert!(
            probe.exact.is_some(),
            "freshly tuned signature must exact-hit"
        );

        let obs = Obs::enabled();
        let trusted = warm_start(probe.clone(), None, &obs).unwrap();
        assert!(!trusted.exact.is_empty() && trusted.priors.is_empty());

        // Deweighting demotes the same rows to priors: candidates stay
        // live and fresh measurements can outvote the stale regime.
        let full = warm_start(probe.clone(), Some(1.0), &obs).unwrap();
        assert!(full.exact.is_empty());
        assert_eq!(full.priors, trusted.exact);

        let half = warm_start(probe.clone(), Some(0.5), &obs).unwrap();
        assert!(half.priors.len() < full.priors.len());
        let again = warm_start(probe, Some(0.5), &obs).unwrap();
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
}
