//! Per-layer replay of a finished tune.
//!
//! The harness re-issues, in the measured run's order and on its
//! inputs, the calls each layer made during the tune, timing each call
//! under a [`Tracer`] span:
//!
//! * `ml.fit` — `PerfModel::fit` / `fit_incremental` on the growing
//!   collected prefix recorded in `TrainingOutcome::log`;
//! * `ml.scan` — `VarianceScanCache::refresh` plus `ranking` (whose
//!   cumulative variance must equal the logged one bit for bit);
//! * `ml.flatten` — `FlatForest::from_forest` of the same forest,
//!   re-run on its own: the rebuild `refresh` performs internally, so
//!   it is part of `ml.scan`, not added to it;
//! * `netsim.microbench` — a fresh `BenchmarkDatabase` sampling every
//!   collected point, i.e. `acclaim_collectives::measure` on the same
//!   noise stream (whose mean must equal the collected sample);
//! * `core.rules` — `generate_rules` on the final model (which must
//!   equal the tuning file's table);
//! * `store.put` / `store.probe` — `TuningStore::put_with` of the
//!   entries a store-backed run would write back, then `probe`.

use crate::jobs::Job;
use crate::trace::Tracer;
use acclaim_core::{
    all_candidates, generate_rules, Candidate, JobTuning, PerfModel, TrainingSample,
    VarianceScanCache,
};
use acclaim_dataset::{BenchmarkDatabase, Point};
use acclaim_ml::{FlatForest, TreeUpdate};
use acclaim_obs::Obs;
use acclaim_store::{entry_from_outcome, ClusterSignature, EntryFormat, TuningStore};
use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::path::Path;

/// Spans whose self time adds up to the replayed share of a cold tune.
pub const TUNE_LAYERS: [&str; 4] = ["ml.fit", "ml.scan", "netsim.microbench", "core.rules"];

/// Work counts gathered while replaying.
#[derive(Debug, Default)]
pub struct Counts {
    pub tunes: usize,
    pub trees_refit: usize,
    pub cells_recomputed: usize,
    pub cells_total: usize,
    pub microbench_calls: usize,
    pub msgs: u64,
    pub iterations: usize,
    pub points: usize,
    pub waves: usize,
    pub dataset_entries: usize,
    pub store_puts: usize,
    pub store_probes: usize,
    pub store_bytes: u64,
    /// Replayed results that differ from the measured run's.
    pub mismatches: usize,
}

/// The P2 grid candidate a collected sample stands for: itself, or for
/// a non-P2 substitution (drawn strictly inside `(3m/4, 3m/2)` of its
/// anchor `m`) the nearest power of two.
fn anchor(s: &TrainingSample) -> Candidate {
    let msg = s.point.msg_bytes;
    let p2 = if msg.is_power_of_two() {
        msg
    } else {
        let lo = 1u64 << (63 - msg.leading_zeros());
        if 2 * msg < 3 * lo {
            lo
        } else {
            2 * lo
        }
    };
    Candidate {
        point: Point::new(s.point.nodes, s.point.ppn, p2),
        algorithm: s.algorithm,
    }
}

/// Replay the ml, netsim, and core layers of `tuning`, a cold tune of
/// `job` whose database ended with `db_entries` memoized samples.
pub fn replay_tune(
    tr: &mut Tracer,
    job: &Job,
    tuning: &JobTuning,
    db_entries: usize,
    counts: &mut Counts,
) {
    let space = &job.config.space;
    let forest = &job.config.learner.forest;
    counts.tunes += 1;
    counts.dataset_entries += db_entries;
    for ((collective, outcome), table) in tuning.reports.iter().zip(&tuning.tuning_file.collectives)
    {
        counts.iterations += outcome.log.len();
        counts.points += outcome.collected.len();
        counts.waves += outcome.stats.waves;

        // ml: the learner's refit + scan sequence, one step per logged
        // iteration, then the final catch-up refit.
        let mut cache = VarianceScanCache::new(all_candidates(*collective, space)).with_flat(true);
        let mut retired: HashSet<Candidate> = HashSet::new();
        let mut model: Option<PerfModel> = None;
        let mut seen_samples = 0;
        for record in &outcome.log {
            let prefix = &outcome.collected[..record.samples];
            retired.extend(prefix[seen_samples..].iter().map(anchor));
            seen_samples = record.samples;
            let changed = tr.span("ml.fit", |_| match model.as_mut() {
                Some(m) => m.fit_incremental(prefix, forest),
                None => {
                    model = Some(PerfModel::fit(*collective, prefix, forest));
                    TreeUpdate::full_refit(forest.n_trees)
                }
            });
            counts.trees_refit += changed.len();
            let m = model.as_ref().expect("fitted above");
            tr.span("ml.flatten", |_| {
                black_box(FlatForest::from_forest(m.forest()))
            });
            let (stats, ranking) = tr.span("ml.scan", |_| {
                cache.retain(|c| !retired.contains(c));
                let stats = cache.refresh(m, &changed);
                (stats, cache.ranking())
            });
            counts.cells_recomputed += stats.cells_recomputed;
            counts.cells_total += stats.cells_total;
            if ranking.cumulative.to_bits() != record.cumulative_variance.to_bits() {
                counts.mismatches += 1;
            }
        }
        let mut model = model.expect("every tune logs at least one iteration");
        tr.span("ml.fit", |_| {
            model.fit_incremental(&outcome.collected, forest)
        });

        // core: rule generation from the final model.
        let rules = tr.span("core.rules", |_| generate_rules(&model, space));
        if &rules != table {
            counts.mismatches += 1;
        }

        // netsim: every collected point, priced as the database did.
        let mut seen = HashSet::new();
        let points: Vec<&TrainingSample> = outcome
            .collected
            .iter()
            .filter(|s| seen.insert((s.algorithm, s.point)))
            .collect();
        // A fresh database benchmarks every point again, on the same
        // per-sample noise stream the tune's database used.
        let db = BenchmarkDatabase::new(job.dataset.clone());
        let means = tr.span("netsim.microbench", |_| {
            points
                .iter()
                .map(|s| db.sample(s.algorithm, s.point).mean_us)
                .collect::<Vec<f64>>()
        });
        counts.microbench_calls += points.len();
        counts.mismatches += points
            .iter()
            .zip(&means)
            .filter(|(s, m)| s.time_us.to_bits() != m.to_bits())
            .count();
        // Message counts come from an untimed second pass with the
        // simulator's own counters switched on.
        let obs = Obs::enabled();
        let counted = BenchmarkDatabase::new(job.dataset.clone()).with_obs(&obs);
        for s in &points {
            counted.sample(s.algorithm, s.point);
        }
        counts.msgs += obs
            .metrics_snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "netsim.roundsim.messages")
            .map_or(0, |(_, v)| *v);
    }
}

/// Write back `tuning`'s entries into the store at `dir` in the
/// daemon's format, then probe each signature until `max_probes`
/// probes were made in total; every probe must hit exactly.
pub fn replay_store(
    tr: &mut Tracer,
    dir: &Path,
    job: &Job,
    tuning: &JobTuning,
    max_probes: usize,
    counts: &mut Counts,
) -> io::Result<()> {
    let store = TuningStore::open(dir)?;
    for ((collective, outcome), table) in tuning.reports.iter().zip(&tuning.tuning_file.collectives)
    {
        let sig = ClusterSignature::new(
            &job.dataset,
            &job.config.space,
            *collective,
            &job.config.learner.collection,
        );
        let entry = entry_from_outcome(&sig, table, outcome)
            .ok_or_else(|| io::Error::other("cold tune measured nothing"))?;
        let key = tr.span("store.put", |_| store.put_with(&entry, EntryFormat::Binary))?;
        counts.store_puts += 1;
        counts.store_bytes += std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(&key))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum::<u64>();
        if counts.store_probes < max_probes {
            let probe = tr.span("store.probe", |_| store.probe(&sig))?;
            counts.store_probes += 1;
            if probe.exact.is_none() {
                counts.mismatches += 1;
            }
        }
    }
    Ok(())
}
