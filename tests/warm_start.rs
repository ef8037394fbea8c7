//! End-to-end tests for the persistent tuning store and warm starts.
//!
//! Three properties the PR promises:
//!
//! 1. A second `tune` of the same configuration through the store
//!    converges in strictly fewer iterations and at strictly lower
//!    simulated collection cost than the first.
//! 2. Store-less runs are bit-identical to the plain pipeline: the
//!    warm-start hooks are fully gated, and a cold (miss) store-backed
//!    run produces exactly the store-less outcome, for seeds 0–4.
//! 3. A store roundtrip (export → import into a fresh store) preserves
//!    forest predictions exactly, per tree, bit for bit.
//!
//! A tune with no store at all records no `store.*` counter, and the
//! store's row counters never count analytical priors.

use acclaim::prelude::*;
use acclaim_core::all_candidates;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config_with_seed(seed: u64) -> AcclaimConfig {
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.seed = seed;
    // The paper-default 2% plateau never fires on the tiny grid before
    // the candidate pool is exhausted; a 20% band lets both the cold and
    // the warm run genuinely converge (at 8 vs 5 iterations on seed 0).
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    config
}

fn db() -> BenchmarkDatabase {
    BenchmarkDatabase::new(DatasetConfig::tiny())
}

/// Compare the deterministic parts of two outcomes. `model_update_us`
/// ticks on the host's real clock and is zeroed before comparing.
fn assert_outcomes_identical(a: &TrainingOutcome, b: &TrainingOutcome, what: &str) {
    let strip = |log: &[acclaim_core::IterationRecord]| -> Vec<_> {
        log.iter()
            .map(|r| {
                let mut r = *r;
                r.model_update_us = 0.0;
                r
            })
            .collect()
    };
    assert_eq!(a.collected, b.collected, "{what}: collected rows differ");
    assert_eq!(
        strip(&a.log),
        strip(&b.log),
        "{what}: iteration logs differ"
    );
    assert_eq!(a.converged, b.converged, "{what}: convergence differs");
    assert_eq!(a.stats, b.stats, "{what}: collection stats differ");
    assert_eq!(a.reused_points, 0, "{what}: cold run reused points");
    assert_eq!(a.prior_points, 0, "{what}: cold run had priors");
}

#[test]
fn second_tune_converges_faster_and_cheaper() {
    let dir = temp_dir("acclaim-warmstart-e2e");
    let store = TuningStore::open(&dir).unwrap();
    let db = db();
    let config = config_with_seed(0);
    let obs = Obs::enabled();

    let cold = tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &obs).unwrap();
    let warm = tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &obs).unwrap();

    let (cold, warm) = (&cold.reports[0].1, &warm.reports[0].1);
    assert!(cold.converged && warm.converged, "both runs must converge");
    assert!(
        warm.log.len() < cold.log.len(),
        "warm run must take strictly fewer iterations ({} vs {})",
        warm.log.len(),
        cold.log.len()
    );
    assert!(
        warm.stats.wall_us < cold.stats.wall_us,
        "warm run must collect strictly cheaper ({} vs {} µs)",
        warm.stats.wall_us,
        cold.stats.wall_us
    );
    assert_eq!(warm.reused_points, cold.collected.len());
    assert_eq!(warm.prior_points, 0);

    // The counters tell the same story through the obs layer.
    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("store.misses"), 1);
    assert_eq!(counter("store.hits"), 1);
    assert_eq!(counter("store.exact_hits"), 1);
    assert_eq!(counter("store.points_reused"), cold.collected.len() as u64);
    assert!(counter("store.warm_iterations") < counter("store.cold_iterations"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storeless_runs_stay_bit_identical_for_seeds_0_to_4() {
    let db = db();
    for seed in 0..5u64 {
        let config = config_with_seed(seed);
        let learner = acclaim_core::ActiveLearner::new(config.learner.clone());

        // The plain path, run twice: determinism baseline.
        let a = learner.train(&db, Collective::Reduce, &config.space, None);
        let b = learner.train(&db, Collective::Reduce, &config.space, None);
        assert_outcomes_identical(&a, &b, &format!("seed {seed}: repeat"));

        // The gated warm path with no warm start must be the same run.
        let c = learner.train_warm(
            &db,
            Collective::Reduce,
            &config.space,
            None,
            &Obs::disabled(),
            None,
        );
        assert_outcomes_identical(&a, &c, &format!("seed {seed}: warm=None"));

        // An empty warm start is filtered out before it can gate anything.
        let d = learner.train_warm(
            &db,
            Collective::Reduce,
            &config.space,
            None,
            &Obs::disabled(),
            Some(&WarmStart::default()),
        );
        assert_outcomes_identical(&a, &d, &format!("seed {seed}: warm=empty"));

        // A store-backed run whose probe misses is the store-less run.
        let dir = temp_dir(&format!("acclaim-warmstart-miss-{seed}"));
        let store = TuningStore::open(&dir).unwrap();
        let via_store = tune_with_store(
            Some(&store),
            &config,
            &db,
            &[Collective::Reduce],
            &Obs::disabled(),
        )
        .unwrap();
        let plain = Acclaim::new(config.clone()).tune(&db, &[Collective::Reduce]);
        assert_outcomes_identical(
            &plain.reports[0].1,
            &via_store.reports[0].1,
            &format!("seed {seed}: cold store"),
        );
        assert_eq!(
            plain.tuning_file, via_store.tuning_file,
            "seed {seed}: tuning files differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn storeless_tune_records_no_store_counters() {
    // The CLI without `--store`: the plan probes nothing and writes
    // nothing, so it records no `store.*` counter, with or without
    // analytical priors (whose own counters prove the recorder is on).
    let db = db();
    for analytic in [false, true] {
        let mut config = config_with_seed(0);
        config.learner.analytic_priors.enabled = analytic;
        let obs = Obs::enabled();
        let collectives = [Collective::Bcast, Collective::Reduce];
        tune_with_store(None, &config, &db, &collectives, &obs).unwrap();
        let counters = obs.metrics_snapshot().counters;
        let store: Vec<_> = counters
            .iter()
            .filter(|(n, _)| n.starts_with("store."))
            .collect();
        assert!(store.is_empty(), "analytic={analytic}: {store:?}");
        let priors = counters
            .iter()
            .any(|(n, v)| n == "analytic.priors_injected" && *v > 0);
        assert_eq!(priors, analytic, "analytic={analytic}: {counters:?}");
    }
}

#[test]
fn store_row_counters_count_only_store_rows() {
    // With analytical priors on, a cold miss injects only analytical
    // rows, so the store's row counters stay at zero; the exact hit
    // that follows counts exactly the stored rows.
    let dir = temp_dir("acclaim-warmstart-row-counters");
    let store = TuningStore::open(&dir).unwrap();
    let db = db();
    let mut config = config_with_seed(0);
    config.learner.analytic_priors.enabled = true;
    let counter = |obs: &Obs, name: &str| {
        let counters = obs.metrics_snapshot().counters;
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let cold_obs = Obs::enabled();
    let cold =
        tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &cold_obs).unwrap();
    assert_eq!(counter(&cold_obs, "store.misses"), 1);
    assert!(counter(&cold_obs, "analytic.priors_injected") > 0);
    assert_eq!(counter(&cold_obs, "store.points_reused"), 0);
    assert_eq!(counter(&cold_obs, "store.prior_points"), 0);

    let warm_obs = Obs::enabled();
    tune_with_store(Some(&store), &config, &db, &[Collective::Bcast], &warm_obs).unwrap();
    let outcome = &cold.reports[0].1;
    let stored = outcome.collected.len() - outcome.prior_points;
    assert_eq!(counter(&warm_obs, "store.exact_hits"), 1);
    assert_eq!(counter(&warm_obs, "store.points_reused"), stored as u64);
    assert_eq!(counter(&warm_obs, "store.prior_points"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_import_preserves_forest_predictions_exactly() {
    let dir = temp_dir("acclaim-warmstart-roundtrip-src");
    let dir2 = temp_dir("acclaim-warmstart-roundtrip-dst");
    let bundle = std::env::temp_dir().join("acclaim-warmstart-roundtrip.json");
    let store = TuningStore::open(&dir).unwrap();
    let db = db();
    let config = config_with_seed(3);

    let tuning = tune_with_store(
        Some(&store),
        &config,
        &db,
        &[Collective::Allgather],
        &Obs::disabled(),
    )
    .unwrap();
    let original = &tuning.reports[0].1.model;

    assert_eq!(store.export(&bundle).unwrap(), 1);
    let fresh = TuningStore::open(&dir2).unwrap();
    let report = fresh.import(&bundle).unwrap();
    assert_eq!((report.imported, report.skipped), (1, 0));

    let key = store.keys().unwrap().remove(0);
    let entry = fresh.get(&key).unwrap().expect("imported entry readable");
    assert_eq!(entry.signature.key(), key);

    // Bit-exact per-tree agreement at every candidate of the space.
    for c in all_candidates(Collective::Allgather, &config.space) {
        let features = original.candidate_features(c.point, c.algorithm);
        for t in 0..original.n_trees() {
            let a = original.forest().tree(t).predict(&features);
            let b = entry.model.forest().tree(t).predict(&features);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tree {t} drifted at {c:?}: {a} vs {b}"
            );
        }
        assert_eq!(
            original.predict(c.point, c.algorithm).to_bits(),
            entry.model.predict(c.point, c.algorithm).to_bits()
        );
    }

    // A second import is a no-op: the local entry wins.
    let report = fresh.import(&bundle).unwrap();
    assert_eq!((report.imported, report.skipped), (0, 1));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
    std::fs::remove_file(&bundle).ok();
}

#[test]
fn near_signature_reuses_measurements_as_priors_only() {
    let dir = temp_dir("acclaim-warmstart-near");
    let store = TuningStore::open(&dir).unwrap();
    let db = db();

    // First job trains over the full tiny grid.
    let wide = config_with_seed(1);
    tune_with_store(
        Some(&store),
        &wide,
        &db,
        &[Collective::Bcast],
        &Obs::disabled(),
    )
    .unwrap();

    // Second job: same machine and message axis, narrower node axis —
    // a near match, so cached rows arrive as priors, never as exact.
    let mut narrow = config_with_seed(1);
    narrow.space = FeatureSpace::new(vec![2, 4], vec![1, 2], vec![64, 256, 1_024, 4_096]);
    let obs = Obs::enabled();
    let outcome = tune_with_store(Some(&store), &narrow, &db, &[Collective::Bcast], &obs).unwrap();
    let report = &outcome.reports[0].1;

    assert_eq!(report.reused_points, 0, "near hits must not be trusted");
    assert!(report.prior_points > 0, "near hit should contribute priors");
    // Priors never retire candidates: the run still measured fresh rows
    // beyond the injected priors.
    assert!(report.collected.len() > report.prior_points);

    let snap = obs.snapshot();
    assert!(snap
        .metrics
        .counters
        .iter()
        .any(|(n, v)| n == "store.near_hits" && *v == 1));

    std::fs::remove_dir_all(&dir).ok();
}
