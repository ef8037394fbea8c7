//! End-to-end properties of analytical cost-model priors and guideline
//! pruning (`acclaim-analytic`).
//!
//! Four promises:
//!
//! 1. An analytic-priors cold tune converges in strictly fewer
//!    iterations *and* at strictly lower simulated benchmark cost than
//!    the no-priors cold path, for seeds 0–4.
//! 2. With the config disabled (the default), runs are bit-identical
//!    to pre-analytic behavior — the entire feature is gated.
//! 3. A deliberately wrong model (uniformly 100x off) prunes exactly
//!    the same candidates (guidelines compare ratios, not absolutes),
//!    still converges, and its selections stay within a few percent of
//!    the well-calibrated run's quality: priors never retire
//!    candidates, so fresh measurements outvote bad guesses.
//! 4. Guideline pruning never prunes the simulated-true optimum at any
//!    grid point.

use acclaim::prelude::*;
use acclaim_analytic::{AnalyticPrior, CostModel};
use std::collections::HashMap;

fn config_with_seed(seed: u64) -> AcclaimConfig {
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.seed = seed;
    // Same band as tests/warm_start.rs: the paper-default 2% plateau
    // never fires on the tiny grid before the pool runs dry.
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    config
}

fn analytic_config_with_seed(seed: u64) -> AcclaimConfig {
    let mut config = config_with_seed(seed);
    config.learner.analytic_priors.enabled = true;
    config
}

fn db() -> BenchmarkDatabase {
    BenchmarkDatabase::new(DatasetConfig::tiny())
}

/// Deterministic parts of two outcomes must match (`model_update_us`
/// ticks on the host clock and is zeroed before comparison).
fn assert_outcomes_identical(a: &TrainingOutcome, b: &TrainingOutcome, what: &str) {
    let strip = |log: &[acclaim::core::IterationRecord]| -> Vec<_> {
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
}

#[test]
fn priors_converge_faster_and_cheaper_for_seeds_0_to_4() {
    let db = db();
    for seed in 0..5u64 {
        for &collective in &[Collective::Bcast, Collective::Allreduce] {
            let cold = Acclaim::new(config_with_seed(seed)).tune(&db, &[collective]);
            let warm = tune_with_analytic(
                &analytic_config_with_seed(seed),
                &db,
                &[collective],
                &Obs::disabled(),
            );
            let (cold, warm) = (&cold.reports[0].1, &warm.reports[0].1);
            assert!(
                cold.converged && warm.converged,
                "seed {seed} {collective:?}: both runs must converge"
            );
            assert!(
                warm.log.len() < cold.log.len(),
                "seed {seed} {collective:?}: analytic run must take strictly fewer \
                 iterations ({} vs {})",
                warm.log.len(),
                cold.log.len()
            );
            assert!(
                warm.stats.wall_us < cold.stats.wall_us,
                "seed {seed} {collective:?}: analytic run must collect strictly \
                 cheaper ({} vs {} µs)",
                warm.stats.wall_us,
                cold.stats.wall_us
            );
            assert_eq!(
                warm.reused_points, 0,
                "analytical rows must never be trusted as exact"
            );
            assert!(warm.prior_points > 0, "the sketch must inject priors");
        }
    }
}

#[test]
fn disabled_config_is_bit_identical_to_plain_tune() {
    let db = db();
    for seed in 0..5u64 {
        let config = config_with_seed(seed);
        assert!(
            !config.learner.analytic_priors.enabled,
            "default must be off"
        );
        let plain = Acclaim::new(config.clone()).tune(&db, &[Collective::Reduce]);
        let gated = tune_with_analytic(&config, &db, &[Collective::Reduce], &Obs::disabled());
        assert_outcomes_identical(
            &plain.reports[0].1,
            &gated.reports[0].1,
            &format!("seed {seed}: analytic disabled"),
        );
        assert_eq!(
            plain.tuning_file, gated.tuning_file,
            "seed {seed}: tuning files differ"
        );
    }
}

#[test]
fn wrong_model_still_converges_to_good_selections() {
    // Scale every prediction 100x: the sketch is absurdly wrong in
    // absolute terms but priors never retire candidates, so the
    // learner re-measures and fresh rows outvote the bad guesses
    // wherever it samples. Three properties survive the mis-scaling:
    // the pruned set is bit-identical (guidelines compare cost ratios
    // from one model, and a uniform scale cancels in every ratio), the
    // run still converges, and the final selections stay within a few
    // percent of the well-calibrated run's quality on the simulator.
    let db = db();
    let config = analytic_config_with_seed(0);
    let space = config.space.clone();
    let obs = Obs::disabled();

    let right = AnalyticPrior::from_dataset(db.config(), config.learner.analytic_priors.clone());
    let wrong = AnalyticPrior::new(
        CostModel::from_dataset(db.config()).scaled(100.0),
        config.learner.analytic_priors.clone(),
    );
    let mut warms: HashMap<Collective, WarmStart> = HashMap::new();
    for &c in &Collective::ALL {
        let w = wrong.warm_start(c, &space, &obs);
        assert_eq!(
            w.pruned,
            right.warm_start(c, &space, &obs).pruned,
            "{c:?}: uniform mis-scaling must not change the pruned set"
        );
        warms.insert(c, w);
    }

    for &collective in &Collective::ALL {
        let good = tune_with_analytic(&config, &db, &[collective], &obs);
        let bad = Acclaim::new(config.clone())
            .tune_with_warm(&db, &[collective], &obs, |c| warms.get(&c).cloned());
        assert!(
            bad.reports[0].1.converged,
            "{collective:?}: wrong-model run must converge"
        );

        // Final selection quality, judged by the simulator over the
        // full grid. The selections themselves may differ (the final
        // forest mixes measured rows with the inflated prior rows, so
        // rule boundaries can shift at never-measured candidates), but
        // because pruning is scale-invariant and every surviving
        // candidate stays measurable, the quality gap stays small.
        let points = space.points();
        let (good_sel, bad_sel) = (good.selector(), bad.selector());
        let slowdown = |sel: &TunedSelector| -> f64 {
            points
                .iter()
                .map(|&p| db.slowdown(p, sel.select(collective, p)))
                .sum::<f64>()
                / points.len() as f64
        };
        let (good_sd, bad_sd) = (slowdown(&good_sel), slowdown(&bad_sel));
        assert!(
            bad_sd <= good_sd + 0.15,
            "{collective:?}: 100x-wrong priors degraded selections too far \
             ({bad_sd:.4} vs {good_sd:.4})"
        );
        assert!(
            bad_sd < 1.3,
            "{collective:?}: wrong-model selections must stay near-optimal \
             in absolute terms (avg slowdown {bad_sd:.4})"
        );
    }
}

#[test]
fn guideline_pruning_never_prunes_the_true_optimum() {
    let db = db();
    let space = FeatureSpace::tiny();
    let config = AnalyticPriorsConfig {
        enabled: true,
        ..Default::default()
    };
    let prior = AnalyticPrior::from_dataset(db.config(), config);
    let mut total_pruned = 0usize;
    for &collective in &Collective::ALL {
        let warm = prior.warm_start(collective, &space, &Obs::disabled());
        total_pruned += warm.pruned.len();
        for point in space.points() {
            let (best, _) = db.best(collective, point);
            assert!(
                !warm
                    .pruned
                    .iter()
                    .any(|c| c.point == point && c.algorithm == best),
                "{collective:?} at {point:?}: pruned the simulated-true optimum {best}"
            );
        }
    }
    // The margin is conservative, not inert: across the four
    // collectives it must retire someone (on the tiny grid some
    // collectives — e.g. allreduce — have no violator at 3x).
    assert!(total_pruned > 0, "pruning never bit anywhere");
}

#[test]
fn analytic_priors_compose_with_store_warm_starts() {
    let dir = std::env::temp_dir().join("acclaim-analytic-compose");
    std::fs::remove_dir_all(&dir).ok();
    let store = TuningStore::open(&dir).unwrap();
    let db = db();
    let config = analytic_config_with_seed(2);
    let obs = Obs::enabled();

    // First run: no store entry yet — pure analytical warm start.
    let first = tune_with_store(&store, &config, &db, &[Collective::Bcast], &obs).unwrap();
    let first = &first.reports[0].1;
    assert!(first.prior_points > 0 && first.reused_points == 0);

    // Write-back never persists an analytical guess: the stored entry
    // holds exactly the freshly measured rows of the first run.
    let sig = ClusterSignature::new(
        db.config(),
        &config.space,
        Collective::Bcast,
        &config.learner.collection,
    );
    let probe = store.probe(&sig).unwrap();
    let entry = probe.exact.expect("entry persisted");
    assert_eq!(
        entry.samples,
        first.collected[first.prior_points..].to_vec(),
        "store must hold only measured rows, never analytical priors"
    );

    // Second run: the store's exact rows win; analytical rows only
    // cover candidates the store has no measurement for.
    let second = tune_with_store(&store, &config, &db, &[Collective::Bcast], &obs).unwrap();
    let second = &second.reports[0].1;
    assert!(second.reused_points > 0, "exact store hit must be reused");
    assert!(
        second.prior_points < first.prior_points,
        "measured candidates must drop out of the analytical sketch ({} vs {})",
        second.prior_points,
        first.prior_points
    );
    assert!(second.log.len() <= first.log.len());

    std::fs::remove_dir_all(&dir).ok();
}
