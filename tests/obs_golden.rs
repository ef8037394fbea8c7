//! Golden equivalence: instrumentation must be *behaviorally inert*.
//! Running the active learner with an enabled recorder must produce a
//! bit-identical `TrainingOutcome` to running it with tracing off —
//! same samples in the same order, same convergence decision, same
//! per-iteration cumulative variances, same collection statistics, and
//! a final model that makes the same selections. Recorders observe;
//! they never feed back.

use acclaim::obs::{export, schema, Obs, Timeline};
use acclaim::prelude::*;

/// The same small-but-nontrivial environment the incremental
/// equivalence suite uses: an 8-node Bebop-like job over a 3x2x7 grid.
fn env() -> (BenchmarkDatabase, FeatureSpace) {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 8);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::mild(),
        seed: 7,
    });
    let space = FeatureSpace::new(
        vec![2, 4, 8],
        vec![1, 2],
        (6..=12).map(|e| 1u64 << e).collect(),
    );
    (db, space)
}

/// Assert that two outcomes are identical in every decision-bearing
/// field. `model_update_us` / `model_update_wall_us` are real-clock
/// measurements and legitimately differ between runs; everything else
/// must match to the bit.
fn assert_outcomes_identical(plain: &TrainingOutcome, traced: &TrainingOutcome, label: &str) {
    assert_eq!(
        plain.collected, traced.collected,
        "{label}: samples diverged"
    );
    assert_eq!(
        plain.converged, traced.converged,
        "{label}: convergence diverged"
    );
    assert_eq!(
        plain.stats, traced.stats,
        "{label}: collection stats diverged"
    );
    assert_eq!(
        plain.test_wall_us.to_bits(),
        traced.test_wall_us.to_bits(),
        "{label}: test cost diverged"
    );
    assert_eq!(
        plain.log.len(),
        traced.log.len(),
        "{label}: log length diverged"
    );
    for (a, b) in plain.log.iter().zip(&traced.log) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(
            a.samples, b.samples,
            "{label}: samples at iter {}",
            a.iteration
        );
        assert_eq!(
            a.wall_us.to_bits(),
            b.wall_us.to_bits(),
            "{label}: wall time at iter {}",
            a.iteration
        );
        assert_eq!(
            a.cumulative_variance.to_bits(),
            b.cumulative_variance.to_bits(),
            "{label}: variance at iter {}",
            a.iteration
        );
        assert_eq!(a.wave_parallelism, b.wave_parallelism);
        assert_eq!(a.oracle_slowdown, b.oracle_slowdown);
    }
    // The models agree on every per-tree prediction (stronger than
    // agreeing on select() winners alone).
    let (_, space) = env();
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    for c in all_candidates(Collective::Bcast, &space) {
        plain
            .model
            .per_tree_log_predictions(c.point, c.algorithm, &mut pa);
        traced
            .model
            .per_tree_log_predictions(c.point, c.algorithm, &mut pb);
        assert_eq!(pa, pb, "{label}: final model diverged at {c:?}");
    }
}

/// Seeds 0-4 at the paper-default configuration (parallel collection,
/// non-P2 injection, variance convergence): tracing on vs off.
#[test]
fn traced_training_is_bit_identical_for_seeds_0_to_4() {
    let (db, space) = env();
    for seed in 0..5u64 {
        let cfg = LearnerConfig {
            seed,
            ..LearnerConfig::acclaim()
        };
        let learner = ActiveLearner::new(cfg);
        let plain = learner.train(&db, Collective::Bcast, &space, None);
        let obs = Obs::enabled();
        let (traced_db, _) = env();
        let traced = learner.train_with_obs(
            &traced_db.with_obs(&obs),
            Collective::Bcast,
            &space,
            None,
            &obs,
        );
        assert_outcomes_identical(&plain, &traced, &format!("seed {seed}"));
        assert!(!obs.snapshot().is_empty(), "seed {seed}: nothing recorded");
    }
}

/// The sequential strategy and the test-slowdown criterion walk
/// different code paths (synthesized placements, test-set charging);
/// they must be inert too.
#[test]
fn traced_training_is_bit_identical_for_fact_baseline() {
    let (db, space) = env();
    let learner = ActiveLearner::new(LearnerConfig::fact());
    let plain = learner.train(&db, Collective::Bcast, &space, None);
    let obs = Obs::enabled();
    let (traced_db, _) = env();
    let traced = learner.train_with_obs(
        &traced_db.with_obs(&obs),
        Collective::Bcast,
        &space,
        None,
        &obs,
    );
    assert_outcomes_identical(&plain, &traced, "fact");
}

/// The trace an instrumented run emits is schema-valid and contains
/// the span taxonomy DESIGN.md documents: the learner phases on the
/// host timeline and per-slot collection lanes on the sim timeline.
#[test]
fn training_trace_validates_and_covers_the_span_taxonomy() {
    // A 32-node allocation spanning two racks: rack burning leaves room
    // for a second placement, so waves genuinely run in parallel.
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 32);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::mild(),
        seed: 7,
    });
    let space = FeatureSpace::new(
        vec![2, 4, 8],
        vec![1, 2],
        (6..=12).map(|e| 1u64 << e).collect(),
    );
    let obs = Obs::enabled();
    let learner = ActiveLearner::new(LearnerConfig::acclaim());
    let _ = learner.train_with_obs(&db.with_obs(&obs), Collective::Bcast, &space, None, &obs);

    let snapshot = obs.snapshot();
    let jsonl = export::to_jsonl(&snapshot);
    let lines = schema::validate_trace(&jsonl).expect("trace validates");
    assert!(
        lines > 10,
        "expected a substantial trace, got {lines} lines"
    );

    for name in [
        "train",
        "seed",
        "iteration",
        "fit",
        "variance_scan",
        "convergence_check",
        "collect",
        "microbench",
    ] {
        assert!(
            snapshot.spans.iter().any(|s| s.name == name),
            "span '{name}' missing"
        );
    }
    // Sim-timeline slot spans carry node-range lanes and never nest
    // under host spans.
    let slots: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.timeline == Timeline::Sim)
        .collect();
    assert!(!slots.is_empty(), "no sim-timeline collection slots");
    for s in &slots {
        assert!(s.track.starts_with("nodes "), "bad slot lane {:?}", s.track);
        assert!(s.parent.is_none());
        assert!(s.end_us >= s.start_us);
    }
    // Parallel collection must actually overlap somewhere: two slots
    // in the same wave share a start stamp.
    let overlapping = slots.iter().any(|a| {
        slots
            .iter()
            .any(|b| a.id != b.id && a.start_us == b.start_us)
    });
    assert!(
        overlapping,
        "parallel waves should produce concurrent slots"
    );

    // Counters recorded the loop's bookkeeping.
    let counter = |name: &str| {
        snapshot
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("learner.non_p2_injections") > 0);
    assert!(
        counter("learner.scan_cells_reused") > 0,
        "dirty-region reuse never fired"
    );
    assert!(counter("netsim.roundsim.calls") > 0);
    assert_eq!(
        counter("learner.trees_refitted") + counter("learner.trees_reused"),
        LearnerConfig::acclaim().forest.n_trees as u64
            * snapshot.spans.iter().filter(|s| s.name == "fit").count() as u64,
        "per-iteration tree accounting must partition the forest"
    );
}

/// `total_cost_us` = machine time + model-update CPU time, and the
/// machine-time part equals the documented split.
#[test]
fn total_cost_includes_model_updates() {
    let (db, space) = env();
    let learner = ActiveLearner::new(LearnerConfig {
        seed: 3,
        ..LearnerConfig::acclaim()
    });
    let out = learner.train(&db, Collective::Bcast, &space, None);
    assert_eq!(out.total_wall_us(), out.stats.wall_us + out.test_wall_us);
    assert!(out.model_update_wall_us > 0.0);
    assert_eq!(
        out.total_cost_us(),
        out.total_wall_us() + out.model_update_wall_us
    );
    assert!(out.total_cost_us() > out.total_wall_us());
}
