//! Fault-tolerant collection, end to end.
//!
//! Three guarantees, in increasing order of adversity:
//!
//! 1. **Golden**: with fault injection disabled, every other knob of the
//!    collection policy is inert — the `TrainingOutcome` is bit-identical
//!    to the default configuration, seed by seed.
//! 2. **Determinism**: under production-grade fault injection, the entire
//!    run — retry schedule, wave assignments, event log, final outcome —
//!    is a pure function of the seed, and tracing stays behaviorally
//!    inert on the fault path.
//! 3. **Resilience**: under production faults (and under a mid-run node
//!    hard failure) the learner still converges and the tuned rules
//!    still beat the MPICH default heuristic.

use acclaim::obs::Obs;
use acclaim::prelude::*;

/// The same small-but-nontrivial environment the obs-golden suite uses:
/// an 8-node Bebop-like job over a 3x2x7 grid.
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

/// Bitwise equality on every decision-bearing field, fault bookkeeping
/// included. Only the real-clock model-update timings may differ.
fn assert_outcomes_identical(a: &TrainingOutcome, b: &TrainingOutcome, label: &str) {
    assert_eq!(a.collected, b.collected, "{label}: samples diverged");
    assert_eq!(a.converged, b.converged, "{label}: convergence diverged");
    assert_eq!(a.stats, b.stats, "{label}: collection stats diverged");
    assert_eq!(a.faults, b.faults, "{label}: fault stats diverged");
    assert_eq!(
        a.fault_events, b.fault_events,
        "{label}: event log diverged"
    );
    assert_eq!(a.log.len(), b.log.len(), "{label}: log length diverged");
    for (x, y) in a.log.iter().zip(&b.log) {
        assert_eq!(x.iteration, y.iteration);
        assert_eq!(
            x.samples, y.samples,
            "{label}: samples at iter {}",
            x.iteration
        );
        assert_eq!(
            x.wall_us.to_bits(),
            y.wall_us.to_bits(),
            "{label}: wall time at iter {}",
            x.iteration
        );
        assert_eq!(
            x.cumulative_variance.to_bits(),
            y.cumulative_variance.to_bits(),
            "{label}: variance at iter {}",
            x.iteration
        );
        assert_eq!(x.wave_parallelism, y.wave_parallelism);
    }
}

/// With `faults` disabled, the fault-tolerant layer must not exist as
/// far as the outcome is concerned: a policy with aggressively non-
/// default retry/timeout/aggregation knobs (but no injection) matches
/// the default configuration bit for bit, for seeds 0-4.
#[test]
fn disabled_faults_are_bit_identical_for_seeds_0_to_4() {
    let (db, space) = env();
    for seed in 0..5u64 {
        let base = ActiveLearner::new(LearnerConfig {
            seed,
            ..LearnerConfig::acclaim()
        })
        .train(&db, Collective::Bcast, &space, None);
        let knobs = ActiveLearner::new(LearnerConfig {
            seed,
            collection: CollectionPolicy {
                max_retries: 11,
                bench_timeout_factor: 1.1,
                repeats: 5,
                backoff_cap_waves: 1,
                agg: RobustAgg::Mean,
                ..CollectionPolicy::default()
            },
            ..LearnerConfig::acclaim()
        })
        .train(&db, Collective::Bcast, &space, None);
        assert_outcomes_identical(&base, &knobs, &format!("seed {seed}"));
        assert!(
            knobs.faults.is_quiet(),
            "seed {seed}: phantom fault activity"
        );
        assert!(knobs.fault_events.is_empty());
    }
}

/// Satellite: same seed + same fault model => identical retry schedule,
/// wave assignments, and final outcome — and the obs recorder stays
/// behaviorally inert on the fault path too.
#[test]
fn production_fault_runs_are_deterministic_and_trace_inert() {
    let (db, space) = env();
    let cfg = LearnerConfig {
        collection: CollectionPolicy::production(),
        ..LearnerConfig::acclaim()
    };
    let learner = ActiveLearner::new(cfg);
    let a = learner.train(&db, Collective::Bcast, &space, None);
    let b = learner.train(&db, Collective::Bcast, &space, None);
    assert_outcomes_identical(&a, &b, "repeat run");

    // The retry schedule really fired (otherwise this test is vacuous).
    assert!(a.faults.retries > 0, "production faults must cause retries");
    assert!(
        a.fault_events
            .iter()
            .any(|e| matches!(e, FaultEvent::Retry { .. })),
        "retry events missing from the log"
    );

    // Tracing must not perturb fault draws, backoff, or scheduling.
    let obs = Obs::enabled();
    let (traced_db, _) = env();
    let traced = learner.train_with_obs(
        &traced_db.with_obs(&obs),
        Collective::Bcast,
        &space,
        None,
        &obs,
    );
    assert_outcomes_identical(&a, &traced, "traced run");
    let counter = |name: &str| {
        obs.snapshot()
            .metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // The obs counters are the same numbers the outcome reports.
    assert_eq!(counter("collect.retries"), a.faults.retries);
    assert_eq!(counter("collect.timeouts"), a.faults.timeouts);
    assert_eq!(counter("collect.failures"), a.faults.failures);
    assert_eq!(
        counter("collect.outliers_rejected"),
        a.faults.outliers_rejected
    );
}

/// Under production-grade fault injection the pipeline still converges,
/// reports its fault handling, and produces rules that beat the MPICH
/// default heuristic on the trained grid.
#[test]
fn learner_converges_and_beats_defaults_under_production_faults() {
    let (db, space) = env();
    let mut config = AcclaimConfig::new(space.clone());
    config.learner.collection = CollectionPolicy::production();
    // A seed where the production fault model produces a healthy mix of
    // retries and timeouts within the (short) converged run.
    config.learner.seed = 5;
    // The paper-default epsilon never fires on a grid this small; use
    // the same loosened criterion the learner's own convergence test
    // uses, so "did convergence still fire under faults" is testable.
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(3, 0.2));
    // Reduce is the collective where the MPICH default heuristic is
    // measurably suboptimal on this machine (~10% slowdown), so
    // "tuned beats default" is a real bar rather than a tie at 1.0.
    let tuning = Acclaim::new(config).tune(&db, &[Collective::Reduce]);

    let (_, outcome) = &tuning.reports[0];
    assert!(
        outcome.converged,
        "variance convergence must still fire under faults"
    );
    let f = tuning.fault_stats();
    assert!(f.retries > 0, "no retries recorded: {f:?}");
    assert!(f.timeouts > 0, "no timeouts recorded: {f:?}");
    let summary = tuning.summary();
    assert!(
        summary.contains("faults:"),
        "summary must report fault handling:\n{summary}"
    );

    // The tuned rule file must beat the default heuristic on average.
    let sel = tuning.selector();
    let pts = space.points();
    let tuned = db.average_slowdown(Collective::Reduce, &pts, |p| {
        sel.select(Collective::Reduce, p)
    });
    let default = db.average_slowdown(Collective::Reduce, &pts, |p| {
        mpich_default(Collective::Reduce, p.ranks(), p.msg_bytes)
    });
    assert!(
        tuned < default,
        "tuned rules ({tuned:.4}) must beat the default heuristic ({default:.4})"
    );
}

/// A node hard failure mid-run degrades the allocation: the dead node
/// is evicted, candidates that no longer fit are dropped, later waves
/// are rescheduled on the survivors, and training still completes.
#[test]
fn mid_run_node_failure_reschedules_on_the_survivors() {
    let (db, space) = env();
    // Calibrate the onset from a clean run so the failure lands
    // mid-collection (after the seed phase, before the end).
    let clean =
        ActiveLearner::new(LearnerConfig::acclaim()).train(&db, Collective::Bcast, &space, None);
    let onset_us = clean.stats.wall_us * 0.5;
    assert!(onset_us > 0.0);

    let cfg = LearnerConfig {
        collection: CollectionPolicy {
            faults: FaultModel::none().with_node_failure(0, onset_us),
            ..CollectionPolicy::default()
        },
        ..LearnerConfig::acclaim()
    };
    let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
    assert_eq!(out.faults.node_evictions, 1);
    assert!(
        out.faults.candidates_dropped > 0,
        "8-node candidates must be dropped on a 7-node allocation"
    );
    // Points collected before the onset may use all 8 nodes; afterwards
    // none can.
    let eviction_wave = out
        .fault_events
        .iter()
        .find_map(|e| match e {
            FaultEvent::NodeEvicted { wave, node: 0 } => Some(*wave),
            _ => None,
        })
        .expect("eviction event missing");
    assert!(eviction_wave > 0, "onset was calibrated to land mid-run");
    assert!(
        out.collected.iter().any(|s| s.point.nodes == 8),
        "pre-failure waves should have reached 8-node points"
    );
    // And the run still produced a usable model over the survivors.
    assert!(!out.collected.is_empty());
    assert!(out.stats.points == out.collected.len());
}
