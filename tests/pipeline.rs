//! End-to-end integration tests spanning every crate: simulator →
//! collectives → database → learner → rules → application.

use acclaim::core::baselines::HunoldAutotuner;
use acclaim::core::{application_impact, generate_rules};
use acclaim::dataset::traces;
use acclaim::prelude::*;

fn small_db(nodes: u32) -> BenchmarkDatabase {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, nodes);
    BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::mild(),
        seed: 99,
    })
}

fn small_space() -> FeatureSpace {
    FeatureSpace::new(
        vec![2, 4, 8, 16],
        vec![1, 2, 4],
        (6..=16).map(|e| 1u64 << e).collect(),
    )
}

fn fast_learner(mut config: LearnerConfig) -> LearnerConfig {
    config.forest = ForestConfig {
        n_trees: 24,
        ..ForestConfig::for_n_features(4)
    };
    config.max_iterations = 80;
    config
}

#[test]
fn acclaim_pipeline_tunes_all_four_collectives() {
    let db = small_db(16);
    let space = small_space();
    let mut config = AcclaimConfig::new(space.clone());
    config.learner = fast_learner(config.learner);

    let tuning = Acclaim::new(config).tune(&db, &Collective::ALL);
    assert_eq!(tuning.tuning_file.collectives.len(), 4);

    // The tuning file is complete, pruned, and valid JSON round-trips.
    for table in &tuning.tuning_file.collectives {
        for ctx in &table.contexts {
            assert!(ctx.is_complete() && ctx.is_pruned());
        }
    }
    let json = tuning.tuning_file.to_mpich_json();
    let text = serde_json::to_string(&json).unwrap();
    let parsed = TuningFile::from_mpich_json(&serde_json::from_str(&text).unwrap()).unwrap();
    assert_eq!(parsed, tuning.tuning_file);

    // Tuned selections must beat or match the MPICH defaults overall.
    let selector = tuning.selector();
    let pts = space.points();
    for c in Collective::ALL {
        let tuned = db.average_slowdown(c, &pts, |p| selector.select(c, p));
        let default = db.average_slowdown(c, &pts, |p| mpich_default(c, p.ranks(), p.msg_bytes));
        assert!(
            tuned <= default + 0.10,
            "{}: tuned {tuned:.3} vs default {default:.3}",
            c.name()
        );
    }
}

/// The MPICH JSON bytes of a tuning file.
fn file_bytes(file: &TuningFile) -> String {
    serde_json::to_string(&file.to_mpich_json()).unwrap()
}

#[test]
fn a_job_trains_each_collective_as_it_would_alone_for_seeds_0_to_4() {
    // The job trains its collectives concurrently on the worker pool
    // (traced, so spans cross threads too); each must come out exactly
    // as `train_warm` makes it on its own.
    let db = small_db(16);
    let space = small_space();
    for seed in 0..5 {
        let mut config = AcclaimConfig::new(space.clone());
        config.learner = fast_learner(config.learner);
        config.learner.seed = seed;
        let job =
            Acclaim::new(config.clone()).tune_with_obs(&db, &Collective::ALL, &Obs::enabled());
        let learner = ActiveLearner::new(config.learner);
        let alone: Vec<TrainingOutcome> = Collective::ALL
            .iter()
            .map(|&c| learner.train_warm(&db, c, &space, None, &Obs::disabled(), None))
            .collect();
        let file = TuningFile {
            collectives: alone
                .iter()
                .map(|o| generate_rules(&o.model, &space))
                .collect(),
        };
        assert_eq!(
            file_bytes(&job.tuning_file),
            file_bytes(&file),
            "seed {seed}"
        );
        assert_eq!(job.reports.len(), Collective::ALL.len());
        for ((c, o), (&want, a)) in job.reports.iter().zip(Collective::ALL.iter().zip(&alone)) {
            assert_eq!(*c, want, "seed {seed}: report order");
            let json = |m: &PerfModel| serde_json::to_string(m).unwrap();
            assert_eq!(json(&o.model), json(&a.model), "seed {seed} {c:?}: model");
            assert_eq!(o.collected, a.collected, "seed {seed} {c:?}: rows");
            assert_eq!(o.log.len(), a.log.len(), "seed {seed} {c:?}: iterations");
        }
    }
}

#[test]
fn a_cancelled_job_reports_exactly_the_prefix_that_started() {
    // `keep_going` refuses on its third call only. The hook runs under
    // the lock that hands out collectives, so it is never consulted
    // again: the job holds exactly the first two collectives, in
    // order. Checking after the claim instead would let a later
    // collective start on another thread while the third is refused.
    let db = small_db(8);
    let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 1_024, 16_384]);
    let mut config = AcclaimConfig::new(space);
    config.learner = fast_learner(config.learner).with_budget(10);
    let acclaim = Acclaim::new(config);
    let full = acclaim.tune(&db, &Collective::ALL);
    for round in 0..50 {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let (partial, completed) = acclaim.tune_while(
            &db,
            &Collective::ALL,
            &Obs::disabled(),
            |_| None,
            || calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 != 3,
        );
        assert!(!completed, "round {round}");
        assert_eq!(calls.into_inner(), 3, "round {round}: hook calls");
        let order: Vec<Collective> = partial.reports.iter().map(|(c, _)| *c).collect();
        assert_eq!(order, Collective::ALL[..2], "round {round}");
        assert_eq!(
            partial.tuning_file.collectives,
            full.tuning_file.collectives[..2],
            "round {round}"
        );
    }
}

#[test]
fn acclaim_uses_less_machine_time_than_test_set_methods() {
    let db = small_db(16);
    let space = small_space();

    let acclaim = ActiveLearner::new(fast_learner(LearnerConfig::acclaim())).train(
        &db,
        Collective::Bcast,
        &space,
        None,
    );
    let fact = ActiveLearner::new(fast_learner(LearnerConfig::fact())).train(
        &db,
        Collective::Bcast,
        &space,
        None,
    );

    assert_eq!(acclaim.test_wall_us, 0.0, "ACCLAiM collects no test set");
    assert!(fact.test_wall_us > 0.0, "FACT pays for its test set");
    // The test set alone should dominate ACCLAiM's entire budget here.
    assert!(
        acclaim.total_wall_us() < fact.total_wall_us(),
        "ACCLAiM {:.0}us vs FACT {:.0}us",
        acclaim.total_wall_us(),
        fact.total_wall_us()
    );
}

#[test]
fn trained_models_generalize_to_unseen_grid_points() {
    let db = small_db(16);
    let space = small_space();
    let out = ActiveLearner::new(fast_learner(LearnerConfig::acclaim_sequential()).with_budget(60))
        .train(&db, Collective::Allreduce, &space, None);

    // Evaluate on the entire grid, most of which was never benchmarked.
    let pts = space.points();
    let slowdown = db.average_slowdown(Collective::Allreduce, &pts, |p| out.model.select(p));
    assert!(
        slowdown < 1.25,
        "60-point model should generalize: slowdown {slowdown:.3}"
    );
}

#[test]
fn rules_agree_with_the_model_everywhere_on_the_grid() {
    let db = small_db(8);
    let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 1_024, 16_384, 65_536]);
    let out = ActiveLearner::new(fast_learner(LearnerConfig::acclaim_sequential()).with_budget(40))
        .train(&db, Collective::Reduce, &space, None);
    let rules = generate_rules(&out.model, &space);
    for p in space.points() {
        assert_eq!(rules.select(p), out.model.select(p), "at {p}");
    }
}

#[test]
fn application_gets_tuned_speedup_on_a_trace() {
    let db = small_db(16);
    let space = small_space();
    let trace = traces::synthetic_trace("Laghos", 64, 65_536).unwrap();
    let mut config = AcclaimConfig::new(space);
    config.learner = fast_learner(config.learner);
    let tuning = Acclaim::new(config).tune(&db, &trace.collectives());
    let impact = application_impact(&db, &trace, 16, 4, &tuning.selector());
    assert!(
        impact.collective_speedup() > 0.9,
        "tuning must not slow the app: {:.3}",
        impact.collective_speedup()
    );
    // Whole-app speedup is bounded by the collective fraction.
    let app = impact.app_speedup(0.5);
    assert!((0.9..2.0).contains(&app));
}

#[test]
fn hunold_baseline_needs_more_data_than_acclaim_for_same_quality() {
    let db = small_db(16);
    let space = small_space();
    let pts = space.points();

    let acclaim =
        ActiveLearner::new(fast_learner(LearnerConfig::acclaim_sequential()).with_budget(50))
            .train(&db, Collective::Bcast, &space, None);
    let a_slow = db.average_slowdown(Collective::Bcast, &pts, |p| acclaim.model.select(p));

    // Hunold with the same budget (50 of space*3 candidates).
    let fraction = 50.0 / (pts.len() * 3) as f64;
    let hunold = HunoldAutotuner::default().train_with_fraction(
        &db,
        Collective::Bcast,
        &space,
        fraction * 3.0, // Hunold samples whole points (all 3 algorithms)
    );
    let h_slow = db.average_slowdown(Collective::Bcast, &pts, |p| hunold.select(p));

    // Active learning should not be worse given equal budgets; allow a
    // small noise margin.
    assert!(
        a_slow <= h_slow + 0.1,
        "ACCLAiM {a_slow:.3} vs Hunold {h_slow:.3}"
    );
}

#[test]
fn simulators_agree_on_algorithm_ordering() {
    // The DES cross-validates the round simulator: on a small case both
    // engines must rank algorithms identically.
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 8);
    let cluster = machine.with_allocation(alloc);
    let mut rs = RoundSim::new();
    let mut des = FlowSim::new();
    for collective in Collective::ALL {
        for &m in &[1_024u64, 262_144] {
            let mut by_rs: Vec<(String, f64)> = Vec::new();
            let mut by_des: Vec<(String, f64)> = Vec::new();
            for &a in collective.algorithms() {
                let sched = a.schedule(16, m); // 8 nodes x 2 ppn
                let mat = acclaim::netsim::Schedule::materialize(sched.as_ref());
                by_rs.push((a.name().into(), rs.simulate(&cluster, 2, &mat)));
                by_des.push((a.name().into(), des.simulate(&cluster, 2, &mat)));
            }
            by_rs.sort_by(|x, y| x.1.total_cmp(&y.1));
            by_des.sort_by(|x, y| x.1.total_cmp(&y.1));
            let fastest_rs = &by_rs[0];
            let fastest_des = &by_des[0];
            // Equal winner, or a photo-finish (within 20%).
            if fastest_rs.0 != fastest_des.0 {
                let rs_time_of_des_winner =
                    by_rs.iter().find(|(n, _)| n == &fastest_des.0).unwrap().1;
                assert!(
                    rs_time_of_des_winner < 1.2 * fastest_rs.1,
                    "{} {m}B: engines disagree: roundsim {:?} vs des {:?}",
                    collective.name(),
                    by_rs,
                    by_des
                );
            }
        }
    }
}

#[test]
fn database_is_reproducible_across_processes() {
    // Same config => identical samples, the property the simulated
    // evaluation framework depends on.
    let a = small_db(8);
    let b = small_db(8);
    for p in FeatureSpace::tiny().points() {
        for &alg in Collective::Allgather.algorithms() {
            assert_eq!(a.sample(alg, p), b.sample(alg, p));
        }
    }
}
