//! Robustness tests: degenerate spaces, heavy measurement noise, and
//! adversarial placements must degrade the autotuner gracefully, never
//! panic it.

use acclaim::prelude::*;

fn learner(budget: usize) -> ActiveLearner {
    let mut cfg = LearnerConfig::acclaim_sequential().with_budget(budget);
    cfg.forest = ForestConfig {
        n_trees: 16,
        ..ForestConfig::for_n_features(5)
    };
    cfg.max_iterations = 60;
    ActiveLearner::new(cfg)
}

#[test]
fn single_point_space_trains_and_selects() {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 4);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::none(),
        seed: 1,
    });
    let space = FeatureSpace::new(vec![4], vec![2], vec![1_024]);
    let out = learner(5).train(&db, Collective::Reduce, &space, None);
    // 2 algorithms x 1 point = 2 candidates; both get collected.
    assert_eq!(out.collected.len(), 2);
    let sel = out.model.select(Point::new(4, 2, 1_024));
    assert_eq!(sel.collective(), Collective::Reduce);
}

#[test]
fn production_noise_with_spikes_still_converges_reasonably() {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 8);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel {
            sigma: 0.10,
            spike_probability: 0.05,
            spike_factor: 3.0,
        },
        seed: 2,
    });
    let space = FeatureSpace::new(
        vec![2, 4, 8],
        vec![1, 2],
        (6..=14).map(|e| 1u64 << e).collect(),
    );
    let out = learner(60).train(&db, Collective::Bcast, &space, None);
    let pts = space.points();
    let slowdown = db.average_slowdown(Collective::Bcast, &pts, |p| out.model.select(p));
    // Heavy noise raises the floor but must not break selection wholesale.
    assert!(slowdown < 1.5, "noisy training collapsed: {slowdown:.3}");
}

#[test]
fn scattered_random_allocation_trains_without_panic() {
    use rand::SeedableRng;
    let machine = Cluster::bebop_like();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let alloc = Allocation::random(&machine.topology, 8, &mut rng);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc).with_job_latency_factor(2.5),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::mild(),
        seed: 3,
    });
    let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 4_096]);
    // Parallel strategy on a fragmented allocation: the scheduler must
    // still form (possibly trivial) waves.
    // The space holds 12 points x 2 algorithms = 24 candidates.
    let mut cfg = LearnerConfig::acclaim().with_budget(20);
    cfg.forest = ForestConfig {
        n_trees: 16,
        ..ForestConfig::for_n_features(5)
    };
    let out = ActiveLearner::new(cfg).train(&db, Collective::Allreduce, &space, None);
    assert!(out.stats.points >= 20, "collected {}", out.stats.points);
    assert!(out.stats.average_parallelism() >= 1.0);
}

#[test]
fn two_rank_jobs_are_tunable() {
    // The smallest meaningful job: 2 nodes, 1 ppn.
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 2);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::none(),
        seed: 4,
    });
    let space = FeatureSpace::new(vec![2], vec![1], vec![64, 1_024, 16_384]);
    let mut config = AcclaimConfig::new(space);
    config.learner = LearnerConfig {
        forest: ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(5)
        },
        max_iterations: 20,
        ..config.learner
    };
    let tuning = Acclaim::new(config).tune(&db, &Collective::ALL);
    let selector = tuning.selector();
    for c in Collective::ALL {
        let a = selector.select(c, Point::new(2, 1, 1_024));
        assert_eq!(a.collective(), c);
    }
}

#[test]
fn extreme_latency_factor_flips_selections_toward_binomial() {
    // The paper's core motivation: the same job shape on a bad
    // placement should prefer fewer, larger messages. Verify the
    // *database truth* moves that way for reduce at a mid size.
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 16);
    let make_db = |factor: f64, seed: u64| {
        BenchmarkDatabase::new(DatasetConfig {
            cluster: machine
                .clone()
                .with_allocation(alloc.clone())
                .with_job_latency_factor(factor),
            bench: MicrobenchConfig::fast(),
            noise: NoiseModel::none(),
            seed,
        })
    };
    let near = make_db(1.0, 5);
    let far = make_db(30.0, 5);
    let p = Point::new(16, 1, 16_384);
    let t_near =
        near.time(Algorithm::ReduceScatterGather, p) / near.time(Algorithm::ReduceBinomial, p);
    let t_far =
        far.time(Algorithm::ReduceScatterGather, p) / far.time(Algorithm::ReduceBinomial, p);
    assert!(
        t_far > t_near,
        "latency must shift the race toward binomial: near {t_near:.3} far {t_far:.3}"
    );
}

// --- Degenerate cases for the incremental refit path -----------------
//
// The warm-start machinery (hashed bootstrap membership, dirty-region
// cache patching) has edge conditions that a healthy 64-tree forest on
// a big grid never hits: a forest of one tree, an append that *no*
// tree's bootstrap draws, and a candidate scan with a single row. Each
// must neither panic nor diverge from the scratch path.

fn tiny_db(seed: u64) -> BenchmarkDatabase {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 8);
    BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::none(),
        seed,
    })
}

fn tiny_trajectory(db: &BenchmarkDatabase, space: &FeatureSpace) -> Vec<TrainingSample> {
    all_candidates(Collective::Bcast, space)
        .into_iter()
        .map(|c| TrainingSample {
            point: c.point,
            algorithm: c.algorithm,
            time_us: db.time(c.algorithm, c.point),
        })
        .collect()
}

#[test]
fn single_tree_forest_refits_incrementally_without_divergence() {
    let db = tiny_db(11);
    let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 1_024, 16_384]);
    let samples = tiny_trajectory(&db, &space);
    let config = ForestConfig {
        n_trees: 1,
        ..ForestConfig::for_n_features(5)
    };

    let candidates = all_candidates(Collective::Bcast, &space);
    let mut model = PerfModel::fit(Collective::Bcast, &samples[..3], &config);
    let mut cache = VarianceScanCache::new(candidates.clone());
    cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
    for n in 4..=samples.len() {
        let changed = model.fit_incremental(&samples[..n], &config);
        cache.refresh(&model, &changed);
        // A 1-tree forest has zero jackknife variance everywhere; the
        // ranking must still be well-formed and match a cold scan.
        let cached = cache.ranking();
        let cold = rank_by_variance(&model, &candidates);
        assert_eq!(cached, cold, "single-tree cache diverged at n={n}");
        let scratch = PerfModel::fit(Collective::Bcast, &samples[..n], &config);
        for p in space.points() {
            assert_eq!(
                model.select(p),
                scratch.select(p),
                "single-tree select diverged at n={n}"
            );
        }
    }

    // The learner end-to-end with one tree: trains, selects, no panic.
    let mut cfg = LearnerConfig::acclaim_sequential().with_budget(10);
    cfg.forest = config;
    cfg.max_iterations = 20;
    let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
    assert!(out.collected.len() >= 10);
    out.model.select(Point::new(8, 2, 1_024));
}

#[test]
fn appends_no_tree_samples_leave_model_and_cache_exact() {
    // With the hashed Poisson(1) bootstrap each tree skips a given
    // sample with probability e^-1, so a 1-tree forest sees "zero trees
    // drew the append" on ~37% of updates. Walk a trajectory and check
    // those updates leave the model untouched *and* still scratch-exact.
    let db = tiny_db(12);
    let space = FeatureSpace::new(vec![2, 4, 8], vec![1, 2], vec![64, 1_024, 16_384]);
    let samples = tiny_trajectory(&db, &space);
    let config = ForestConfig {
        n_trees: 1,
        ..ForestConfig::for_n_features(5)
    };

    let candidates = all_candidates(Collective::Bcast, &space);
    let mut model = PerfModel::fit(Collective::Bcast, &samples[..3], &config);
    let mut cache = VarianceScanCache::new(candidates.clone());
    cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
    let mut empty_updates = 0;
    for n in 4..=samples.len() {
        let changed = model.fit_incremental(&samples[..n], &config);
        if changed.is_empty() {
            empty_updates += 1;
        }
        cache.refresh(&model, &changed);
        let scratch = PerfModel::fit(Collective::Bcast, &samples[..n], &config);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for c in &candidates {
            model.per_tree_log_predictions(c.point, c.algorithm, &mut a);
            scratch.per_tree_log_predictions(c.point, c.algorithm, &mut b);
            assert_eq!(a, b, "zero-refit append diverged from scratch at n={n}");
        }
        assert_eq!(cache.ranking(), rank_by_variance(&model, &candidates));
    }
    assert!(
        empty_updates > 0,
        "trajectory never produced an append with zero sampling trees; \
         the degenerate path went unexercised"
    );
}

#[test]
fn candidate_space_of_size_one_survives_incremental_updates() {
    let db = tiny_db(13);
    // One point; keep only one algorithm's candidate in the scan so the
    // cache holds a single row.
    let space = FeatureSpace::new(vec![4], vec![2], vec![1_024]);
    let all = all_candidates(Collective::Bcast, &space);
    let only = all[0];
    let samples = tiny_trajectory(&db, &space);
    let config = ForestConfig {
        n_trees: 8,
        ..ForestConfig::for_n_features(5)
    };

    let mut model = PerfModel::fit(Collective::Bcast, &samples[..1], &config);
    let mut cache = VarianceScanCache::new(all);
    cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
    cache.retain(|c| *c == only);
    assert_eq!(cache.candidates().len(), 1);
    for n in 2..=samples.len() {
        let changed = model.fit_incremental(&samples[..n], &config);
        cache.refresh(&model, &changed);
        let ranking = cache.ranking();
        assert_eq!(ranking.top(), Some(only));
        let cold = rank_by_variance(&model, std::slice::from_ref(&only));
        assert_eq!(ranking, cold, "single-candidate cache diverged at n={n}");
    }

    // End-to-end: the learner on the 1-point space already runs above
    // (`single_point_space_trains_and_selects`); here make sure its
    // warm-refitted final model is exactly the scratch fit.
    let mut cfg = LearnerConfig::acclaim_sequential().with_budget(2);
    cfg.forest = config;
    cfg.max_iterations = 10;
    let out = ActiveLearner::new(cfg.clone()).train(&db, Collective::Bcast, &space, None);
    let scratch = PerfModel::fit(Collective::Bcast, &out.collected, &cfg.forest);
    assert!(out.model.forest() == scratch.forest());
    for p in space.points() {
        assert_eq!(out.model.select(p), scratch.select(p));
    }
}
