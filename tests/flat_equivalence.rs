//! Painted-scan equivalence: the cached variance scan paints each
//! tree's leaf values over the candidate lattice instead of walking
//! every candidate from the root, and must stay *bit-identical* to the
//! pointer-chasing `rank_by_variance` walk — cold, along incremental
//! refits with candidates retiring in between, and for both the
//! primary forest and the FACT surrogate's configuration. The full
//! active-learning loop is pinned by digests of its decisions (samples
//! collected and per-iteration cumulative variance), recorded when the
//! scan still walked candidates one by one.

use acclaim::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A small but non-trivial simulated environment: 8-node Bebop-like
/// job, 3x2x7 grid -> 42 points, x3 Bcast algorithms = 126 candidates.
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

/// A seed-shuffled training trajectory over the candidate space.
fn trajectory(db: &BenchmarkDatabase, space: &FeatureSpace, seed: u64) -> Vec<TrainingSample> {
    let mut cands = all_candidates(Collective::Bcast, space);
    let mut rng = StdRng::seed_from_u64(seed);
    cands.shuffle(&mut rng);
    cands
        .into_iter()
        .map(|c| TrainingSample {
            point: c.point,
            algorithm: c.algorithm,
            time_us: db.time(c.algorithm, c.point),
        })
        .collect()
}

/// Follow an incremental-refit trajectory with `config`, retiring a
/// random share of the candidates before each refresh (as the learner
/// retires collected ones), and require the cached ranking to equal the
/// cold pointer scan over the survivors after every step.
fn cached_scan_tracks_cold_scan(config: &ForestConfig, seed: u64, n0: usize, appends: usize) {
    let (db, space) = env();
    let samples = trajectory(&db, &space, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut model = PerfModel::fit(Collective::Bcast, &samples[..n0], config);
    let mut cache = VarianceScanCache::new(all_candidates(Collective::Bcast, &space));
    let mut changed = TreeUpdate::full_refit(config.n_trees);
    for n in n0..=n0 + appends {
        if n > n0 {
            changed = model.fit_incremental(&samples[..n], config);
        }
        cache.retain(|_| rng.random_range(0..8) != 0);
        cache.refresh(&model, &changed);
        let cold = rank_by_variance(&model, cache.candidates());
        assert_eq!(cache.ranking(), cold, "cached scan diverged at n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A cold painted scan (one full refresh) returns the identical
    /// `VarianceRanking` (same candidate order, bit-equal variances and
    /// cumulative sum) as the pointer scan, at arbitrary training set
    /// sizes.
    #[test]
    fn flat_scan_ranking_is_bit_identical(
        seed in 0u64..1_000,
        n in 5usize..60,
    ) {
        let (db, space) = env();
        let candidates = all_candidates(Collective::Bcast, &space);
        let samples = trajectory(&db, &space, seed);
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(5)
        };
        let model = PerfModel::fit(Collective::Bcast, &samples[..n], &config);
        let mut cache = VarianceScanCache::new(candidates.clone());
        let stats = cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
        prop_assert!(stats.full);
        prop_assert_eq!(stats.cells_recomputed, stats.cells_total);
        prop_assert_eq!(&cache.ranking(), &rank_by_variance(&model, &candidates));
    }

    /// The cached scan of the primary forest tracks the cold pointer
    /// scan exactly while retains interleave with incremental refits.
    #[test]
    fn flat_cached_scan_equals_pointer_cold_scan(
        seed in 0u64..1_000,
        n0 in 5usize..30,
        appends in 1usize..6,
    ) {
        let config = LearnerConfig::acclaim().forest;
        cached_scan_tracks_cold_scan(&config, seed, n0, appends);
    }

    /// The same with the FACT surrogate's forest configuration.
    #[test]
    fn surrogate_cached_scan_equals_pointer_cold_scan(
        seed in 0u64..1_000,
        n0 in 5usize..30,
        appends in 1usize..6,
    ) {
        let SelectionPolicy::SurrogateVariance { surrogate, .. } = LearnerConfig::fact().policy
        else {
            unreachable!("FACT selects through a surrogate")
        };
        cached_scan_tracks_cold_scan(&surrogate, seed, n0, appends);
    }
}

/// FNV-1a digest of a training run's decisions: every collected sample
/// (point, algorithm, measured time) in order, then every iteration's
/// cumulative variance, by their bits.
fn decision_digest(mut cfg: LearnerConfig, seed: u64) -> u64 {
    let (db, space) = env();
    cfg.seed = seed;
    let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
    let samples = out.collected.iter().flat_map(|s| {
        let algorithm = s.algorithm.index_within_collective() as u64;
        let (p, t) = (s.point, s.time_us.to_bits());
        [
            u64::from(p.nodes),
            u64::from(p.ppn),
            p.msg_bytes,
            algorithm,
            t,
        ]
    });
    let variances = out.log.iter().map(|r| r.cumulative_variance.to_bits());
    samples
        .chain(variances)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
        })
}

/// ACCLAiM runs for seeds 0-4 at the paper-default configuration —
/// which includes every-5th non-P2 injection, so the model also sees
/// out-of-grid feature rows — make exactly the pinned decisions.
#[test]
fn acclaim_learner_matches_pinned_digests_seeds_0_to_4() {
    let pinned: [u64; 5] = [
        0xd353_5130_ea7f_e184,
        0xf498_7d30_0c7a_7064,
        0x0e8d_1a22_b152_a496,
        0xa59b_9e90_d823_19e1,
        0x5af4_27d9_7c39_0d8f,
    ];
    for (seed, want) in pinned.into_iter().enumerate() {
        let got = decision_digest(LearnerConfig::acclaim(), seed as u64);
        assert_eq!(got, want, "seed {seed}: decisions moved ({got:#018x})");
    }
}

/// The FACT baseline selects through a *surrogate* forest with its own
/// scan cache; its decisions are pinned too.
#[test]
fn fact_learner_matches_pinned_digest() {
    let got = decision_digest(LearnerConfig::fact(), 0);
    assert_eq!(got, 0xf011_76d6_c386_507d, "decisions moved ({got:#018x})");
}
