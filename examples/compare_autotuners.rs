//! Head-to-head of the three generations of collective autotuners the
//! paper discusses: Hunold et al. (random sampling, one model per
//! algorithm), FACT (surrogate-driven active learning, test-set
//! convergence), and ACCLAiM (own-model jackknife selection, test-set-
//! free convergence, parallel collection).
//!
//! ```text
//! cargo run --release --example compare_autotuners
//! ```

use acclaim::core::baselines::HunoldAutotuner;
use acclaim::prelude::*;

fn main() {
    let machine = Cluster::bebop_like();
    let allocation = Allocation::contiguous(&machine.topology, 32);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(allocation),
        bench: MicrobenchConfig::default(),
        noise: NoiseModel::mild(),
        seed: 3,
    });
    let space = FeatureSpace::new(
        vec![2, 4, 8, 16, 32],
        vec![1, 2, 4, 8, 16],
        (3..=20).map(|e| 1u64 << e).collect(),
    );
    let eval = space.points();
    let collective = Collective::Bcast;
    println!(
        "tuning {} over a {}-point grid\n",
        collective.name(),
        space.len()
    );

    // Hunold et al.: random sample of 30% of the space.
    let hunold = HunoldAutotuner::default().train_with_fraction(&db, collective, &space, 0.3);
    let h_slow = db.average_slowdown(collective, &eval, |p| hunold.select(p));
    println!(
        "Hunold et al. : {:>4} samples  {:>8.1} s collection  slowdown {:.3}",
        hunold.samples,
        hunold.collection_wall_us / 1e6,
        h_slow
    );

    // FACT: surrogate-driven active learning + 20% test set.
    let fact = ActiveLearner::new(LearnerConfig::fact()).train(&db, collective, &space, None);
    let f_slow = db.average_slowdown(collective, &eval, |p| fact.model.select(p));
    println!(
        "FACT          : {:>4} samples  {:>8.1} s collection  slowdown {:.3}  (+{:.1} s test set!)",
        fact.collected.len(),
        fact.stats.wall_us / 1e6,
        f_slow,
        fact.test_wall_us / 1e6
    );

    // ACCLAiM: everything on.
    let acclaim = ActiveLearner::new(LearnerConfig::acclaim()).train(&db, collective, &space, None);
    let a_slow = db.average_slowdown(collective, &eval, |p| acclaim.model.select(p));
    println!(
        "ACCLAiM       : {:>4} samples  {:>8.1} s collection  slowdown {:.3}  \
         (parallel speedup {:.2}x, no test set)",
        acclaim.collected.len(),
        acclaim.stats.wall_us / 1e6,
        a_slow,
        acclaim.stats.speedup()
    );

    println!(
        "\nmachine time to tune this job: Hunold {:.0} s | FACT {:.0} s | ACCLAiM {:.0} s",
        hunold.collection_wall_us / 1e6,
        (fact.stats.wall_us + fact.test_wall_us) / 1e6,
        acclaim.stats.wall_us / 1e6,
    );
}
