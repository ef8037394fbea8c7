//! The round simulator prices a ring phase as one step. Its oracle is
//! the same schedule materialized into explicit rounds, which the
//! simulator prices message by message: every algorithm must give
//! bit-identical times and add the same round and message counts
//! either way.

use acclaim_collectives::Algorithm;
use acclaim_netsim::{Allocation, Cluster, RoundSim, Schedule};
use acclaim_obs::Obs;
use proptest::prelude::*;

/// `cluster` cut down to the nodes `ranks` ranks need at `ppn`.
fn allocate(cluster: &Cluster, ranks: u32, ppn: u32) -> Cluster {
    let alloc = Allocation::contiguous(&cluster.topology, ranks.div_ceil(ppn));
    cluster.clone().with_allocation(alloc)
}

/// Simulated time plus the round and message counters it recorded.
fn price(cluster: &Cluster, ppn: u32, sched: &dyn Schedule) -> (u64, u64, u64) {
    let obs = Obs::metrics_only();
    let t = RoundSim::with_obs(&obs).simulate(cluster, ppn, sched);
    let counters = obs.metrics_snapshot().counters;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    (
        t.to_bits(),
        counter("netsim.roundsim.rounds"),
        counter("netsim.roundsim.messages"),
    )
}

fn assert_matches_oracle(cluster: &Cluster, ppn: u32, alg: Algorithm, ranks: u32, bytes: u64) {
    let sched = alg.schedule(ranks, bytes);
    let direct = price(cluster, ppn, sched.as_ref());
    let oracle = price(cluster, ppn, &sched.materialize());
    assert_eq!(
        direct,
        oracle,
        "{alg:?} ranks={ranks} ppn={ppn} bytes={bytes}: {} µs vs oracle {} µs",
        f64::from_bits(direct.0),
        f64::from_bits(oracle.0),
    );
}

/// Byte counts for `ranks` ranks: below the rank count (0-byte blocks),
/// ragged and non-P2, and P2 up to 4 MiB.
fn byte_counts(ranks: u32) -> Vec<u64> {
    let r = ranks as u64;
    let mut sizes = vec![0, 1, r - 1, r + 1, 1_000, 12_345, 3 * r + 7, 100_000];
    sizes.extend([1 << 10, 1 << 16, 1 << 22]);
    sizes
}

/// The plain machine, a slow-latency job, and a congested global layer.
fn clusters() -> [Cluster; 3] {
    [
        Cluster::bebop_like(),
        Cluster::bebop_like().with_job_latency_factor(2.5),
        Cluster::bebop_like().with_background_utilization(0.95),
    ]
}

#[test]
fn every_algorithm_prices_like_its_materialized_rounds() {
    for base in clusters() {
        for ppn in [1u32, 2, 32] {
            for ranks in [2u32, 3, 7, 48, 128] {
                if ranks > base.num_nodes() * ppn {
                    continue;
                }
                let cluster = allocate(&base, ranks, ppn);
                for alg in Algorithm::ALL {
                    for bytes in byte_counts(ranks) {
                        assert_matches_oracle(&cluster, ppn, alg, ranks, bytes);
                    }
                }
            }
        }
    }
}

#[test]
fn every_algorithm_prices_like_its_materialized_rounds_at_2048_ranks() {
    // 64 nodes x 32 ppn. A materialized 2048-rank ring holds ~4M
    // messages, so this shape takes fewer sizes: one below the rank
    // count, one ragged, and the largest P2 size.
    let (ranks, ppn) = (2048u32, 32u32);
    for base in clusters() {
        let cluster = allocate(&base, ranks, ppn);
        for alg in Algorithm::ALL {
            for bytes in [1_000u64, 100_000, 1 << 22] {
                assert_matches_oracle(&cluster, ppn, alg, ranks, bytes);
            }
        }
    }
}

proptest! {
    #[test]
    fn ring_pricing_matches_the_oracle(ranks in 2u32..160, bytes in 0u64..5_000_000) {
        let ppn = 4;
        let cluster = allocate(&Cluster::bebop_like(), ranks, ppn);
        for alg in [Algorithm::AllgatherRing, Algorithm::BcastScatterRingAllgather] {
            assert_matches_oracle(&cluster, ppn, alg, ranks, bytes);
        }
    }
}
