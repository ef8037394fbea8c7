//! Validate every collective algorithm's schedule through the flow-level
//! DES against the round simulator used for dataset generation, across
//! rank counts (P2 and non-P2) and message sizes.

use acclaim_collectives::{Algorithm, Collective};
use acclaim_netsim::{Allocation, Cluster, FlowSim, RoundSim};

fn cluster(nodes: u32) -> Cluster {
    let base = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&base.topology, nodes);
    base.with_allocation(alloc)
}

#[test]
fn engines_agree_for_every_algorithm_and_shape() {
    let mut rs = RoundSim::new();
    let mut des = FlowSim::new();
    for a in Algorithm::ALL {
        for (nodes, ppn) in [(4u32, 1u32), (8, 2), (5, 2), (7, 1)] {
            for bytes in [64u64, 8_192, 262_144] {
                let c = cluster(nodes);
                let ranks = nodes * ppn;
                let sched = a.schedule(ranks, bytes).materialize();
                sched.validate().unwrap();
                let t_rs = rs.simulate(&c, ppn, &sched);
                let t_des = des.simulate(&c, ppn, &sched);
                assert!(t_rs > 0.0 && t_des > 0.0);
                let ratio = t_des / t_rs;
                assert!(
                    (0.25..=2.0).contains(&ratio),
                    "{a:?} n={nodes} ppn={ppn} m={bytes}: roundsim={t_rs:.1} des={t_des:.1}"
                );
            }
        }
    }
}

#[test]
fn relative_ordering_survives_the_engine_swap_for_large_messages() {
    // At bandwidth-dominated sizes, both engines must agree on which
    // algorithm is fastest (or be within a photo-finish margin).
    let mut rs = RoundSim::new();
    let mut des = FlowSim::new();
    let c = cluster(8);
    let m = 1u64 << 19;
    for collective in Collective::ALL {
        let mut times_rs: Vec<(Algorithm, f64)> = Vec::new();
        let mut times_des: Vec<(Algorithm, f64)> = Vec::new();
        for &a in collective.algorithms() {
            let sched = a.schedule(16, m).materialize();
            times_rs.push((a, rs.simulate(&c, 2, &sched)));
            times_des.push((a, des.simulate(&c, 2, &sched)));
        }
        let best_rs = times_rs
            .iter()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap()
            .0;
        let best_des = times_des
            .iter()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap()
            .0;
        if best_rs != best_des {
            let rs_best_time = times_rs.iter().find(|(a, _)| *a == best_rs).unwrap().1;
            let rs_des_winner = times_rs.iter().find(|(a, _)| *a == best_des).unwrap().1;
            assert!(
                rs_des_winner <= 1.25 * rs_best_time,
                "{collective:?}: engines disagree beyond a photo finish: \
                 {times_rs:?} vs {times_des:?}"
            );
        }
    }
}

#[test]
fn nonp2_rank_counts_cost_more_for_p2_favoring_algorithms() {
    // The structural fold penalty: recursive-doubling allreduce at 9
    // ranks must be slower than at 8 ranks *per the simulator*, while
    // ring allgather grows smoothly.
    let mut rs = RoundSim::new();
    let m = 65_536u64;
    let t8 = rs.simulate(
        &cluster(8),
        1,
        Algorithm::AllreduceRecursiveDoubling
            .schedule(8, m)
            .as_ref(),
    );
    let t9 = rs.simulate(
        &cluster(9),
        1,
        Algorithm::AllreduceRecursiveDoubling
            .schedule(9, m)
            .as_ref(),
    );
    assert!(
        t9 > 1.3 * t8,
        "fold rounds must make 9 ranks much slower: {t8} vs {t9}"
    );

    let r8 = rs.simulate(
        &cluster(8),
        1,
        Algorithm::AllgatherRing.schedule(8, m).as_ref(),
    );
    let r9 = rs.simulate(
        &cluster(9),
        1,
        Algorithm::AllgatherRing.schedule(9, m).as_ref(),
    );
    assert!(
        r9 < 1.3 * r8,
        "ring must grow smoothly with rank count: {r8} vs {r9}"
    );
}

#[test]
fn nonp2_message_sizes_penalize_whole_transfers_but_padding_escapes() {
    // A non-P2 payload slows the binomial tree (non-P2 wire transfers),
    // while scatter_rd's padded block exchanges ship P2 blocks — the
    // trade-off that makes the non-P2 winner unlearnable from P2 data.
    let mut rs = RoundSim::new();
    let c = cluster(8);
    let p2 = 262_144u64;
    let nonp2 = 262_144 + 4_096; // 64-aligned but not a power of two
    let bin_ratio = rs.simulate(&c, 1, Algorithm::BcastBinomial.schedule(8, nonp2).as_ref())
        / rs.simulate(&c, 1, Algorithm::BcastBinomial.schedule(8, p2).as_ref());
    assert!(
        bin_ratio > 1.2,
        "binomial must pay the non-P2 slow path: ratio {bin_ratio}"
    );
}
