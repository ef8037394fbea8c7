//! Cross-engine validation: the fast round-synchronous simulator and
//! the flow-level DES must agree on physics even though they model
//! synchronization differently. Random schedules exercise corners no
//! hand-written case would.

use acclaim_netsim::{Allocation, Cluster, FlowSim, MaterializedSchedule, Msg, RoundSim};
use proptest::prelude::*;

fn cluster(nodes: u32) -> Cluster {
    let base = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&base.topology, nodes);
    base.with_allocation(alloc)
}

/// Strategy: a well-formed random schedule on `ranks` ranks.
fn schedules(ranks: u32) -> impl Strategy<Value = MaterializedSchedule> {
    let msg = (0..ranks, 0..ranks, 1u64..500_000)
        .prop_filter_map("no self-messages", move |(src, dst, bytes)| {
            (src != dst).then(|| Msg::data(src, dst, bytes))
        });
    let round = proptest::collection::vec(msg, 1..8);
    proptest::collection::vec(round, 1..6)
        .prop_map(move |rounds| MaterializedSchedule::new(ranks, rounds))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree_within_a_band(sched in schedules(8)) {
        let c = cluster(4); // 2 ranks per node at ppn=2
        let rs = RoundSim::new().simulate(&c, 2, &sched);
        let des = FlowSim::new().simulate(&c, 2, &sched);
        prop_assert!(rs.is_finite() && des.is_finite());
        prop_assert!(rs > 0.0 && des > 0.0);
        // The DES relaxes round synchronization (can only help) but
        // charges endpoint CPU more precisely (can hurt); the two must
        // stay within a modest band of each other.
        let ratio = des / rs;
        prop_assert!(
            (0.3..=2.0).contains(&ratio),
            "engines diverged: roundsim={rs} des={des} ratio={ratio}"
        );
    }

    #[test]
    fn des_never_beats_the_critical_path(sched in schedules(6)) {
        // Lower bound: the largest single message's latency + transfer
        // at full bandwidth can never be undercut by either engine.
        let c = cluster(6);
        let p = &c.params;
        let bound = sched
            .rounds
            .iter()
            .flatten()
            .map(|m| {
                let wire = p.wire_bytes(m.bytes) as f64;
                wire / p.nic_bandwidth.max(p.mem_bandwidth)
            })
            .fold(0.0f64, f64::max);
        let rs = RoundSim::new().simulate(&c, 1, &sched);
        let des = FlowSim::new().simulate(&c, 1, &sched);
        prop_assert!(rs >= bound, "roundsim {rs} under bound {bound}");
        prop_assert!(des >= bound, "des {des} under bound {bound}");
    }

    #[test]
    fn scaling_bytes_up_never_speeds_either_engine(sched in schedules(6)) {
        let c = cluster(6);
        let bigger = MaterializedSchedule::new(
            sched.num_ranks,
            sched
                .rounds
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|m| Msg::data(m.src, m.dst, m.bytes * 4))
                        .collect()
                })
                .collect(),
        );
        let mut rs = RoundSim::new();
        prop_assert!(rs.simulate(&c, 1, &bigger) >= rs.simulate(&c, 1, &sched) - 1e-9);
        let mut des = FlowSim::new();
        prop_assert!(des.simulate(&c, 1, &bigger) >= des.simulate(&c, 1, &sched) * 0.999);
    }

    #[test]
    fn higher_placement_latency_never_helps(sched in schedules(8)) {
        let near = cluster(8);
        let far = cluster(8).with_job_latency_factor(2.5);
        let mut rs = RoundSim::new();
        prop_assert!(rs.simulate(&far, 1, &sched) >= rs.simulate(&near, 1, &sched) - 1e-9);
    }

    #[test]
    fn appending_a_round_strictly_adds_time(sched in schedules(6)) {
        let c = cluster(6);
        let mut extended = sched.clone();
        extended.rounds.push(vec![Msg::data(0, 1, 4_096)]);
        let mut rs = RoundSim::new();
        prop_assert!(rs.simulate(&c, 1, &extended) > rs.simulate(&c, 1, &sched));
    }

    #[test]
    fn round_order_is_irrelevant_to_roundsim(sched in schedules(6)) {
        // Rounds are priced independently and summed, so permuting them
        // must not change the total (a regression guard on scratch
        // clearing between rounds).
        let c = cluster(6);
        let mut reversed = sched.clone();
        reversed.rounds.reverse();
        let mut rs = RoundSim::new();
        let a = rs.simulate(&c, 1, &sched);
        let b = rs.simulate(&c, 1, &reversed);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
