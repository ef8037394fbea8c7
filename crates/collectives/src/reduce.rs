//! The two MPICH `MPI_Reduce` algorithms the paper's Sec. II-B example
//! contrasts.
//!
//! * [`ReduceBinomial`] — a binomial reduction tree of full-size
//!   messages; few, large communications.
//! * [`ReduceScatterGather`] — recursive-halving reduce-scatter followed
//!   by a binomial gather to the root; many, smaller communications that
//!   maximize bandwidth utilization but suffer on high-latency
//!   placements.
//!
//! `bytes` is the full reduction payload; the root is rank 0.

use crate::blocks::{pad_to_power_of_two, prev_power_of_two, Blocks};
use acclaim_netsim::{Msg, Schedule, Step};

/// Binomial-tree reduction to rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceBinomial {
    ranks: u32,
    bytes: u64,
}

impl ReduceBinomial {
    /// Reduce `bytes` from `ranks` ranks onto rank 0.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        ReduceBinomial { ranks, bytes }
    }
}

impl Schedule for ReduceBinomial {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let visit = &mut |round: &[Msg]| visit(Step::Round(round));
        let n = self.ranks;
        let mut buf = Vec::new();
        let mut s = 1;
        while s < n {
            buf.clear();
            let mut r = s;
            while r < n {
                buf.push(Msg::reducing(r, r - s, self.bytes));
                r += s << 1;
            }
            visit(&buf);
            s <<= 1;
        }
    }
}

/// Recursive-halving reduce-scatter + binomial gather ("scatter_gather").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceScatterGather {
    ranks: u32,
    bytes: u64,
}

impl ReduceScatterGather {
    /// Reduce `bytes` from `ranks` ranks onto rank 0.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        ReduceScatterGather { ranks, bytes }
    }
}

impl Schedule for ReduceScatterGather {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let visit = &mut |round: &[Msg]| visit(Step::Round(round));
        let n = self.ranks;
        if n <= 1 {
            return;
        }
        let p = prev_power_of_two(n);
        let r = n - p;
        let blocks = Blocks::new(self.bytes, p);
        let mut buf: Vec<Msg> = Vec::new();

        // Fold: remainder ranks contribute their whole vector up front.
        if r > 0 {
            buf.clear();
            for i in 0..r {
                buf.push(Msg::reducing(p + i, i, self.bytes));
            }
            visit(&buf);
        }

        // Recursive-halving reduce-scatter among 0..p: rank i ends up
        // owning the fully reduced block i.
        let mut lo: Vec<u32> = vec![0; p as usize];
        let mut hi: Vec<u32> = vec![p; p as usize];
        let mut s = p / 2;
        while s >= 1 {
            buf.clear();
            for i in 0..p {
                let iu = i as usize;
                let mid = lo[iu] + (hi[iu] - lo[iu]) / 2;
                let partner = i ^ s;
                // Recursive halving assumes P2 half-blocks; ragged ones
                // travel padded.
                if i & s == 0 {
                    buf.push(Msg::reducing(
                        i,
                        partner,
                        pad_to_power_of_two(blocks.range(mid, hi[iu])),
                    ));
                } else {
                    buf.push(Msg::reducing(
                        i,
                        partner,
                        pad_to_power_of_two(blocks.range(lo[iu], mid)),
                    ));
                }
            }
            visit(&buf);
            for i in 0..p as usize {
                let mid = lo[i] + (hi[i] - lo[i]) / 2;
                if i as u32 & s == 0 {
                    hi[i] = mid;
                } else {
                    lo[i] = mid;
                }
            }
            if s == 1 {
                break;
            }
            s /= 2;
        }

        // Binomial gather of the scattered blocks onto rank 0: after
        // reduce-scatter, rank i holds block [i, i+1); gathering with
        // doubling distance keeps held ranges contiguous.
        let mut ghi: Vec<u32> = (1..=p).collect();
        let mut s = 1;
        while s < p {
            buf.clear();
            let mut i = s;
            while i < p {
                buf.push(Msg::data(i, i - s, blocks.range(i, ghi[i as usize])));
                ghi[(i - s) as usize] = ghi[i as usize];
                i += s << 1;
            }
            visit(&buf);
            s <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{received_bytes_per_rank, sent_messages_per_rank};
    use crate::blocks::ceil_log2;
    use acclaim_netsim::Schedule;
    use proptest::prelude::*;

    #[test]
    fn binomial_counts() {
        for n in [2u32, 3, 5, 8, 16, 21] {
            let s = ReduceBinomial::new(n, 999).materialize();
            s.validate().unwrap();
            assert_eq!(s.rounds.len() as u32, ceil_log2(n), "n={n}");
            let msgs: usize = s.rounds.iter().map(Vec::len).sum();
            assert_eq!(msgs as u32, n - 1);
        }
    }

    #[test]
    fn binomial_every_nonroot_sends_exactly_once() {
        for n in [2u32, 5, 9, 16] {
            let s = ReduceBinomial::new(n, 100).materialize();
            let sent = sent_messages_per_rank(&s);
            assert_eq!(sent[0], 0, "root never sends");
            assert!(sent[1..].iter().all(|&c| c == 1), "n={n}: {sent:?}");
        }
    }

    #[test]
    fn binomial_all_messages_reduce_full_payload() {
        let s = ReduceBinomial::new(8, 4_096).materialize();
        for round in &s.rounds {
            for m in round {
                assert_eq!(m.bytes, 4_096);
                assert_eq!(m.reduce_bytes, 4_096);
            }
        }
    }

    #[test]
    fn scatter_gather_p2_round_structure() {
        let s = ReduceScatterGather::new(8, 8_192).materialize();
        s.validate().unwrap();
        // log2(8) reduce-scatter rounds + log2(8) gather rounds.
        assert_eq!(s.rounds.len(), 6);
        // Reduce-scatter rounds halve the exchanged size.
        let first: u64 = s.rounds[0].iter().map(|m| m.bytes).max().unwrap();
        let second: u64 = s.rounds[1].iter().map(|m| m.bytes).max().unwrap();
        assert_eq!(first, 4_096);
        assert_eq!(second, 2_048);
    }

    #[test]
    fn scatter_gather_pads_ragged_halves_binomial_does_not() {
        let s = ReduceScatterGather::new(8, 8_000).materialize();
        let first: u64 = s.rounds[0].iter().map(|m| m.bytes).max().unwrap();
        assert_eq!(first, 4_096, "ragged 4000-byte half pads to 4096");
        let b = ReduceBinomial::new(8, 8_000).materialize();
        assert!(b.rounds.iter().all(|r| r.iter().all(|m| m.bytes == 8_000)));
    }

    #[test]
    fn scatter_gather_root_obtains_full_result() {
        for n in [2u32, 4, 8, 16] {
            let m = 16_000u64;
            let s = ReduceScatterGather::new(n, m).materialize();
            let recv = received_bytes_per_rank(&s);
            let p = prev_power_of_two(n);
            let own = Blocks::new(m, p).size(0);
            // Root gathers every block but its own, and received reduce
            // halves during the scatter phase.
            assert!(recv[0] >= m - own, "n={n}: root saw {} of {m}", recv[0]);
        }
    }

    #[test]
    fn scatter_gather_beats_binomial_for_large_payloads() {
        use acclaim_netsim::{Allocation, Cluster, RoundSim};
        let (n, m) = (16u32, 1u64 << 20);
        let base = Cluster::bebop_like();
        let cluster = base
            .clone()
            .with_allocation(Allocation::contiguous(&base.topology, n));
        let mut sim = RoundSim::new();
        let t_sg = sim.simulate(&cluster, 1, &ReduceScatterGather::new(n, m));
        let t_bin = sim.simulate(&cluster, 1, &ReduceBinomial::new(n, m));
        assert!(t_sg < t_bin, "sg={t_sg} bin={t_bin}");
    }

    #[test]
    fn binomial_gains_ground_on_high_latency_placements() {
        // The paper's Sec. II-B example: high job latency favors the
        // binomial tree's fewer communications. The *gap* between
        // scatter_gather and binomial must shrink (or flip) as the
        // placement latency factor grows.
        use acclaim_netsim::{Allocation, Cluster, RoundSim};
        let (n, m) = (16u32, 262_144u64);
        let base = Cluster::bebop_like();
        let alloc = Allocation::contiguous(&base.topology, n);
        let mut sim = RoundSim::new();
        let mut ratio = |factor: f64| {
            let c = base
                .clone()
                .with_allocation(alloc.clone())
                .with_job_latency_factor(factor);
            let sg = sim.simulate(&c, 1, &ReduceScatterGather::new(n, m));
            let bin = sim.simulate(&c, 1, &ReduceBinomial::new(n, m));
            bin / sg
        };
        let low = ratio(1.0);
        let high = ratio(40.0);
        assert!(
            high < low,
            "binomial should closen under latency: low={low:.3} high={high:.3}"
        );
    }

    #[test]
    fn nonp2_fold_round_reduces_whole_vectors() {
        let s = ReduceScatterGather::new(10, 50_000).materialize();
        // First round: ranks 8 and 9 fold into 0 and 1.
        assert_eq!(s.rounds[0].len(), 2);
        for m in &s.rounds[0] {
            assert_eq!(m.bytes, 50_000);
            assert!(m.reduce_bytes == m.bytes);
            assert!(m.src >= 8 && m.dst <= 1);
        }
    }

    proptest! {
        #[test]
        fn reduce_schedules_validate(n in 1u32..40, m in 0u64..200_000) {
            ReduceBinomial::new(n, m).materialize().validate().unwrap();
            ReduceScatterGather::new(n, m).materialize().validate().unwrap();
        }

        #[test]
        fn every_rank_contributes(n in 2u32..40, m in 1u64..100_000) {
            // Semantics: every non-root rank's contribution must leave it
            // at least once in both algorithms.
            for sched in [
                ReduceBinomial::new(n, m).materialize(),
                ReduceScatterGather::new(n, m).materialize(),
            ] {
                let sent = sent_messages_per_rank(&sched);
                for (rank, &c) in sent.iter().enumerate().skip(1) {
                    prop_assert!(c >= 1, "rank {} never sent (n={})", rank, n);
                }
            }
        }

        #[test]
        fn root_receives_at_least_remainder_of_payload(n in 2u32..40, m in 64u64..100_000) {
            let p = prev_power_of_two(n);
            let own = Blocks::new(m, p).max_size();
            let s = ReduceScatterGather::new(n, m).materialize();
            let recv = received_bytes_per_rank(&s);
            prop_assert!(recv[0] + own >= m, "root got {} of {}", recv[0], m);
        }
    }
}
