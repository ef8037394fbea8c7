//! The three MPICH `MPI_Bcast` algorithms the paper studies.
//!
//! * [`BcastBinomial`] — a binomial tree of full-size messages. Few,
//!   large communications: wins at small sizes and on high-latency
//!   placements. Handles any rank count smoothly.
//! * [`BcastScatterRecursiveDoublingAllgather`] — binomial scatter
//!   followed by a recursive-doubling allgather. Bandwidth-optimal for
//!   power-of-two rank counts, but non-P2 counts pay fold rounds
//!   (including a full-size post round), making it P2-favoring — the
//!   behaviour Fig. 5 of the paper studies.
//! * [`BcastScatterRingAllgather`] — binomial scatter followed by a ring
//!   allgather. Indifferent to power-of-two structure.
//!
//! Message size semantics: `bytes` is the total broadcast payload.

use crate::blocks::{pad_to_power_of_two, prev_power_of_two, Blocks};
use crate::scatter::visit_binomial_scatter;
use acclaim_netsim::{Msg, RingPhase, Schedule, Step};

/// Binomial-tree broadcast from rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastBinomial {
    ranks: u32,
    bytes: u64,
}

impl BcastBinomial {
    /// Broadcast `bytes` from rank 0 to `ranks` ranks.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        BcastBinomial { ranks, bytes }
    }
}

impl Schedule for BcastBinomial {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let visit = &mut |round: &[Msg]| visit(Step::Round(round));
        let n = self.ranks;
        let mut buf = Vec::new();
        let mut dist = 1;
        while dist < n {
            buf.clear();
            for r in 0..dist.min(n - dist) {
                buf.push(Msg::data(r, r + dist, self.bytes));
            }
            visit(&buf);
            dist <<= 1;
        }
    }
}

/// Binomial scatter + recursive-doubling allgather (P2-favoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastScatterRecursiveDoublingAllgather {
    ranks: u32,
    bytes: u64,
}

impl BcastScatterRecursiveDoublingAllgather {
    /// Broadcast `bytes` from rank 0 to `ranks` ranks.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        BcastScatterRecursiveDoublingAllgather { ranks, bytes }
    }
}

impl Schedule for BcastScatterRecursiveDoublingAllgather {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let visit = &mut |round: &[Msg]| visit(Step::Round(round));
        let n = self.ranks;
        if n <= 1 {
            return;
        }
        let blocks = Blocks::new(self.bytes, n);
        visit_binomial_scatter(&blocks, visit);

        let p = prev_power_of_two(n);
        let r = n - p;
        let mut buf: Vec<Msg> = Vec::new();

        // Fold: remainder ranks lend their block to a partner in 0..p.
        if r > 0 {
            buf.clear();
            for i in 0..r {
                buf.push(Msg::data(p + i, i, blocks.size(p + i)));
            }
            visit(&buf);
        }

        // Recursive doubling among 0..p; per-rank held bytes double (plus
        // the lent remainder blocks).
        let mut held: Vec<u64> = (0..p)
            .map(|i| blocks.size(i) + if i < r { blocks.size(i + p) } else { 0 })
            .collect();
        let mut snapshot = held.clone();
        let mut s = 1;
        while s < p {
            buf.clear();
            for i in 0..p {
                // The doubling exchange assumes P2 blocks; ragged blocks
                // (non-P2 payloads) travel padded.
                buf.push(Msg::data(i, i ^ s, pad_to_power_of_two(held[i as usize])));
            }
            visit(&buf);
            snapshot.copy_from_slice(&held);
            for i in 0..p as usize {
                held[i] += snapshot[i ^ s as usize];
            }
            s <<= 1;
        }

        // Unfold: remainder ranks need the whole payload.
        if r > 0 {
            buf.clear();
            for i in 0..r {
                buf.push(Msg::data(i, p + i, self.bytes));
            }
            visit(&buf);
        }
    }
}

/// Binomial scatter + ring allgather (insensitive to P2 structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastScatterRingAllgather {
    ranks: u32,
    bytes: u64,
}

impl BcastScatterRingAllgather {
    /// Broadcast `bytes` from rank 0 to `ranks` ranks.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        BcastScatterRingAllgather { ranks, bytes }
    }
}

impl Schedule for BcastScatterRingAllgather {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let n = self.ranks;
        if n <= 1 {
            return;
        }
        visit_binomial_scatter(&Blocks::new(self.bytes, n), &mut |round| {
            visit(Step::Round(round))
        });
        visit(Step::Ring(RingPhase::split(n, self.bytes)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::received_bytes_per_rank;
    use crate::blocks::ceil_log2;
    use acclaim_netsim::Schedule;
    use proptest::prelude::*;

    #[test]
    fn binomial_round_and_message_counts() {
        for n in [2u32, 3, 4, 5, 8, 13, 16, 33] {
            let s = BcastBinomial::new(n, 1000).materialize();
            s.validate().unwrap();
            assert_eq!(s.rounds.len() as u32, ceil_log2(n), "n={n}");
            let msgs: usize = s.rounds.iter().map(Vec::len).sum();
            assert_eq!(msgs as u32, n - 1, "binomial sends n-1 messages");
        }
    }

    #[test]
    fn binomial_delivers_full_payload_everywhere() {
        let m = 12_345u64;
        for n in [2u32, 7, 16] {
            let s = BcastBinomial::new(n, m).materialize();
            let recv = received_bytes_per_rank(&s);
            assert_eq!(recv[0], 0);
            assert!(recv[1..].iter().all(|&b| b == m), "n={n}: {recv:?}");
        }
    }

    #[test]
    fn single_rank_bcasts_are_empty() {
        assert!(BcastBinomial::new(1, 100).materialize().rounds.is_empty());
        assert!(BcastScatterRecursiveDoublingAllgather::new(1, 100)
            .materialize()
            .rounds
            .is_empty());
        assert!(BcastScatterRingAllgather::new(1, 100)
            .materialize()
            .rounds
            .is_empty());
    }

    #[test]
    fn scatter_rd_p2_beats_binomial_for_large_messages() {
        // The point of the scatter-based algorithms: the root pushes
        // ~2m instead of m*log(n), so large broadcasts finish sooner.
        use acclaim_netsim::{Allocation, Cluster, RoundSim};
        let (n, m) = (16u32, 1u64 << 20);
        let base = Cluster::bebop_like();
        let cluster = base
            .clone()
            .with_allocation(Allocation::contiguous(&base.topology, n));
        let mut sim = RoundSim::new();
        let t_bin = sim.simulate(&cluster, 1, &BcastBinomial::new(n, m));
        let t_rd = sim.simulate(
            &cluster,
            1,
            &BcastScatterRecursiveDoublingAllgather::new(n, m),
        );
        assert!(t_rd < 0.7 * t_bin, "rd={t_rd} binomial={t_bin}");
    }

    #[test]
    fn binomial_beats_scatter_based_for_small_messages() {
        use acclaim_netsim::{Allocation, Cluster, RoundSim};
        let (n, m) = (16u32, 64u64);
        let base = Cluster::bebop_like();
        let cluster = base
            .clone()
            .with_allocation(Allocation::contiguous(&base.topology, n));
        let mut sim = RoundSim::new();
        let t_bin = sim.simulate(&cluster, 1, &BcastBinomial::new(n, m));
        let t_ring = sim.simulate(&cluster, 1, &BcastScatterRingAllgather::new(n, m));
        assert!(t_bin < t_ring, "binomial={t_bin} ring={t_ring}");
    }

    #[test]
    fn scatter_rd_p2_round_structure() {
        let (n, m) = (8u32, 8_000u64);
        let s = BcastScatterRecursiveDoublingAllgather::new(n, m).materialize();
        s.validate().unwrap();
        // log2(8) scatter rounds + log2(8) allgather rounds.
        assert_eq!(s.rounds.len(), 6);
        // Allgather rounds have p messages each.
        for round in &s.rounds[3..] {
            assert_eq!(round.len(), 8);
        }
    }

    #[test]
    fn scatter_rd_nonp2_pays_fold_rounds() {
        let m = 64_000u64;
        let p2 = BcastScatterRecursiveDoublingAllgather::new(8, m)
            .materialize()
            .total_bytes();
        let nonp2 = BcastScatterRecursiveDoublingAllgather::new(9, m)
            .materialize()
            .total_bytes();
        // The 9-rank run ships a full extra copy in the unfold round.
        assert!(
            nonp2 > p2 + m / 2,
            "non-P2 fold should be expensive: {nonp2} vs {p2}"
        );
    }

    #[test]
    fn scatter_ring_round_count() {
        for n in [2u32, 5, 8, 12] {
            let s = BcastScatterRingAllgather::new(n, 10_000).materialize();
            s.validate().unwrap();
            assert_eq!(s.rounds.len() as u32, ceil_log2(n) + n - 1, "n={n}");
        }
    }

    #[test]
    fn ring_phase_passes_every_block_around() {
        let (n, m) = (6u32, 6_000u64);
        let s = BcastScatterRingAllgather::new(n, m).materialize();
        let recv = received_bytes_per_rank(&s);
        // Every rank receives its scatter share plus n-1 ring blocks;
        // rank 0 (root) receives only the ring part.
        assert_eq!(recv[0], m - m / n as u64);
        for (i, &b) in recv.iter().enumerate().skip(1) {
            assert!(b >= m, "rank {i} must see the full payload, got {b}");
        }
    }

    proptest! {
        #[test]
        fn all_bcast_schedules_validate(n in 1u32..40, m in 0u64..200_000) {
            BcastBinomial::new(n, m).materialize().validate().unwrap();
            BcastScatterRecursiveDoublingAllgather::new(n, m).materialize().validate().unwrap();
            BcastScatterRingAllgather::new(n, m).materialize().validate().unwrap();
        }

        #[test]
        fn every_rank_obtains_the_payload(n in 2u32..40, m in 1u64..100_000) {
            // Semantic invariant: each non-root rank receives at least
            // the payload minus its own scattered block (which it may
            // have received pre-assembled).
            let max_block = Blocks::new(m, n).max_size();
            for sched in [
                BcastScatterRecursiveDoublingAllgather::new(n, m).materialize(),
                BcastScatterRingAllgather::new(n, m).materialize(),
            ] {
                let recv = received_bytes_per_rank(&sched);
                for (rank, &b) in recv.iter().enumerate().skip(1) {
                    prop_assert!(
                        b + max_block >= m,
                        "rank {} received only {} of {} bytes", rank, b, m
                    );
                }
            }
        }
    }
}
