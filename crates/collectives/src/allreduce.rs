//! The two MPICH `MPI_Allreduce` algorithms.
//!
//! * [`AllreduceRecursiveDoubling`] — log2(p) exchange rounds of the full
//!   vector; latency-optimal, bandwidth-heavy. Non-P2 rank counts pay
//!   fold rounds.
//! * [`AllreduceReduceScatterAllgather`] — Rabenseifner's algorithm:
//!   recursive-halving reduce-scatter followed by recursive-doubling
//!   allgather; bandwidth-optimal for large vectors.
//!
//! `bytes` is the full reduction payload.

use crate::blocks::{pad_to_power_of_two, prev_power_of_two, Blocks};
use acclaim_netsim::{Msg, Schedule, Step};

/// Emit the fold round for non-P2 rank counts: ranks `p..n` contribute
/// their whole vector to partner `i - p`. Returns the remainder count.
fn fold_in(n: u32, p: u32, bytes: u64, buf: &mut Vec<Msg>, visit: &mut dyn FnMut(&[Msg])) -> u32 {
    let r = n - p;
    if r > 0 {
        buf.clear();
        for i in 0..r {
            buf.push(Msg::reducing(p + i, i, bytes));
        }
        visit(buf);
    }
    r
}

/// Emit the unfold round: partners return the finished `bytes`-sized
/// result to the remainder ranks.
fn fold_out(p: u32, r: u32, bytes: u64, buf: &mut Vec<Msg>, visit: &mut dyn FnMut(&[Msg])) {
    if r > 0 {
        buf.clear();
        for i in 0..r {
            buf.push(Msg::data(i, p + i, bytes));
        }
        visit(buf);
    }
}

/// Recursive-doubling allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllreduceRecursiveDoubling {
    ranks: u32,
    bytes: u64,
}

impl AllreduceRecursiveDoubling {
    /// Allreduce `bytes` over `ranks` ranks.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        AllreduceRecursiveDoubling { ranks, bytes }
    }
}

impl Schedule for AllreduceRecursiveDoubling {
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
        let mut buf: Vec<Msg> = Vec::new();
        let r = fold_in(n, p, self.bytes, &mut buf, visit);

        let mut s = 1;
        while s < p {
            buf.clear();
            for i in 0..p {
                buf.push(Msg::reducing(i, i ^ s, self.bytes));
            }
            visit(&buf);
            s <<= 1;
        }

        fold_out(p, r, self.bytes, &mut buf, visit);
    }
}

/// Rabenseifner's reduce-scatter + allgather allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllreduceReduceScatterAllgather {
    ranks: u32,
    bytes: u64,
}

impl AllreduceReduceScatterAllgather {
    /// Allreduce `bytes` over `ranks` ranks.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        AllreduceReduceScatterAllgather { ranks, bytes }
    }
}

impl Schedule for AllreduceReduceScatterAllgather {
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
        let blocks = Blocks::new(self.bytes, p);
        let mut buf: Vec<Msg> = Vec::new();
        let r = fold_in(n, p, self.bytes, &mut buf, visit);

        // Recursive-halving reduce-scatter: rank i ends owning block i.
        let mut lo: Vec<u32> = vec![0; p as usize];
        let mut hi: Vec<u32> = vec![p; p as usize];
        let mut s = p / 2;
        while s >= 1 {
            buf.clear();
            for i in 0..p {
                let iu = i as usize;
                let mid = lo[iu] + (hi[iu] - lo[iu]) / 2;
                // Recursive halving assumes P2 half-blocks; ragged ones
                // travel padded.
                if i & s == 0 {
                    buf.push(Msg::reducing(
                        i,
                        i ^ s,
                        pad_to_power_of_two(blocks.range(mid, hi[iu])),
                    ));
                } else {
                    buf.push(Msg::reducing(
                        i,
                        i ^ s,
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

        // Recursive-doubling allgather of the reduced blocks.
        let mut s = 1;
        while s < p {
            buf.clear();
            for i in 0..p {
                let iu = i as usize;
                buf.push(Msg::data(
                    i,
                    i ^ s,
                    pad_to_power_of_two(blocks.range(lo[iu], hi[iu])),
                ));
            }
            visit(&buf);
            for i in 0..p as usize {
                // Partner ranges are adjacent mirrors; union them.
                let partner = i ^ s as usize;
                let (nl, nh) = (lo[i].min(lo[partner]), hi[i].max(hi[partner]));
                // Both sides compute the same union, so updating in place
                // is safe only if we read the partner's pre-round range;
                // ranges within a pair are disjoint halves of the same
                // parent, so min/max over the *current* values is stable
                // for i < partner and already-updated partners hold the
                // same union.
                lo[i] = nl;
                hi[i] = nh;
            }
            s <<= 1;
        }

        fold_out(p, r, self.bytes, &mut buf, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::received_bytes_per_rank;
    use acclaim_netsim::Schedule;
    use proptest::prelude::*;

    #[test]
    fn rd_p2_round_structure() {
        let s = AllreduceRecursiveDoubling::new(8, 1_000).materialize();
        s.validate().unwrap();
        assert_eq!(s.rounds.len(), 3);
        for round in &s.rounds {
            assert_eq!(round.len(), 8, "all ranks exchange every round");
            assert!(round.iter().all(|m| m.bytes == 1_000 && m.reduce_bytes == 1_000));
        }
    }

    #[test]
    fn rd_every_rank_sees_full_vector_per_round() {
        let s = AllreduceRecursiveDoubling::new(4, 2_048).materialize();
        let recv = received_bytes_per_rank(&s);
        assert!(recv.iter().all(|&b| b == 2 * 2_048), "{recv:?}");
    }

    #[test]
    fn rd_nonp2_adds_two_fold_rounds() {
        let p2 = AllreduceRecursiveDoubling::new(8, 100).materialize();
        let np = AllreduceRecursiveDoubling::new(9, 100).materialize();
        assert_eq!(np.rounds.len(), p2.rounds.len() + 2);
        // Fold-in reduces, fold-out plain-copies.
        assert!(np.rounds.first().unwrap()[0].reduce_bytes > 0);
        assert_eq!(np.rounds.last().unwrap()[0].reduce_bytes, 0);
    }

    #[test]
    fn rsag_moves_less_data_than_rd_for_large_vectors() {
        let (n, m) = (16u32, 1u64 << 20);
        let rd = AllreduceRecursiveDoubling::new(n, m).materialize().total_bytes();
        let rsag = AllreduceReduceScatterAllgather::new(n, m)
            .materialize()
            .total_bytes();
        assert!(rsag < rd / 2, "rsag={rsag} rd={rd}");
    }

    #[test]
    fn rsag_allgather_sizes_double() {
        let s = AllreduceReduceScatterAllgather::new(8, 8_192).materialize();
        // rounds: 3 RS + 3 AG.
        assert_eq!(s.rounds.len(), 6);
        let ag: Vec<u64> = s.rounds[3..]
            .iter()
            .map(|r| r.iter().map(|m| m.bytes).max().unwrap())
            .collect();
        assert_eq!(ag, vec![1_024, 2_048, 4_096]);
    }

    #[test]
    fn rsag_pads_ragged_blocks_but_rd_does_not() {
        // 8000 bytes over 8 ranks: ragged 1000-byte blocks pad to 1024
        // in every block-exchange phase.
        let s = AllreduceReduceScatterAllgather::new(8, 8_000).materialize();
        let ag_first = s.rounds[3].iter().map(|m| m.bytes).max().unwrap();
        assert_eq!(ag_first, 1_024);
        // Recursive doubling ships the exact full vector (no blocks).
        let rd = AllreduceRecursiveDoubling::new(8, 8_000).materialize();
        assert!(rd.rounds.iter().all(|r| r.iter().all(|m| m.bytes == 8_000)));
    }

    #[test]
    fn rsag_every_rank_ends_with_full_vector() {
        for n in [2u32, 4, 8, 16] {
            let m = 16_000u64;
            let s = AllreduceReduceScatterAllgather::new(n, m).materialize();
            let recv = received_bytes_per_rank(&s);
            let own = Blocks::new(m, prev_power_of_two(n)).max_size();
            for (rank, &b) in recv.iter().enumerate() {
                assert!(
                    b + 2 * own >= m,
                    "n={n} rank {rank} received {b} of {m}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn allreduce_schedules_validate(n in 1u32..40, m in 0u64..200_000) {
            AllreduceRecursiveDoubling::new(n, m).materialize().validate().unwrap();
            AllreduceReduceScatterAllgather::new(n, m).materialize().validate().unwrap();
        }

        #[test]
        fn every_rank_receives_the_result(n in 2u32..40, m in 64u64..100_000) {
            let own = Blocks::new(m, prev_power_of_two(n)).max_size();
            for sched in [
                AllreduceRecursiveDoubling::new(n, m).materialize(),
                AllreduceReduceScatterAllgather::new(n, m).materialize(),
            ] {
                let recv = received_bytes_per_rank(&sched);
                for (rank, &b) in recv.iter().enumerate() {
                    prop_assert!(
                        b + 2 * own >= m,
                        "n={} rank {} received {} of {}", n, rank, b, m
                    );
                }
            }
        }
    }
}
