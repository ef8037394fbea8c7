//! The three MPICH `MPI_Allgather` algorithms.
//!
//! * [`AllgatherRing`] — n-1 neighbor rounds; bandwidth-optimal,
//!   latency-heavy, insensitive to P2 structure.
//! * [`AllgatherRecursiveDoubling`] — log2(p) exchange rounds with
//!   doubling payloads; P2-favoring (non-P2 counts pay a full-buffer
//!   unfold).
//! * [`AllgatherBrucks`] — ceil(log2 n) rounds for any n, at the price of
//!   a final local rotation of the whole gathered buffer.
//!
//! Message size semantics follow the OSU benchmarks: `bytes` is the
//! **per-rank contribution**, so every rank ends with `n * bytes`.

use crate::blocks::{pad_to_power_of_two, prev_power_of_two};
use acclaim_netsim::{Msg, RingPhase, Schedule, Step};

/// Ring allgather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllgatherRing {
    ranks: u32,
    bytes: u64,
}

impl AllgatherRing {
    /// Allgather with `bytes` contributed per rank.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        AllgatherRing { ranks, bytes }
    }
}

impl Schedule for AllgatherRing {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        if self.ranks > 1 {
            visit(Step::Ring(RingPhase {
                ranks: self.ranks,
                block: self.bytes,
                long_blocks: 0,
            }));
        }
    }
}

/// Recursive-doubling allgather (P2-favoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllgatherRecursiveDoubling {
    ranks: u32,
    bytes: u64,
}

impl AllgatherRecursiveDoubling {
    /// Allgather with `bytes` contributed per rank.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        AllgatherRecursiveDoubling { ranks, bytes }
    }
}

impl Schedule for AllgatherRecursiveDoubling {
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
        let mut buf: Vec<Msg> = Vec::new();

        // Fold: remainder ranks lend their contribution to a partner.
        if r > 0 {
            buf.clear();
            for i in 0..r {
                buf.push(Msg::data(p + i, i, self.bytes));
            }
            visit(&buf);
        }

        let mut held: Vec<u64> = (0..p)
            .map(|i| self.bytes * if i < r { 2 } else { 1 })
            .collect();
        let mut snapshot = held.clone();
        let mut s = 1;
        while s < p {
            buf.clear();
            for i in 0..p {
                // Doubling exchange: ragged blocks travel padded to P2.
                buf.push(Msg::data(i, i ^ s, pad_to_power_of_two(held[i as usize])));
            }
            visit(&buf);
            snapshot.copy_from_slice(&held);
            for i in 0..p as usize {
                held[i] += snapshot[i ^ s as usize];
            }
            s <<= 1;
        }

        // Unfold: remainder ranks need the entire gathered buffer.
        if r > 0 {
            buf.clear();
            for i in 0..r {
                buf.push(Msg::data(i, p + i, self.bytes * n as u64));
            }
            visit(&buf);
        }
    }
}

/// Bruck's allgather: any rank count in ceil(log2 n) rounds, plus a
/// final local rotation of the whole gathered buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllgatherBrucks {
    ranks: u32,
    bytes: u64,
}

impl AllgatherBrucks {
    /// Allgather with `bytes` contributed per rank.
    pub fn new(ranks: u32, bytes: u64) -> Self {
        assert!(ranks >= 1);
        AllgatherBrucks { ranks, bytes }
    }
}

impl Schedule for AllgatherBrucks {
    fn num_ranks(&self) -> u32 {
        self.ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        let visit = &mut |round: &[Msg]| visit(Step::Round(round));
        let n = self.ranks;
        if n <= 1 {
            return;
        }
        let mut buf: Vec<Msg> = Vec::with_capacity(n as usize);
        let mut s = 1;
        while s < n {
            buf.clear();
            let chunk = self.bytes * s.min(n - s) as u64;
            for i in 0..n {
                buf.push(Msg::data(i, (i + n - s) % n, chunk));
            }
            visit(&buf);
            s <<= 1;
        }
    }

    fn epilogue_local_bytes(&self) -> u64 {
        if self.ranks <= 1 {
            0
        } else {
            self.bytes * self.ranks as u64
        }
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
    fn ring_round_and_byte_counts() {
        for n in [2u32, 3, 7, 8, 12] {
            let s = AllgatherRing::new(n, 500).materialize();
            s.validate().unwrap();
            assert_eq!(s.rounds.len() as u32, n - 1, "n={n}");
            let recv = received_bytes_per_rank(&s);
            assert!(
                recv.iter().all(|&b| b == 500 * (n as u64 - 1)),
                "n={n}: {recv:?}"
            );
        }
    }

    #[test]
    fn rd_p2_doubles_payloads() {
        let s = AllgatherRecursiveDoubling::new(8, 1_024).materialize();
        s.validate().unwrap();
        assert_eq!(s.rounds.len(), 3);
        let sizes: Vec<u64> = s
            .rounds
            .iter()
            .map(|r| r.iter().map(|m| m.bytes).max().unwrap())
            .collect();
        assert_eq!(sizes, vec![1_024, 2_048, 4_096]);
    }

    #[test]
    fn rd_pads_ragged_blocks_to_p2() {
        // Non-P2 contribution: every doubling exchange ships the padded
        // block, the structural non-P2 penalty of Sec. III-B.
        let s = AllgatherRecursiveDoubling::new(8, 1_000).materialize();
        let sizes: Vec<u64> = s
            .rounds
            .iter()
            .map(|r| r.iter().map(|m| m.bytes).max().unwrap())
            .collect();
        assert_eq!(sizes, vec![1_024, 2_048, 4_096]);
        // The ring pays no such penalty.
        let ring = AllgatherRing::new(8, 1_000).materialize();
        assert!(ring.rounds.iter().all(|r| r.iter().all(|m| m.bytes == 1_000)));
    }

    #[test]
    fn rd_nonp2_unfold_ships_whole_buffer() {
        let n = 9u32;
        let s = AllgatherRecursiveDoubling::new(n, 1_000).materialize();
        let last = s.rounds.last().unwrap();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].bytes, 1_000 * n as u64);
    }

    #[test]
    fn brucks_handles_nonp2_in_log_rounds() {
        for n in [3u32, 5, 9, 13, 17] {
            let s = AllgatherBrucks::new(n, 100).materialize();
            s.validate().unwrap();
            assert_eq!(s.rounds.len() as u32, ceil_log2(n), "n={n}");
        }
    }

    #[test]
    fn brucks_epilogue_rotates_whole_buffer() {
        let b = AllgatherBrucks::new(10, 2_000);
        assert_eq!(b.epilogue_local_bytes(), 20_000);
        assert_eq!(AllgatherBrucks::new(1, 2_000).epilogue_local_bytes(), 0);
        assert_eq!(b.materialize().epilogue_local_bytes, 20_000);
    }

    #[test]
    fn brucks_last_round_is_partial_for_nonp2() {
        let n = 5u32;
        let m = 100u64;
        let s = AllgatherBrucks::new(n, m).materialize();
        // Rounds exchange 1, 2, then n-4=1 blocks.
        let sizes: Vec<u64> = s
            .rounds
            .iter()
            .map(|r| r.iter().map(|m| m.bytes).max().unwrap())
            .collect();
        assert_eq!(sizes, vec![100, 200, 100]);
    }

    #[test]
    fn everyone_collects_everything() {
        for n in [2u32, 4, 8, 16] {
            let m = 700u64;
            for (name, sched) in [
                ("ring", AllgatherRing::new(n, m).materialize()),
                ("rd", AllgatherRecursiveDoubling::new(n, m).materialize()),
                ("brucks", AllgatherBrucks::new(n, m).materialize()),
            ] {
                let recv = received_bytes_per_rank(&sched);
                for (rank, &b) in recv.iter().enumerate() {
                    assert!(
                        b >= m * (n as u64 - 1),
                        "{name} n={n} rank {rank}: {b} bytes"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn allgather_schedules_validate(n in 1u32..40, m in 0u64..100_000) {
            AllgatherRing::new(n, m).materialize().validate().unwrap();
            AllgatherRecursiveDoubling::new(n, m).materialize().validate().unwrap();
            AllgatherBrucks::new(n, m).materialize().validate().unwrap();
        }

        #[test]
        fn all_algorithms_gather_full_data(n in 2u32..32, m in 1u64..50_000) {
            for sched in [
                AllgatherRing::new(n, m).materialize(),
                AllgatherRecursiveDoubling::new(n, m).materialize(),
                AllgatherBrucks::new(n, m).materialize(),
            ] {
                let recv = received_bytes_per_rank(&sched);
                for (rank, &b) in recv.iter().enumerate() {
                    prop_assert!(
                        b >= m * (n as u64 - 1),
                        "rank {} received {} (need {})", rank, b, m * (n as u64 - 1)
                    );
                }
            }
        }
    }
}
