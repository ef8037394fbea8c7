//! Binomial-tree scatter, shared by the scatter-based bcast algorithms.

use crate::blocks::Blocks;
use acclaim_netsim::Msg;

/// Visit the rounds of a binomial scatter of `blocks` from rank 0.
///
/// The sender of segment `[lo, hi)` is rank `lo`; each round it hands the
/// upper half `[mid, hi)` to rank `mid`. After the final round rank `i`
/// holds exactly block `i`. Rounds = `ceil(log2(n))`.
pub(crate) fn visit_binomial_scatter(blocks: &Blocks, visit: &mut dyn FnMut(&[Msg])) {
    let n = blocks.count();
    if n <= 1 {
        return;
    }
    let mut segments: Vec<(u32, u32)> = vec![(0, n)];
    let mut next: Vec<(u32, u32)> = Vec::new();
    let mut buf: Vec<Msg> = Vec::new();
    while segments.iter().any(|&(lo, hi)| hi - lo > 1) {
        buf.clear();
        next.clear();
        for &(lo, hi) in &segments {
            if hi - lo <= 1 {
                next.push((lo, hi));
                continue;
            }
            let mid = lo + (hi - lo).div_ceil(2);
            buf.push(Msg::data(lo, mid, blocks.range(mid, hi)));
            next.push((lo, mid));
            next.push((mid, hi));
        }
        visit(&buf);
        std::mem::swap(&mut segments, &mut next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::ceil_log2;
    use acclaim_netsim::{MaterializedSchedule, Schedule, Step};

    fn materialize(n: u32, m: u64) -> MaterializedSchedule {
        struct S(Blocks);
        impl Schedule for S {
            fn num_ranks(&self) -> u32 {
                self.0.count()
            }
            fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
                visit_binomial_scatter(&self.0, &mut |round| visit(Step::Round(round)));
            }
        }
        S(Blocks::new(m, n)).materialize()
    }

    #[test]
    fn single_rank_has_no_rounds() {
        assert!(materialize(1, 1000).rounds.is_empty());
    }

    #[test]
    fn two_ranks_single_message() {
        let s = materialize(2, 100);
        assert_eq!(s.rounds.len(), 1);
        assert_eq!(s.rounds[0], vec![Msg::data(0, 1, 50)]);
    }

    #[test]
    fn round_count_is_ceil_log2() {
        for n in [2u32, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33] {
            let s = materialize(n, 1 << 16);
            assert_eq!(
                s.rounds.len() as u32,
                ceil_log2(n),
                "wrong depth for n={n}"
            );
        }
    }

    #[test]
    fn every_nonroot_rank_receives_exactly_once() {
        for n in [2u32, 5, 8, 13, 16, 21] {
            let s = materialize(n, 10_000);
            let mut recvs = vec![0u32; n as usize];
            for round in &s.rounds {
                for m in round {
                    recvs[m.dst as usize] += 1;
                }
            }
            assert_eq!(recvs[0], 0, "root must not receive");
            assert!(
                recvs[1..].iter().all(|&r| r == 1),
                "n={n}: each rank receives its sub-buffer once: {recvs:?}"
            );
        }
    }

    #[test]
    fn receiver_gets_bytes_covering_its_own_block() {
        // Every received message carries at least the receiver's block.
        for n in [3u32, 6, 12] {
            let blocks = Blocks::new(9_999, n);
            let s = materialize(n, 9_999);
            for round in &s.rounds {
                for m in round {
                    assert!(m.bytes >= blocks.size(m.dst), "n={n}, msg {m:?}");
                }
            }
        }
    }

    #[test]
    fn total_scattered_bytes_match_theory() {
        // Sum over ranks of (depth into tree) weighted bytes is hard to
        // state exactly; the simplest exact invariant is that the bytes
        // entering each rank equal the sub-buffer it is responsible for
        // distributing (its own block plus its subtree's blocks).
        let n = 8u32;
        let m = 8_000u64;
        let s = materialize(n, m);
        let mut received = vec![0u64; n as usize];
        for round in &s.rounds {
            for msg in round {
                received[msg.dst as usize] += msg.bytes;
            }
        }
        // With n=8, m=8000: rank 4 receives blocks 4..8 = 4000, rank 2
        // receives 2..4 = 2000, etc.
        assert_eq!(received, vec![0, 1000, 2000, 1000, 4000, 1000, 2000, 1000]);
    }
}
