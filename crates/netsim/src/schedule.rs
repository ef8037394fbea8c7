//! Communication-schedule representation shared by the simulators.
//!
//! A collective algorithm is described as a sequence of *rounds*; each
//! round is a set of point-to-point messages between ranks, optionally
//! with a local reduction at the receiver. Ranks synchronize per round
//! in [`crate::roundsim`]; the flow-level DES in [`crate::des`] relaxes
//! that to per-rank dataflow (a rank enters its next round as soon as its
//! own round messages complete).
//!
//! Schedules are *streamed* as [`Step`]s: an explicit round, produced
//! into a reusable buffer, or a [`RingPhase`], a compact description of
//! the `n − 1` rounds in which every rank forwards one block to its ring
//! successor. A 2048-rank ring allgather is one ring step instead of
//! ~4M messages. [`Schedule::visit_rounds`] expands ring steps, so
//! consumers that need explicit messages (the DES, [`Schedule::materialize`],
//! the message and byte counters) see the same rounds either way.

/// One point-to-point message between two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Bytes the receiver must combine with a reduction operator after
    /// the payload arrives (0 for pure data movement).
    pub reduce_bytes: u64,
}

impl Msg {
    /// A pure data-movement message.
    #[inline]
    pub fn data(src: u32, dst: u32, bytes: u64) -> Msg {
        Msg {
            src,
            dst,
            bytes,
            reduce_bytes: 0,
        }
    }

    /// A message whose payload is reduced into the receiver's buffer.
    #[inline]
    pub fn reducing(src: u32, dst: u32, bytes: u64) -> Msg {
        Msg {
            src,
            dst,
            bytes,
            reduce_bytes: bytes,
        }
    }
}

/// A ring phase: `ranks − 1` rounds in which every rank `i` sends one
/// block to `(i + 1) % ranks`. In round `j` rank `i` forwards block
/// `(i + ranks − j) % ranks`, so after the phase every rank holds every
/// block. Blocks follow MPICH's split: the first `long_blocks` blocks
/// hold `block + 1` bytes and the rest `block` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingPhase {
    /// Ranks on the ring (`0..ranks`).
    pub ranks: u32,
    /// Bytes of a short block.
    pub block: u64,
    /// Number of leading blocks that carry one extra byte.
    pub long_blocks: u32,
}

impl RingPhase {
    /// The ring phase that circulates `total` bytes split into `ranks`
    /// blocks.
    pub fn split(ranks: u32, total: u64) -> RingPhase {
        assert!(ranks > 0, "a ring needs at least one rank");
        RingPhase {
            ranks,
            block: total / ranks as u64,
            long_blocks: (total % ranks as u64) as u32,
        }
    }

    /// Number of rounds the phase takes.
    pub fn rounds(&self) -> u32 {
        self.ranks.saturating_sub(1)
    }

    /// Bytes of block `b`.
    #[inline]
    pub fn block_bytes(&self, b: u32) -> u64 {
        self.block + u64::from(b < self.long_blocks)
    }

    /// Write round `j`'s messages into `buf`, replacing its contents.
    pub fn round(&self, j: u32, buf: &mut Vec<Msg>) {
        let n = self.ranks;
        buf.clear();
        buf.extend((0..n).map(|i| Msg::data(i, (i + 1) % n, self.block_bytes((i + n - j) % n))));
    }
}

/// One step of a streamed schedule.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// One explicit round of messages. The slice is only valid for the
    /// duration of the visit (generators reuse buffers).
    Round(&'a [Msg]),
    /// A whole ring phase, described instead of spelled out.
    Ring(RingPhase),
}

/// A streaming communication schedule.
pub trait Schedule {
    /// Number of ranks participating (ranks are `0..num_ranks`).
    fn num_ranks(&self) -> u32;

    /// Visit every step in order.
    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>));

    /// Visit every round in order, with ring phases expanded into their
    /// rounds. The slice passed to `visit` is only valid for the
    /// duration of the call.
    fn visit_rounds(&self, visit: &mut dyn FnMut(&[Msg])) {
        let mut buf = Vec::new();
        self.visit_steps(&mut |step| match step {
            Step::Round(round) => visit(round),
            Step::Ring(ring) => {
                for j in 0..ring.rounds() {
                    ring.round(j, &mut buf);
                    visit(&buf);
                }
            }
        });
    }

    /// Bytes each rank copies locally after the last round (e.g. the
    /// final buffer rotation of the Bruck allgather). Zero by default.
    fn epilogue_local_bytes(&self) -> u64 {
        0
    }

    /// Total number of messages across all rounds.
    fn message_count(&self) -> u64 {
        let mut n = 0u64;
        self.visit_rounds(&mut |round| n += round.len() as u64);
        n
    }

    /// Total payload bytes moved across all rounds.
    fn total_bytes(&self) -> u64 {
        let mut n = 0u64;
        self.visit_rounds(&mut |round| n += round.iter().map(|m| m.bytes).sum::<u64>());
        n
    }

    /// Materialize the schedule (for the DES or for inspection in tests).
    fn materialize(&self) -> MaterializedSchedule {
        let mut rounds = Vec::new();
        self.visit_rounds(&mut |round| rounds.push(round.to_vec()));
        MaterializedSchedule {
            num_ranks: self.num_ranks(),
            rounds,
            epilogue_local_bytes: self.epilogue_local_bytes(),
        }
    }
}

/// A fully materialized schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedSchedule {
    /// Number of participating ranks.
    pub num_ranks: u32,
    /// Message sets, one per round.
    pub rounds: Vec<Vec<Msg>>,
    /// Per-rank local copy after the final round (bytes).
    pub epilogue_local_bytes: u64,
}

impl MaterializedSchedule {
    /// A schedule with no epilogue copy.
    pub fn new(num_ranks: u32, rounds: Vec<Vec<Msg>>) -> Self {
        MaterializedSchedule {
            num_ranks,
            rounds,
            epilogue_local_bytes: 0,
        }
    }

    /// Validate structural invariants every well-formed collective
    /// schedule must satisfy; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (r, round) in self.rounds.iter().enumerate() {
            for m in round {
                if m.src >= self.num_ranks || m.dst >= self.num_ranks {
                    return Err(format!(
                        "round {r}: message {}->{} outside 0..{}",
                        m.src, m.dst, self.num_ranks
                    ));
                }
                if m.src == m.dst {
                    return Err(format!("round {r}: self-message on rank {}", m.src));
                }
                if m.reduce_bytes > m.bytes {
                    return Err(format!(
                        "round {r}: reduce_bytes {} exceeds payload {}",
                        m.reduce_bytes, m.bytes
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Schedule for MaterializedSchedule {
    fn num_ranks(&self) -> u32 {
        self.num_ranks
    }

    fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
        for round in &self.rounds {
            visit(Step::Round(round));
        }
    }

    fn epilogue_local_bytes(&self) -> u64 {
        self.epilogue_local_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_round_schedule() -> MaterializedSchedule {
        MaterializedSchedule {
            num_ranks: 4,
            rounds: vec![
                vec![Msg::data(0, 1, 100), Msg::data(2, 3, 100)],
                vec![Msg::reducing(1, 0, 50)],
            ],
            epilogue_local_bytes: 0,
        }
    }

    #[test]
    fn counts_and_bytes() {
        let s = two_round_schedule();
        assert_eq!(s.message_count(), 3);
        assert_eq!(s.total_bytes(), 250);
    }

    #[test]
    fn materialize_round_trips() {
        let s = two_round_schedule();
        assert_eq!(s.materialize(), s);
    }

    #[test]
    fn ring_phase_expands_into_its_rounds() {
        struct Ring(RingPhase);
        impl Schedule for Ring {
            fn num_ranks(&self) -> u32 {
                self.0.ranks
            }
            fn visit_steps(&self, visit: &mut dyn FnMut(Step<'_>)) {
                visit(Step::Ring(self.0));
            }
        }
        // 10 bytes over 4 blocks: 3, 3, 2, 2.
        let s = Ring(RingPhase::split(4, 10)).materialize();
        s.validate().unwrap();
        assert_eq!(s.rounds.len(), 3);
        let bytes = |r: usize| s.rounds[r].iter().map(|m| m.bytes).collect::<Vec<_>>();
        assert_eq!(bytes(0), [3, 3, 2, 2]);
        assert_eq!(bytes(1), [2, 3, 3, 2]);
        assert_eq!(bytes(2), [2, 2, 3, 3]);
        assert!(s.rounds.iter().flatten().all(|m| m.dst == (m.src + 1) % 4));
        assert_eq!(s.message_count(), 12);
        assert_eq!(s.total_bytes(), 30);
        assert!(Ring(RingPhase::split(1, 10))
            .materialize()
            .rounds
            .is_empty());
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(two_round_schedule().validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let s = MaterializedSchedule::new(2, vec![vec![Msg::data(0, 5, 1)]]);
        assert!(s.validate().unwrap_err().contains("outside"));
    }

    #[test]
    fn validate_rejects_self_message() {
        let s = MaterializedSchedule::new(2, vec![vec![Msg::data(1, 1, 1)]]);
        assert!(s.validate().unwrap_err().contains("self-message"));
    }

    #[test]
    fn validate_rejects_reduce_larger_than_payload() {
        let s = MaterializedSchedule::new(
            2,
            vec![vec![Msg {
                src: 0,
                dst: 1,
                bytes: 10,
                reduce_bytes: 20,
            }]],
        );
        assert!(s.validate().unwrap_err().contains("exceeds payload"));
    }
}
