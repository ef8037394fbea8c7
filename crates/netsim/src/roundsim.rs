//! Fast round-synchronous contention simulator.
//!
//! Each schedule round is priced independently: every message pays the
//! layer latency of its path plus its packetized payload divided by its
//! contended bandwidth, where contention divides each shared resource
//! (node memory, node NIC in/out, rack uplink, pair global link) evenly
//! among the round's flows crossing it. The round costs the maximum over
//! its messages, plus CPU posting overhead for the busiest rank and the
//! largest per-rank reduction. Rounds execute back to back.
//!
//! A ring phase ([`Step::Ring`]) is priced without spelling out its
//! rounds. Every round of a ring has the same sender→receiver pairs, so
//! the contention counts are taken once, and each sender's message time
//! is computed once for each of the (at most two) block sizes. A round's
//! slowest message is then a maximum over two cyclic windows of senders.
//! A 2048-rank ring costs O(n) instead of O(n²) messages, and the result
//! is bit-identical to pricing the expanded rounds one by one.
//!
//! This slightly over-synchronizes compared to real executions (ranks
//! wait for the global round, not just their own messages) but it prices
//! millions of messages in milliseconds, which exhaustive benchmark-
//! database generation requires. The flow-level DES in [`crate::des`]
//! relaxes the synchronization and is used to validate this engine.

use crate::cluster::Cluster;
use crate::schedule::{Msg, RingPhase, Schedule, Step};
use crate::topology::Layer;
use acclaim_obs::{Counter, Histogram, Obs};

/// Scratch-reusing round simulator.
///
/// Create once and call [`RoundSim::simulate`] repeatedly; internal
/// per-resource counters are recycled between rounds and calls.
#[derive(Debug, Default)]
pub struct RoundSim {
    load: Load,
    rank_reduce: Vec<u64>,
    reduce_touched: Vec<u32>,
    ring: RingScratch,
    obs: RoundSimObs,
}

/// Pre-resolved metric handles ([`RoundSim::with_obs`]); default
/// (disabled) handles drop every record.
#[derive(Debug, Default)]
struct RoundSimObs {
    calls: Counter,
    rounds: Counter,
    messages: Counter,
    sim_us: Histogram,
}

/// Flows crossing each shared resource in the current round.
#[derive(Debug, Default)]
struct Load {
    mem: CountMap,
    nic_out: CountMap,
    nic_in: CountMap,
    uplink: CountMap,
    global: CountMap,
    rank_msgs: CountMap,
}

/// Per-sender message times and per-round window maxima of one ring
/// phase.
#[derive(Debug, Default)]
struct RingScratch {
    sender_us: Vec<f64>,
    short_max: Vec<f64>,
    long_max: Vec<f64>,
    queue: Vec<usize>,
}

/// A dense counter array with a touched-list for O(touched) clearing.
#[derive(Debug, Default)]
struct CountMap {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl CountMap {
    fn ensure(&mut self, len: usize) {
        if self.counts.len() < len {
            self.counts.resize(len, 0);
        }
    }

    #[inline]
    fn bump(&mut self, idx: u32) {
        let c = &mut self.counts[idx as usize];
        if *c == 0 {
            self.touched.push(idx);
        }
        *c += 1;
    }

    #[inline]
    fn get(&self, idx: u32) -> u32 {
        self.counts[idx as usize]
    }

    fn clear(&mut self) {
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
    }

    fn max(&self) -> u32 {
        self.touched
            .iter()
            .map(|&t| self.counts[t as usize])
            .max()
            .unwrap_or(0)
    }
}

impl Load {
    fn ensure(&mut self, cluster: &Cluster, ranks: u32) {
        let topo = &cluster.topology;
        self.mem.ensure(topo.total_nodes() as usize);
        self.nic_out.ensure(topo.total_nodes() as usize);
        self.nic_in.ensure(topo.total_nodes() as usize);
        self.uplink.ensure(topo.num_racks as usize);
        self.global.ensure(topo.num_pairs() as usize);
        self.rank_msgs.ensure(ranks as usize);
    }

    /// Count `m` as one flow on every resource its path crosses.
    #[inline]
    fn add(&mut self, cluster: &Cluster, ppn: u32, m: &Msg) {
        let topo = &cluster.topology;
        let sn = cluster.node_of_rank(m.src, ppn);
        let dn = cluster.node_of_rank(m.dst, ppn);
        self.rank_msgs.bump(m.src);
        self.rank_msgs.bump(m.dst);
        if sn == dn {
            self.mem.bump(sn);
            return;
        }
        self.nic_out.bump(sn);
        self.nic_in.bump(dn);
        let (sr, dr) = (topo.rack_of(sn), topo.rack_of(dn));
        if sr != dr {
            self.uplink.bump(sr);
            self.uplink.bump(dr);
            let (sp, dp) = (topo.pair_of(sr), topo.pair_of(dr));
            if sp != dp {
                self.global.bump(sp);
                self.global.bump(dp);
            }
        }
    }

    /// Completion time of `m` under the counted contention.
    #[inline]
    fn msg_time(&self, cluster: &Cluster, ppn: u32, m: &Msg) -> f64 {
        let params = &cluster.params;
        let topo = &cluster.topology;
        let sn = cluster.node_of_rank(m.src, ppn);
        let dn = cluster.node_of_rank(m.dst, ppn);
        let layer = topo.layer_between(sn, dn);
        let latency =
            params.latency(layer, cluster.job_latency_factor) + params.alignment_latency(m.bytes);
        if m.bytes == 0 {
            latency
        } else if layer == Layer::IntraNode {
            let bw =
                params.mem_bandwidth / self.mem.get(sn) as f64 * params.bandwidth_derating(m.bytes);
            latency + m.bytes as f64 / bw
        } else {
            let mut share = (params.nic_bandwidth / self.nic_out.get(sn) as f64)
                .min(params.nic_bandwidth / self.nic_in.get(dn) as f64);
            let (sr, dr) = (topo.rack_of(sn), topo.rack_of(dn));
            if sr != dr {
                share = share
                    .min(params.rack_uplink_bandwidth / self.uplink.get(sr) as f64)
                    .min(params.rack_uplink_bandwidth / self.uplink.get(dr) as f64);
                let (sp, dp) = (topo.pair_of(sr), topo.pair_of(dr));
                if sp != dp {
                    let global_bw = cluster.effective_global_bandwidth();
                    share = share
                        .min(global_bw / self.global.get(sp) as f64)
                        .min(global_bw / self.global.get(dp) as f64);
                }
            }
            let bw = share * params.bandwidth_derating(m.bytes);
            latency + params.wire_bytes(m.bytes) as f64 / bw
        }
    }

    fn clear(&mut self) {
        self.mem.clear();
        self.nic_out.clear();
        self.nic_in.clear();
        self.uplink.clear();
        self.global.clear();
        self.rank_msgs.clear();
    }
}

impl RoundSim {
    /// A fresh simulator with empty scratch space.
    pub fn new() -> Self {
        RoundSim::default()
    }

    /// A simulator recording `netsim.roundsim.*` metrics (call, round,
    /// and message counts plus a completion-time histogram) into `obs`.
    /// Handles resolve once here; recording never takes a lock.
    pub fn with_obs(obs: &Obs) -> Self {
        RoundSim {
            obs: RoundSimObs {
                calls: obs.counter("netsim.roundsim.calls"),
                rounds: obs.counter("netsim.roundsim.rounds"),
                messages: obs.counter("netsim.roundsim.messages"),
                sim_us: obs.histogram("netsim.roundsim.sim_us"),
            },
            ..RoundSim::default()
        }
    }

    /// Simulate one execution of `sched` on `cluster` with `ppn` ranks
    /// per node; returns the completion time in microseconds.
    ///
    /// Panics if the schedule needs more ranks than the allocation holds.
    pub fn simulate(&mut self, cluster: &Cluster, ppn: u32, sched: &dyn Schedule) -> f64 {
        assert!(ppn >= 1, "ppn must be positive");
        let ranks = sched.num_ranks();
        assert!(
            ranks <= cluster.num_nodes() * ppn,
            "schedule needs {ranks} ranks but allocation provides {}x{ppn}",
            cluster.num_nodes()
        );
        self.load.ensure(cluster, ranks);
        if self.rank_reduce.len() < ranks as usize {
            self.rank_reduce.resize(ranks as usize, 0);
        }

        let mut total = 0.0;
        sched.visit_steps(&mut |step| match step {
            Step::Round(round) => total += self.round_time(cluster, ppn, round),
            Step::Ring(ring) => self.ring_phase(cluster, ppn, &ring, &mut total),
        });
        total += epilogue_time(cluster, ppn, sched.epilogue_local_bytes());
        self.obs.calls.incr();
        self.obs.sim_us.record(total);
        total
    }

    /// Price a single round.
    fn round_time(&mut self, cluster: &Cluster, ppn: u32, round: &[Msg]) -> f64 {
        self.obs.rounds.incr();
        self.obs.messages.add(round.len() as u64);

        // Pass 1: contention counts per shared resource.
        for m in round {
            self.load.add(cluster, ppn, m);
            if m.reduce_bytes > 0 {
                let slot = &mut self.rank_reduce[m.dst as usize];
                if *slot == 0 {
                    self.reduce_touched.push(m.dst);
                }
                *slot += m.reduce_bytes;
            }
        }

        // Pass 2: slowest message in the round.
        let mut slowest = 0.0f64;
        for m in round {
            slowest = slowest.max(self.load.msg_time(cluster, ppn, m));
        }

        let (cpu, reduce) = self.end_round(cluster);
        slowest + cpu + reduce
    }

    /// Add the time of each round of `ring` to `total`, in order.
    ///
    /// In round `j` the senders of long blocks are the cyclic window
    /// `j..j + long_blocks` and the senders of short blocks the window
    /// that follows it, so each round's slowest message is the larger of
    /// two window maxima over per-sender times. The rounds are added one
    /// by one, as [`RoundSim::round_time`] would add them, which keeps
    /// the total bit-identical to pricing the expanded rounds.
    fn ring_phase(&mut self, cluster: &Cluster, ppn: u32, ring: &RingPhase, total: &mut f64) {
        let n = ring.ranks;
        let rounds = ring.rounds() as usize;
        if rounds == 0 {
            return;
        }
        self.obs.rounds.add(rounds as u64);
        self.obs.messages.add(rounds as u64 * n as u64);

        let msg = |i: u32, bytes: u64| Msg::data(i, (i + 1) % n, bytes);
        for i in 0..n {
            self.load.add(cluster, ppn, &msg(i, 0));
        }
        let long = ring.long_blocks as usize;
        let s = &mut self.ring;
        s.sender_us.clear();
        s.sender_us
            .extend((0..n).map(|i| self.load.msg_time(cluster, ppn, &msg(i, ring.block))));
        cyclic_window_max(
            &s.sender_us,
            long,
            n as usize - long,
            rounds,
            &mut s.queue,
            &mut s.short_max,
        );
        if long > 0 {
            s.sender_us.clear();
            s.sender_us
                .extend((0..n).map(|i| self.load.msg_time(cluster, ppn, &msg(i, ring.block + 1))));
            cyclic_window_max(&s.sender_us, 0, long, rounds, &mut s.queue, &mut s.long_max);
        }
        let (cpu, reduce) = self.end_round(cluster);

        let s = &self.ring;
        for j in 0..rounds {
            let mut slowest = 0.0f64.max(s.short_max[j]);
            if long > 0 {
                slowest = slowest.max(s.long_max[j]);
            }
            *total += slowest + cpu + reduce;
        }
    }

    /// The round's CPU posting cost for the busiest rank and its heaviest
    /// local reduction; resets the per-round counts.
    fn end_round(&mut self, cluster: &Cluster) -> (f64, f64) {
        let params = &cluster.params;
        let cpu = params.cpu_overhead_us * self.load.rank_msgs.max() as f64;
        let mut reduce = 0.0f64;
        for &r in &self.reduce_touched {
            reduce = reduce.max(params.reduce_time(self.rank_reduce[r as usize]));
            self.rank_reduce[r as usize] = 0;
        }
        self.reduce_touched.clear();
        self.load.clear();
        (cpu, reduce)
    }
}

/// For each `s` in `0..count`, `out[s]` is the maximum of `vals` over the
/// cyclic window of `len` indices starting at `(first + s) % vals.len()`.
/// A monotonic queue of candidate indices makes this O(`vals.len()` +
/// `count`) instead of O(`len` · `count`).
fn cyclic_window_max(
    vals: &[f64],
    first: usize,
    len: usize,
    count: usize,
    queue: &mut Vec<usize>,
    out: &mut Vec<f64>,
) {
    let n = vals.len();
    debug_assert!((1..=n).contains(&len));
    queue.clear();
    out.clear();
    let mut head = 0;
    for x in first..first + count + len - 1 {
        let v = vals[x % n];
        while queue.len() > head && vals[queue[queue.len() - 1] % n] <= v {
            queue.pop();
        }
        queue.push(x);
        if x + 1 >= first + len {
            let start = x + 1 - len;
            while queue[head] < start {
                head += 1;
            }
            out.push(vals[queue[head] % n]);
        }
    }
}

/// Time for every rank of a fully packed node to copy `bytes` locally
/// (the schedule epilogue, e.g. the Bruck rotation): `ppn` concurrent
/// copies contend for the node's memory bandwidth.
pub(crate) fn epilogue_time(cluster: &Cluster, ppn: u32, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let p = &cluster.params;
    let bw = p.mem_bandwidth / ppn as f64 * p.alignment_factor(bytes);
    bytes as f64 / bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MaterializedSchedule;

    fn sched(num_ranks: u32, rounds: Vec<Vec<Msg>>) -> MaterializedSchedule {
        let s = MaterializedSchedule::new(num_ranks, rounds);
        s.validate().expect("test schedule must be well-formed");
        s
    }

    #[test]
    fn empty_schedule_costs_nothing() {
        let c = Cluster::bebop_like();
        let s = sched(2, vec![]);
        assert_eq!(RoundSim::new().simulate(&c, 1, &s), 0.0);
    }

    #[test]
    fn single_message_pays_latency_bandwidth_and_cpu() {
        let c = Cluster::bebop_like();
        let bytes = 4096u64;
        let s = sched(2, vec![vec![Msg::data(0, 1, bytes)]]);
        let t = RoundSim::new().simulate(&c, 1, &s);
        let p = &c.params;
        let expect = p.latency_us[Layer::IntraRack.index()]
            + bytes as f64 / p.nic_bandwidth
            + p.cpu_overhead_us;
        assert!((t - expect).abs() < 1e-9, "got {t}, expected {expect}");
    }

    #[test]
    fn intra_node_uses_memory_bandwidth() {
        let c = Cluster::bebop_like();
        let s = sched(2, vec![vec![Msg::data(0, 1, 8192)]]);
        let t = RoundSim::new().simulate(&c, 2, &s); // both ranks on node 0
        let p = &c.params;
        let expect =
            p.latency_us[Layer::IntraNode.index()] + 8192.0 / p.mem_bandwidth + p.cpu_overhead_us;
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn nic_contention_halves_bandwidth() {
        let c = Cluster::bebop_like();
        let one = sched(4, vec![vec![Msg::data(0, 2, 1 << 20)]]);
        // Two ranks on node 0 send to two ranks on node 1: shared NICs.
        let two = sched(
            4,
            vec![vec![Msg::data(0, 2, 1 << 20), Msg::data(1, 3, 1 << 20)]],
        );
        let mut sim = RoundSim::new();
        let t1 = sim.simulate(&c, 2, &one);
        let t2 = sim.simulate(&c, 2, &two);
        // Large messages: transfer dominates, so t2 ≈ 2*t1.
        assert!(t2 > 1.8 * t1, "t1={t1} t2={t2}");
        assert!(t2 < 2.2 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn disjoint_node_pairs_do_not_contend() {
        let c = Cluster::bebop_like();
        let one = sched(4, vec![vec![Msg::data(0, 1, 1 << 20)]]);
        let par = sched(
            4,
            vec![vec![Msg::data(0, 1, 1 << 20), Msg::data(2, 3, 1 << 20)]],
        );
        let mut sim = RoundSim::new();
        let t1 = sim.simulate(&c, 1, &one);
        let t2 = sim.simulate(&c, 1, &par);
        assert!(
            (t2 - t1).abs() < 1e-9,
            "disjoint flows must run at full rate"
        );
    }

    #[test]
    fn farther_layers_cost_more_latency() {
        let c = Cluster::bebop_like();
        let mut sim = RoundSim::new();
        // 1-byte messages: latency dominated. ppn=1.
        let intra_rack = sim.simulate(&c, 1, &sched(64, vec![vec![Msg::data(0, 1, 1)]]));
        let intra_pair = sim.simulate(&c, 1, &sched(64, vec![vec![Msg::data(0, 16, 1)]]));
        let global = sim.simulate(&c, 1, &sched(64, vec![vec![Msg::data(0, 32, 1)]]));
        assert!(intra_rack < intra_pair);
        assert!(intra_pair < global);
    }

    #[test]
    fn job_latency_factor_slows_internode_rounds() {
        let fast = Cluster::bebop_like();
        let slow = Cluster::bebop_like().with_job_latency_factor(2.5);
        let s = sched(2, vec![vec![Msg::data(0, 1, 64)]]);
        let mut sim = RoundSim::new();
        assert!(sim.simulate(&slow, 1, &s) > sim.simulate(&fast, 1, &s));
    }

    #[test]
    fn reduction_adds_compute_time() {
        let c = Cluster::bebop_like();
        let plain = sched(2, vec![vec![Msg::data(0, 1, 1 << 20)]]);
        let reducing = sched(2, vec![vec![Msg::reducing(0, 1, 1 << 20)]]);
        let mut sim = RoundSim::new();
        let tp = sim.simulate(&c, 1, &plain);
        let tr = sim.simulate(&c, 1, &reducing);
        let expect_extra = c.params.reduce_time(1 << 20);
        assert!((tr - tp - expect_extra).abs() < 1e-9);
    }

    #[test]
    fn rounds_accumulate() {
        let c = Cluster::bebop_like();
        let one = sched(2, vec![vec![Msg::data(0, 1, 4096)]]);
        let two = sched(
            2,
            vec![vec![Msg::data(0, 1, 4096)], vec![Msg::data(1, 0, 4096)]],
        );
        let mut sim = RoundSim::new();
        let t1 = sim.simulate(&c, 1, &one);
        let t2 = sim.simulate(&c, 1, &two);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn scratch_state_does_not_leak_between_calls() {
        let c = Cluster::bebop_like();
        let s = sched(2, vec![vec![Msg::data(0, 1, 4096)]]);
        let mut sim = RoundSim::new();
        let a = sim.simulate(&c, 1, &s);
        let b = sim.simulate(&c, 1, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn unaligned_sizes_are_slower_than_the_next_aligned_size() {
        let c = Cluster::bebop_like();
        let mut sim = RoundSim::new();
        // 100_000 is not 64-aligned; 102_400 is. Packetization also
        // rounds both to the same wire size, so the unaligned penalty is
        // the only difference maker here.
        let ragged = sim.simulate(&c, 1, &sched(2, vec![vec![Msg::data(0, 1, 100_000)]]));
        let aligned = sim.simulate(&c, 1, &sched(2, vec![vec![Msg::data(0, 1, 102_400)]]));
        assert!(
            ragged > aligned,
            "ragged {ragged} should exceed aligned {aligned}"
        );
    }

    #[test]
    fn background_congestion_slows_only_cross_pair_messages() {
        // 95% of layer-3 consumed by other jobs: the effective global
        // bandwidth (640 B/µs) drops below the NIC and becomes the
        // bottleneck — but only for cross-pair traffic.
        let idle = Cluster::bebop_like();
        let busy = Cluster::bebop_like().with_background_utilization(0.95);
        let mut sim = RoundSim::new();
        let global = sched(64, vec![vec![Msg::data(0, 32, 1 << 20)]]);
        let local = sched(64, vec![vec![Msg::data(0, 16, 1 << 20)]]);
        assert!(
            sim.simulate(&busy, 1, &global) > 1.5 * sim.simulate(&idle, 1, &global),
            "cross-pair traffic must feel the congestion"
        );
        assert_eq!(
            sim.simulate(&busy, 1, &local),
            sim.simulate(&idle, 1, &local),
            "intra-pair traffic must not"
        );
    }

    #[test]
    fn cyclic_window_max_matches_a_direct_scan() {
        // Small values so ties are common.
        let vals: Vec<f64> = (0..9u32).map(|i| ((i * 7 + 3) % 5) as f64).collect();
        let (mut queue, mut out) = (Vec::new(), Vec::new());
        for n in 1..=vals.len() {
            let vals = &vals[..n];
            for len in 1..=n {
                for first in 0..n {
                    for count in 0..2 * n {
                        cyclic_window_max(vals, first, len, count, &mut queue, &mut out);
                        let direct: Vec<f64> = (0..count)
                            .map(|s| {
                                (0..len)
                                    .map(|k| vals[(first + s + k) % n])
                                    .fold(f64::MIN, f64::max)
                            })
                            .collect();
                        assert_eq!(out, direct, "n={n} len={len} first={first} count={count}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "allocation provides")]
    fn too_many_ranks_rejected() {
        let c = Cluster::bebop_like(); // 64 nodes
        let s = sched(200, vec![]);
        RoundSim::new().simulate(&c, 1, &s);
    }
}
