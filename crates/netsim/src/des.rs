//! Flow-level discrete-event simulator with max-min fair sharing.
//!
//! Unlike [`crate::roundsim`], ranks here progress asynchronously: a rank
//! enters its next schedule round as soon as its *own* messages of the
//! current round complete, and concurrent transfers share link bandwidth
//! max-min fairly, recomputed on every flow arrival and departure. This
//! is the classic fluid-flow network simulation. It costs O(flows ·
//! resources) per event, so it is reserved for validating the round
//! simulator on small configurations and for unit/property tests.

use crate::cluster::Cluster;
use crate::equeue::CalendarQueue;
use crate::schedule::{MaterializedSchedule, Msg};
use acclaim_obs::{Counter, Histogram, Obs};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const EPS_BYTES: f64 = 1e-6;

/// Resource index space: `mem` per node, `nic_out`/`nic_in` per node,
/// `uplink` per rack, `global` per pair.
struct ResourceMap {
    nodes: u32,
    racks: u32,
    capacity: Vec<f64>,
}

impl ResourceMap {
    fn new(cluster: &Cluster) -> Self {
        let nodes = cluster.topology.total_nodes();
        let racks = cluster.topology.num_racks;
        let pairs = cluster.topology.num_pairs();
        let p = &cluster.params;
        let mut capacity = Vec::with_capacity((3 * nodes + racks + pairs) as usize);
        capacity.extend(std::iter::repeat_n(p.mem_bandwidth, nodes as usize));
        capacity.extend(std::iter::repeat_n(p.nic_bandwidth, 2 * nodes as usize));
        capacity.extend(std::iter::repeat_n(p.rack_uplink_bandwidth, racks as usize));
        capacity.extend(std::iter::repeat_n(
            cluster.effective_global_bandwidth(),
            pairs as usize,
        ));
        ResourceMap {
            nodes,
            racks,
            capacity,
        }
    }

    fn mem(&self, node: u32) -> u32 {
        node
    }
    fn nic_out(&self, node: u32) -> u32 {
        self.nodes + node
    }
    fn nic_in(&self, node: u32) -> u32 {
        2 * self.nodes + node
    }
    fn uplink(&self, rack: u32) -> u32 {
        3 * self.nodes + rack
    }
    fn global(&self, pair: u32) -> u32 {
        3 * self.nodes + self.racks + pair
    }

    /// Resources a message between two global nodes traverses.
    fn path(&self, cluster: &Cluster, src_node: u32, dst_node: u32) -> Vec<u32> {
        if src_node == dst_node {
            return vec![self.mem(src_node)];
        }
        let topo = &cluster.topology;
        let mut path = vec![self.nic_out(src_node), self.nic_in(dst_node)];
        let (sr, dr) = (topo.rack_of(src_node), topo.rack_of(dst_node));
        if sr != dr {
            path.push(self.uplink(sr));
            path.push(self.uplink(dr));
            let (sp, dp) = (topo.pair_of(sr), topo.pair_of(dr));
            if sp != dp {
                path.push(self.global(sp));
                path.push(self.global(dp));
            }
        }
        path
    }
}

#[derive(Debug, Clone)]
struct Flow {
    msg: Msg,
    round: u32,
    path: Vec<u32>,
    /// Remaining wire bytes; negative or ~0 means the transfer finished.
    remaining: f64,
    rate: f64,
    last_update: f64,
    latency: f64,
    align: f64,
    generation: u32,
    active: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A rank posts one send (flow index) of its current round.
    FlowStart(u32),
    /// A flow's last byte left the wire (versioned; stale ones skipped).
    TransferEnd(u32, u32),
    /// The payload reached the receiving rank (post latency + reduce).
    Delivery(u32),
}

#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    seq: u64,
    event: Event,
}

// PartialEq is written out (not derived) so equality stays consistent
// with `Ord`: a derived impl would compare `time` with f64 `==`, which
// disagrees with `total_cmp` on -0.0/0.0 and NaN — the exact class of
// float-ordering divergence the PR 6 audit is after.
impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Which priority-queue implementation orders the DES event loop. Both
/// pop the pending event minimal under `(time.total_cmp, seq)`, so the
/// simulated result is bit-identical either way (asserted by the
/// `engines` equivalence tests); they differ only in host cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueEngine {
    /// Calendar (bucket) queue — amortized O(1) push/pop
    /// ([`CalendarQueue`]). The default.
    #[default]
    Calendar,
    /// The reference `std::collections::BinaryHeap` (O(log n)): kept
    /// for equivalence testing and the `bench` engine comparison.
    BinaryHeap,
}

/// The event loop's priority queue, behind the engine switch. Owns the
/// `seq` tiebreaker so pushes are totally ordered no matter the engine.
enum EventQueue {
    Calendar {
        seq: u64,
        q: CalendarQueue<Event>,
    },
    Heap {
        seq: u64,
        q: BinaryHeap<Reverse<QueuedEvent>>,
    },
}

impl EventQueue {
    fn new(engine: QueueEngine) -> Self {
        match engine {
            QueueEngine::Calendar => EventQueue::Calendar {
                seq: 0,
                q: CalendarQueue::new(),
            },
            QueueEngine::BinaryHeap => EventQueue::Heap {
                seq: 0,
                q: BinaryHeap::new(),
            },
        }
    }

    fn push(&mut self, time: f64, event: Event) {
        match self {
            EventQueue::Calendar { seq, q } => {
                *seq += 1;
                q.push(time, *seq, event);
            }
            EventQueue::Heap { seq, q } => {
                *seq += 1;
                q.push(Reverse(QueuedEvent {
                    time,
                    seq: *seq,
                    event,
                }));
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        match self {
            EventQueue::Calendar { q, .. } => q.pop().map(|(time, _, event)| (time, event)),
            EventQueue::Heap { q, .. } => q.pop().map(|Reverse(e)| (e.time, e.event)),
        }
    }
}

/// Flow-level discrete-event simulator.
#[derive(Debug, Default)]
pub struct FlowSim {
    obs: FlowSimObs,
    engine: QueueEngine,
}

/// Pre-resolved metric handles ([`FlowSim::with_obs`]); default
/// (disabled) handles drop every record.
#[derive(Debug, Default)]
struct FlowSimObs {
    calls: Counter,
    events: Counter,
    stale_events: Counter,
    flows: Counter,
    sim_us: Histogram,
    host_us: Histogram,
}

impl FlowSim {
    /// A fresh simulator.
    pub fn new() -> Self {
        FlowSim::default()
    }

    /// A simulator recording `netsim.des.*` metrics into `obs`: calls,
    /// processed and stale events, flows, and paired histograms of
    /// *simulated* completion time vs. *host* time spent computing it —
    /// the DES's two timelines side by side.
    pub fn with_obs(obs: &Obs) -> Self {
        FlowSim {
            obs: FlowSimObs {
                calls: obs.counter("netsim.des.calls"),
                events: obs.counter("netsim.des.events"),
                stale_events: obs.counter("netsim.des.stale_events"),
                flows: obs.counter("netsim.des.flows"),
                sim_us: obs.histogram("netsim.des.sim_us"),
                host_us: obs.histogram("netsim.des.host_us"),
            },
            engine: QueueEngine::default(),
        }
    }

    /// Select the event-queue engine (builder style). Results are
    /// bit-identical across engines; see [`QueueEngine`].
    pub fn with_queue(mut self, engine: QueueEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine the event loop runs on.
    pub fn queue_engine(&self) -> QueueEngine {
        self.engine
    }

    /// Simulate one execution; returns the completion time (µs) at which
    /// every rank has finished all of its rounds.
    pub fn simulate(&mut self, cluster: &Cluster, ppn: u32, sched: &MaterializedSchedule) -> f64 {
        assert!(ppn >= 1, "ppn must be positive");
        let ranks = sched.num_ranks;
        assert!(
            ranks <= cluster.num_nodes() * ppn,
            "schedule needs {ranks} ranks but allocation provides {}x{ppn}",
            cluster.num_nodes()
        );
        let host_start = std::time::Instant::now();
        self.obs.calls.incr();
        let n_rounds = sched.rounds.len() as u32;
        if n_rounds == 0 || ranks == 0 {
            self.obs.sim_us.record(0.0);
            self.obs
                .host_us
                .record(host_start.elapsed().as_secs_f64() * 1e6);
            return 0.0;
        }

        let resources = ResourceMap::new(cluster);
        let params = &cluster.params;

        // Flows, indexed flat across rounds, plus per-(rank, round)
        // bookkeeping: how many of the rank's messages remain, and which
        // sends it must post upon entering the round.
        let mut flows: Vec<Flow> = Vec::new();
        let mut pending = vec![vec![0u32; ranks as usize]; n_rounds as usize];
        let mut sends: Vec<Vec<Vec<u32>>> =
            vec![vec![Vec::new(); ranks as usize]; n_rounds as usize];
        for (k, round) in sched.rounds.iter().enumerate() {
            for m in round {
                let sn = cluster.node_of_rank(m.src, ppn);
                let dn = cluster.node_of_rank(m.dst, ppn);
                let layer = cluster.topology.layer_between(sn, dn);
                let wire = if sn == dn {
                    m.bytes
                } else {
                    params.wire_bytes(m.bytes)
                };
                let id = flows.len() as u32;
                flows.push(Flow {
                    msg: *m,
                    round: k as u32,
                    path: resources.path(cluster, sn, dn),
                    remaining: wire as f64,
                    rate: 0.0,
                    last_update: 0.0,
                    latency: params.latency(layer, cluster.job_latency_factor)
                        + params.alignment_latency(m.bytes),
                    align: params.bandwidth_derating(m.bytes),
                    generation: 0,
                    active: false,
                });
                pending[k][m.src as usize] += 1;
                pending[k][m.dst as usize] += 1;
                sends[k][m.src as usize].push(id);
            }
        }

        let mut queue = EventQueue::new(self.engine);

        // Rank state: the round each rank currently occupies (or n_rounds
        // when done). Entering a round posts its sends with serialized
        // CPU overhead.
        let mut rank_round = vec![0u32; ranks as usize];
        let mut active_flows: Vec<u32> = Vec::new();
        let mut finish = 0.0f64;

        // Enter a rank into its next round with pending work, posting
        // sends. Returns without scheduling anything once the rank is
        // done. Recv-only rounds whose deliveries already happened are
        // skipped over.
        #[allow(clippy::too_many_arguments)] // local helper over loop state
        fn enter_rounds(
            rank: u32,
            now: f64,
            n_rounds: u32,
            cpu_overhead: f64,
            rank_round: &mut [u32],
            pending: &[Vec<u32>],
            sends: &[Vec<Vec<u32>>],
            queue: &mut EventQueue,
        ) {
            loop {
                let k = rank_round[rank as usize];
                if k >= n_rounds {
                    return;
                }
                if pending[k as usize][rank as usize] == 0 {
                    rank_round[rank as usize] += 1;
                    continue;
                }
                // Post this round's sends; recvs complete via Delivery.
                for (i, &fid) in sends[k as usize][rank as usize].iter().enumerate() {
                    queue.push(now + (i + 1) as f64 * cpu_overhead, Event::FlowStart(fid));
                }
                return;
            }
        }

        for r in 0..ranks {
            enter_rounds(
                r,
                0.0,
                n_rounds,
                params.cpu_overhead_us,
                &mut rank_round,
                &pending,
                &sends,
                &mut queue,
            );
        }

        self.obs.flows.add(flows.len() as u64);
        while let Some((time, event)) = queue.pop() {
            self.obs.events.incr();
            finish = finish.max(time);
            match event {
                Event::FlowStart(fid) => {
                    {
                        let f = &mut flows[fid as usize];
                        f.active = true;
                        f.last_update = time;
                    }
                    active_flows.push(fid);
                    recompute_rates(
                        time,
                        &mut flows,
                        &mut active_flows,
                        &resources,
                        |t, f, g| queue.push(t, Event::TransferEnd(f, g)),
                    );
                }
                Event::TransferEnd(fid, generation) => {
                    let f = &flows[fid as usize];
                    if !f.active || f.generation != generation {
                        self.obs.stale_events.incr();
                        continue; // stale event from a superseded rate
                    }
                    let elapsed = time - f.last_update;
                    if f.remaining - f.rate * elapsed > EPS_BYTES {
                        self.obs.stale_events.incr();
                        continue; // stale: rate dropped since scheduling
                    }
                    let latency = f.latency;
                    let src = f.msg.src;
                    let round = f.round;
                    flows[fid as usize].active = false;
                    active_flows.retain(|&x| x != fid);
                    recompute_rates(
                        time,
                        &mut flows,
                        &mut active_flows,
                        &resources,
                        |t, f, g| queue.push(t, Event::TransferEnd(f, g)),
                    );
                    // Sender completes its message at wire drain.
                    complete_message(
                        src,
                        round,
                        time,
                        n_rounds,
                        params.cpu_overhead_us,
                        &mut rank_round,
                        &mut pending,
                        &sends,
                        &mut queue,
                    );
                    queue.push(time + latency, Event::Delivery(fid));
                }
                Event::Delivery(fid) => {
                    let f = &flows[fid as usize];
                    let done =
                        time + params.reduce_time(f.msg.reduce_bytes) + params.cpu_overhead_us;
                    let dst = f.msg.dst;
                    let round = f.round;
                    finish = finish.max(done);
                    complete_message(
                        dst,
                        round,
                        done,
                        n_rounds,
                        params.cpu_overhead_us,
                        &mut rank_round,
                        &mut pending,
                        &sends,
                        &mut queue,
                    );
                }
            }
        }

        debug_assert!(
            pending.iter().all(|r| r.iter().all(|&p| p == 0)),
            "DES finished with undelivered messages"
        );
        finish += crate::roundsim::epilogue_time(cluster, ppn, sched.epilogue_local_bytes);

        #[allow(clippy::too_many_arguments)]
        fn complete_message(
            rank: u32,
            round: u32,
            now: f64,
            n_rounds: u32,
            cpu_overhead: f64,
            rank_round: &mut [u32],
            pending: &mut [Vec<u32>],
            sends: &[Vec<Vec<u32>>],
            queue: &mut EventQueue,
        ) {
            let p = &mut pending[round as usize][rank as usize];
            debug_assert!(*p > 0, "double completion for rank {rank} round {round}");
            *p -= 1;
            if *p == 0 && rank_round[rank as usize] == round {
                rank_round[rank as usize] = round + 1;
                enter_rounds(
                    rank,
                    now,
                    n_rounds,
                    cpu_overhead,
                    rank_round,
                    pending,
                    sends,
                    queue,
                );
            }
        }

        self.obs.sim_us.record(finish);
        self.obs
            .host_us
            .record(host_start.elapsed().as_secs_f64() * 1e6);
        finish
    }
}

/// Max-min fair (progressive-filling) rate assignment over the active
/// flows, then reschedule each flow's transfer-end event.
fn recompute_rates(
    now: f64,
    flows: &mut [Flow],
    active: &mut [u32],
    resources: &ResourceMap,
    mut schedule_end: impl FnMut(f64, u32, u32),
) {
    // Age every active flow to `now`.
    for &fid in active.iter() {
        let f = &mut flows[fid as usize];
        f.remaining -= f.rate * (now - f.last_update);
        f.last_update = now;
    }

    // Progressive filling.
    let mut remaining_cap = resources.capacity.clone();
    let mut counts = vec![0u32; resources.capacity.len()];
    for &fid in active.iter() {
        for &r in &flows[fid as usize].path {
            counts[r as usize] += 1;
        }
    }
    let mut unassigned: Vec<u32> = active.to_vec();
    while !unassigned.is_empty() {
        // Bottleneck resource: minimal fair share among contended ones.
        let mut best: Option<(u32, f64)> = None;
        for (r, &c) in counts.iter().enumerate() {
            if c > 0 {
                let share = remaining_cap[r] / c as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((r as u32, share));
                }
            }
        }
        let (bottleneck, fair) = best.expect("unassigned flows imply a contended resource");
        let mut still = Vec::with_capacity(unassigned.len());
        for fid in unassigned {
            let on_bottleneck = flows[fid as usize].path.contains(&bottleneck);
            if on_bottleneck {
                flows[fid as usize].rate = fair * flows[fid as usize].align;
                for &r in &flows[fid as usize].path {
                    remaining_cap[r as usize] -= fair;
                    counts[r as usize] -= 1;
                }
            } else {
                still.push(fid);
            }
        }
        unassigned = still;
    }

    // Reschedule completions under the new rates.
    for &fid in active.iter() {
        let f = &mut flows[fid as usize];
        f.generation += 1;
        let dt = if f.remaining <= EPS_BYTES {
            0.0
        } else {
            f.remaining / f.rate
        };
        schedule_end(now + dt, fid, f.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roundsim::RoundSim;
    use crate::schedule::{MaterializedSchedule, Msg};

    fn sched(num_ranks: u32, rounds: Vec<Vec<Msg>>) -> MaterializedSchedule {
        let s = MaterializedSchedule::new(num_ranks, rounds);
        s.validate().expect("well-formed");
        s
    }

    #[test]
    fn empty_schedule_is_free() {
        let c = Cluster::bebop_like();
        assert_eq!(FlowSim::new().simulate(&c, 1, &sched(2, vec![])), 0.0);
    }

    #[test]
    fn single_message_matches_roundsim_closely() {
        let c = Cluster::bebop_like();
        let s = sched(2, vec![vec![Msg::data(0, 1, 65_536)]]);
        let des = FlowSim::new().simulate(&c, 1, &s);
        let rs = RoundSim::new().simulate(&c, 1, &s);
        // Identical physics for a lone flow, up to CPU accounting (the
        // DES charges both endpoints' overhead explicitly).
        assert!(
            (des - rs).abs() < 3.0 * c.params.cpu_overhead_us,
            "des={des} roundsim={rs}"
        );
    }

    #[test]
    fn contending_flows_share_bandwidth() {
        let c = Cluster::bebop_like();
        let lone = sched(4, vec![vec![Msg::data(0, 2, 1 << 20)]]);
        let shared = sched(
            4,
            vec![vec![Msg::data(0, 2, 1 << 20), Msg::data(1, 3, 1 << 20)]],
        );
        let mut sim = FlowSim::new();
        let t1 = sim.simulate(&c, 2, &lone);
        let t2 = sim.simulate(&c, 2, &shared);
        assert!(
            t2 > 1.7 * t1,
            "NIC sharing must slow both flows: {t1} vs {t2}"
        );
    }

    #[test]
    fn disjoint_flows_run_concurrently() {
        let c = Cluster::bebop_like();
        let lone = sched(4, vec![vec![Msg::data(0, 1, 1 << 20)]]);
        let par = sched(
            4,
            vec![vec![Msg::data(0, 1, 1 << 20), Msg::data(2, 3, 1 << 20)]],
        );
        let mut sim = FlowSim::new();
        let t1 = sim.simulate(&c, 1, &lone);
        let t2 = sim.simulate(&c, 1, &par);
        assert!(
            (t2 - t1).abs() < 2.0 * c.params.cpu_overhead_us,
            "disjoint flows must not slow each other: {t1} vs {t2}"
        );
    }

    #[test]
    fn dependent_rounds_serialize_per_rank() {
        let c = Cluster::bebop_like();
        // Relay 0 -> 1 -> 2: round 2 cannot start before rank 1 receives.
        let relay = sched(
            3,
            vec![
                vec![Msg::data(0, 1, 1 << 20)],
                vec![Msg::data(1, 2, 1 << 20)],
            ],
        );
        let single = sched(3, vec![vec![Msg::data(0, 1, 1 << 20)]]);
        let mut sim = FlowSim::new();
        let t_relay = sim.simulate(&c, 1, &relay);
        let t_single = sim.simulate(&c, 1, &single);
        assert!(
            t_relay > 1.9 * t_single,
            "relay must serialize: {t_relay} vs {t_single}"
        );
    }

    #[test]
    fn asynchronous_progress_beats_global_rounds() {
        let c = Cluster::bebop_like();
        // Round 1 has a huge and a tiny message; round 2's tiny message
        // (between the tiny pair) need not wait for the huge transfer.
        let s = sched(
            4,
            vec![
                vec![Msg::data(0, 1, 8 << 20), Msg::data(2, 3, 64)],
                vec![Msg::data(3, 2, 64)],
            ],
        );
        let des = FlowSim::new().simulate(&c, 1, &s);
        let rs = RoundSim::new().simulate(&c, 1, &s);
        assert!(des < rs, "DES ({des}) should finish before roundsim ({rs})");
    }

    #[test]
    fn reduction_delays_receiver() {
        let c = Cluster::bebop_like();
        let plain = sched(2, vec![vec![Msg::data(0, 1, 1 << 20)]]);
        let reducing = sched(2, vec![vec![Msg::reducing(0, 1, 1 << 20)]]);
        let mut sim = FlowSim::new();
        let tp = sim.simulate(&c, 1, &plain);
        let tr = sim.simulate(&c, 1, &reducing);
        let extra = c.params.reduce_time(1 << 20);
        assert!(
            (tr - tp - extra).abs() < 1e-6,
            "tp={tp} tr={tr} extra={extra}"
        );
    }

    #[test]
    fn queue_engines_are_bit_identical() {
        let c = Cluster::bebop_like();
        let scheds = [
            sched(2, vec![vec![Msg::data(0, 1, 65_536)]]),
            sched(
                4,
                vec![vec![Msg::data(0, 2, 1 << 20), Msg::data(1, 3, 1 << 20)]],
            ),
            sched(
                8,
                vec![
                    vec![Msg::data(0, 4, 1 << 16)],
                    vec![Msg::data(0, 2, 1 << 16), Msg::data(4, 6, 1 << 16)],
                    vec![
                        Msg::data(0, 1, 1 << 16),
                        Msg::data(2, 3, 1 << 16),
                        Msg::data(4, 5, 1 << 16),
                        Msg::data(6, 7, 1 << 16),
                    ],
                ],
            ),
        ];
        for (i, s) in scheds.iter().enumerate() {
            for ppn in [1, 2] {
                let cal = FlowSim::new()
                    .with_queue(QueueEngine::Calendar)
                    .simulate(&c, ppn, s);
                let heap = FlowSim::new()
                    .with_queue(QueueEngine::BinaryHeap)
                    .simulate(&c, ppn, s);
                assert_eq!(
                    cal.to_bits(),
                    heap.to_bits(),
                    "engines diverged on schedule {i} ppn {ppn}: {cal} vs {heap}"
                );
            }
        }
        assert_eq!(FlowSim::new().queue_engine(), QueueEngine::Calendar);
    }

    #[test]
    fn agrees_with_roundsim_on_binomial_like_pattern() {
        let c = Cluster::bebop_like();
        // A 8-rank binomial bcast pattern, ppn=1.
        let s = sched(
            8,
            vec![
                vec![Msg::data(0, 4, 1 << 16)],
                vec![Msg::data(0, 2, 1 << 16), Msg::data(4, 6, 1 << 16)],
                vec![
                    Msg::data(0, 1, 1 << 16),
                    Msg::data(2, 3, 1 << 16),
                    Msg::data(4, 5, 1 << 16),
                    Msg::data(6, 7, 1 << 16),
                ],
            ],
        );
        let des = FlowSim::new().simulate(&c, 1, &s);
        let rs = RoundSim::new().simulate(&c, 1, &s);
        let ratio = des / rs;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "engines disagree: des={des} roundsim={rs}"
        );
    }
}
