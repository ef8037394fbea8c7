//! Dragonfly-style hierarchical topology and job allocations.
//!
//! The model follows Figure 8 of the paper: a three-layer network where
//! layer 1 connects the nodes within a rack, layer 2 pairs every two
//! racks, and layer 3 connects the rack pairs with direct high-bandwidth
//! links. Nodes are numbered sequentially within a rack and across racks,
//! which is the property ACCLAiM's greedy parallel-collection scheduler
//! relies on.

use serde::{Deserialize, Serialize};

/// The network layer a message between two ranks must traverse.
///
/// Ordered by "distance": `IntraNode < IntraRack < IntraPair < Global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Both ranks live on the same node (shared memory).
    IntraNode = 0,
    /// Different nodes within one rack (layer 1).
    IntraRack = 1,
    /// Different racks within one rack pair (layer 2).
    IntraPair = 2,
    /// Different rack pairs (layer 3).
    Global = 3,
}

impl Layer {
    /// All layers, ordered from nearest to farthest.
    pub const ALL: [Layer; 4] = [
        Layer::IntraNode,
        Layer::IntraRack,
        Layer::IntraPair,
        Layer::Global,
    ];

    /// Index usable for per-layer parameter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A machine's physical shape: racks of nodes, racks grouped into pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of nodes in each rack (layer-1 domain size).
    pub nodes_per_rack: u32,
    /// Total number of racks. Racks `2k` and `2k+1` form pair `k`.
    pub num_racks: u32,
}

impl Topology {
    /// Create a topology; panics if either dimension is zero.
    pub fn new(nodes_per_rack: u32, num_racks: u32) -> Self {
        assert!(nodes_per_rack > 0, "racks must contain at least one node");
        assert!(num_racks > 0, "topology must contain at least one rack");
        Topology {
            nodes_per_rack,
            num_racks,
        }
    }

    /// Total number of nodes in the machine.
    #[inline]
    pub fn total_nodes(&self) -> u32 {
        self.nodes_per_rack * self.num_racks
    }

    /// Rack containing a global node id.
    #[inline]
    pub fn rack_of(&self, node: u32) -> u32 {
        debug_assert!(node < self.total_nodes());
        node / self.nodes_per_rack
    }

    /// Rack pair containing a rack.
    #[inline]
    pub fn pair_of(&self, rack: u32) -> u32 {
        rack / 2
    }

    /// Number of rack pairs (last pair may hold a single rack).
    #[inline]
    pub fn num_pairs(&self) -> u32 {
        self.num_racks.div_ceil(2)
    }

    /// The network layer a message between two global node ids traverses.
    pub fn layer_between(&self, a: u32, b: u32) -> Layer {
        if a == b {
            return Layer::IntraNode;
        }
        let (ra, rb) = (self.rack_of(a), self.rack_of(b));
        if ra == rb {
            Layer::IntraRack
        } else if self.pair_of(ra) == self.pair_of(rb) {
            Layer::IntraPair
        } else {
            Layer::Global
        }
    }
}

/// The set of physical nodes assigned to a job, in logical order.
///
/// The autotuner and the collective schedules address *logical* nodes
/// `0..n`; the allocation maps them to global node ids in the topology.
/// Different allocation shapes are how the paper's placement effects
/// (Sec. III-D, Fig. 13) enter the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    nodes: Vec<u32>,
}

impl Allocation {
    /// Build an allocation from explicit global node ids.
    ///
    /// Panics if ids repeat or fall outside the topology.
    pub fn new(topology: &Topology, nodes: Vec<u32>) -> Self {
        assert!(
            !nodes.is_empty(),
            "allocation must contain at least one node"
        );
        let total = topology.total_nodes();
        let mut seen = vec![false; total as usize];
        for &n in &nodes {
            assert!(n < total, "node id {n} outside topology ({total} nodes)");
            assert!(!seen[n as usize], "node id {n} allocated twice");
            seen[n as usize] = true;
        }
        Allocation { nodes }
    }

    /// `count` sequential nodes starting at global node 0.
    pub fn contiguous(topology: &Topology, count: u32) -> Self {
        Self::new(topology, (0..count).collect())
    }

    /// All nodes of a single rack (Fig. 13 "Single Rack").
    ///
    /// Panics if the rack holds fewer than `count` nodes.
    pub fn single_rack(topology: &Topology, count: u32) -> Self {
        assert!(
            count <= topology.nodes_per_rack,
            "rack holds {} nodes, requested {count}",
            topology.nodes_per_rack
        );
        Self::contiguous(topology, count)
    }

    /// `count` nodes split evenly across the two racks of pair 0
    /// (Fig. 13 "Single Rack Pair").
    pub fn rack_pair(topology: &Topology, count: u32) -> Self {
        assert!(topology.num_racks >= 2, "topology has no rack pair");
        let half = count / 2;
        assert!(
            half <= topology.nodes_per_rack && count - half <= topology.nodes_per_rack,
            "rack pair cannot hold {count} nodes"
        );
        let mut nodes: Vec<u32> = (0..half).collect();
        nodes.extend((0..count - half).map(|i| topology.nodes_per_rack + i));
        Self::new(topology, nodes)
    }

    /// `count` nodes split evenly across four racks in two pairs
    /// (Fig. 13 "Two Rack Pairs").
    pub fn two_pairs(topology: &Topology, count: u32) -> Self {
        assert!(topology.num_racks >= 4, "topology has fewer than 4 racks");
        let per_rack = count.div_ceil(4);
        assert!(per_rack <= topology.nodes_per_rack, "racks too small");
        let mut nodes = Vec::with_capacity(count as usize);
        'outer: for rack in 0..4 {
            for i in 0..per_rack {
                if nodes.len() as u32 == count {
                    break 'outer;
                }
                nodes.push(rack * topology.nodes_per_rack + i);
            }
        }
        Self::new(topology, nodes)
    }

    /// One node from each of `count` racks, all racks in distinct pairs
    /// (Fig. 13 "Max Parallel", the 1-0-1-0… placement).
    pub fn max_parallel(topology: &Topology, count: u32) -> Self {
        assert!(
            topology.num_pairs() >= count,
            "need {count} rack pairs, topology has {}",
            topology.num_pairs()
        );
        let nodes = (0..count)
            .map(|i| 2 * i * topology.nodes_per_rack)
            .collect();
        Self::new(topology, nodes)
    }

    /// A uniformly random allocation of `count` distinct nodes, modelling
    /// Theta's best-effort scheduler.
    pub fn random<R: rand::Rng>(topology: &Topology, count: u32, rng: &mut R) -> Self {
        use rand::seq::SliceRandom;
        let total = topology.total_nodes();
        assert!(count <= total, "machine holds only {total} nodes");
        let mut all: Vec<u32> = (0..total).collect();
        all.shuffle(rng);
        all.truncate(count as usize);
        Self::new(topology, all)
    }

    /// Number of nodes in the allocation.
    #[inline]
    pub fn len(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// True when the allocation is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Global node id of logical node `i`.
    #[inline]
    pub fn node(&self, i: u32) -> u32 {
        self.nodes[i as usize]
    }

    /// The global node ids in logical order.
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The allocation with the given global node ids removed (surviving
    /// nodes keep their relative logical order). Used when a node
    /// hard-fails mid-collection: subsequent waves schedule over the
    /// degraded allocation, and rack burn-sets are recomputed from it.
    ///
    /// Panics if removal would empty the allocation — a job with no
    /// surviving nodes cannot continue.
    pub fn excluding(&self, dead: &[u32]) -> Allocation {
        let nodes: Vec<u32> = self
            .nodes
            .iter()
            .copied()
            .filter(|n| !dead.contains(n))
            .collect();
        assert!(!nodes.is_empty(), "every node of the allocation died");
        Allocation { nodes }
    }

    /// Restrict to a logical sub-range (used by the parallel-collection
    /// scheduler to hand disjoint node sets to concurrent benchmarks).
    pub fn slice(&self, start: u32, count: u32) -> Allocation {
        let s = start as usize;
        let e = s + count as usize;
        assert!(e <= self.nodes.len(), "slice out of range");
        Allocation {
            nodes: self.nodes[s..e].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn topo() -> Topology {
        Topology::new(4, 6)
    }

    #[test]
    fn layer_ordering_reflects_distance() {
        assert!(Layer::IntraNode < Layer::IntraRack);
        assert!(Layer::IntraRack < Layer::IntraPair);
        assert!(Layer::IntraPair < Layer::Global);
    }

    #[test]
    fn rack_and_pair_mapping() {
        let t = topo();
        assert_eq!(t.total_nodes(), 24);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.pair_of(0), 0);
        assert_eq!(t.pair_of(1), 0);
        assert_eq!(t.pair_of(2), 1);
        assert_eq!(t.num_pairs(), 3);
    }

    #[test]
    fn odd_rack_count_rounds_pairs_up() {
        let t = Topology::new(2, 5);
        assert_eq!(t.num_pairs(), 3);
        assert_eq!(t.pair_of(4), 2);
    }

    #[test]
    fn layer_between_covers_all_cases() {
        let t = topo();
        assert_eq!(t.layer_between(1, 1), Layer::IntraNode);
        assert_eq!(t.layer_between(0, 3), Layer::IntraRack);
        assert_eq!(t.layer_between(0, 4), Layer::IntraPair);
        assert_eq!(t.layer_between(0, 8), Layer::Global);
        assert_eq!(t.layer_between(8, 0), Layer::Global);
    }

    #[test]
    fn contiguous_allocation_is_sequential() {
        let t = topo();
        let a = Allocation::contiguous(&t, 6);
        assert_eq!(a.nodes(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn rack_pair_spans_exactly_two_racks() {
        let t = topo();
        let a = Allocation::rack_pair(&t, 8);
        let racks: std::collections::BTreeSet<u32> =
            a.nodes().iter().map(|&n| t.rack_of(n)).collect();
        assert_eq!(racks.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn two_pairs_spans_four_racks() {
        let t = topo();
        let a = Allocation::two_pairs(&t, 16);
        let racks: std::collections::BTreeSet<u32> =
            a.nodes().iter().map(|&n| t.rack_of(n)).collect();
        assert_eq!(racks.len(), 4);
    }

    #[test]
    fn max_parallel_puts_every_node_in_its_own_pair() {
        let t = Topology::new(4, 8);
        let a = Allocation::max_parallel(&t, 4);
        let pairs: std::collections::BTreeSet<u32> =
            a.nodes().iter().map(|&n| t.pair_of(t.rack_of(n))).collect();
        assert_eq!(pairs.len(), 4, "each node must land in a distinct pair");
    }

    #[test]
    fn random_allocation_is_distinct_and_in_range() {
        let t = topo();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Allocation::random(&t, 10, &mut rng);
        let set: std::collections::BTreeSet<u32> = a.nodes().iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(set.iter().all(|&n| n < t.total_nodes()));
    }

    #[test]
    fn slice_preserves_order() {
        let t = topo();
        let a = Allocation::contiguous(&t, 8);
        let s = a.slice(2, 3);
        assert_eq!(s.nodes(), &[2, 3, 4]);
    }

    #[test]
    fn excluding_removes_dead_nodes_preserving_order() {
        let t = topo();
        let a = Allocation::contiguous(&t, 8);
        let d = a.excluding(&[2, 5]);
        assert_eq!(d.nodes(), &[0, 1, 3, 4, 6, 7]);
        // Ids absent from the allocation are ignored.
        assert_eq!(a.excluding(&[99]).nodes(), a.nodes());
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn excluding_all_nodes_rejected() {
        let t = topo();
        let a = Allocation::contiguous(&t, 2);
        let _ = a.excluding(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn duplicate_nodes_rejected() {
        let t = topo();
        let _ = Allocation::new(&t, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_nodes_rejected() {
        let t = topo();
        let _ = Allocation::new(&t, vec![99]);
    }
}
