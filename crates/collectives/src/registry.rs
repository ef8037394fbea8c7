//! The collectives and algorithms the paper studies (Sec. II-A: the four
//! most popular collectives from Chunduri et al., 10 algorithms total).

use crate::allgather::{AllgatherBrucks, AllgatherRecursiveDoubling, AllgatherRing};
use crate::allreduce::{AllreduceRecursiveDoubling, AllreduceReduceScatterAllgather};
use crate::bcast::{
    BcastBinomial, BcastScatterRecursiveDoublingAllgather, BcastScatterRingAllgather,
};
use crate::reduce::{ReduceBinomial, ReduceScatterGather};
use acclaim_netsim::Schedule;
use serde::{Deserialize, Serialize};

/// The four MPI collectives under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Collective {
    /// `MPI_Allgather`
    Allgather,
    /// `MPI_Allreduce`
    Allreduce,
    /// `MPI_Bcast`
    Bcast,
    /// `MPI_Reduce`
    Reduce,
}

impl Collective {
    /// All four collectives, in the paper's order.
    pub const ALL: [Collective; 4] = [
        Collective::Allgather,
        Collective::Allreduce,
        Collective::Bcast,
        Collective::Reduce,
    ];

    /// MPI-style lowercase name (as used in MPICH tuning files).
    pub fn name(self) -> &'static str {
        match self {
            Collective::Allgather => "allgather",
            Collective::Allreduce => "allreduce",
            Collective::Bcast => "bcast",
            Collective::Reduce => "reduce",
        }
    }

    /// The algorithms MPICH offers for this collective.
    pub fn algorithms(self) -> &'static [Algorithm] {
        match self {
            Collective::Allgather => &[
                Algorithm::AllgatherRing,
                Algorithm::AllgatherRecursiveDoubling,
                Algorithm::AllgatherBrucks,
            ],
            Collective::Allreduce => &[
                Algorithm::AllreduceRecursiveDoubling,
                Algorithm::AllreduceReduceScatterAllgather,
            ],
            Collective::Bcast => &[
                Algorithm::BcastBinomial,
                Algorithm::BcastScatterRecursiveDoublingAllgather,
                Algorithm::BcastScatterRingAllgather,
            ],
            Collective::Reduce => &[Algorithm::ReduceBinomial, Algorithm::ReduceScatterGather],
        }
    }

    /// Parse a lowercase collective name.
    pub fn parse(name: &str) -> Option<Collective> {
        Collective::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The ten collective algorithms (3 allgather + 2 allreduce + 3 bcast +
/// 2 reduce), named after their MPICH counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Ring allgather.
    AllgatherRing,
    /// Recursive-doubling allgather (P2-favoring).
    AllgatherRecursiveDoubling,
    /// Bruck's allgather (log rounds for any n, local rotation).
    AllgatherBrucks,
    /// Recursive-doubling allreduce.
    AllreduceRecursiveDoubling,
    /// Rabenseifner reduce-scatter + allgather allreduce.
    AllreduceReduceScatterAllgather,
    /// Binomial-tree broadcast.
    BcastBinomial,
    /// Scatter + recursive-doubling-allgather broadcast (P2-favoring).
    BcastScatterRecursiveDoublingAllgather,
    /// Scatter + ring-allgather broadcast.
    BcastScatterRingAllgather,
    /// Binomial-tree reduction.
    ReduceBinomial,
    /// Reduce-scatter + gather reduction ("scatter_gather").
    ReduceScatterGather,
}

impl Algorithm {
    /// All ten algorithms.
    pub const ALL: [Algorithm; 10] = [
        Algorithm::AllgatherRing,
        Algorithm::AllgatherRecursiveDoubling,
        Algorithm::AllgatherBrucks,
        Algorithm::AllreduceRecursiveDoubling,
        Algorithm::AllreduceReduceScatterAllgather,
        Algorithm::BcastBinomial,
        Algorithm::BcastScatterRecursiveDoublingAllgather,
        Algorithm::BcastScatterRingAllgather,
        Algorithm::ReduceBinomial,
        Algorithm::ReduceScatterGather,
    ];

    /// The collective this algorithm implements.
    pub fn collective(self) -> Collective {
        match self {
            Algorithm::AllgatherRing
            | Algorithm::AllgatherRecursiveDoubling
            | Algorithm::AllgatherBrucks => Collective::Allgather,
            Algorithm::AllreduceRecursiveDoubling | Algorithm::AllreduceReduceScatterAllgather => {
                Collective::Allreduce
            }
            Algorithm::BcastBinomial
            | Algorithm::BcastScatterRecursiveDoublingAllgather
            | Algorithm::BcastScatterRingAllgather => Collective::Bcast,
            Algorithm::ReduceBinomial | Algorithm::ReduceScatterGather => Collective::Reduce,
        }
    }

    /// MPICH-style algorithm name (as appears in tuning files).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::AllgatherRing => "ring",
            Algorithm::AllgatherRecursiveDoubling => "recursive_doubling",
            Algorithm::AllgatherBrucks => "brucks",
            Algorithm::AllreduceRecursiveDoubling => "recursive_doubling",
            Algorithm::AllreduceReduceScatterAllgather => "reduce_scatter_allgather",
            Algorithm::BcastBinomial => "binomial",
            Algorithm::BcastScatterRecursiveDoublingAllgather => {
                "scatter_recursive_doubling_allgather"
            }
            Algorithm::BcastScatterRingAllgather => "scatter_ring_allgather",
            Algorithm::ReduceBinomial => "binomial",
            Algorithm::ReduceScatterGather => "reduce_scatter_gather",
        }
    }

    /// Index of this algorithm within its collective's algorithm list
    /// (the "algorithm" feature value in ACCLAiM's per-collective model).
    pub fn index_within_collective(self) -> usize {
        self.collective()
            .algorithms()
            .iter()
            .position(|&a| a == self)
            .expect("algorithm listed under its collective")
    }

    /// Look an algorithm up by collective and MPICH-style name.
    pub fn parse(collective: Collective, name: &str) -> Option<Algorithm> {
        collective
            .algorithms()
            .iter()
            .copied()
            .find(|a| a.name() == name)
    }

    /// Build the communication schedule for `ranks` ranks and `bytes`
    /// message size (per-rank contribution for allgather, total payload
    /// otherwise).
    pub fn schedule(self, ranks: u32, bytes: u64) -> Box<dyn Schedule + Send + Sync> {
        match self {
            Algorithm::AllgatherRing => Box::new(AllgatherRing::new(ranks, bytes)),
            Algorithm::AllgatherRecursiveDoubling => {
                Box::new(AllgatherRecursiveDoubling::new(ranks, bytes))
            }
            Algorithm::AllgatherBrucks => Box::new(AllgatherBrucks::new(ranks, bytes)),
            Algorithm::AllreduceRecursiveDoubling => {
                Box::new(AllreduceRecursiveDoubling::new(ranks, bytes))
            }
            Algorithm::AllreduceReduceScatterAllgather => {
                Box::new(AllreduceReduceScatterAllgather::new(ranks, bytes))
            }
            Algorithm::BcastBinomial => Box::new(BcastBinomial::new(ranks, bytes)),
            Algorithm::BcastScatterRecursiveDoublingAllgather => {
                Box::new(BcastScatterRecursiveDoublingAllgather::new(ranks, bytes))
            }
            Algorithm::BcastScatterRingAllgather => {
                Box::new(BcastScatterRingAllgather::new(ranks, bytes))
            }
            Algorithm::ReduceBinomial => Box::new(ReduceBinomial::new(ranks, bytes)),
            Algorithm::ReduceScatterGather => Box::new(ReduceScatterGather::new(ranks, bytes)),
        }
    }
}

impl std::fmt::Display for Algorithm {
    /// Qualified `collective.name` form, unambiguous across collectives.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.collective().name(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_algorithms_across_four_collectives() {
        assert_eq!(Algorithm::ALL.len(), 10);
        let total: usize = Collective::ALL.iter().map(|c| c.algorithms().len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn algorithms_listed_under_their_collective() {
        for a in Algorithm::ALL {
            assert!(a.collective().algorithms().contains(&a), "{a:?}");
        }
    }

    #[test]
    fn index_within_collective_is_consistent() {
        for c in Collective::ALL {
            for (i, &a) in c.algorithms().iter().enumerate() {
                assert_eq!(a.index_within_collective(), i);
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for c in Collective::ALL {
            assert_eq!(Collective::parse(c.name()), Some(c));
            for &a in c.algorithms() {
                assert_eq!(Algorithm::parse(c, a.name()), Some(a));
            }
        }
        assert_eq!(Collective::parse("gatherv"), None);
        assert_eq!(Algorithm::parse(Collective::Bcast, "ring"), None);
    }

    #[test]
    fn schedules_build_and_validate_for_every_algorithm() {
        for a in Algorithm::ALL {
            for n in [1u32, 2, 5, 8, 13] {
                let s = a.schedule(n, 10_000).materialize();
                s.validate().unwrap_or_else(|e| panic!("{a:?} n={n}: {e}"));
                assert_eq!(s.num_ranks, n);
            }
        }
    }

    #[test]
    fn display_is_qualified() {
        assert_eq!(Algorithm::BcastBinomial.to_string(), "bcast.binomial");
        assert_eq!(Algorithm::AllgatherRing.to_string(), "allgather.ring");
    }
}
