//! Self-consistent performance guidelines (Hunold-style) evaluated
//! over the analytical model, and the pruning pass built on them.
//!
//! A *guideline* is an inequality any sane algorithm selection must
//! satisfy — "an allreduce should not cost more than a reduce followed
//! by a broadcast", "no algorithm should cost several times its
//! collective's best at the same point". Candidates whose **analytical**
//! cost violates a guideline by more than a configurable margin are
//! retired from the selection pool before any benchmark time is spent
//! on them; they keep their prior rows, so the forest still carries
//! evidence about them and a guideline can never silence a candidate's
//! influence on interpolation.
//!
//! Pruning is deliberately conservative:
//!
//! * the margin multiplies the guideline's reference cost, so a
//!   candidate must look `margin`× worse than the reference before it
//!   is touched — the analytical model must be off by more than the
//!   margin *in the wrong direction* before a competitive candidate
//!   could be at risk;
//! * the analytically best algorithm of each (collective, point) is
//!   never pruned, whatever the cross-collective guidelines claim, so
//!   every point always keeps at least one live candidate per
//!   collective;
//! * a uniformly mis-scaled model (every prediction multiplied by the
//!   same factor) produces identical intra-collective ratios and
//!   scaled-but-ordered cross-collective ratios, which is what keeps
//!   the "100x-wrong model" robustness tests passing.

use crate::model::CostModel;
use acclaim_collectives::Collective;
use acclaim_core::Candidate;
use acclaim_dataset::{FeatureSpace, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One self-consistency constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Guideline {
    /// An algorithm should not cost more than `margin`× the best
    /// algorithm of the *same* collective at the same point
    /// (intra-collective dominance).
    IntraCollectiveDominance,
    /// An allreduce algorithm should not cost more than `margin`× the
    /// best reduce plus the best broadcast at the same point
    /// (allreduce ≤ reduce + bcast).
    AllreduceVsReduceBcast,
    /// A reduce algorithm should not cost more than `margin`× the best
    /// allreduce at the same point (reduce ≤ allreduce: an allreduce
    /// does strictly more work).
    ReduceVsAllreduce,
    /// A broadcast algorithm should not cost more than `margin`× the
    /// best allreduce at the same point (bcast ≤ allreduce).
    BcastVsAllreduce,
}

impl Guideline {
    /// Every guideline, in evaluation order.
    pub const ALL: [Guideline; 4] = [
        Guideline::IntraCollectiveDominance,
        Guideline::AllreduceVsReduceBcast,
        Guideline::ReduceVsAllreduce,
        Guideline::BcastVsAllreduce,
    ];

    /// Short stable name (used in reports and violation listings).
    pub fn name(&self) -> &'static str {
        match self {
            Guideline::IntraCollectiveDominance => "intra_collective_dominance",
            Guideline::AllreduceVsReduceBcast => "allreduce_vs_reduce_bcast",
            Guideline::ReduceVsAllreduce => "reduce_vs_allreduce",
            Guideline::BcastVsAllreduce => "bcast_vs_allreduce",
        }
    }
}

impl fmt::Display for Guideline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One candidate's failure of one guideline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The offending candidate.
    pub candidate: Candidate,
    /// The guideline it violates.
    pub guideline: Guideline,
    /// `candidate cost / reference cost` — always above the margin.
    pub ratio: f64,
}

/// A margin plus the set of guidelines to enforce.
///
/// ```
/// use acclaim_analytic::{CostModel, GuidelineSet};
/// use acclaim_collectives::Collective;
/// use acclaim_dataset::FeatureSpace;
/// use acclaim_netsim::Cluster;
///
/// let model = CostModel::new(Cluster::bebop_like());
/// let set = GuidelineSet::standard(3.0);
/// let space = FeatureSpace::tiny();
/// let (pruned, violations) = set.prune(&model, Collective::Bcast, &space);
/// // Violations are attributed per guideline; pruned is deduplicated.
/// assert!(violations.len() >= pruned.len());
/// for v in &violations {
///     assert!(v.ratio > 3.0);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuidelineSet {
    /// Violation threshold: a candidate fails a guideline only when
    /// its cost exceeds `margin`× the guideline's reference cost.
    /// Must be ≥ 1.
    pub margin: f64,
    /// The guidelines to evaluate.
    pub guidelines: Vec<Guideline>,
}

impl GuidelineSet {
    /// All guidelines at the given margin.
    pub fn standard(margin: f64) -> Self {
        assert!(margin >= 1.0, "a margin below 1 would prune the best");
        GuidelineSet {
            margin,
            guidelines: Guideline::ALL.to_vec(),
        }
    }

    /// Violations among `collective`'s algorithms at one point.
    pub fn violations_at(
        &self,
        model: &CostModel,
        collective: Collective,
        point: Point,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        let costs = model.predictions(collective, point);
        let best = costs.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
        let best_of = |c: Collective| model.best(c, point).1;
        for &(algorithm, cost) in &costs {
            // The analytically best algorithm is exempt from every
            // guideline: each (collective, point) keeps a live
            // candidate no matter what the cross-collective references
            // say.
            if cost <= best {
                continue;
            }
            for &g in &self.guidelines {
                let reference = match g {
                    Guideline::IntraCollectiveDominance => best,
                    Guideline::AllreduceVsReduceBcast if collective == Collective::Allreduce => {
                        best_of(Collective::Reduce) + best_of(Collective::Bcast)
                    }
                    Guideline::ReduceVsAllreduce if collective == Collective::Reduce => {
                        best_of(Collective::Allreduce)
                    }
                    Guideline::BcastVsAllreduce if collective == Collective::Bcast => {
                        best_of(Collective::Allreduce)
                    }
                    _ => continue,
                };
                if reference <= 0.0 {
                    continue;
                }
                let ratio = cost / reference;
                if ratio > self.margin {
                    out.push(Violation {
                        candidate: Candidate { point, algorithm },
                        guideline: g,
                        ratio,
                    });
                }
            }
        }
        out
    }

    /// Every violation across `collective`'s candidate grid.
    pub fn violations(
        &self,
        model: &CostModel,
        collective: Collective,
        space: &FeatureSpace,
    ) -> Vec<Violation> {
        space
            .points()
            .into_iter()
            .flat_map(|pt| self.violations_at(model, collective, pt))
            .collect()
    }

    /// The pruning pass: candidates of `collective` retired by at
    /// least one guideline (deduplicated, in grid order), plus the
    /// full violation list for reporting.
    pub fn prune(
        &self,
        model: &CostModel,
        collective: Collective,
        space: &FeatureSpace,
    ) -> (Vec<Candidate>, Vec<Violation>) {
        let violations = self.violations(model, collective, space);
        let mut pruned: Vec<Candidate> = Vec::new();
        for v in &violations {
            if !pruned.contains(&v.candidate) {
                pruned.push(v.candidate);
            }
        }
        (pruned, violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_netsim::Cluster;

    #[test]
    fn margin_is_monotone() {
        let model = CostModel::new(Cluster::bebop_like());
        let space = FeatureSpace::tiny();
        for &c in &Collective::ALL {
            let loose = GuidelineSet::standard(8.0).prune(&model, c, &space).0;
            let tight = GuidelineSet::standard(1.5).prune(&model, c, &space).0;
            assert!(loose.len() <= tight.len());
            assert!(loose.iter().all(|p| tight.contains(p)));
        }
    }

    #[test]
    fn best_candidate_is_never_pruned() {
        let model = CostModel::new(Cluster::bebop_like());
        let space = FeatureSpace::tiny();
        for &c in &Collective::ALL {
            let (pruned, _) = GuidelineSet::standard(1.0).prune(&model, c, &space);
            for pt in space.points() {
                let (best, _) = model.best(c, pt);
                assert!(!pruned.contains(&Candidate {
                    point: pt,
                    algorithm: best
                }));
            }
        }
    }

    #[test]
    fn uniform_mis_scaling_keeps_intra_collective_pruning() {
        // A 100x-wrong model has identical intra-collective ratios;
        // dominance pruning must not change.
        let model = CostModel::new(Cluster::bebop_like());
        let wrong = CostModel::new(Cluster::bebop_like()).scaled(100.0);
        let space = FeatureSpace::tiny();
        let set = GuidelineSet {
            margin: 3.0,
            guidelines: vec![Guideline::IntraCollectiveDominance],
        };
        for &c in &Collective::ALL {
            assert_eq!(
                set.prune(&model, c, &space).0,
                set.prune(&wrong, c, &space).0
            );
        }
    }
}
