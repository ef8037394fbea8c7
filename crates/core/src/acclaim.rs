//! The end-to-end ACCLAiM pipeline (paper Sec. V, Fig. 1b).
//!
//! A user submits a job through ACCLAiM with one extra input: the list
//! of collectives the application predominantly uses. Before the
//! application runs, ACCLAiM trains one model per listed collective
//! (parallel data collection, variance convergence), writes the MPICH
//! JSON tuning file, and the application then executes under the tuned
//! selections. The training time is charged against the job, so the
//! report tracks it explicitly (Fig. 14/15).

use crate::collector::FaultStats;
use crate::learner::{ActiveLearner, LearnerConfig, TrainingOutcome, WarmStart};
use crate::rules::{generate_rules, TunedSelector, TuningFile};
use acclaim_collectives::{mpich_default, Collective};
use acclaim_dataset::{traces::AppTrace, BenchmarkDatabase, FeatureSpace};
use acclaim_obs::Obs;
use serde::{Deserialize, Serialize};

/// Pipeline configuration. Serializable so remote clients (the
/// `acclaim-serve` wire protocol) can ship a full tuning request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcclaimConfig {
    /// Active-learning configuration (defaults to the paper's ACCLAiM).
    pub learner: LearnerConfig,
    /// The P2 grid models are trained over (bounded by the job size).
    pub space: FeatureSpace,
}

impl AcclaimConfig {
    /// The paper's configuration over a given feature space.
    pub fn new(space: FeatureSpace) -> Self {
        AcclaimConfig {
            learner: LearnerConfig::acclaim(),
            space,
        }
    }
}

/// The result of tuning one job.
#[derive(Debug, Clone)]
pub struct JobTuning {
    /// The generated MPICH tuning file.
    pub tuning_file: TuningFile,
    /// Per-collective training outcomes, in input order.
    pub reports: Vec<(Collective, TrainingOutcome)>,
}

impl JobTuning {
    /// Total machine time spent training, including any test sets (µs).
    /// Simulated cluster clock; excludes host-CPU model updates — see
    /// [`JobTuning::training_cost_us`].
    pub fn training_wall_us(&self) -> f64 {
        self.reports.iter().map(|(_, o)| o.total_wall_us()).sum()
    }

    /// Machine time spent collecting training data only (µs).
    pub fn collection_wall_us(&self) -> f64 {
        self.reports.iter().map(|(_, o)| o.stats.wall_us).sum()
    }

    /// Machine time spent collecting test sets, when the criterion
    /// required them (µs).
    pub fn test_wall_us(&self) -> f64 {
        self.reports.iter().map(|(_, o)| o.test_wall_us).sum()
    }

    /// Host CPU time spent on model updates — forest fits/refits and
    /// variance scans (µs, real clock, not simulated).
    pub fn model_update_wall_us(&self) -> f64 {
        self.reports
            .iter()
            .map(|(_, o)| o.model_update_wall_us)
            .sum()
    }

    /// All-in training cost: machine time plus model-update CPU time
    /// (µs). The terms tick on different clocks; see
    /// [`TrainingOutcome::total_cost_us`].
    pub fn training_cost_us(&self) -> f64 {
        self.reports.iter().map(|(_, o)| o.total_cost_us()).sum()
    }

    /// A runtime selector over the generated file.
    pub fn selector(&self) -> TunedSelector {
        TunedSelector::new(self.tuning_file.clone())
    }

    /// Fault-handling counters merged across all collectives' training
    /// runs (all zero when faults were disabled).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for (_, o) in &self.reports {
            total.merge(&o.faults);
        }
        total
    }

    /// Human-readable per-collective summary (minutes, points, waves).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (c, o) in &self.reports {
            let _ = writeln!(
                s,
                "{:<10} {:>4} points  {:>4} waves  {:>6.2} min  (parallel speedup {:.2}x, {})",
                c.name(),
                o.stats.points,
                o.stats.waves,
                o.stats.wall_us / 60e6,
                o.stats.speedup(),
                if o.converged {
                    "converged"
                } else {
                    "budget hit"
                },
            );
        }
        let _ = writeln!(
            s,
            "total training time: {:.2} min",
            self.training_wall_us() / 60e6
        );
        // Three-way cost split. Collection and test-set figures are
        // simulated machine (allocation) time; model updates are host
        // CPU time measured on the real clock.
        let _ = writeln!(
            s,
            "cost split: collection {:.2} min, test sets {:.2} min (machine), model updates {:.2} s (host CPU)",
            self.collection_wall_us() / 60e6,
            self.test_wall_us() / 60e6,
            self.model_update_wall_us() / 1e6,
        );
        // Fault summary, only when something fault-related happened.
        let f = self.fault_stats();
        if !f.is_quiet() {
            let _ = writeln!(
                s,
                "faults: {} retries, {} timeouts, {} failed runs, {} outliers rejected",
                f.retries, f.timeouts, f.failures, f.outliers_rejected,
            );
            if f.node_evictions + f.points_abandoned + f.candidates_dropped > 0 {
                let _ = writeln!(
                    s,
                    "degraded: {} nodes evicted, {} points abandoned, {} candidates dropped",
                    f.node_evictions, f.points_abandoned, f.candidates_dropped,
                );
            }
        }
        s
    }
}

/// The ACCLAiM autotuner.
#[derive(Debug, Clone)]
pub struct Acclaim {
    config: AcclaimConfig,
}

impl Acclaim {
    /// An autotuner with the given configuration.
    pub fn new(config: AcclaimConfig) -> Self {
        Acclaim { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcclaimConfig {
        &self.config
    }

    /// Train models for the user's collective list and emit the tuning
    /// file. `db` stands in for the job's allocation: its cluster is
    /// where the microbenchmarks run.
    pub fn tune(&self, db: &BenchmarkDatabase, collectives: &[Collective]) -> JobTuning {
        self.tune_with_obs(db, collectives, &Obs::disabled())
    }

    /// [`Acclaim::tune`] with tracing: each collective's training runs
    /// under the learner's span tree on `obs`, and rule generation gets
    /// its own `learner/generate_rules` span. Identical results to
    /// [`Acclaim::tune`].
    pub fn tune_with_obs(
        &self,
        db: &BenchmarkDatabase,
        collectives: &[Collective],
        obs: &Obs,
    ) -> JobTuning {
        self.tune_with_warm(db, collectives, obs, |_| None)
    }

    /// [`Acclaim::tune_with_obs`] with per-collective warm starts: the
    /// `warm_for` callback supplies prior measurements (typically probed
    /// from a persistent tuning store) for each collective before its
    /// training run. Returning `None` everywhere is bit-identical to
    /// [`Acclaim::tune_with_obs`]. The callback keeps this crate
    /// store-agnostic — `acclaim-store` plugs in here.
    pub fn tune_with_warm(
        &self,
        db: &BenchmarkDatabase,
        collectives: &[Collective],
        obs: &Obs,
        warm_for: impl Fn(Collective) -> Option<WarmStart>,
    ) -> JobTuning {
        self.tune_while(db, collectives, obs, warm_for, || true).0
    }

    /// [`Acclaim::tune_with_warm`] with a cooperative cancellation
    /// hook: `keep_going` is consulted before each collective trains,
    /// and a `false` stops the job at that collective boundary —
    /// training one collective is the unit of work, never torn apart
    /// mid-run. Returns the (possibly partial) tuning — reports and
    /// rule tables only for the collectives that completed — plus
    /// whether the whole list ran. An always-`true` hook is
    /// bit-identical to [`Acclaim::tune_with_warm`].
    ///
    /// This is the hook long-running callers (the `acclaim-serve` job
    /// queue) cancel through; the learner itself stays oblivious.
    pub fn tune_while(
        &self,
        db: &BenchmarkDatabase,
        collectives: &[Collective],
        obs: &Obs,
        warm_for: impl Fn(Collective) -> Option<WarmStart>,
        mut keep_going: impl FnMut() -> bool,
    ) -> (JobTuning, bool) {
        assert!(!collectives.is_empty(), "the user must list collectives");
        let learner = ActiveLearner::new(self.config.learner.clone());
        let mut reports = Vec::with_capacity(collectives.len());
        let mut tables = Vec::with_capacity(collectives.len());
        let mut completed = true;
        for &c in collectives {
            if !keep_going() {
                completed = false;
                break;
            }
            let warm = warm_for(c);
            let outcome = learner.train_warm(db, c, &self.config.space, None, obs, warm.as_ref());
            {
                let _span = obs.span("learner", "generate_rules");
                tables.push(generate_rules(&outcome.model, &self.config.space));
            }
            reports.push((c, outcome));
        }
        (
            JobTuning {
                tuning_file: TuningFile {
                    collectives: tables,
                },
                reports,
            },
            completed,
        )
    }
}

/// Application-level effect of a tuning (used by the examples and
/// Fig. 15): per-iteration collective time under the MPICH defaults vs.
/// the tuned selections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplicationImpact {
    /// Collective time per iteration under the default heuristic (µs).
    pub default_us: f64,
    /// Collective time per iteration under the tuned selections (µs).
    pub tuned_us: f64,
}

impl ApplicationImpact {
    /// Collective-phase speedup from tuning.
    pub fn collective_speedup(&self) -> f64 {
        self.default_us / self.tuned_us
    }

    /// Whole-application speedup when collectives are `fraction` of the
    /// untuned runtime (Amdahl).
    pub fn app_speedup(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction));
        let saved = fraction * (1.0 - self.tuned_us / self.default_us);
        1.0 / (1.0 - saved)
    }
}

/// Measure a tuning's impact on an application trace at a job shape.
pub fn application_impact(
    db: &BenchmarkDatabase,
    trace: &AppTrace,
    nodes: u32,
    ppn: u32,
    selector: &TunedSelector,
) -> ApplicationImpact {
    let default_us = trace.collective_time_per_iteration(db, nodes, ppn, |c, p| {
        mpich_default(c, p.ranks(), p.msg_bytes)
    });
    let tuned_us =
        trace.collective_time_per_iteration(db, nodes, ppn, |c, p| selector.select(c, p));
    ApplicationImpact {
        default_us,
        tuned_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectionPolicy;
    use crate::convergence::VarianceConvergence;
    use crate::learner::{CollectionStrategy, CriterionConfig, SelectionPolicy};
    use acclaim_dataset::DatasetConfig;
    use acclaim_ml::ForestConfig;

    fn fast_config() -> AcclaimConfig {
        AcclaimConfig {
            learner: LearnerConfig {
                forest: ForestConfig {
                    n_trees: 16,
                    ..ForestConfig::for_n_features(4)
                },
                policy: SelectionPolicy::OwnVariance,
                strategy: CollectionStrategy::Parallel,
                criterion: CriterionConfig::CumulativeVariance(VarianceConvergence::relative(
                    3, 0.1,
                )),
                nonp2_every: Some(5),
                explore_every: None,
                max_iterations: 40,
                seed: 5,
                flat: true,
                collection: CollectionPolicy::default(),
                analytic_priors: Default::default(),
            },
            space: FeatureSpace::tiny(),
        }
    }

    #[test]
    fn tune_produces_a_table_per_collective() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let tuning =
            Acclaim::new(fast_config()).tune(&db, &[Collective::Bcast, Collective::Reduce]);
        assert_eq!(tuning.reports.len(), 2);
        assert_eq!(tuning.tuning_file.collectives.len(), 2);
        assert!(tuning.training_wall_us() > 0.0);
        let summary = tuning.summary();
        assert!(summary.contains("bcast") && summary.contains("reduce"));
    }

    #[test]
    fn tuned_selector_answers_for_tuned_and_untuned_collectives() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let tuning = Acclaim::new(fast_config()).tune(&db, &[Collective::Bcast]);
        let sel = tuning.selector();
        let p = acclaim_dataset::Point::new(4, 2, 1_024);
        assert_eq!(
            sel.select(Collective::Bcast, p).collective(),
            Collective::Bcast
        );
        // Untuned collective falls back to the heuristic.
        assert_eq!(
            sel.select(Collective::Allgather, p),
            mpich_default(Collective::Allgather, p.ranks(), p.msg_bytes)
        );
    }

    #[test]
    fn tuned_selections_do_not_lose_to_defaults() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let space = FeatureSpace::tiny();
        let tuning = Acclaim::new(fast_config()).tune(&db, &[Collective::Bcast]);
        let sel = tuning.selector();
        let pts = space.points();
        let tuned = db.average_slowdown(Collective::Bcast, &pts, |p| {
            sel.select(Collective::Bcast, p)
        });
        let default = db.average_slowdown(Collective::Bcast, &pts, |p| {
            mpich_default(Collective::Bcast, p.ranks(), p.msg_bytes)
        });
        // The tiny space trains in a handful of waves with a loose
        // criterion; allow a modest margin over the (often already
        // optimal) default.
        assert!(
            tuned <= default + 0.08,
            "tuned {tuned} should not lose to default {default}"
        );
    }

    #[test]
    fn tune_while_is_identical_when_not_cancelled_and_partial_when_cancelled() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let both = [Collective::Bcast, Collective::Reduce];
        let full = Acclaim::new(fast_config()).tune(&db, &both);
        let (same, done) =
            Acclaim::new(fast_config()).tune_while(&db, &both, &Obs::disabled(), |_| None, || true);
        assert!(done);
        assert_eq!(full.tuning_file, same.tuning_file);
        // Cancelling after the first check stops at the collective
        // boundary: one completed report, one completed rule table.
        let mut checks = 0;
        let (partial, done) = Acclaim::new(fast_config()).tune_while(
            &db,
            &both,
            &Obs::disabled(),
            |_| None,
            || {
                checks += 1;
                checks <= 1
            },
        );
        assert!(!done);
        assert_eq!(partial.reports.len(), 1);
        assert_eq!(partial.reports[0].0, Collective::Bcast);
        assert_eq!(partial.tuning_file.collectives.len(), 1);
        assert_eq!(
            partial.tuning_file.collectives[0],
            full.tuning_file.collectives[0]
        );
    }

    #[test]
    fn application_impact_math() {
        let i = ApplicationImpact {
            default_us: 200.0,
            tuned_us: 100.0,
        };
        assert_eq!(i.collective_speedup(), 2.0);
        // 50% of runtime in collectives, halved: saves 25% => 1.333x.
        assert!((i.app_speedup(0.5) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(i.app_speedup(0.0), 1.0);
    }

    #[test]
    fn application_impact_runs_on_a_trace() {
        let db = BenchmarkDatabase::new(DatasetConfig::tiny());
        let tuning =
            Acclaim::new(fast_config()).tune(&db, &[Collective::Allreduce, Collective::Bcast]);
        let trace = acclaim_dataset::traces::synthetic_trace("AMG", 64, 4_096).unwrap();
        let impact = application_impact(&db, &trace, 8, 2, &tuning.selector());
        assert!(impact.default_us > 0.0 && impact.tuned_us > 0.0);
        // The tuned selection can't be catastrophically worse.
        assert!(impact.collective_speedup() > 0.8);
    }
}
