//! The active-learning training loop (paper Fig. 2b).
//!
//! One loop serves ACCLAiM and both prior-art baselines through a
//! [`SelectionPolicy`]:
//!
//! * [`SelectionPolicy::OwnVariance`] — ACCLAiM: rank candidates by the
//!   *primary* model's jackknife variance (Sec. IV-A).
//! * [`SelectionPolicy::SurrogateVariance`] — FACT: a second, separately
//!   seeded surrogate forest picks points (emulating DeepHyper), with
//!   batched exploration among the top-k — selections tuned to the
//!   surrogate, not the deployed model (Sec. III-A).
//! * [`SelectionPolicy::Random`] — Hunold et al.: random sampling.
//!
//! Collection is sequential or wave-parallel (Sec. IV-D), convergence is
//! cumulative-variance (Sec. IV-C), test-set slowdown (prior art), or a
//! fixed point budget (for sweeps).

use crate::collector::{
    run_attempt, schedule_wave, AttemptOutcome, CollectionPolicy, CollectionStats, FaultEvent,
    FaultStats, Placement,
};
use crate::convergence::{SlowdownThreshold, VarianceConvergence};
use crate::model::{PerfModel, TrainingSample};
use crate::selection::{all_candidates, Candidate, NonP2Injector, VarianceScanCache};
use acclaim_collectives::Collective;
use acclaim_dataset::{splits, BenchmarkDatabase, FeatureSpace, Point};
use acclaim_ml::{ForestConfig, TreeUpdate};
use acclaim_netsim::Allocation;
use acclaim_obs::{AttrValue, Counter, Obs};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// How the next training point is chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// ACCLAiM: argmax jackknife variance of the primary model.
    OwnVariance,
    /// FACT: a surrogate forest ranks candidates; pick uniformly among
    /// its `top_k` (DeepHyper-style asynchronous batch exploration), and
    /// the surrogate is only retrained every `refresh` iterations (batch
    /// staleness — selections lag the data, and are tuned to the
    /// surrogate rather than the deployed model).
    SurrogateVariance {
        /// Surrogate forest hyperparameters.
        surrogate: ForestConfig,
        /// Exploration width.
        top_k: usize,
        /// Iterations between surrogate retrains.
        refresh: usize,
    },
    /// Hunold et al.: uniformly random uncollected candidate.
    Random,
}

/// Sequential or topology-aware parallel collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectionStrategy {
    /// One benchmark at a time (prior art).
    Sequential,
    /// Greedy wave scheduling over disjoint congestion domains.
    Parallel,
}

/// When to stop training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CriterionConfig {
    /// ACCLAiM: cumulative-variance plateau, no test set.
    CumulativeVariance(VarianceConvergence),
    /// Prior art: average slowdown on a freshly collected test set
    /// (whose collection cost is charged to `test_wall_us`).
    TestSlowdown {
        /// Slowdown bound (the paper's 1.03).
        threshold: SlowdownThreshold,
        /// Fraction of the feature space benchmarked as the test set
        /// (the paper reports 20%).
        test_fraction: f64,
    },
    /// Fixed budget of collected points (for sweep experiments).
    MaxPoints(usize),
}

/// Complete learner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// Primary forest hyperparameters.
    pub forest: ForestConfig,
    /// Point-selection policy.
    pub policy: SelectionPolicy,
    /// Collection strategy.
    pub strategy: CollectionStrategy,
    /// Stop criterion.
    pub criterion: CriterionConfig,
    /// Substitute every N-th point with a non-P2 message size
    /// (ACCLAiM uses `Some(5)`; prior art `None`).
    pub nonp2_every: Option<usize>,
    /// Guided sampling (the paper's Sec. I contribution wording):
    /// every N-th selection is drawn uniformly from the uncollected
    /// candidates instead of by variance. Random forests report
    /// unwarranted confidence in regions they interpolate smoothly but
    /// wrongly; a stratified random draw keeps such regions from
    /// starving. `None` disables exploration.
    pub explore_every: Option<usize>,
    /// Hard iteration cap (safety net).
    pub max_iterations: usize,
    /// RNG seed for seeding, exploration, and non-P2 draws.
    pub seed: u64,
    /// Warm-start model refits between iterations: append the new
    /// samples and rebuild only the trees whose hashed bootstrap drew
    /// them, updating only their columns of the cached variance scan.
    /// Decision-identical to scratch refits (same selections, same
    /// convergence stop) — `false` exists to prove exactly that and to
    /// measure the speedup.
    #[serde(default)]
    pub incremental: bool,
    /// Evaluate variance scans through the flat SoA forest
    /// ([`acclaim_ml::FlatForest`]): the fitted trees are flattened
    /// into contiguous node arrays and candidate blocks stream through
    /// them tree-major with the jackknife fused into the same pass.
    /// Bit-identical to the pointer-chasing path (enforced by the
    /// `flat_equivalence` suite) — `false` exists to prove that and to
    /// let the `bench` runner track the speedup.
    #[serde(default)]
    pub flat: bool,
    /// Fault-tolerant collection: fault injection, per-benchmark
    /// timeouts, retries with capped backoff, and robust aggregation.
    /// The default injects nothing, in which case the collection path
    /// is bit-identical to fault-unaware configurations.
    #[serde(default)]
    pub collection: CollectionPolicy,
    /// Analytical cost-model priors (crate `acclaim-analytic`): seed
    /// cold runs with Hockney/LogGP predictions for every candidate
    /// and retire candidates that violate self-consistency guidelines.
    /// The core stays analytic-agnostic — this is plain configuration
    /// data read by the orchestration layers (store, serve, CLI) that
    /// build the actual [`WarmStart`]. The default is disabled, in
    /// which case no prior rows exist and runs are bit-identical to
    /// configurations predating this field.
    #[serde(default)]
    pub analytic_priors: AnalyticPriorsConfig,
}

/// Configuration for analytical cost-model priors and guideline
/// pruning. Plain data: `acclaim-core` never computes a prediction —
/// the `acclaim-analytic` crate reads this config in the orchestration
/// layers and translates it into [`WarmStart`] rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticPriorsConfig {
    /// Master switch. `false` (the default) makes every other field
    /// inert and keeps runs bit-identical to pre-analytic behavior.
    #[serde(default)]
    pub enabled: bool,
    /// Fraction of the analytical prior rows to keep, thinned
    /// deterministically by candidate fingerprint (1.0 = the full
    /// sketch of the candidate grid). Mirrors the store's
    /// `thin_priors` deweighting semantics.
    #[serde(default = "default_analytic_weight")]
    pub weight: f64,
    /// Whether guideline violations retire candidates from the
    /// selection pool (they still receive prior rows either way).
    #[serde(default = "default_analytic_prune")]
    pub prune: bool,
    /// A candidate is pruned only when its analytical cost exceeds the
    /// guideline's reference cost by this factor. Margins well above
    /// 1.0 keep pruning conservative: model error has to be larger
    /// than the margin before the true optimum could be at risk.
    #[serde(default = "default_analytic_margin")]
    pub prune_margin: f64,
}

fn default_analytic_weight() -> f64 {
    1.0
}

fn default_analytic_prune() -> bool {
    true
}

fn default_analytic_margin() -> f64 {
    3.0
}

impl Default for AnalyticPriorsConfig {
    fn default() -> Self {
        AnalyticPriorsConfig {
            enabled: false,
            weight: default_analytic_weight(),
            prune: default_analytic_prune(),
            prune_margin: default_analytic_margin(),
        }
    }
}

impl LearnerConfig {
    /// ACCLAiM as evaluated in Sec. VI: own-model variance selection,
    /// every-5th non-P2 substitution, parallel collection, cumulative-
    /// variance convergence.
    pub fn acclaim() -> Self {
        LearnerConfig {
            forest: ForestConfig::for_n_features(4),
            policy: SelectionPolicy::OwnVariance,
            strategy: CollectionStrategy::Parallel,
            criterion: CriterionConfig::CumulativeVariance(VarianceConvergence::paper_default()),
            nonp2_every: Some(5),
            explore_every: Some(4),
            max_iterations: 400,
            seed: 0xACC,
            incremental: true,
            flat: true,
            collection: CollectionPolicy::default(),
            analytic_priors: AnalyticPriorsConfig::default(),
        }
    }

    /// ACCLAiM with sequential collection (used to isolate the point-
    /// selection contribution in Fig. 10).
    pub fn acclaim_sequential() -> Self {
        LearnerConfig {
            strategy: CollectionStrategy::Sequential,
            ..LearnerConfig::acclaim()
        }
    }

    /// The FACT baseline: surrogate-driven selection, P2 only,
    /// sequential collection, test-set slowdown convergence.
    pub fn fact() -> Self {
        LearnerConfig {
            forest: ForestConfig::for_n_features(4),
            policy: SelectionPolicy::SurrogateVariance {
                surrogate: ForestConfig {
                    n_trees: 24,
                    seed: 0xFAC7,
                    ..ForestConfig::for_n_features(4)
                },
                top_k: 8,
                refresh: 5,
            },
            strategy: CollectionStrategy::Sequential,
            criterion: CriterionConfig::TestSlowdown {
                threshold: SlowdownThreshold::paper_default(),
                test_fraction: 0.2,
            },
            nonp2_every: None,
            explore_every: None,
            max_iterations: 400,
            seed: 0xFAC7,
            incremental: true,
            flat: true,
            collection: CollectionPolicy::default(),
            analytic_priors: AnalyticPriorsConfig::default(),
        }
    }

    /// Replace the stop criterion with a fixed point budget.
    pub fn with_budget(mut self, points: usize) -> Self {
        self.criterion = CriterionConfig::MaxPoints(points);
        self
    }
}

/// One iteration's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration number (0 = after seeding).
    pub iteration: usize,
    /// Training samples collected so far.
    pub samples: usize,
    /// Cumulative training-data collection wall time (µs), excluding
    /// any test set.
    pub wall_us: f64,
    /// Cumulative jackknife variance over the remaining candidates.
    pub cumulative_variance: f64,
    /// Wall time (µs, real clock) this iteration spent updating the
    /// model and the variance scan — the paper's "model update" cost,
    /// reported separately from (simulated) collection time so the
    /// training-time split of Fig. 14 can be shown.
    #[serde(default)]
    pub model_update_us: f64,
    /// Average slowdown on the caller's evaluation set (oracle quality,
    /// free of charge), if one was provided.
    pub oracle_slowdown: Option<f64>,
    /// Benchmarks executed in parallel in the wave that *preceded* this
    /// record (0 for the seeding record).
    pub wave_parallelism: usize,
}

/// Prior measurements injected into a training run before the corner
/// seeding phase — the mechanism behind cross-job warm starts.
///
/// `exact` rows were measured under an *identical* cluster signature
/// (same topology, network parameters, feature-space axes, and fault
/// preset): they are trusted as-is, enter the training set at zero
/// collection cost, and retire their candidates from the selection
/// pool. `priors` rows come from a *near* signature (same machine,
/// different node/ppn axes): they also enter the training set for free,
/// but their candidates stay in the pool — the learner may re-measure
/// them, and a fresh measurement simply outvotes the prior inside the
/// forest. Non-P2 rows (whose candidate is not in the current pool)
/// inform the model without retiring anything.
///
/// An empty warm start — or passing `None` to
/// [`ActiveLearner::train_warm`] — leaves the run bit-identical to
/// [`ActiveLearner::train`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmStart {
    /// Trusted measurements from an identical cluster signature.
    pub exact: Vec<TrainingSample>,
    /// Deweighted measurements from a near (compatible) signature.
    pub priors: Vec<TrainingSample>,
    /// Candidates retired from the selection pool without a trusted
    /// measurement — guideline pruning (`acclaim-analytic`). Pruned
    /// candidates are never benchmarked but usually still carry a
    /// prior row, so the forest keeps evidence about them and the
    /// rules generator can still rank them at prediction time.
    #[serde(default)]
    pub pruned: Vec<Candidate>,
}

impl WarmStart {
    /// A warm start whose rows are all trusted (exact-key store hit).
    pub fn from_exact(samples: Vec<TrainingSample>) -> Self {
        WarmStart {
            exact: samples,
            priors: Vec::new(),
            pruned: Vec::new(),
        }
    }

    /// A warm start whose rows are all priors (near-key store hit).
    pub fn from_priors(samples: Vec<TrainingSample>) -> Self {
        WarmStart {
            exact: Vec::new(),
            priors: samples,
            pruned: Vec::new(),
        }
    }

    /// Total number of injected rows (pruned candidates carry no rows
    /// of their own and are not counted).
    pub fn len(&self) -> usize {
        self.exact.len() + self.priors.len()
    }

    /// Whether the warm start would be a no-op: no rows to inject and
    /// no candidates to retire.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.priors.is_empty() && self.pruned.is_empty()
    }
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// The final fitted model.
    pub model: PerfModel,
    /// Per-iteration log.
    pub log: Vec<IterationRecord>,
    /// Every collected training sample, in collection order.
    pub collected: Vec<TrainingSample>,
    /// Whether the configured criterion fired (vs. hitting the cap).
    pub converged: bool,
    /// Collection statistics (training points only).
    pub stats: CollectionStats,
    /// Wall time spent collecting the test set, when the criterion
    /// required one (µs).
    pub test_wall_us: f64,
    /// Total real wall time spent on model updates (fits/refits plus
    /// variance scans), across all iterations (µs).
    pub model_update_wall_us: f64,
    /// Aggregate fault-handling counters (all zero when faults are
    /// disabled).
    pub faults: FaultStats,
    /// Chronological fault event log: retries, abandonments, node
    /// evictions, and candidate drops.
    pub fault_events: Vec<FaultEvent>,
    /// Trusted measurements injected by a warm start (0 on cold runs).
    /// These are the leading rows of `collected` after any priors.
    pub reused_points: usize,
    /// Foreign prior rows injected by a near-key warm start (0 on cold
    /// and exact-key runs). These are the first rows of `collected` and
    /// belong to a *different* cluster signature — persistence layers
    /// must not re-store them under this run's key.
    pub prior_points: usize,
}

impl TrainingOutcome {
    /// Total *machine* time consumed: training-data collection plus
    /// test-set collection (µs). Both terms are simulated cluster wall
    /// time — what the job allocation is billed for. Model-update time
    /// is deliberately excluded: fits run on the host CPU while no
    /// benchmark occupies the allocation. Use
    /// [`TrainingOutcome::total_cost_us`] for the all-in figure.
    pub fn total_wall_us(&self) -> f64 {
        self.stats.wall_us + self.test_wall_us
    }

    /// Total training cost (µs): machine time
    /// ([`TrainingOutcome::total_wall_us`], simulated cluster clock)
    /// plus host CPU time spent on model updates
    /// (`model_update_wall_us`, real `Instant` clock — forest
    /// fits/refits and variance scans). The two terms tick on
    /// different clocks; their sum is the end-to-end cost a user
    /// waits for, the quantity the paper's training-time comparisons
    /// charge.
    pub fn total_cost_us(&self) -> f64 {
        self.total_wall_us() + self.model_update_wall_us
    }

    /// The first record whose oracle slowdown is at or below `bound`,
    /// if oracle evaluation was enabled — used to compare methodologies
    /// at the paper's 1.03 criterion regardless of their own stop rule.
    pub fn time_to_slowdown(&self, bound: f64) -> Option<f64> {
        self.log
            .iter()
            .find(|r| r.oracle_slowdown.is_some_and(|s| s <= bound))
            .map(|r| r.wall_us)
    }
}

/// The active learner.
#[derive(Debug, Clone)]
pub struct ActiveLearner {
    config: LearnerConfig,
}

impl ActiveLearner {
    /// A learner with the given configuration.
    pub fn new(config: LearnerConfig) -> Self {
        assert!(config.max_iterations >= 1);
        ActiveLearner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// Train a model for `collective` over the P2 grid `space`, drawing
    /// measurements from `db`. `eval_points` enables free oracle
    /// tracking in the log (used by the figure harnesses; a real
    /// deployment has no oracle).
    pub fn train(
        &self,
        db: &BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        eval_points: Option<&[Point]>,
    ) -> TrainingOutcome {
        self.train_with_obs(db, collective, space, eval_points, &Obs::disabled())
    }

    /// [`ActiveLearner::train`] with tracing: every phase of the loop
    /// opens a span on `obs` (`learner/train` → `seed` / `iteration` →
    /// `fit`, `variance_scan`, `convergence_check`, `select`,
    /// `collect`), each collection slot emits a sim-timeline span on a
    /// `nodes A-B` lane, and counters track non-P2 injections, explore
    /// promotions, tree reuse, and DirtyRegion cell recomputes.
    /// Instrumentation is behaviorally inert: it never touches the RNG
    /// or any ordering, so the outcome is bit-identical to
    /// [`ActiveLearner::train`] (the `obs_golden` integration test
    /// proves it).
    pub fn train_with_obs(
        &self,
        db: &BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        eval_points: Option<&[Point]>,
        obs: &Obs,
    ) -> TrainingOutcome {
        self.train_warm(db, collective, space, eval_points, obs, None)
    }

    /// [`ActiveLearner::train_with_obs`] with an optional [`WarmStart`]:
    /// prior measurements enter the training set before corner seeding,
    /// at zero collection cost. Exact rows replace the cold bootstrap
    /// (their candidates — including the corners they cover — are
    /// retired from the pool), the forest warm-refits on them through
    /// the usual fit path, and active learning runs only for the
    /// residual variance. With `None` (or an empty warm start) the run
    /// is bit-identical to [`ActiveLearner::train_with_obs`] — every
    /// warm-start branch is gated, the pattern the fault and tracing
    /// layers also follow.
    pub fn train_warm(
        &self,
        db: &BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        eval_points: Option<&[Point]>,
        obs: &Obs,
        warm: Option<&WarmStart>,
    ) -> TrainingOutcome {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let candidates = all_candidates(collective, space);
        assert!(
            space.max_nodes() <= db.config().cluster.num_nodes(),
            "feature space exceeds the job allocation"
        );
        let mut train_span = obs.span("learner", "train");
        if obs.is_enabled() {
            train_span.set_attr("collective", format!("{collective:?}"));
            train_span.set_attr("candidates", candidates.len() as u64);
        }
        let m_nonp2 = obs.counter("learner.non_p2_injections");
        let m_explore = obs.counter("learner.explore_promotions");
        let m_trees_refitted = obs.counter("learner.trees_refitted");
        let m_trees_reused = obs.counter("learner.trees_reused");
        let m_cells_recomputed = obs.counter("learner.scan_cells_recomputed");
        let m_cells_reused = obs.counter("learner.scan_cells_reused");
        let m_flat_refreshes = obs.counter("learner.flat_scan_refreshes");
        let g_cumvar = obs.gauge("learner.cumulative_variance");
        let g_samples = obs.gauge("learner.samples");

        let mut remaining: Vec<Candidate> = candidates.clone();
        let mut collected_set: HashSet<Candidate> = HashSet::new();
        let mut collected: Vec<TrainingSample> = Vec::new();
        let mut stats = CollectionStats::default();
        let mut injector = cfg.nonp2_every.map(NonP2Injector::new);

        // Warm start: store-provided rows enter the training set before
        // any benchmark runs, at zero collection cost. Priors go first
        // so persistence layers can slice them off `collected` by count
        // (`fit_incremental` is append-only, so order is fixed here for
        // the run's lifetime). Only exact rows whose candidate exists in
        // the current pool retire it; priors and non-P2 rows are model
        // evidence only. The whole block is a no-op when `warm` is
        // `None`, keeping cold runs bit-identical.
        let warm = warm.filter(|w| !w.is_empty());
        let mut reused_points = 0usize;
        let mut prior_points = 0usize;
        if let Some(w) = warm {
            let pool: HashSet<Candidate> = candidates.iter().copied().collect();
            for s in &w.priors {
                collected.push(*s);
                prior_points += 1;
            }
            for s in &w.exact {
                let c = Candidate {
                    point: s.point,
                    algorithm: s.algorithm,
                };
                collected.push(*s);
                reused_points += 1;
                if pool.contains(&c) {
                    collected_set.insert(c);
                }
            }
            // Guideline-pruned candidates are retired exactly like
            // exact-row candidates — inserted into `collected_set` so
            // both the corner seeding and the selection loop skip them
            // — but contribute no training row here (their prior rows,
            // if any, ride in `w.priors` above).
            for c in &w.pruned {
                if pool.contains(c) {
                    collected_set.insert(*c);
                }
            }
            obs.counter("store.points_reused").add(reused_points as u64);
            obs.counter("store.prior_points").add(prior_points as u64);
        }

        // Fault-tolerant collection state. `fault_rt` is `None` when the
        // policy injects nothing, and every fault-path branch below is
        // gated on it, keeping the plain path identical to fault-unaware
        // configurations. The local allocation starts as the job's and
        // shrinks when nodes hard-fail.
        let mut alloc = db.config().cluster.allocation.clone();
        let mut fault_rt = cfg
            .collection
            .is_enabled()
            .then(|| FaultRuntime::new(cfg.collection.clone(), cfg.seed, obs));
        let mut wave_index: u64 = 0;
        let mut last_wave_completed = usize::MAX;

        // Criterion state.
        let mut variance_conv = match &cfg.criterion {
            CriterionConfig::CumulativeVariance(v) => Some(v.clone()),
            _ => None,
        };
        let (test_points, test_wall_us, slowdown_threshold, budget) = match &cfg.criterion {
            CriterionConfig::TestSlowdown {
                threshold,
                test_fraction,
            } => {
                let pts = splits::random_fraction(space, *test_fraction, &mut rng);
                // Benchmark every algorithm at every test point; the
                // paper's Fig. 6 charges this cost explicitly.
                let mut cost = 0.0;
                for &p in &pts {
                    for &a in collective.algorithms() {
                        cost += db.sample(a, p).wall_us;
                    }
                }
                (Some(pts), cost, Some(*threshold), usize::MAX)
            }
            CriterionConfig::MaxPoints(n) => (None, 0.0, None, *n),
            CriterionConfig::CumulativeVariance(_) => (None, 0.0, None, usize::MAX),
        };

        // Seed: the corners of the feature-space box, per algorithm.
        // Random forests cannot extrapolate — outside the convex hull of
        // the samples every tree lands in the same boundary leaf, so the
        // jackknife reports (unwarranted) confidence and variance-driven
        // selection never looks there. Sampling the 8 corners first
        // bounds the hull and is the standard space-filling
        // initialization for active learning.
        let seed_points: Vec<Candidate> = {
            let corner = |v: &[u32]| [v[0], *v.last().expect("non-empty axis")];
            let nodes = corner(&space.nodes);
            let ppns = corner(&space.ppns);
            let msgs = [
                space.msg_sizes[0],
                *space.msg_sizes.last().expect("non-empty axis"),
            ];
            let mut seeds = Vec::new();
            for &a in collective.algorithms() {
                for &n in &nodes {
                    for &p in &ppns {
                        for &m in &msgs {
                            let c = Candidate {
                                point: Point::new(n, p, m),
                                algorithm: a,
                            };
                            if !seeds.contains(&c) {
                                seeds.push(c);
                            }
                        }
                    }
                }
            }
            seeds
        };
        {
            let mut seed_span = obs.span("learner", "seed");
            let mut pending = seed_points;
            // A warm start replaces the cold bootstrap: corners already
            // covered by trusted rows are not re-measured. (Gated so the
            // cold path is untouched, though the filter would be inert
            // there anyway — `collected_set` starts empty.)
            if warm.is_some() {
                pending.retain(|c| !collected_set.contains(c));
            }
            if obs.is_enabled() {
                seed_span.set_attr("points", pending.len() as u64);
            }
            while !pending.is_empty() {
                if let Some(rt) = fault_rt.as_mut() {
                    if rt.evict_dead(stats.wall_us, &mut alloc, wave_index) {
                        // Prune the whole candidate pool, not just the
                        // seed points: the training loop below must
                        // never try to schedule a misfit either.
                        rt.drop_oversized(
                            alloc.len(),
                            wave_index,
                            &mut [&mut pending, &mut remaining],
                            &mut collected_set,
                        );
                        if pending.is_empty() {
                            break;
                        }
                    }
                }
                let (wave, placements): (Vec<Candidate>, Vec<Placement>) = match cfg.strategy {
                    CollectionStrategy::Sequential => (vec![pending.remove(0)], Vec::new()),
                    CollectionStrategy::Parallel => {
                        let cluster = &db.config().cluster;
                        let w = schedule_wave(&cluster.topology, &alloc, &pending);
                        // The greedy scheduler consumes a prefix of the list.
                        let wave = pending.drain(..w.parallelism().max(1)).collect();
                        (wave, w.placements)
                    }
                };
                let wave_start_us = stats.wall_us;
                let mut costs = Vec::with_capacity(wave.len());
                let mut completed = 0usize;
                for (slot, c) in wave.into_iter().enumerate() {
                    let s = db.sample(c.algorithm, c.point);
                    match fault_rt.as_mut() {
                        Some(rt) => {
                            // Failed seed points re-enter through the
                            // training loop's retry queue: the seeding
                            // phase never blocks on one point.
                            let (cost, ok) = faulty_slot(
                                rt,
                                obs,
                                c,
                                c,
                                s.mean_us,
                                s.wall_us,
                                &placements,
                                slot,
                                wave_index,
                                wave_start_us,
                                &mut collected,
                                &mut collected_set,
                            );
                            costs.push(cost);
                            completed += ok as usize;
                        }
                        None => {
                            collected.push(TrainingSample {
                                point: c.point,
                                algorithm: c.algorithm,
                                time_us: s.mean_us,
                            });
                            collected_set.insert(c);
                            if obs.is_enabled() {
                                slot_span(
                                    obs,
                                    &placements,
                                    slot,
                                    c,
                                    wave_start_us,
                                    s.wall_us,
                                    Vec::new(),
                                );
                            }
                            costs.push(s.wall_us);
                            completed += 1;
                        }
                    }
                }
                stats.add_wave_counting(&costs, completed);
                wave_index += 1;
            }
        }
        remaining.retain(|c| !collected_set.contains(c));

        let mut log: Vec<IterationRecord> = Vec::new();
        let mut converged = false;
        let mut last_parallelism = 0usize;
        let mut explore_counter = 0usize;
        let mut surrogate_order: Vec<Candidate> = Vec::new();
        let mut surrogate_age = 0usize;
        let mut model: Option<PerfModel> = None;
        let mut cache = VarianceScanCache::new(remaining.clone()).with_flat(cfg.flat);
        let mut surrogate_model: Option<PerfModel> = None;
        let mut surrogate_cache: Option<VarianceScanCache> = None;
        let mut model_update_wall_us = 0.0f64;

        for iteration in 0..cfg.max_iterations {
            let mut iter_span = obs.span("learner", "iteration");
            if obs.is_enabled() {
                iter_span.set_attr("iteration", iteration as u64);
            }
            // Node hard failures take effect between waves: shrink the
            // local allocation and retire the candidates it can no
            // longer host before this iteration's ranking is computed,
            // so subsequent waves are scheduled on the survivors only.
            if let Some(rt) = fault_rt.as_mut() {
                if rt.evict_dead(stats.wall_us, &mut alloc, wave_index) {
                    rt.drop_oversized(
                        alloc.len(),
                        wave_index,
                        &mut [&mut remaining],
                        &mut collected_set,
                    );
                }
            }
            // Model update. With `incremental` the model warm-starts
            // (only trees whose bootstrap drew a new sample refit) and
            // the cached variance scan recomputes only their columns;
            // otherwise everything rebuilds from scratch through the
            // same cache, so both paths produce identical rankings.
            let update_start = Instant::now();
            let changed = {
                let mut fit_span = obs.span("learner", "fit");
                let changed = match model.as_mut().filter(|_| cfg.incremental) {
                    Some(m) => m.fit_incremental(&collected, &cfg.forest),
                    None => {
                        model = Some(PerfModel::fit(collective, &collected, &cfg.forest));
                        TreeUpdate::full_refit(cfg.forest.n_trees)
                    }
                };
                m_trees_refitted.add(changed.len() as u64);
                m_trees_reused.add(cfg.forest.n_trees.saturating_sub(changed.len()) as u64);
                if obs.is_enabled() {
                    fit_span.set_attr("samples", collected.len() as u64);
                    fit_span.set_attr("trees_refitted", changed.len() as u64);
                    fit_span.set_attr("trees_total", cfg.forest.n_trees as u64);
                }
                changed
            };
            let model = model.as_ref().expect("model fitted above");

            // Primary-model ranking always feeds the convergence signal;
            // the *selection* order depends on the policy.
            let primary_ranking = {
                let mut scan_span = obs.span("learner", "variance_scan");
                cache.retain(|c| !collected_set.contains(c));
                let rs = cache.refresh(model, &changed);
                m_cells_recomputed.add(rs.cells_recomputed as u64);
                m_cells_reused.add(rs.cells_reused() as u64);
                if cfg.flat {
                    m_flat_refreshes.incr();
                }
                if obs.is_enabled() {
                    scan_span.set_attr("cells_total", rs.cells_total as u64);
                    scan_span.set_attr("cells_recomputed", rs.cells_recomputed as u64);
                    scan_span.set_attr("full", rs.full);
                    scan_span.set_attr("flat", cfg.flat);
                }
                cache.ranking()
            };
            let model_update_us = update_start.elapsed().as_secs_f64() * 1e6;
            model_update_wall_us += model_update_us;
            g_cumvar.set(primary_ranking.cumulative);
            g_samples.set(collected.len() as f64);
            let oracle_slowdown =
                eval_points.map(|pts| db.average_slowdown(collective, pts, |p| model.select(p)));
            log.push(IterationRecord {
                iteration,
                samples: collected.len(),
                wall_us: stats.wall_us,
                cumulative_variance: primary_ranking.cumulative,
                model_update_us,
                oracle_slowdown,
                wave_parallelism: last_parallelism,
            });

            // Stop checks. Structured as a single decision so the span
            // guard closes before the loop breaks; the check order and
            // short-circuiting match the original cascade exactly. The
            // variance detector is only fed when the previous wave made
            // progress: a wave whose every slot failed leaves the
            // cumulative variance untouched, and counting that repeat
            // toward the plateau streak would declare convergence from
            // faults rather than from information. Fault-free waves
            // always complete every slot, so the gate is inert there.
            let stop = {
                let mut conv_span = obs.span("learner", "convergence_check");
                let stop = if collected.len() >= budget {
                    converged = matches!(cfg.criterion, CriterionConfig::MaxPoints(_));
                    true
                } else if (last_wave_completed != 0
                    && variance_conv
                        .as_mut()
                        .is_some_and(|v| v.push(primary_ranking.cumulative)))
                    || slowdown_threshold
                        .zip(test_points.as_ref())
                        .is_some_and(|(th, pts)| {
                            th.check(db.average_slowdown(collective, pts, |p| model.select(p)))
                        })
                {
                    converged = true;
                    true
                } else {
                    remaining.is_empty()
                };
                if obs.is_enabled() {
                    conv_span.set_attr("cumulative_variance", primary_ranking.cumulative);
                    conv_span.set_attr("stop", stop);
                }
                stop
            };
            if stop {
                break;
            }

            // Selection order for this iteration.
            let mut select_span = obs.span("learner", "select");
            let mut ordered: Vec<Candidate> = match &cfg.policy {
                SelectionPolicy::OwnVariance => {
                    primary_ranking.ranked.iter().map(|&(c, _)| c).collect()
                }
                SelectionPolicy::SurrogateVariance {
                    surrogate,
                    top_k,
                    refresh,
                } => {
                    let refresh = (*refresh).max(1);
                    if surrogate_order.is_empty() || surrogate_age.is_multiple_of(refresh) {
                        // The surrogate refits (warm-started when
                        // `incremental`) and keeps its own scan cache.
                        let sur_start = Instant::now();
                        let sur_changed = match surrogate_model.as_mut().filter(|_| cfg.incremental)
                        {
                            Some(m) => m.fit_incremental(&collected, surrogate),
                            None => {
                                surrogate_model =
                                    Some(PerfModel::fit(collective, &collected, surrogate));
                                TreeUpdate::full_refit(surrogate.n_trees)
                            }
                        };
                        let sm = surrogate_model.as_ref().expect("surrogate fitted above");
                        let sc = surrogate_cache.get_or_insert_with(|| {
                            VarianceScanCache::new(remaining.clone()).with_flat(cfg.flat)
                        });
                        sc.retain(|c| !collected_set.contains(c));
                        sc.refresh(sm, &sur_changed);
                        let sr = sc.ranking();
                        model_update_wall_us += sur_start.elapsed().as_secs_f64() * 1e6;
                        surrogate_order = sr.ranked.iter().map(|&(c, _)| c).collect();
                        // DeepHyper-style exploration: shuffle the head.
                        let k = (*top_k).min(surrogate_order.len());
                        surrogate_order[..k].shuffle(&mut rng);
                    } else {
                        // Stale batch: drop candidates collected since.
                        surrogate_order.retain(|c| !collected_set.contains(c));
                    }
                    surrogate_age += 1;
                    surrogate_order.clone()
                }
                SelectionPolicy::Random => {
                    let mut order = remaining.clone();
                    order.shuffle(&mut rng);
                    order
                }
            };

            // Retry scheduling: points whose backoff elapsed re-enter at
            // the head of the order (they are known-uncertain — their
            // attempt failed outright rather than measuring anything);
            // points still backing off sit this wave out. When *every*
            // remaining point is backing off, jump the wave clock to the
            // next eligibility instead of spinning empty waves.
            if let Some(rt) = fault_rt.as_mut() {
                let mut ready = rt.take_ready(wave_index);
                let waiting = rt.backing_off();
                ordered.retain(|c| !waiting.contains(c) && !ready.contains(c));
                if ordered.is_empty() && ready.is_empty() {
                    if let Some(w) = rt.next_eligible_wave() {
                        wave_index = w;
                        ready = rt.take_ready(wave_index);
                    }
                }
                for c in ready.into_iter().rev() {
                    ordered.insert(0, c);
                }
            }
            debug_assert!(!ordered.is_empty(), "selection produced no candidates");

            // Guided sampling: periodically promote a uniformly random
            // candidate to the head of the order.
            if let Some(every) = cfg.explore_every {
                explore_counter += 1;
                if every > 0 && explore_counter.is_multiple_of(every) && !ordered.is_empty() {
                    let pick = rng.random_range(0..ordered.len());
                    ordered.swap(0, pick);
                    m_explore.incr();
                }
            }
            if obs.is_enabled() {
                select_span.set_attr("candidates", ordered.len() as u64);
            }

            // Build the wave (one point for sequential collection).
            let (wave_candidates, wave_placements): (Vec<Candidate>, Vec<Placement>) =
                match cfg.strategy {
                    CollectionStrategy::Sequential => (vec![ordered[0]], Vec::new()),
                    CollectionStrategy::Parallel => {
                        let cluster = &db.config().cluster;
                        let wave = schedule_wave(&cluster.topology, &alloc, &ordered);
                        let cands = wave
                            .placements
                            .iter()
                            .map(|p| ordered[p.candidate_index])
                            .collect();
                        (cands, wave.placements)
                    }
                };
            drop(select_span);
            debug_assert!(!wave_candidates.is_empty());
            last_parallelism = wave_candidates.len();

            // Collect the wave (with every-5th non-P2 substitution).
            let wave_start_us = stats.wall_us;
            let mut costs = Vec::with_capacity(wave_candidates.len());
            let mut completed = 0usize;
            {
                let mut collect_span = obs.span("learner", "collect");
                if obs.is_enabled() {
                    collect_span.set_attr("parallelism", wave_candidates.len() as u64);
                }
                for (slot, anchor) in wave_candidates.into_iter().enumerate() {
                    let actual = match injector.as_mut() {
                        Some(inj) => inj.apply(anchor, &mut rng),
                        None => anchor,
                    };
                    if actual != anchor {
                        m_nonp2.incr();
                    }
                    let s = db.sample(actual.algorithm, actual.point);
                    match fault_rt.as_mut() {
                        Some(rt) => {
                            // Retries key on the P2 anchor (the pool
                            // identity); the measurement itself is of
                            // the possibly-substituted candidate.
                            let (cost, ok) = faulty_slot(
                                rt,
                                obs,
                                anchor,
                                actual,
                                s.mean_us,
                                s.wall_us,
                                &wave_placements,
                                slot,
                                wave_index,
                                wave_start_us,
                                &mut collected,
                                &mut collected_set,
                            );
                            costs.push(cost);
                            completed += ok as usize;
                        }
                        None => {
                            collected.push(TrainingSample {
                                point: actual.point,
                                algorithm: actual.algorithm,
                                time_us: s.mean_us,
                            });
                            if obs.is_enabled() {
                                slot_span(
                                    obs,
                                    &wave_placements,
                                    slot,
                                    actual,
                                    wave_start_us,
                                    s.wall_us,
                                    Vec::new(),
                                );
                            }
                            costs.push(s.wall_us);
                            completed += 1;
                            // The P2 anchor leaves the pool either way: it was
                            // either collected or represented by its non-P2 variant.
                            collected_set.insert(anchor);
                        }
                    }
                }
            }
            remaining.retain(|c| !collected_set.contains(c));
            stats.add_wave_counting(&costs, completed);
            last_wave_completed = completed;
            wave_index += 1;
        }

        // Final model. The warm-started model is bit-identical to a
        // scratch fit on the full collection, so reuse it (catching up
        // on any wave collected after the last in-loop refit).
        let final_start = Instant::now();
        let model = {
            let _fit_span = obs.span("learner", "final_fit");
            match model {
                Some(mut m) if cfg.incremental => {
                    m.fit_incremental(&collected, &cfg.forest);
                    m.clear_refit_state();
                    m
                }
                _ => PerfModel::fit(collective, &collected, &cfg.forest),
            }
        };
        model_update_wall_us += final_start.elapsed().as_secs_f64() * 1e6;
        if obs.is_enabled() {
            train_span.set_attr("converged", converged);
            train_span.set_attr("points", collected.len() as u64);
        }
        let (faults, fault_events) = match fault_rt {
            Some(rt) => (rt.stats, rt.events),
            None => (FaultStats::default(), Vec::new()),
        };
        TrainingOutcome {
            model,
            log,
            collected,
            converged,
            stats,
            test_wall_us,
            model_update_wall_us,
            faults,
            fault_events,
            reused_points,
            prior_points,
        }
    }
}

/// Salt folded into the learner seed to derive the fault RNG streams,
/// keeping fault draws independent of the selection RNG (whose stream
/// must be untouched for the faults-disabled path to stay
/// bit-identical).
const FAULT_SEED_SALT: u64 = 0xFA01_7FA0;

/// A point waiting out its retry backoff.
struct DeferredPoint {
    cand: Candidate,
    eligible_wave: u64,
}

/// Per-run fault-handling state: the retry queue with capped
/// exponential backoff, per-point attempt counts, node-eviction
/// bookkeeping, aggregate [`FaultStats`] (mirrored into `collect.*`
/// obs counters), and the chronological [`FaultEvent`] log.
struct FaultRuntime {
    policy: CollectionPolicy,
    seed: u64,
    stats: FaultStats,
    events: Vec<FaultEvent>,
    deferred: Vec<DeferredPoint>,
    attempts: HashMap<Candidate, u32>,
    m_retries: Counter,
    m_timeouts: Counter,
    m_failures: Counter,
    m_outliers: Counter,
    m_evictions: Counter,
    m_abandoned: Counter,
    m_dropped: Counter,
}

impl FaultRuntime {
    fn new(policy: CollectionPolicy, seed: u64, obs: &Obs) -> Self {
        FaultRuntime {
            policy,
            seed: seed ^ FAULT_SEED_SALT,
            stats: FaultStats::default(),
            events: Vec::new(),
            deferred: Vec::new(),
            attempts: HashMap::new(),
            m_retries: obs.counter("collect.retries"),
            m_timeouts: obs.counter("collect.timeouts"),
            m_failures: obs.counter("collect.failures"),
            m_outliers: obs.counter("collect.outliers_rejected"),
            m_evictions: obs.counter("collect.node_evictions"),
            m_abandoned: obs.counter("collect.points_abandoned"),
            m_dropped: obs.counter("collect.candidates_dropped"),
        }
    }

    /// Attempts already charged against `c` (0 for a fresh point).
    fn attempt_index(&self, c: &Candidate) -> u32 {
        self.attempts.get(c).copied().unwrap_or(0)
    }

    /// The deterministic fault RNG for `c`'s next attempt. Identity-
    /// seeded per (candidate, attempt) — the same style as the
    /// benchmark database's per-sample streams — so fault draws are
    /// independent of collection order and of the selection RNG.
    fn attempt_rng(&self, c: &Candidate) -> StdRng {
        let mut h = DefaultHasher::new();
        c.hash(&mut h);
        self.attempt_index(c).hash(&mut h);
        StdRng::seed_from_u64(self.seed ^ h.finish())
    }

    /// Fold one attempt's repeat-level outcomes into the counters.
    fn record_attempt(&mut self, out: &AttemptOutcome) {
        self.stats.timeouts += out.timeouts as u64;
        self.stats.failures += out.failures as u64;
        self.stats.outliers_rejected += out.outliers_rejected as u64;
        self.m_timeouts.add(out.timeouts as u64);
        self.m_failures.add(out.failures as u64);
        self.m_outliers.add(out.outliers_rejected as u64);
    }

    /// The point was collected; clear its attempt history.
    fn on_success(&mut self, c: &Candidate) {
        self.attempts.remove(c);
    }

    /// The attempt produced nothing: queue a retry with capped
    /// exponential backoff, or abandon the point once its retries are
    /// exhausted. Returns true when the point is abandoned.
    fn on_failure(&mut self, c: Candidate, wave: u64) -> bool {
        let attempts = self.attempt_index(&c) + 1;
        if attempts > self.policy.max_retries {
            self.attempts.remove(&c);
            self.stats.points_abandoned += 1;
            self.m_abandoned.incr();
            self.events.push(FaultEvent::Abandoned {
                wave,
                candidate: c,
                attempts,
            });
            true
        } else {
            self.attempts.insert(c, attempts);
            let eligible_wave = wave + self.policy.backoff_waves(attempts);
            self.deferred.push(DeferredPoint {
                cand: c,
                eligible_wave,
            });
            self.stats.retries += 1;
            self.m_retries.incr();
            self.events.push(FaultEvent::Retry {
                wave,
                candidate: c,
                attempt: attempts,
                eligible_wave,
            });
            false
        }
    }

    /// Drain the points whose backoff has elapsed by `wave`, in
    /// queueing order.
    fn take_ready(&mut self, wave: u64) -> Vec<Candidate> {
        let mut ready = Vec::new();
        self.deferred.retain(|d| {
            if d.eligible_wave <= wave {
                ready.push(d.cand);
                false
            } else {
                true
            }
        });
        ready
    }

    /// The points still waiting out a backoff.
    fn backing_off(&self) -> HashSet<Candidate> {
        self.deferred.iter().map(|d| d.cand).collect()
    }

    /// Earliest wave at which any deferred point becomes eligible.
    fn next_eligible_wave(&self) -> Option<u64> {
        self.deferred.iter().map(|d| d.eligible_wave).min()
    }

    /// Evict the nodes whose hard failure has onset by `now_us` from
    /// the allocation. Returns true when the allocation shrank.
    fn evict_dead(&mut self, now_us: f64, alloc: &mut Allocation, wave: u64) -> bool {
        let dead: Vec<u32> = self
            .policy
            .faults
            .dead_nodes_at(now_us)
            .into_iter()
            .filter(|n| alloc.nodes().contains(n))
            .collect();
        if dead.is_empty() {
            return false;
        }
        *alloc = alloc.excluding(&dead);
        for node in dead {
            self.stats.node_evictions += 1;
            self.m_evictions.incr();
            self.events.push(FaultEvent::NodeEvicted { wave, node });
        }
        true
    }

    /// Drop every candidate the degraded allocation can no longer host
    /// from each pool and from the retry queue, retiring each through
    /// `collected_set` so the ranking caches and later pool filters all
    /// agree that it is off the table. A candidate present in several
    /// pools is counted once.
    fn drop_oversized(
        &mut self,
        max_nodes: u32,
        wave: u64,
        pools: &mut [&mut Vec<Candidate>],
        collected_set: &mut HashSet<Candidate>,
    ) {
        let mut count = 0u32;
        let mut retire = |c: Candidate, collected_set: &mut HashSet<Candidate>| {
            if collected_set.insert(c) {
                count += 1;
            }
        };
        for pool in pools.iter_mut() {
            pool.retain(|c| {
                if c.point.nodes <= max_nodes {
                    true
                } else {
                    retire(*c, collected_set);
                    false
                }
            });
        }
        self.deferred.retain(|d| {
            if d.cand.point.nodes <= max_nodes {
                true
            } else {
                retire(d.cand, collected_set);
                false
            }
        });
        if count > 0 {
            self.stats.candidates_dropped += count as u64;
            self.m_dropped.add(count as u64);
            self.events
                .push(FaultEvent::CandidatesDropped { wave, count });
        }
    }
}

/// Execute one collection slot under the fault policy: draw the
/// attempt's faults from its identity-seeded RNG, charge the slot's
/// wall cost, and either record the robust aggregate as a training
/// sample (retiring `anchor` from the pool) or queue a retry /
/// abandonment. Returns the slot's wall cost and whether a training
/// point was produced.
#[allow(clippy::too_many_arguments)]
fn faulty_slot(
    rt: &mut FaultRuntime,
    obs: &Obs,
    anchor: Candidate,
    actual: Candidate,
    clean_mean_us: f64,
    clean_wall_us: f64,
    placements: &[Placement],
    slot: usize,
    wave_index: u64,
    wave_start_us: f64,
    collected: &mut Vec<TrainingSample>,
    collected_set: &mut HashSet<Candidate>,
) -> (f64, bool) {
    let attempt = rt.attempt_index(&anchor) + 1;
    let mut rng = rt.attempt_rng(&anchor);
    let out = run_attempt(clean_mean_us, clean_wall_us, &rt.policy, &mut rng);
    rt.record_attempt(&out);
    let ok = out.value_us.is_some();
    let outcome = match out.value_us {
        Some(value) => {
            collected.push(TrainingSample {
                point: actual.point,
                algorithm: actual.algorithm,
                time_us: value,
            });
            collected_set.insert(anchor);
            rt.on_success(&anchor);
            "ok"
        }
        None => {
            if rt.on_failure(anchor, wave_index) {
                // An abandoned point leaves the pool uncollected.
                collected_set.insert(anchor);
                "abandoned"
            } else {
                "retry"
            }
        }
    };
    if obs.is_enabled() {
        slot_span(
            obs,
            placements,
            slot,
            actual,
            wave_start_us,
            out.wall_us,
            vec![
                ("attempt".to_string(), AttrValue::from(attempt as u64)),
                (
                    "valid_repeats".to_string(),
                    AttrValue::from(out.valid as u64),
                ),
                ("timeouts".to_string(), AttrValue::from(out.timeouts as u64)),
                ("failures".to_string(), AttrValue::from(out.failures as u64)),
                ("outcome".to_string(), AttrValue::from(outcome.to_string())),
            ],
        );
    }
    (out.wall_us, ok)
}

/// Emit one closed sim-timeline span for a collection slot, on a
/// display lane named after the node range the benchmark occupied
/// (`"nodes A-B"`). Parallel waves have a [`Placement`] per slot (the
/// scheduler consumes a prefix of the candidate list, so placements
/// align with wave slots by index); sequential collection synthesizes
/// a run starting at node 0. Chrome's trace viewer renders these lanes
/// as concurrent rows, making wave parallelism visible.
#[allow(clippy::too_many_arguments)]
fn slot_span(
    obs: &Obs,
    placements: &[Placement],
    slot: usize,
    c: Candidate,
    wave_start_us: f64,
    cost_us: f64,
    extra: Vec<(String, AttrValue)>,
) {
    let (start_node, node_count) = match placements.get(slot) {
        Some(p) => (p.start_node, p.node_count.max(1)),
        None => (0, c.point.nodes.max(1)),
    };
    let track = format!("nodes {}-{}", start_node, start_node + node_count - 1);
    let mut attrs = vec![
        (
            "algorithm".to_string(),
            AttrValue::from(format!("{:?}", c.algorithm)),
        ),
        ("nodes".to_string(), AttrValue::from(c.point.nodes as u64)),
        ("ppn".to_string(), AttrValue::from(c.point.ppn as u64)),
        ("msg_bytes".to_string(), AttrValue::from(c.point.msg_bytes)),
    ];
    attrs.extend(extra);
    obs.span_at(
        "collect",
        "slot",
        &track,
        wave_start_us,
        wave_start_us + cost_us,
        attrs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RobustAgg;
    use acclaim_dataset::DatasetConfig;

    fn tiny_db() -> BenchmarkDatabase {
        BenchmarkDatabase::new(DatasetConfig::tiny())
    }

    fn fast_forest() -> ForestConfig {
        ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(4)
        }
    }

    fn budget_config(policy: SelectionPolicy, points: usize) -> LearnerConfig {
        LearnerConfig {
            forest: fast_forest(),
            policy,
            strategy: CollectionStrategy::Sequential,
            criterion: CriterionConfig::MaxPoints(points),
            nonp2_every: None,
            explore_every: None,
            max_iterations: 100,
            seed: 42,
            incremental: true,
            flat: true,
            collection: CollectionPolicy::default(),
            analytic_priors: Default::default(),
        }
    }

    #[test]
    fn budget_run_collects_exactly_the_budget() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        // Bcast seeds 8 corner points per algorithm (24); the budget
        // must exceed that to exercise the iterative phase.
        let cfg = budget_config(SelectionPolicy::OwnVariance, 30);
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert_eq!(out.collected.len(), 30);
        assert!(out.converged);
        assert!(out.stats.wall_us > 0.0);
        assert_eq!(out.test_wall_us, 0.0);
    }

    #[test]
    fn log_is_monotone_in_samples_and_wall_time() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = budget_config(SelectionPolicy::OwnVariance, 30);
        let out = ActiveLearner::new(cfg).train(&db, Collective::Reduce, &space, None);
        assert!(out.log.len() >= 2);
        for w in out.log.windows(2) {
            assert!(w[1].samples > w[0].samples);
            assert!(w[1].wall_us >= w[0].wall_us);
        }
    }

    #[test]
    fn oracle_tracking_improves_with_data() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let pts = space.points();
        let cfg = budget_config(SelectionPolicy::OwnVariance, 30);
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, Some(&pts));
        let first = out.log.first().unwrap().oracle_slowdown.unwrap();
        let last = out.log.last().unwrap().oracle_slowdown.unwrap();
        assert!(
            last <= first,
            "more data should not hurt on average: {first} -> {last}"
        );
        assert!(
            last < 1.15,
            "near-exhaustive training should be good: {last}"
        );
    }

    #[test]
    fn variance_criterion_stops_before_exhausting_the_space() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            forest: fast_forest(),
            policy: SelectionPolicy::OwnVariance,
            strategy: CollectionStrategy::Sequential,
            criterion: CriterionConfig::CumulativeVariance(VarianceConvergence::relative(3, 0.2)),
            nonp2_every: None,
            explore_every: None,
            max_iterations: 200,
            seed: 7,
            incremental: true,
            flat: true,
            collection: CollectionPolicy::default(),
            analytic_priors: Default::default(),
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Allreduce, &space, None);
        let total_candidates = space.len() * 2;
        assert!(out.converged, "loose criterion should fire");
        assert!(
            out.collected.len() < total_candidates,
            "collected {} of {}",
            out.collected.len(),
            total_candidates
        );
    }

    #[test]
    fn test_slowdown_criterion_charges_test_collection() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            forest: fast_forest(),
            policy: SelectionPolicy::SurrogateVariance {
                surrogate: ForestConfig {
                    n_trees: 8,
                    seed: 99,
                    ..ForestConfig::for_n_features(4)
                },
                top_k: 4,
                refresh: 3,
            },
            strategy: CollectionStrategy::Sequential,
            criterion: CriterionConfig::TestSlowdown {
                threshold: SlowdownThreshold::paper_default(),
                test_fraction: 0.2,
            },
            nonp2_every: None,
            explore_every: None,
            max_iterations: 60,
            seed: 13,
            incremental: true,
            flat: true,
            collection: CollectionPolicy::default(),
            analytic_priors: Default::default(),
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert!(out.test_wall_us > 0.0, "test set must cost machine time");
        assert!(out.total_wall_us() > out.stats.wall_us);
    }

    #[test]
    fn nonp2_injection_produces_nonp2_samples() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            nonp2_every: Some(5),
            ..budget_config(SelectionPolicy::OwnVariance, 60)
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        let nonp2 = out
            .collected
            .iter()
            .filter(|s| !s.point.msg_bytes.is_power_of_two())
            .count();
        // 36 post-seed selections at every=5 give ~7 substitutions.
        assert!(nonp2 >= 4, "expected non-P2 samples, got {nonp2}");
        assert!(nonp2 <= out.collected.len() / 3);
    }

    #[test]
    fn parallel_collection_is_never_slower_sequentially_counted() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            strategy: CollectionStrategy::Parallel,
            ..budget_config(SelectionPolicy::OwnVariance, 16)
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Reduce, &space, None);
        assert!(out.stats.wall_us <= out.stats.sequential_wall_us + 1e-9);
        assert!(out.stats.average_parallelism() >= 1.0);
    }

    #[test]
    fn trained_models_keep_no_refit_state() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let out = ActiveLearner::new(budget_config(SelectionPolicy::OwnVariance, 30)).train(
            &db,
            Collective::Bcast,
            &space,
            None,
        );
        assert!(!out.model.forest().has_refit_state());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = budget_config(SelectionPolicy::Random, 30);
        let a = ActiveLearner::new(cfg.clone()).train(&db, Collective::Bcast, &space, None);
        let b = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert_eq!(a.collected, b.collected);
    }

    #[test]
    fn different_policies_choose_different_points() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let own = ActiveLearner::new(budget_config(SelectionPolicy::OwnVariance, 40)).train(
            &db,
            Collective::Bcast,
            &space,
            None,
        );
        let random = ActiveLearner::new(budget_config(SelectionPolicy::Random, 40)).train(
            &db,
            Collective::Bcast,
            &space,
            None,
        );
        assert_ne!(own.collected, random.collected);
    }

    /// A harsh policy whose per-attempt failure odds are high enough
    /// that a short run reliably exercises retries, timeouts, and
    /// outlier rejection.
    fn harsh_policy() -> CollectionPolicy {
        CollectionPolicy {
            faults: acclaim_netsim::FaultModel {
                failure_probability: 0.25,
                straggler_probability: 0.25,
                straggler_factor: 8.0,
                node_failures: Vec::new(),
            },
            repeats: 3,
            ..CollectionPolicy::default()
        }
    }

    #[test]
    fn faulty_collection_retries_and_still_trains() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            strategy: CollectionStrategy::Parallel,
            collection: harsh_policy(),
            ..budget_config(SelectionPolicy::OwnVariance, 40)
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert!(!out.collected.is_empty());
        assert_eq!(out.stats.points, out.collected.len());
        let f = &out.faults;
        assert!(f.retries > 0, "harsh faults must force retries: {f:?}");
        assert!(f.timeouts + f.failures > 0, "fault counters empty: {f:?}");
        assert!(
            !out.fault_events.is_empty(),
            "retries must be logged as events"
        );
        // Failed slots burn wall time without yielding points, so the
        // sequential-equivalent cost must exceed a clean run's.
        assert!(out.stats.wall_us > 0.0);
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let cfg = LearnerConfig {
            strategy: CollectionStrategy::Parallel,
            collection: harsh_policy(),
            ..budget_config(SelectionPolicy::OwnVariance, 40)
        };
        let a = ActiveLearner::new(cfg.clone()).train(&db, Collective::Bcast, &space, None);
        let b = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert_eq!(a.collected, b.collected);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn node_failure_shrinks_the_allocation_and_drops_misfits() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        // Node 0 dies at t=0: the 8-node allocation degrades to 7
        // before the first wave, so every 8-node candidate (including
        // seed corners) must be dropped, and training must complete on
        // the survivors.
        let cfg = LearnerConfig {
            strategy: CollectionStrategy::Parallel,
            collection: CollectionPolicy {
                faults: acclaim_netsim::FaultModel::none().with_node_failure(0, 0.0),
                ..CollectionPolicy::default()
            },
            ..budget_config(SelectionPolicy::OwnVariance, 30)
        };
        let out = ActiveLearner::new(cfg).train(&db, Collective::Bcast, &space, None);
        assert_eq!(out.faults.node_evictions, 1);
        assert!(out.faults.candidates_dropped > 0);
        assert!(out
            .fault_events
            .iter()
            .any(|e| matches!(e, FaultEvent::NodeEvicted { node: 0, .. })));
        assert!(
            out.collected.iter().all(|s| s.point.nodes < 8),
            "no 8-node point can run on a 7-node allocation"
        );
        assert!(!out.collected.is_empty());
    }

    #[test]
    fn disabled_fault_policy_is_bit_identical_to_default() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let base = LearnerConfig {
            strategy: CollectionStrategy::Parallel,
            ..budget_config(SelectionPolicy::OwnVariance, 30)
        };
        // Non-fault knobs of the policy must be inert while faults are
        // disabled.
        let tweaked = LearnerConfig {
            collection: CollectionPolicy {
                faults: acclaim_netsim::FaultModel::none(),
                max_retries: 9,
                bench_timeout_factor: 1.5,
                repeats: 7,
                backoff_cap_waves: 2,
                agg: RobustAgg::Mean,
            },
            ..base.clone()
        };
        let a = ActiveLearner::new(base).train(&db, Collective::Reduce, &space, None);
        let b = ActiveLearner::new(tweaked).train(&db, Collective::Reduce, &space, None);
        assert_eq!(a.collected, b.collected);
        assert_eq!(a.stats, b.stats);
        assert!(b.faults.is_quiet());
        assert!(b.fault_events.is_empty());
    }

    #[test]
    fn no_candidate_is_collected_twice() {
        let db = tiny_db();
        let space = FeatureSpace::tiny();
        let out = ActiveLearner::new(budget_config(SelectionPolicy::OwnVariance, 40)).train(
            &db,
            Collective::Allreduce,
            &space,
            None,
        );
        let mut seen = HashSet::new();
        for s in &out.collected {
            assert!(
                seen.insert((s.point, s.algorithm)),
                "duplicate sample {:?}",
                (s.point, s.algorithm)
            );
        }
    }
}
