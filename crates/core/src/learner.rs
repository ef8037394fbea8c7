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
    run_attempt, schedule_wave, CollectionPolicy, CollectionStats, FaultEvent, FaultRuntime,
    FaultStats, Placement,
};
use crate::convergence::{SlowdownThreshold, VarianceConvergence};
use crate::model::{PerfModel, TrainingSample};
use crate::selection::{
    all_candidates, Candidate, NonP2Injector, RefreshStats, VarianceRanking, VarianceScanCache,
};
use acclaim_collectives::Collective;
use acclaim_dataset::{splits, BenchmarkDatabase, FeatureSpace, Point, Sample};
use acclaim_ml::{ForestConfig, TreeUpdate};
use acclaim_netsim::Allocation;
use acclaim_obs::{AttrValue, Counter, Gauge, Obs, SpanGuard};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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
    /// Ignored. It selected the retired flat SoA variance-scan engine;
    /// the scan now paints the candidate lattice (see
    /// [`VarianceScanCache`]). Kept so serialized configurations and
    /// callers that set it still load and compile.
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
    /// sketch of the candidate grid), by the same [`thin_priors`]
    /// rule that deweights store priors.
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

/// Deterministically thin prior rows to a fraction `w`: row `s`
/// survives iff `hash(s) / 2^64 <= w`. The decision depends only on the
/// row itself, so the same prior set is selected on every machine and
/// under every learner seed. Store near hits, drift re-tunes and
/// analytical sketches all thin through this one rule.
pub fn thin_priors(mut rows: Vec<TrainingSample>, w: f64) -> Vec<TrainingSample> {
    let threshold = (w.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    rows.retain(|s| {
        let mut f = acclaim_netsim::Fingerprint::new();
        f.write_u32(s.point.nodes);
        f.write_u32(s.point.ppn);
        f.write_u64(s.point.msg_bytes);
        f.write_str(s.algorithm.name());
        f.write_f64(s.time_us);
        f.finish() <= threshold
    });
    rows
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
    /// Real wall time of the whole training run, model updates
    /// included (µs).
    pub host_train_us: f64,
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
        assert!(
            space.max_nodes() <= db.config().cluster.num_nodes(),
            "feature space exceeds the job allocation"
        );
        let mut run = LoopState::new(&self.config, db, collective, space, obs);
        if let Some(w) = warm.filter(|w| !w.is_empty()) {
            run.inject_warm(w);
        }
        run.seed(space);
        for iteration in 0..self.config.max_iterations {
            let _iter_span = obs
                .span("learner", "iteration")
                .attr("iteration", iteration as u64);
            run.evict();
            let (ranking, model_update_us) = run.update_model();
            run.record(iteration, &ranking, model_update_us, eval_points);
            if run.should_stop(&ranking) {
                break;
            }
            let order = run.select(&ranking);
            run.collect(&order);
        }
        run.finish()
    }
}

/// The candidates still open for selection, over the canonical
/// [`all_candidates`] order. A candidate retires once, where that
/// happens: collected, abandoned, covered by an exact warm row,
/// guideline-pruned, or dropped as oversized. Lists derived from the
/// pool (the scan caches, the surrogate's batch, the seeding queue)
/// catch up through [`CandidatePool::keep_since`], against only the
/// retirements they have not yet applied.
struct CandidatePool {
    /// Every candidate, in canonical order.
    all: Vec<Candidate>,
    /// Each candidate's position in `all`.
    index: HashMap<Candidate, usize>,
    /// Whether `all[i]` is still open.
    live: Vec<bool>,
    /// Retired candidates, in retirement order.
    retired: Vec<Candidate>,
}

impl CandidatePool {
    fn new(all: Vec<Candidate>) -> Self {
        CandidatePool {
            index: all.iter().enumerate().map(|(i, &c)| (c, i)).collect(),
            live: vec![true; all.len()],
            retired: Vec::new(),
            all,
        }
    }

    /// Retire `c`, unless it is outside the pool or already retired.
    fn retire(&mut self, c: &Candidate) {
        if let Some(&i) = self.index.get(c).filter(|&&i| self.live[i]) {
            self.live[i] = false;
            self.retired.push(*c);
        }
    }

    /// Retire every live candidate that fails `keep`, returning how many.
    fn retire_unless(&mut self, keep: impl Fn(&Candidate) -> bool) -> usize {
        let gone: Vec<Candidate> = self.live().into_iter().filter(|c| !keep(c)).collect();
        for c in &gone {
            self.retire(c);
        }
        gone.len()
    }

    /// Whether every candidate has retired.
    fn is_empty(&self) -> bool {
        self.retired.len() == self.all.len()
    }

    /// The live candidates, in canonical order.
    fn live(&self) -> Vec<Candidate> {
        let live = self.all.iter().zip(&self.live).filter(|(_, &l)| l);
        live.map(|(&c, _)| c).collect()
    }

    /// A filter keeping the candidates not retired since a list last
    /// synced at `seen` (a count of retirements), or `None` when none
    /// were; moves `seen` to now.
    fn keep_since(&self, seen: &mut usize) -> Option<impl Fn(&Candidate) -> bool> {
        let mut fresh = self.retired[*seen..].to_vec();
        *seen = self.retired.len();
        if fresh.is_empty() {
            return None;
        }
        fresh.sort_unstable();
        Some(move |c: &Candidate| fresh.binary_search(c).is_err())
    }
}

/// A variance scan over the live candidates that catches up with the
/// pool's retirements before each refresh.
struct PoolScan {
    cache: VarianceScanCache,
    /// Pool retirements already dropped from `cache`.
    seen: usize,
}

impl PoolScan {
    fn new(pool: &CandidatePool) -> Self {
        PoolScan {
            cache: VarianceScanCache::new(pool.live()),
            seen: pool.retired.len(),
        }
    }

    /// Drop the candidates retired since the last call, repaint the
    /// trees in `changed`, and rank what is left.
    fn rank(
        &mut self,
        pool: &CandidatePool,
        model: &PerfModel,
        changed: &[TreeUpdate],
    ) -> (RefreshStats, VarianceRanking) {
        if let Some(keep) = pool.keep_since(&mut self.seen) {
            self.cache.retain(keep);
        }
        let stats = self.cache.refresh(model, changed);
        (stats, self.cache.ranking())
    }
}

/// A [`SelectionPolicy`] with its running state.
enum Selector {
    /// ACCLAiM: the primary model's ranking.
    OwnVariance,
    /// FACT: a separately seeded surrogate's ranking.
    Surrogate(Box<Surrogate>),
    /// Hunold et al.: the live candidates, shuffled.
    Random,
}

impl Selector {
    fn new(policy: &SelectionPolicy) -> Self {
        match policy {
            SelectionPolicy::OwnVariance => Selector::OwnVariance,
            SelectionPolicy::SurrogateVariance {
                surrogate,
                top_k,
                refresh,
            } => Selector::Surrogate(Box::new(Surrogate {
                config: *surrogate,
                top_k: *top_k,
                refresh: (*refresh).max(1),
                model: None,
                scan: None,
                batch: Vec::new(),
                batch_seen: 0,
                age: 0,
            })),
            SelectionPolicy::Random => Selector::Random,
        }
    }

    /// This iteration's selection order, and the host time (µs) the
    /// surrogate spent updating.
    fn order(
        &mut self,
        primary: &VarianceRanking,
        pool: &CandidatePool,
        collected: &[TrainingSample],
        collective: Collective,
        rng: &mut StdRng,
    ) -> (Vec<Candidate>, f64) {
        match self {
            Selector::OwnVariance => (primary.ranked.iter().map(|&(c, _)| c).collect(), 0.0),
            Selector::Surrogate(surrogate) => surrogate.order(pool, collected, collective, rng),
            Selector::Random => {
                let mut order = pool.live();
                order.shuffle(rng);
                (order, 0.0)
            }
        }
    }
}

/// FACT's surrogate: its forest and scan, and the batch it ranked last.
/// The batch is re-ranked every `refresh` iterations, with its head
/// `top_k` shuffled, and consumed stale in between.
struct Surrogate {
    config: ForestConfig,
    top_k: usize,
    refresh: usize,
    model: Option<PerfModel>,
    scan: Option<PoolScan>,
    batch: Vec<Candidate>,
    /// Pool retirements already dropped from `batch`.
    batch_seen: usize,
    age: usize,
}

impl Surrogate {
    fn order(
        &mut self,
        pool: &CandidatePool,
        collected: &[TrainingSample],
        collective: Collective,
        rng: &mut StdRng,
    ) -> (Vec<Candidate>, f64) {
        let mut update_us = 0.0;
        if self.batch.is_empty() || self.age.is_multiple_of(self.refresh) {
            // The surrogate warm-refits like the primary model and keeps
            // its own scan.
            let start = Instant::now();
            let changed = refit(&mut self.model, collective, collected, &self.config);
            let model = self.model.as_ref().expect("surrogate fitted above");
            let scan = self.scan.get_or_insert_with(|| PoolScan::new(pool));
            let (_, ranking) = scan.rank(pool, model, &changed);
            update_us = start.elapsed().as_secs_f64() * 1e6;
            self.batch = ranking.ranked.iter().map(|&(c, _)| c).collect();
            self.batch_seen = pool.retired.len();
            // DeepHyper-style exploration: shuffle the head.
            let k = self.top_k.min(self.batch.len());
            self.batch[..k].shuffle(rng);
        } else if let Some(keep) = pool.keep_since(&mut self.batch_seen) {
            self.batch.retain(keep);
        }
        self.age += 1;
        (self.batch.clone(), update_us)
    }
}

/// The configured stop criterion with its running state.
enum Stop {
    /// ACCLAiM: the cumulative-variance plateau detector.
    Variance(VarianceConvergence),
    /// Prior art: average slowdown on a test set benchmarked up front,
    /// at a collection cost of `wall_us`.
    Slowdown {
        threshold: SlowdownThreshold,
        points: Vec<Point>,
        wall_us: f64,
    },
    /// A fixed budget of collected points.
    Budget(usize),
}

impl Stop {
    /// The stop for `criterion`. A test-slowdown criterion draws its
    /// test set from `rng` and benchmarks every algorithm at every test
    /// point; the paper's Fig. 6 charges that cost.
    fn new(
        criterion: &CriterionConfig,
        db: &BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        rng: &mut StdRng,
    ) -> Self {
        match criterion {
            CriterionConfig::CumulativeVariance(v) => Stop::Variance(v.clone()),
            CriterionConfig::TestSlowdown {
                threshold,
                test_fraction,
            } => {
                let points = splits::random_fraction(space, *test_fraction, rng);
                let mut wall_us = 0.0;
                for &p in &points {
                    for &a in collective.algorithms() {
                        wall_us += db.sample(a, p).wall_us;
                    }
                }
                Stop::Slowdown {
                    threshold: *threshold,
                    points,
                    wall_us,
                }
            }
            CriterionConfig::MaxPoints(n) => Stop::Budget(*n),
        }
    }
}

/// One training run as it moves through the steps of the loop: warm
/// start injection and corner seeding, then per iteration node
/// eviction, model update, the log record, the stop check, select and
/// collect, and the final catch-up fit. Each step opens its own span
/// under the run's `learner/train` span.
struct LoopState<'a> {
    cfg: &'a LearnerConfig,
    db: &'a BenchmarkDatabase,
    collective: Collective,
    obs: &'a Obs,
    train_span: SpanGuard<'a>,
    m_nonp2: Counter,
    m_explore: Counter,
    m_trees_refitted: Counter,
    m_trees_reused: Counter,
    m_cells_recomputed: Counter,
    m_cells_reused: Counter,
    g_cumvar: Gauge,
    g_samples: Gauge,
    /// Draws the test set, the non-P2 sizes, exploration and the
    /// Random and FACT shuffles.
    rng: StdRng,
    pool: CandidatePool,
    collected: Vec<TrainingSample>,
    stats: CollectionStats,
    injector: Option<NonP2Injector>,
    /// The job's allocation, shrunk as nodes hard-fail.
    alloc: Allocation,
    /// `None` when the policy injects nothing; every fault branch is
    /// gated on it, keeping the plain path identical to fault-unaware
    /// configurations.
    fault_rt: Option<FaultRuntime>,
    wave_index: u64,
    last_parallelism: usize,
    last_wave_completed: usize,
    stop: Stop,
    converged: bool,
    selector: Selector,
    model: Option<PerfModel>,
    /// The primary model's scan, built over the candidates left live
    /// once seeding ends.
    scan: Option<PoolScan>,
    log: Vec<IterationRecord>,
    model_update_wall_us: f64,
    started: Instant,
    reused_points: usize,
    prior_points: usize,
}

impl<'a> LoopState<'a> {
    fn new(
        cfg: &'a LearnerConfig,
        db: &'a BenchmarkDatabase,
        collective: Collective,
        space: &FeatureSpace,
        obs: &'a Obs,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pool = CandidatePool::new(all_candidates(collective, space));
        let mut train_span = obs.span("learner", "train");
        if obs.is_enabled() {
            train_span.set_attr("collective", format!("{collective:?}"));
            train_span.set_attr("candidates", pool.all.len() as u64);
        }
        let stop = Stop::new(&cfg.criterion, db, collective, space, &mut rng);
        LoopState {
            cfg,
            db,
            collective,
            obs,
            train_span,
            m_nonp2: obs.counter("learner.non_p2_injections"),
            m_explore: obs.counter("learner.explore_promotions"),
            m_trees_refitted: obs.counter("learner.trees_refitted"),
            m_trees_reused: obs.counter("learner.trees_reused"),
            m_cells_recomputed: obs.counter("learner.scan_cells_recomputed"),
            m_cells_reused: obs.counter("learner.scan_cells_reused"),
            g_cumvar: obs.gauge("learner.cumulative_variance"),
            g_samples: obs.gauge("learner.samples"),
            rng,
            pool,
            collected: Vec::new(),
            stats: CollectionStats::default(),
            injector: cfg.nonp2_every.map(NonP2Injector::new),
            alloc: db.config().cluster.allocation.clone(),
            fault_rt: cfg
                .collection
                .is_enabled()
                .then(|| FaultRuntime::new(cfg.collection.clone(), cfg.seed, obs)),
            wave_index: 0,
            last_parallelism: 0,
            last_wave_completed: usize::MAX,
            stop,
            converged: false,
            selector: Selector::new(&cfg.policy),
            model: None,
            scan: None,
            log: Vec::new(),
            model_update_wall_us: 0.0,
            started: Instant::now(),
            reused_points: 0,
            prior_points: 0,
        }
    }

    /// Warm-start injection: store-provided rows enter the training set
    /// before any benchmark runs, at zero collection cost. Priors go
    /// first so persistence layers can slice them off `collected` by
    /// count (`fit_incremental` is append-only, so the order is fixed
    /// for the run's lifetime). Exact rows retire their candidates, and
    /// so do guideline-pruned candidates, which bring no row of their
    /// own (their prior rows, if any, ride in `w.priors`). Priors and
    /// rows outside the pool, such as non-P2 ones, are model evidence
    /// only.
    fn inject_warm(&mut self, w: &WarmStart) {
        self.collected.extend_from_slice(&w.priors);
        self.collected.extend_from_slice(&w.exact);
        self.prior_points = w.priors.len();
        self.reused_points = w.exact.len();
        for s in &w.exact {
            self.pool.retire(&Candidate {
                point: s.point,
                algorithm: s.algorithm,
            });
        }
        for c in &w.pruned {
            self.pool.retire(c);
        }
    }

    /// Corner seeding: benchmark the corners of the feature-space box,
    /// per algorithm, that are still live (a warm start's exact rows
    /// replace the corners they cover). Random forests cannot
    /// extrapolate: outside the convex hull of the samples every tree
    /// lands in the same boundary leaf, so the jackknife reports
    /// unwarranted confidence there and variance-driven selection never
    /// looks. The corners bound the hull, the standard space-filling
    /// start for active learning. Failed seed points re-enter through
    /// the loop's retry queue, so seeding never blocks on one point; it
    /// substitutes no non-P2 sizes and so draws nothing from the RNG.
    /// Ends by building the primary scan over the live candidates.
    fn seed(&mut self, space: &FeatureSpace) {
        let obs = self.obs;
        let mut pending = corners(self.collective, space);
        let mut seen = 0;
        if let Some(keep) = self.pool.keep_since(&mut seen) {
            pending.retain(keep);
        }
        let seed_span = obs
            .span("learner", "seed")
            .attr("points", pending.len() as u64);
        while !pending.is_empty() {
            if self.evict() {
                if let Some(keep) = self.pool.keep_since(&mut seen) {
                    pending.retain(keep);
                }
                if pending.is_empty() {
                    break;
                }
            }
            // Every wave is a prefix of the order it was planned from.
            let (parallelism, _) = self.collect_wave(&pending, false);
            pending.drain(..parallelism);
        }
        drop(seed_span);
        self.scan = Some(PoolScan::new(&self.pool));
    }

    /// Node eviction, between waves: nodes whose hard failure has set in
    /// leave the allocation, and the candidates it can no longer host
    /// retire, so later waves are scheduled on the survivors only.
    /// Returns whether the allocation shrank.
    fn evict(&mut self) -> bool {
        let Some(rt) = self.fault_rt.as_mut() else {
            return false;
        };
        if !rt.evict_dead(self.stats.wall_us, &mut self.alloc, self.wave_index) {
            return false;
        }
        let max_nodes = self.alloc.len();
        let dropped = self.pool.retire_unless(|c| c.point.nodes <= max_nodes);
        rt.drop_oversized(max_nodes, dropped, self.wave_index);
        true
    }

    /// Model update: the model warm-refits (only trees whose bootstrap
    /// drew a new sample rebuild) and the primary scan repaints only
    /// their columns. Returns the primary ranking, which feeds the stop
    /// check whatever the policy, and the update's host time (µs).
    fn update_model(&mut self) -> (VarianceRanking, f64) {
        let (obs, n_trees) = (self.obs, self.cfg.forest.n_trees);
        let start = Instant::now();
        let changed = {
            let mut fit_span = obs.span("learner", "fit");
            let forest = &self.cfg.forest;
            let changed = refit(&mut self.model, self.collective, &self.collected, forest);
            self.m_trees_refitted.add(changed.len() as u64);
            let reused = n_trees.saturating_sub(changed.len());
            self.m_trees_reused.add(reused as u64);
            fit_span.set_attr("samples", self.collected.len() as u64);
            fit_span.set_attr("trees_refitted", changed.len() as u64);
            fit_span.set_attr("trees_total", n_trees as u64);
            changed
        };
        let ranking = {
            let mut scan_span = obs.span("learner", "variance_scan");
            let model = self.model.as_ref().expect("model fitted above");
            let scan = self.scan.as_mut().expect("seeding builds the scan");
            let (rs, ranking) = scan.rank(&self.pool, model, &changed);
            self.m_cells_recomputed.add(rs.cells_recomputed as u64);
            self.m_cells_reused.add(rs.cells_reused() as u64);
            scan_span.set_attr("cells_total", rs.cells_total as u64);
            scan_span.set_attr("cells_recomputed", rs.cells_recomputed as u64);
            scan_span.set_attr("full", rs.full);
            ranking
        };
        let model_update_us = start.elapsed().as_secs_f64() * 1e6;
        self.model_update_wall_us += model_update_us;
        (ranking, model_update_us)
    }

    /// The log record of an iteration, with the free oracle slowdown
    /// on `eval_points` when the caller has an evaluation set.
    fn record(
        &mut self,
        iteration: usize,
        ranking: &VarianceRanking,
        model_update_us: f64,
        eval_points: Option<&[Point]>,
    ) {
        self.g_cumvar.set(ranking.cumulative);
        self.g_samples.set(self.collected.len() as f64);
        let model = self.model.as_ref().expect("model fitted this iteration");
        let oracle_slowdown = eval_points.map(|pts| {
            self.db
                .average_slowdown(self.collective, pts, |p| model.select(p))
        });
        self.log.push(IterationRecord {
            iteration,
            samples: self.collected.len(),
            wall_us: self.stats.wall_us,
            cumulative_variance: ranking.cumulative,
            model_update_us,
            oracle_slowdown,
            wave_parallelism: self.last_parallelism,
        });
    }

    /// The stop check: the criterion fired (the run converged), or no
    /// candidate is left. The variance detector is only fed when the
    /// previous wave made progress: a wave whose every slot failed
    /// leaves the cumulative variance untouched, and counting that
    /// repeat toward the plateau streak would declare convergence from
    /// faults rather than from information. Fault-free waves always
    /// complete every slot, so the gate is inert there.
    fn should_stop(&mut self, ranking: &VarianceRanking) -> bool {
        let obs = self.obs;
        let mut conv_span = obs.span("learner", "convergence_check");
        let model = self.model.as_ref().expect("model fitted this iteration");
        self.converged = match &mut self.stop {
            Stop::Budget(n) => self.collected.len() >= *n,
            Stop::Variance(v) => self.last_wave_completed != 0 && v.push(ranking.cumulative),
            Stop::Slowdown {
                threshold, points, ..
            } => threshold.check(
                self.db
                    .average_slowdown(self.collective, points, |p| model.select(p)),
            ),
        };
        let stop = self.converged || self.pool.is_empty();
        conv_span.set_attr("cumulative_variance", ranking.cumulative);
        conv_span.set_attr("stop", stop);
        stop
    }

    /// Select: the policy's order for this iteration. Under faults,
    /// points whose retry backoff elapsed re-enter at its head (they
    /// are known-uncertain: their attempt failed outright rather than
    /// measuring anything) and points still backing off sit this wave
    /// out; when every remaining point is backing off, the wave clock
    /// jumps to the next eligibility instead of spinning empty waves.
    /// Guided sampling then periodically promotes a uniformly random
    /// candidate to the head.
    fn select(&mut self, primary: &VarianceRanking) -> Vec<Candidate> {
        let obs = self.obs;
        let mut select_span = obs.span("learner", "select");
        let (mut ordered, update_us) = self.selector.order(
            primary,
            &self.pool,
            &self.collected,
            self.collective,
            &mut self.rng,
        );
        self.model_update_wall_us += update_us;
        if let Some(rt) = self.fault_rt.as_mut() {
            let mut ready = rt.take_ready(self.wave_index);
            let waiting = rt.backing_off();
            ordered.retain(|c| !waiting.contains(c) && !ready.contains(c));
            if ordered.is_empty() && ready.is_empty() {
                if let Some(w) = rt.next_eligible_wave() {
                    self.wave_index = w;
                    ready = rt.take_ready(w);
                }
            }
            for c in ready.into_iter().rev() {
                ordered.insert(0, c);
            }
        }
        debug_assert!(!ordered.is_empty(), "selection produced no candidates");
        if let Some(every) = self.cfg.explore_every {
            // One record per iteration, so the log counts the selections.
            if every > 0 && self.log.len().is_multiple_of(every) && !ordered.is_empty() {
                let pick = self.rng.random_range(0..ordered.len());
                ordered.swap(0, pick);
                self.m_explore.incr();
            }
        }
        select_span.set_attr("candidates", ordered.len() as u64);
        ordered
    }

    /// Collect: one wave from `order` (its head alone for sequential
    /// collection), with every-N-th non-P2 substitution.
    fn collect(&mut self, order: &[Candidate]) {
        let obs = self.obs;
        let mut collect_span = obs.span("learner", "collect");
        let (parallelism, completed) = self.collect_wave(order, true);
        collect_span.set_attr("parallelism", parallelism as u64);
        self.last_parallelism = parallelism;
        self.last_wave_completed = completed;
    }

    /// Plan one wave from the priority-ordered `order` (its head alone
    /// for sequential collection, else the greedy topology-aware
    /// prefix), measure each slot, and account the wave in `stats`. A
    /// slot measures its candidate, or a non-P2 substitute when
    /// `substitute` is set and the injector draws one, under the fault
    /// policy when one is active; the pool retires the P2 candidate,
    /// never the substitute. Returns the wave's parallelism and how
    /// many of its slots produced a sample; the wave is always the
    /// first `parallelism` candidates of `order`.
    fn collect_wave(&mut self, order: &[Candidate], substitute: bool) -> (usize, usize) {
        let (wave, placements): (&[Candidate], Vec<Placement>) = match self.cfg.strategy {
            CollectionStrategy::Sequential => (&order[..1], Vec::new()),
            CollectionStrategy::Parallel => {
                let w = schedule_wave(&self.db.config().cluster.topology, &self.alloc, order);
                debug_assert!(w
                    .placements
                    .iter()
                    .enumerate()
                    .all(|(i, p)| p.candidate_index == i));
                (&order[..w.parallelism()], w.placements)
            }
        };
        debug_assert!(!wave.is_empty());
        let wave_start_us = self.stats.wall_us;
        let mut costs = Vec::with_capacity(wave.len());
        let mut completed = 0usize;
        for (slot, &anchor) in wave.iter().enumerate() {
            let actual = match self.injector.as_mut().filter(|_| substitute) {
                Some(injector) => {
                    let actual = injector.apply(anchor, &mut self.rng);
                    if actual != anchor {
                        self.m_nonp2.incr();
                    }
                    actual
                }
                None => anchor,
            };
            let s = self.db.sample(actual.algorithm, actual.point);
            let placement = placements.get(slot);
            let (cost, ok) = if self.fault_rt.is_some() {
                self.faulty_slot(anchor, actual, s, placement, wave_start_us)
            } else {
                self.collected.push(TrainingSample {
                    point: actual.point,
                    algorithm: actual.algorithm,
                    time_us: s.mean_us,
                });
                // The P2 anchor leaves the pool either way: it was
                // either collected or represented by its non-P2 variant.
                self.pool.retire(&anchor);
                if self.obs.is_enabled() {
                    self.slot_span(placement, actual, wave_start_us, s.wall_us, Vec::new());
                }
                (s.wall_us, true)
            };
            costs.push(cost);
            completed += ok as usize;
        }
        self.stats.add_wave_counting(&costs, completed);
        self.wave_index += 1;
        (wave.len(), completed)
    }

    /// Execute one collection slot under the fault policy: draw the
    /// attempt's faults from its identity-seeded RNG, charge the slot's
    /// wall cost, and either record the robust aggregate as a training
    /// sample (retiring `anchor`) or queue a retry or abandonment.
    /// Retries key on the P2 anchor (the pool identity); the
    /// measurement itself is of the possibly substituted `actual`.
    /// Returns the slot's wall cost and whether a training point was
    /// produced.
    fn faulty_slot(
        &mut self,
        anchor: Candidate,
        actual: Candidate,
        clean: Sample,
        placement: Option<&Placement>,
        wave_start_us: f64,
    ) -> (f64, bool) {
        let rt = self
            .fault_rt
            .as_mut()
            .expect("the fault path has a runtime");
        let attempt = rt.attempt_index(&anchor) + 1;
        let mut rng = rt.attempt_rng(&anchor);
        let out = run_attempt(clean.mean_us, clean.wall_us, &rt.policy, &mut rng);
        rt.record_attempt(&out);
        let outcome = match out.value_us {
            Some(value) => {
                self.collected.push(TrainingSample {
                    point: actual.point,
                    algorithm: actual.algorithm,
                    time_us: value,
                });
                self.pool.retire(&anchor);
                rt.on_success(&anchor);
                "ok"
            }
            None if rt.on_failure(anchor, self.wave_index) => {
                // An abandoned point leaves the pool uncollected.
                self.pool.retire(&anchor);
                "abandoned"
            }
            None => "retry",
        };
        if self.obs.is_enabled() {
            let extra = vec![
                attr("attempt", attempt as u64),
                attr("valid_repeats", out.valid as u64),
                attr("timeouts", out.timeouts as u64),
                attr("failures", out.failures as u64),
                attr("outcome", outcome),
            ];
            self.slot_span(placement, actual, wave_start_us, out.wall_us, extra);
        }
        (out.wall_us, out.value_us.is_some())
    }

    /// Emit one closed sim-timeline span for a collection slot, on a
    /// display lane named after the node range the benchmark occupied
    /// (`"nodes A-B"`). A parallel wave's slot has its [`Placement`];
    /// sequential collection synthesizes a run starting at node 0.
    /// Chrome's trace viewer renders these lanes as concurrent rows,
    /// making wave parallelism visible.
    fn slot_span(
        &self,
        placement: Option<&Placement>,
        c: Candidate,
        wave_start_us: f64,
        cost_us: f64,
        extra: Vec<(String, AttrValue)>,
    ) {
        let (start_node, node_count) = match placement {
            Some(p) => (p.start_node, p.node_count.max(1)),
            None => (0, c.point.nodes.max(1)),
        };
        let track = format!("nodes {}-{}", start_node, start_node + node_count - 1);
        let mut attrs = vec![
            attr("algorithm", format!("{:?}", c.algorithm)),
            attr("nodes", c.point.nodes as u64),
            attr("ppn", c.point.ppn as u64),
            attr("msg_bytes", c.point.msg_bytes),
        ];
        attrs.extend(extra);
        self.obs.span_at(
            "collect",
            "slot",
            &track,
            wave_start_us,
            wave_start_us + cost_us,
            attrs,
        );
    }

    /// Finish: the scan is freed, and the final model catches up on
    /// any wave collected after the last in-loop refit. The
    /// warm-started model is bit-identical to a scratch fit on the
    /// full collection.
    fn finish(mut self) -> TrainingOutcome {
        // The scan's per-cell matrices are not needed past the last
        // ranking; free them before the final fit allocates.
        self.scan = None;
        let final_start = Instant::now();
        let model = {
            let _fit_span = self.obs.span("learner", "final_fit");
            let mut m = self
                .model
                .take()
                .expect("the training loop fits the model at least once");
            m.fit_incremental(&self.collected, &self.cfg.forest);
            m.clear_refit_state();
            m
        };
        self.model_update_wall_us += final_start.elapsed().as_secs_f64() * 1e6;
        self.train_span.set_attr("converged", self.converged);
        self.train_span
            .set_attr("points", self.collected.len() as u64);
        let (faults, fault_events) = match self.fault_rt {
            Some(rt) => (rt.stats, rt.events),
            None => (FaultStats::default(), Vec::new()),
        };
        let test_wall_us = match self.stop {
            Stop::Slowdown { wall_us, .. } => wall_us,
            _ => 0.0,
        };
        TrainingOutcome {
            model,
            log: self.log,
            collected: self.collected,
            converged: self.converged,
            stats: self.stats,
            test_wall_us,
            model_update_wall_us: self.model_update_wall_us,
            host_train_us: self.started.elapsed().as_secs_f64() * 1e6,
            faults,
            fault_events,
            reused_points: self.reused_points,
            prior_points: self.prior_points,
        }
    }
}

/// One span attribute.
fn attr(key: &str, value: impl Into<AttrValue>) -> (String, AttrValue) {
    (key.to_string(), value.into())
}

/// The corners of the feature-space box, per algorithm, without
/// repeats.
fn corners(collective: Collective, space: &FeatureSpace) -> Vec<Candidate> {
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
}

/// Bring `model` up to date with `samples`: a scratch fit the first
/// time, then warm refits that rebuild only the trees whose bootstrap
/// drew an appended sample. Returns the trees that changed.
fn refit(
    model: &mut Option<PerfModel>,
    collective: Collective,
    samples: &[TrainingSample],
    config: &ForestConfig,
) -> Vec<TreeUpdate> {
    match model {
        Some(m) => m.fit_incremental(samples, config),
        None => {
            *model = Some(PerfModel::fit(collective, samples, config));
            TreeUpdate::full_refit(config.n_trees)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RobustAgg;
    use acclaim_dataset::DatasetConfig;
    use std::collections::HashSet;

    fn tiny_db() -> BenchmarkDatabase {
        BenchmarkDatabase::new(DatasetConfig::tiny())
    }

    #[test]
    fn thinning_is_deterministic_and_monotone_in_weight() {
        let rows: Vec<_> = (0u32..200)
            .map(|i| TrainingSample {
                point: Point::new(2 + (i % 7), 2, 64u64 << (i % 10)),
                algorithm: Collective::Bcast.algorithms()[0],
                time_us: 10.0 + f64::from(i),
            })
            .collect();
        let half = thin_priors(rows.clone(), 0.5);
        assert_eq!(
            half,
            thin_priors(rows.clone(), 0.5),
            "must be deterministic"
        );
        assert!(thin_priors(rows.clone(), 1.0).len() == rows.len());
        assert!(thin_priors(rows.clone(), 0.0).is_empty());
        let tenth = thin_priors(rows.clone(), 0.1);
        assert!(tenth.len() < half.len() && half.len() < rows.len());
        // Lower-weight survivors are a subset of higher-weight ones
        // (same hash, lower threshold).
        assert!(tenth.iter().all(|s| half.contains(s)));
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
