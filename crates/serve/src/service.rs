//! The tuning service: workers, batching, rule serving.
//!
//! [`TuneService`] owns a [`SharedStore`], a [`JobQueue`], and a pool
//! of worker threads. A tune request means "ensure this signature is
//! tuned": if every requested collective already has an exact entry,
//! the cached rules are served without retraining (`serve.cache_served`);
//! identical queued requests are coalesced behind one training run
//! (`serve.coalesced`); otherwise a worker trains through the same
//! probe → warm-start → train → write-back
//! [`acclaim_store::StorePlan`] as [`acclaim_store::tune_with_store`],
//! so a single-session service run is bit-identical to the CLI path by
//! construction. The worker count bounds concurrent tunes.
//! `ServiceInner::run_tune` adds only the daemon's own concerns: the
//! database hook, phase timing and cancellation between collectives;
//! its write-back publishes each entry through [`SharedStore::put`].
//!
//! Rule queries never touch the job queue: [`TuneService::query`]
//! resolves against the [`SharedStore`]'s pre-warmed serving models
//! (rules plus a `FlatForest` snapshot of the entry's forest) under
//! sharded read locks, falling back to the MPICH default heuristic for
//! untuned signatures. Warm queries are sub-millisecond; latencies land
//! in the `serve.query_latency_us` histogram.
//!
//! A popped job is timed by one `RequestClock` (`phase.rs`) and ends
//! through one settle step, `ServiceInner::settle`, whatever its
//! outcome.

mod counters;
mod phase;

use crate::drift::{DriftConfig, DriftDetector, DriftStatusReport};
use crate::index::SharedStore;
use crate::queue::{JobId, JobQueue, JobState, JobStatus, JobTable, Priority, QueuedJob};
use acclaim_collectives::{mpich_default, Collective};
use acclaim_core::{Acclaim, AcclaimConfig, TuningFile};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, Point};
use acclaim_netsim::Fingerprint;
use acclaim_obs::{Diag, FlightRecord, FlightRecorder, MetricsSnapshot, Obs};
use acclaim_store::{ClusterSignature, StorePlan};
use counters::ServeCounters;
use phase::{Phase, PhaseMetrics, RequestClock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A request to ensure a job configuration is tuned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneRequest {
    /// The environment measurements come from.
    pub dataset: DatasetConfig,
    /// Learner configuration and feature space.
    pub config: AcclaimConfig,
    /// Collectives to tune, in order.
    pub collectives: Vec<Collective>,
    /// Queue priority (not part of the work fingerprint: requests
    /// differing only in priority coalesce).
    pub priority: Priority,
}

impl TuneRequest {
    /// Fingerprint of the *work* this request names — used to coalesce
    /// identical requests behind one training run. Serialization-based,
    /// so any config or dataset difference separates the fingerprints.
    pub fn work_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.write_str(&serde_json::to_string(&self.dataset).unwrap_or_default());
        f.write_str(&serde_json::to_string(&self.config).unwrap_or_default());
        for c in &self.collectives {
            f.write_str(c.name());
        }
        f.finish()
    }
}

/// The outcome of a tune job, shared by every coalesced waiter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneResult {
    /// The tuning file, one table per requested collective.
    pub tuning_file: TuningFile,
    /// Store keys of the signatures this job touched, in collective
    /// order.
    pub keys: Vec<String>,
    /// Total training iterations across collectives (0 when served
    /// from cache).
    pub iterations: usize,
    /// Freshly measured points persisted by this job.
    pub fresh_points: usize,
    /// Whether every trained collective converged by criterion (cached
    /// results report whatever the producing run persisted: `true`).
    pub converged: bool,
    /// Whether the result was served from cache without training.
    pub cached: bool,
}

/// A single algorithm selection answered by [`TuneService::query`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The environment the query is about.
    pub dataset: DatasetConfig,
    /// The tuning configuration the rules were trained under.
    pub config: AcclaimConfig,
    /// The collective being invoked.
    pub collective: Collective,
    /// The job's point (nodes, ppn, message size).
    pub point: Point,
}

/// Where a query's selection came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuerySource {
    /// A tuned rule table for this exact signature.
    Tuned,
    /// The MPICH default heuristic (signature not tuned yet).
    Default,
}

/// The answer to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Selected algorithm name.
    pub algorithm: String,
    /// Model-predicted latency (µs) for the selection, when tuned.
    pub predicted_us: Option<f64>,
    /// Selection provenance.
    pub source: QuerySource,
}

/// The verdict of one drift observation ([`TuneService::observe`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSample {
    /// Whether a tuned model covered the signature and the named
    /// algorithm (unmatched observations only bump `drift.unmatched`).
    pub matched: bool,
    /// The model's predicted cost (µs) for the selection, when matched.
    pub predicted_us: Option<f64>,
    /// `observed / predicted` when matched; > 1 means the model was
    /// optimistic, < 1 pessimistic.
    pub ratio: Option<f64>,
}

/// Test/diagnostic hooks invoked at deterministic points of the worker
/// loop. Production configs leave them empty.
#[derive(Clone, Default)]
pub struct ServiceHooks {
    /// Called before each collective trains, with the running job's
    /// id. Tests use this to hold a job mid-run at a deterministic
    /// boundary (e.g. to cancel it).
    pub before_collective: Option<Arc<dyn Fn(JobId) + Send + Sync>>,
    /// Benchmark-environment factory used by training runs. `None`
    /// (production) builds [`BenchmarkDatabase::new`] from the
    /// request's dataset; tests inject a factory to shift the
    /// simulated cluster *under* an unchanged signature — the drift
    /// scenario the detector exists for.
    #[allow(clippy::type_complexity)]
    pub database: Option<Arc<dyn Fn(&DatasetConfig) -> BenchmarkDatabase + Send + Sync>>,
}

impl std::fmt::Debug for ServiceHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHooks")
            .field("before_collective", &self.before_collective.is_some())
            .field("database", &self.database.is_some())
            .finish()
    }
}

/// The store signature `config` trains `collective` under on `dataset`.
fn signature(
    dataset: &DatasetConfig,
    config: &AcclaimConfig,
    collective: Collective,
) -> ClusterSignature {
    ClusterSignature::new(
        dataset,
        &config.space,
        collective,
        &config.learner.collection,
    )
}

/// Marks a queued job as a drift-triggered re-tune and carries what the
/// worker needs to treat it as one: the prior deweight and the detector
/// keys to release when the job terminates.
#[derive(Debug, Clone)]
pub(crate) struct RetuneSpec {
    /// Thinning weight for store rows from the drifted regime.
    pub deweight: f64,
    /// Detector signatures to mark no-longer-in-flight on completion.
    pub keys: Vec<String>,
}

/// XOR-folded into a re-tune's queue fingerprint so re-tunes coalesce
/// only with each other — a client request must never attach to a
/// background re-tune (it would skip the cache fast path), nor ride
/// one (its deweighted warm start is not the client path).
const RETUNE_FINGERPRINT_TAG: u64 = 0x9E37_79B9_7F4A_7C15;

/// Every this-many pops the queue takes its oldest job whatever the
/// priority, so a saturated high-priority stream never parks a low job.
const STARVATION_WINDOW: u64 = 8;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads pulling from the job queue; also the bound on
    /// concurrent tunes.
    pub workers: usize,
    /// Lock shards of the daemon's key map.
    pub shards: usize,
    /// Flight-recorder ring capacity (recent request records kept for
    /// dump-on-demand).
    pub flight_capacity: usize,
    /// When set, a finished request whose end-to-end wall time exceeds
    /// `factor ×` the running median (after a small warm-up) is counted
    /// in `serve.slow_requests` and logged through [`Diag::warn`].
    pub slow_log_factor: Option<f64>,
    /// Stderr diagnostics sink for slow-request lines.
    pub diag: Diag,
    /// Drift policy: when (and whether) observed/predicted excursions
    /// trigger background warm re-tunes. The default band disables
    /// triggering, so a plain service is measurement-only.
    pub drift: DriftConfig,
    /// Serving models held, across all shards. At capacity the least
    /// recently used model is dropped, keeping its signature, and
    /// re-warmed from the store on next touch. `0` (the default) is
    /// unbounded.
    pub cache_capacity: usize,
    /// Deterministic test hooks.
    pub hooks: ServiceHooks,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            shards: 16,
            flight_capacity: 256,
            slow_log_factor: None,
            diag: Diag::default(),
            drift: DriftConfig::default(),
            cache_capacity: 0,
            hooks: ServiceHooks::default(),
        }
    }
}

/// A point-in-time view of service activity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Store keys in the daemon's map.
    pub entries: usize,
    /// Pre-warmed serving models in memory.
    pub cached_models: usize,
    /// Tune requests accepted.
    pub tune_requests: u64,
    /// Jobs finished successfully (including cache-served).
    pub completed: u64,
    /// Jobs that actually trained.
    pub trained: u64,
    /// Jobs served from cache without training.
    pub cache_served: u64,
    /// Requests coalesced behind another identical job.
    pub coalesced: u64,
    /// Requests attached to an identical job already running.
    pub attached: u64,
    /// Drift excursions that triggered a background re-tune.
    pub drift_triggered: u64,
    /// Drift-triggered re-tunes that completed.
    pub retuned: u64,
    /// Serving models evicted by the cache capacity bound.
    pub cache_evicted: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed on I/O errors.
    pub failed: u64,
    /// Rule queries answered.
    pub queries: u64,
    /// Queries answered by the default heuristic.
    pub query_defaults: u64,
    /// Median query latency (µs, bucket-resolution upper bound).
    pub query_latency_p50_us: f64,
}

pub(crate) struct ServiceInner {
    shared: SharedStore,
    queue: JobQueue,
    obs: Obs,
    hooks: ServiceHooks,
    next_id: AtomicU64,
    /// What `Status` can answer for: every live job and the most
    /// recently settled ones, as many as the flight ring keeps.
    jobs: Mutex<JobTable>,
    counters: ServeCounters,
    phase_metrics: PhaseMetrics,
    flight: FlightRecorder,
    slow_log_factor: Option<f64>,
    diag: Diag,
    /// The drift policy engine: per-signature ratio windows and the
    /// trigger state machine. Updated on every `observe`, with or
    /// without telemetry — policy must not be blind when the recorder
    /// is off. Also backs the `drift.ratio.*` gauges.
    drift: DriftDetector,
    /// Fingerprints being processed right now, each with the late
    /// riders that attached after the job left the queue. An identical
    /// submission arriving mid-run attaches here instead of re-running
    /// the tune; the worker settles the list when its job terminates.
    /// Lock order: `inflight` before the queue's internal lock.
    inflight: Mutex<HashMap<u64, Vec<QueuedJob>>>,
}

/// Handle to one submitted job.
#[derive(Clone)]
pub struct JobHandle {
    inner: Arc<ServiceInner>,
    state: Arc<JobState>,
}

impl JobHandle {
    /// The job's id (stable for the service's lifetime).
    pub fn id(&self) -> JobId {
        self.state.id()
    }

    /// The job's current status (non-blocking).
    pub fn status(&self) -> JobStatus {
        self.state.status()
    }

    /// Request cancellation. Queued jobs cancel immediately; running
    /// jobs cancel at the next collective boundary. Returns whether
    /// the request could still take effect.
    pub fn cancel(&self) -> bool {
        self.inner.cancel(self.state.id())
    }

    /// Block until the job reaches a terminal status and return it.
    pub fn wait(&self) -> JobStatus {
        self.state.wait_terminal()
    }

    /// Block until the job has left the queue (running or terminal).
    pub fn wait_started(&self) -> JobStatus {
        self.state.wait_started()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id()).finish()
    }
}

/// The tuning-as-a-service front end. See the module docs.
pub struct TuneService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TuneService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneService")
            .field("entries", &self.inner.shared.len())
            .finish()
    }
}

impl TuneService {
    /// Open the store at `dir`, load its signatures and serving models
    /// in one scan, and start the worker pool.
    pub fn open(dir: impl AsRef<Path>, config: ServeConfig, obs: Obs) -> io::Result<TuneService> {
        let shared = SharedStore::open(dir, config.shards, config.cache_capacity, &obs)?;
        let counters = ServeCounters::new(&obs);
        let phase_metrics = PhaseMetrics::new(&obs);
        let flight = FlightRecorder::new(config.flight_capacity);
        let inner = Arc::new(ServiceInner {
            shared,
            queue: JobQueue::new(STARVATION_WINDOW),
            obs,
            hooks: config.hooks,
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(JobTable::new(flight.capacity())),
            phase_metrics,
            counters,
            flight,
            slow_log_factor: config.slow_log_factor,
            diag: config.diag,
            drift: DriftDetector::new(config.drift),
            inflight: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("acclaim-serve-{i}"))
                    .spawn(move || ServiceInner::worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(TuneService {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Submit a tune request; returns immediately with a handle.
    pub fn submit(&self, request: TuneRequest) -> JobHandle {
        self.inner.counters.tune_requests.incr();
        let state = self.inner.enqueue(request, None);
        JobHandle {
            inner: self.inner.clone(),
            state,
        }
    }

    /// Answer a rule query from a pre-warmed serving model (or the
    /// store, on first touch), falling back to the MPICH default
    /// heuristic.
    pub fn query(&self, request: &QueryRequest) -> QueryResponse {
        let inner = &self.inner;
        let start = std::time::Instant::now();
        let _span = inner.obs.span("serve", "query");
        let sig = signature(&request.dataset, &request.config, request.collective);
        let response = match inner.shared.serving_model(&sig) {
            Some(m) => {
                let algorithm = m.rules.select(request.point);
                let row = request
                    .point
                    .features_with_algorithm(algorithm.index_within_collective());
                QueryResponse {
                    algorithm: algorithm.name().to_string(),
                    predicted_us: Some(m.forest.predict(&row).exp()),
                    source: QuerySource::Tuned,
                }
            }
            None => {
                let algorithm = mpich_default(
                    request.collective,
                    request.point.ranks(),
                    request.point.msg_bytes,
                );
                inner.counters.query_defaults.incr();
                QueryResponse {
                    algorithm: algorithm.name().to_string(),
                    predicted_us: None,
                    source: QuerySource::Default,
                }
            }
        };
        inner.counters.queries.incr();
        inner
            .counters
            .query_latency_us
            .record(start.elapsed().as_secs_f64() * 1e6);
        response
    }

    /// Cancel a job by id. See [`JobHandle::cancel`].
    pub fn cancel(&self, id: JobId) -> bool {
        self.inner.cancel(id)
    }

    /// Look up a job's status by id: `None` for an id never issued, or
    /// for a finished job older than the last `flight_capacity` to
    /// finish.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.inner.jobs.lock().expect("job table lock").get(id);
        state.map(|s| s.status())
    }

    /// A point-in-time activity snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            queue_depth: self.inner.queue.len(),
            entries: self.inner.shared.len(),
            cached_models: self.inner.shared.models(),
            tune_requests: c.tune_requests.get(),
            completed: c.completed.get(),
            trained: c.trained.get(),
            cache_served: c.cache_served.get(),
            coalesced: c.coalesced.get(),
            attached: c.attached.get(),
            drift_triggered: c.drift_triggered.get(),
            retuned: c.retuned.get(),
            cache_evicted: self.inner.shared.evicted(),
            cancelled: c.cancelled.get(),
            failed: c.failed.get(),
            queries: c.queries.get(),
            query_defaults: c.query_defaults.get(),
            query_latency_p50_us: c.query_latency_us.snapshot().quantile(0.5),
        }
    }

    /// Freeze the live metrics (counters, gauges, histograms) without
    /// touching the span log — cheap enough to serve a scrape endpoint
    /// from. Empty when the service's recorder is disabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.obs.metrics_snapshot()
    }

    /// The most recent `n` flight-recorder records, oldest first. The
    /// flight recorder is always on (it is passive and fixed-size), so
    /// this works even with telemetry disabled.
    pub fn flight_recent(&self, n: usize) -> Vec<FlightRecord> {
        self.inner.flight.recent(n)
    }

    /// Feed back an *observed* cost (µs) for a selection this service
    /// previously answered, updating the `drift.*` metric family
    /// (predicted-vs-observed residuals per served signature) and the
    /// drift policy engine.
    ///
    /// With the drift policy disabled (the [`DriftConfig`] default)
    /// observations are measurement-only: they never feed back into
    /// serving, training, or the store, preserving the telemetry
    /// inertness contract. With a trigger band configured, a sustained
    /// excursion enqueues a low-priority warm re-tune for the drifted
    /// signature (see [`TuneService::drift_status`]).
    pub fn observe(
        &self,
        request: &QueryRequest,
        algorithm: &str,
        observed_us: f64,
    ) -> DriftSample {
        self.inner.observe_drift(request, algorithm, observed_us)
    }

    /// A snapshot of the drift policy engine: global trigger counts
    /// plus every tracked signature's window, arm/cooldown state, and
    /// re-tune history. Served over the `DriftStatus` wire verb.
    pub fn drift_status(&self) -> DriftStatusReport {
        self.inner.drift.status()
    }

    /// The shared store (for tests and maintenance tooling).
    pub fn shared(&self) -> &SharedStore {
        &self.inner.shared
    }

    /// Stop accepting work, finish in-flight jobs, cancel everything
    /// still queued, and join the workers. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
        // Anything still queued was never popped: cancel it so waiters
        // unblock.
        for job in self.inner.queue.drain() {
            self.inner.cancel_queued(&job);
        }
    }
}

impl Drop for TuneService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServiceInner {
    /// Admit one request: attach it to an identical job that is running
    /// right now, or queue it. Shared by client submissions
    /// ([`TuneService::submit`]) and the drift engine's self-submitted
    /// re-tunes (`retune: Some`, which also tags the fingerprint so
    /// re-tunes only ever coalesce with each other).
    fn enqueue(&self, request: TuneRequest, retune: Option<RetuneSpec>) -> Arc<JobState> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let state = Arc::new(JobState::new(id));
        self.jobs
            .lock()
            .expect("job table lock")
            .insert(state.clone());
        let fingerprint = match &retune {
            Some(_) => request.work_fingerprint() ^ RETUNE_FINGERPRINT_TAG,
            None => request.work_fingerprint(),
        };
        let job = QueuedJob {
            seq: 0,
            priority: request.priority,
            fingerprint,
            request,
            state: state.clone(),
            submitted: Instant::now(),
            retune,
        };
        // The inflight lock is held across the queue push so an
        // identical job can never slip between "not running" and "in
        // the queue" — the worker registers under the same lock before
        // sweeping the queue for riders.
        let mut inflight = self.inflight.lock().unwrap();
        if let Some(waiters) = inflight.get_mut(&fingerprint) {
            // An identical job is mid-run: ride its result instead of
            // re-running the whole tune.
            state.set(JobStatus::Running);
            self.counters.attached.incr();
            waiters.push(job);
        } else {
            self.push(job);
        }
        state
    }

    /// Queue `job`, or fail it when the service is shutting down.
    fn push(&self, job: QueuedJob) {
        match self.queue.push(job) {
            // Admissions and removals pair `add`/`sub` calls so the
            // gauge is exact under concurrent submitters (a `set` from
            // a racing re-read of `queue.len()` could go backwards).
            Ok(()) => self.counters.queue_depth.add(1.0),
            Err(job) => {
                let failed = JobStatus::Failed("service is shutting down".into());
                self.settle(&job, &[], failed);
            }
        }
    }

    /// Cancel by id: queued jobs finish immediately, running jobs are
    /// flagged and cancel at the next collective boundary.
    fn cancel(&self, id: JobId) -> bool {
        if let Some(job) = self.queue.remove(id) {
            self.cancel_queued(&job);
            return true;
        }
        let state = self.jobs.lock().expect("job table lock").get(id);
        match state {
            Some(s) if !s.status().is_terminal() => {
                s.request_cancel();
                true
            }
            _ => false,
        }
    }

    /// Cancel a job taken out of the queue before any worker saw it.
    fn cancel_queued(&self, job: &QueuedJob) {
        job.state.request_cancel();
        self.settle(job, &[], JobStatus::Cancelled);
        self.counters.queue_depth.sub(1.0);
    }

    /// Move `job` and its `riders` to the terminal `status`: the one
    /// path every job ends through. Each transition is counted, and a
    /// settled job joins the table's window of finished jobs. A drift
    /// re-tune releases its detector keys here: the primary on every
    /// outcome (as a success when `status` is `Done`), a rider only on
    /// failure or cancellation.
    fn settle(&self, job: &QueuedJob, riders: &[QueuedJob], status: JobStatus) {
        let (counter, done) = match &status {
            JobStatus::Done(_) => (&self.counters.completed, true),
            JobStatus::Cancelled => (&self.counters.cancelled, false),
            JobStatus::Failed(_) => (&self.counters.failed, false),
            _ => unreachable!("settle takes terminal statuses"),
        };
        for (i, j) in std::iter::once(job).chain(riders).enumerate() {
            if let Some(spec) = j.retune.as_ref().filter(|_| i == 0 || !done) {
                self.drift.retune_finished(&spec.keys, done);
            }
            if j.state.set_with(status.clone(), || counter.incr()) {
                self.jobs
                    .lock()
                    .expect("job table lock")
                    .retire(j.state.id());
            }
        }
    }

    /// Serve a tune request purely from cache, if every collective has
    /// an exact entry.
    fn serve_cached(&self, request: &TuneRequest) -> Option<TuneResult> {
        let (keys, tables) = request
            .collectives
            .iter()
            .map(|&c| {
                let sig = signature(&request.dataset, &request.config, c);
                let m = self.shared.serving_model(&sig)?;
                Some((sig.key(), m.rules.clone()))
            })
            .collect::<Option<(Vec<_>, Vec<_>)>>()?;
        Some(TuneResult {
            tuning_file: TuningFile {
                collectives: tables,
            },
            keys,
            iterations: 0,
            fresh_points: 0,
            converged: true,
            cached: true,
        })
    }

    /// Train `job` end to end. `Ok(None)` means the job was cancelled
    /// mid-run (nothing persisted for incomplete collectives; completed
    /// ones were already written back). Ends the probe, collect and
    /// write-back phases on `clock`.
    fn run_tune(
        &self,
        job: &QueuedJob,
        clock: &mut RequestClock,
    ) -> io::Result<Option<TuneResult>> {
        let (request, obs) = (&job.request, &self.obs);
        // The test hooks can swap the benchmark database a request sees
        // (to model a mid-run regime shift); production always builds
        // straight from the request's dataset config.
        let db = match &self.hooks.database {
            Some(factory) => factory(&request.dataset),
            None => BenchmarkDatabase::new(request.dataset.clone()),
        };

        clock.restart();
        // Signatures come from the request's dataset, never
        // `db.config()`; a drift re-tune demotes its hits to priors.
        let plan = StorePlan::probe(
            &request.dataset,
            &request.config,
            &request.collectives,
            job.retune.as_ref().map(|spec| spec.deweight),
            Some(|sig: &ClusterSignature| self.shared.probe(sig)),
            obs,
        )?;
        clock.end(
            Phase::Probe,
            vec![
                ("collectives".into(), request.collectives.len().into()),
                ("warm_hits".into(), plan.warmed().into()),
            ],
        );

        let hooks = self.hooks.clone();
        let id = job.state.id();
        let cancel_state = job.state.clone();
        let (tuning, completed) = Acclaim::new(request.config.clone()).tune_while(
            &db,
            &request.collectives,
            obs,
            |c| plan.warm(c),
            move || {
                if let Some(h) = &hooks.before_collective {
                    h(id);
                }
                !cancel_state.is_cancelled()
            },
        );
        // The learner accounts its model-refit wall separately, so the
        // training wall splits into benchmark collection vs. refits.
        let refit_us = tuning
            .reports
            .iter()
            .map(|(_, o)| o.model_update_wall_us)
            .sum();
        clock.end(
            Phase::Collect { refit_us },
            vec![("refit_us".into(), refit_us.into())],
        );

        // Write back whatever completed — even on a cancelled job the
        // finished collectives' fresh measurements are kept; each put
        // also publishes the entry's serving model.
        let written = plan.write_back(&tuning, |entry| self.shared.put(entry).map(drop), obs)?;
        let iterations: usize = tuning.reports.iter().map(|(_, o)| o.log.len()).sum();
        clock.end(
            Phase::WriteBack,
            vec![
                ("iterations".into(), iterations.into()),
                ("fresh_points".into(), written.fresh_points.into()),
            ],
        );
        Ok(completed.then_some(TuneResult {
            converged: tuning.reports.iter().all(|(_, o)| o.converged),
            tuning_file: tuning.tuning_file,
            keys: written.keys,
            iterations,
            fresh_points: written.fresh_points,
            cached: false,
        }))
    }

    fn worker_loop(inner: &Arc<ServiceInner>) {
        while let Some(job) = inner.queue.pop_blocking() {
            inner.counters.queue_depth.sub(1.0);
            inner.counters.active_jobs.add(1.0);
            inner.process_one(job);
            inner.counters.active_jobs.sub(1.0);
        }
    }

    /// Drive one popped job to a terminal status, timing it on one
    /// [`RequestClock`] that ends in the flight ring.
    fn process_one(&self, job: QueuedJob) {
        let mut clock = RequestClock::popped(self, &job);
        if job.state.is_cancelled() {
            self.settle(&job, &[], JobStatus::Cancelled);
            clock.finish("cancelled", 0);
            return;
        }
        // Register this run as in-flight and sweep queued duplicates
        // under one lock, so an identical request arriving from here on
        // attaches to this run instead of re-training (`enqueue` checks
        // the in-flight map before pushing, under the same lock).
        // `or_default` — never `insert` — because two workers can hold
        // same-fingerprint jobs at once (both popped before either
        // swept) and a blind insert would drop the first's riders.
        let mut riders = {
            let mut inflight = self.inflight.lock().unwrap();
            inflight.entry(job.fingerprint).or_default();
            self.queue.take_matching(job.fingerprint)
        };
        self.counters.queue_depth.sub(riders.len() as f64);
        self.counters.coalesced.add(riders.len() as u64);

        let _span = self.obs.span("serve", "job");
        // Fast path: everything already tuned — serve from cache,
        // no training. A drift re-tune skips this: its whole point is
        // to replace what the cache would serve.
        if job.retune.is_none() {
            if let Some(result) = self.serve_cached(&job.request) {
                self.counters.cache_served.incr();
                riders.extend(self.settle_inflight(job.fingerprint));
                self.settle(&job, &riders, JobStatus::Done(Arc::new(result)));
                clock.finish("cached", riders.len() as u64);
                return;
            }
        }

        job.state.set(JobStatus::Running);
        for r in &riders {
            r.state.set(JobStatus::Running);
        }
        let outcome = self.run_tune(&job, &mut clock);

        // Collect clients that attached while the tune ran; they settle
        // with the same outcome as the queue-swept riders.
        riders.extend(self.settle_inflight(job.fingerprint));
        let rider_count = riders.len() as u64;
        let outcome = match outcome {
            Ok(Some(result)) => {
                let label = if job.retune.is_some() {
                    self.counters.retuned.incr();
                    "retuned"
                } else {
                    self.counters.trained.incr();
                    "trained"
                };
                self.settle(&job, &riders, JobStatus::Done(Arc::new(result)));
                label
            }
            Ok(None) => {
                // The primary was cancelled mid-run. Its riders
                // asked for the same work and still want it: any
                // not themselves cancelled go back in the queue.
                self.settle(&job, &[], JobStatus::Cancelled);
                for r in riders {
                    if r.state.is_cancelled() {
                        self.settle(&r, &[], JobStatus::Cancelled);
                    } else {
                        r.state.set(JobStatus::Queued);
                        self.push(r);
                    }
                }
                "cancelled"
            }
            Err(e) => {
                self.settle(&job, &riders, JobStatus::Failed(e.to_string()));
                "failed"
            }
        };
        clock.finish(outcome, rider_count);
    }

    /// Drop `fingerprint`'s in-flight registration and return any late
    /// riders that attached while the job ran. Returns empty when a
    /// concurrent same-fingerprint worker already settled the entry —
    /// its clients got that worker's result, which is fine.
    fn settle_inflight(&self, fingerprint: u64) -> Vec<QueuedJob> {
        self.inflight
            .lock()
            .unwrap()
            .remove(&fingerprint)
            .unwrap_or_default()
    }

    /// See [`TuneService::observe`].
    fn observe_drift(
        &self,
        request: &QueryRequest,
        algorithm: &str,
        observed_us: f64,
    ) -> DriftSample {
        let unmatched = || {
            self.counters.drift_unmatched.incr();
            DriftSample {
                matched: false,
                predicted_us: None,
                ratio: None,
            }
        };
        // A non-finite observation (`+inf`, NaN) would poison the
        // running mean for this signature permanently — reject before
        // any state is touched.
        if !(observed_us.is_finite() && observed_us > 0.0) {
            return unmatched();
        }
        let sig = signature(&request.dataset, &request.config, request.collective);
        let Some(model) = self.shared.serving_model(&sig) else {
            return unmatched();
        };
        let Some(alg) = request
            .collective
            .algorithms()
            .iter()
            .copied()
            .find(|a| a.name() == algorithm)
        else {
            return unmatched();
        };
        let row = request
            .point
            .features_with_algorithm(alg.index_within_collective());
        let predicted_us = model.forest.predict(&row).exp();
        if !(predicted_us.is_finite() && predicted_us > 0.0) {
            return unmatched();
        }
        let ratio = observed_us / predicted_us;
        let c = &self.counters;
        c.drift_observations.incr();
        c.drift_cost_ratio.record(ratio);
        c.drift_last_ratio.set(ratio);
        // The detector runs regardless of telemetry: drift *response*
        // is a serving behavior, not an observability feature. Its
        // signature map is LRU-bounded, so this cannot grow without
        // limit the way the old gauge-only map did.
        let key = sig.key();
        let decision = self.drift.observe(&key, ratio);
        c.drift_signatures.set(self.drift.tracked() as f64);
        if self.obs.is_enabled() {
            // Gauge per *full* store key. Keys are currently 16 hex
            // chars so truncation never bit, but two signatures must
            // never fold into one gauge if the key format widens.
            self.obs
                .set_gauge(&format!("drift.ratio.{key}"), decision.mean);
        }
        if decision.trigger {
            c.drift_triggered.incr();
            self.diag.warn(&format!(
                "drift trigger for {key}: mean cost ratio {:.3} over {} observations — \
                 queueing warm re-tune",
                decision.mean, decision.count,
            ));
            let spec = RetuneSpec {
                deweight: self.drift.config().deweight,
                keys: vec![key],
            };
            let retune = TuneRequest {
                dataset: request.dataset.clone(),
                config: request.config.clone(),
                collectives: vec![request.collective],
                priority: Priority::Low,
            };
            self.enqueue(retune, Some(spec));
        }
        DriftSample {
            matched: true,
            predicted_us: Some(predicted_us),
            ratio: Some(ratio),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_dataset::FeatureSpace;
    use std::sync::Condvar;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("acclaim-serve-service-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Spin until the flight ring holds `n` records. `wait()` returns
    /// when the job result lands, but the worker writes its telemetry
    /// just after — and the flight record is the last write, so once
    /// it lands the histograms and counters are settled too.
    fn settle_flight(service: &TuneService, n: usize) {
        for _ in 0..2000 {
            if service.flight_recent(64).len() >= n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("flight ring never reached {n} records");
    }

    /// A `before_collective` hook that blocks exactly its first call
    /// until the returned gate is opened. With one worker, the first
    /// hook call belongs to the first submitted job, deterministically.
    #[allow(clippy::type_complexity)]
    fn first_call_gate() -> (
        ServiceHooks,
        Arc<(Mutex<bool>, Condvar)>,
        Arc<(Mutex<u32>, Condvar)>,
    ) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(0u32), Condvar::new()));
        let calls = Arc::new(AtomicU64::new(0));
        let hook_gate = gate.clone();
        let hook_entered = entered.clone();
        let hooks = ServiceHooks {
            before_collective: Some(Arc::new(move |_id| {
                if calls.fetch_add(1, Ordering::SeqCst) != 0 {
                    return;
                }
                let (count, cv) = &*hook_entered;
                {
                    let mut c = count.lock().unwrap();
                    *c += 1;
                    cv.notify_all();
                }
                let (open, gcv) = &*hook_gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = gcv.wait(open).unwrap();
                }
            })),
            ..ServiceHooks::default()
        };
        (hooks, gate, entered)
    }

    fn await_entered(entered: &Arc<(Mutex<u32>, Condvar)>) {
        let (count, cv) = &**entered;
        let mut c = count.lock().unwrap();
        while *c == 0 {
            c = cv.wait(c).unwrap();
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (open, cv) = &**gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }

    fn request(seed: u64, collectives: Vec<Collective>) -> TuneRequest {
        let mut dataset = DatasetConfig::tiny();
        dataset.seed = seed;
        let mut config = AcclaimConfig::new(FeatureSpace::tiny());
        config.learner.max_iterations = 12;
        TuneRequest {
            dataset,
            config,
            collectives,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn tune_then_cache_serve_then_query() {
        let dir = temp_dir("roundtrip");
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let req = request(7, vec![Collective::Bcast]);

        let first = service.submit(req.clone()).wait();
        let JobStatus::Done(first) = first else {
            panic!("expected Done, got {first:?}")
        };
        assert!(!first.cached);
        assert!(first.fresh_points > 0);

        // Second identical request: served from cache, same rules.
        let second = service.submit(req.clone()).wait();
        let JobStatus::Done(second) = second else {
            panic!("expected Done")
        };
        assert!(second.cached);
        assert_eq!(second.iterations, 0);
        assert_eq!(second.tuning_file, first.tuning_file);
        assert_eq!(second.keys, first.keys);

        // Queries resolve against the tuned table.
        let q = QueryRequest {
            dataset: req.dataset.clone(),
            config: req.config.clone(),
            collective: Collective::Bcast,
            point: Point::new(2, 2, 1024),
        };
        let resp = service.query(&q);
        assert_eq!(resp.source, QuerySource::Tuned);
        assert!(resp.predicted_us.unwrap() > 0.0);
        let expected = first
            .tuning_file
            .select(Collective::Bcast, q.point)
            .unwrap();
        assert_eq!(resp.algorithm, expected.name());

        // An untuned collective falls back to the MPICH default.
        let q2 = QueryRequest {
            collective: Collective::Allreduce,
            ..q
        };
        let resp2 = service.query(&q2);
        assert_eq!(resp2.source, QuerySource::Default);
        assert!(resp2.predicted_us.is_none());

        let stats = service.stats();
        assert_eq!(stats.tune_requests, 2);
        assert_eq!(stats.trained, 1);
        assert_eq!(stats.cache_served, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.query_defaults, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancellation_mid_collection_frees_the_worker() {
        // One worker. J1 blocks at its collective boundary via the
        // hook; cancelling J1 must free the worker so J2 trains to
        // completion.
        let dir = temp_dir("cancel-worker");
        let (hooks, gate, entered) = first_call_gate();
        let config = ServeConfig {
            workers: 1,
            hooks,
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::enabled()).unwrap();

        let j1 = service.submit(request(1, vec![Collective::Bcast]));
        let j2 = service.submit(request(2, vec![Collective::Allreduce]));

        // Wait until J1 is inside the hook (holding the only worker).
        await_entered(&entered);
        assert!(matches!(j2.status(), JobStatus::Queued));
        assert!(j1.cancel());
        // Open the gate: the hook returns, tune_while sees the flag.
        open_gate(&gate);
        assert!(matches!(j1.wait(), JobStatus::Cancelled));
        // The worker was freed: J2 runs to completion.
        let JobStatus::Done(r2) = j2.wait() else {
            panic!("J2 must complete after J1's cancellation")
        };
        assert!(!r2.cached);
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_queued_requests_coalesce() {
        // One worker; the first job holds the worker while identical
        // requests pile up, then all coalesce behind one training run.
        let dir = temp_dir("coalesce");
        let (hooks, gate, entered) = first_call_gate();
        let config = ServeConfig {
            workers: 1,
            hooks,
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::enabled()).unwrap();

        let _blocker = service.submit(request(1, vec![Collective::Bcast]));
        await_entered(&entered);
        // Three identical requests queue up behind the blocker.
        let same = request(2, vec![Collective::Reduce]);
        let handles: Vec<_> = (0..3).map(|_| service.submit(same.clone())).collect();
        open_gate(&gate);
        let results: Vec<_> = handles
            .iter()
            .map(|h| match h.wait() {
                JobStatus::Done(r) => r,
                other => panic!("expected Done, got {other:?}"),
            })
            .collect();
        // All three share one result object (same training run).
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        let stats = service.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.trained, 2, "blocker + one coalesced run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_rejects_new_ones() {
        let dir = temp_dir("shutdown");
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::disabled()).unwrap();
        service.submit(request(1, vec![Collective::Bcast])).wait();
        service.shutdown();
        let late = service.submit(request(2, vec![Collective::Bcast]));
        assert!(matches!(late.wait(), JobStatus::Failed(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_phase_and_drift_telemetry_cover_the_request_lifecycle() {
        let dir = temp_dir("telemetry");
        // A zero factor makes everything past the warm-up "slow",
        // exercising the counter without wall-clock assumptions.
        let config = ServeConfig {
            workers: 1,
            slow_log_factor: Some(0.0),
            diag: Diag::new(true),
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::enabled()).unwrap();
        let req = request(11, vec![Collective::Bcast]);
        for _ in 0..10 {
            let done = service.submit(req.clone()).wait();
            assert!(matches!(done, JobStatus::Done(_)));
        }
        settle_flight(&service, 10);

        // Flight ring: one record per request, trained first, then
        // cache hits; every record carries a positive total.
        let records = service.flight_recent(16);
        assert_eq!(records.len(), 10);
        assert_eq!(records[0].outcome, "trained");
        assert!(records[1..].iter().all(|r| r.outcome == "cached"));
        assert!(records.iter().all(|r| r.phases.total_us > 0.0));
        assert!(records[0].phases.collect_us > 0.0);
        assert!(records[0].phases.write_back_us > 0.0);
        // The dump validates against the flight schema.
        acclaim_obs::schema::validate_flight_records(&FlightRecorder::to_jsonl(&records)).unwrap();

        // Slow log: with factor 0 every request past the 8-sample
        // warm-up trips the threshold.
        let snapshot = service.metrics();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert!(counter("serve.slow_requests").unwrap_or(0) >= 1);
        let hist = |name: &str| {
            snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap()
        };
        assert_eq!(hist("serve.phase.total_us").count, 10);
        assert_eq!(hist("serve.phase.queue_wait_us").count, 10);
        assert_eq!(hist("serve.phase.collect_us").count, 1);

        // Drift: a matched observation records a ratio; an unmatched
        // algorithm only bumps drift.unmatched.
        let q = QueryRequest {
            dataset: req.dataset.clone(),
            config: req.config.clone(),
            collective: Collective::Bcast,
            point: Point::new(2, 2, 1024),
        };
        let selected = service.query(&q);
        let sample = service.observe(&q, &selected.algorithm, 25.0);
        assert!(sample.matched);
        assert!(sample.ratio.unwrap() > 0.0);
        let miss = service.observe(&q, "no_such_algorithm", 25.0);
        assert!(!miss.matched);
        let snapshot = service.metrics();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("drift.observations"), Some(1));
        assert_eq!(counter("drift.unmatched"), Some(1));
        assert!(snapshot
            .gauges
            .iter()
            .any(|(n, _)| n.starts_with("drift.ratio.")));

        // Gauges settle: nothing queued or running after the waits.
        let gauge = |name: &str| {
            snapshot
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge("serve.queue_depth"), Some(0.0));
        assert_eq!(gauge("serve.active_jobs"), Some(0.0));
        assert_eq!(gauge("serve.cache_size"), Some(1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_disabled_service_still_records_flight_but_never_slow() {
        let dir = temp_dir("telemetry-off");
        let config = ServeConfig {
            slow_log_factor: Some(0.0),
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::disabled()).unwrap();
        let req = request(12, vec![Collective::Reduce]);
        for _ in 0..10 {
            service.submit(req.clone()).wait();
        }
        settle_flight(&service, 10);
        let records = service.flight_recent(16);
        assert_eq!(records.len(), 10, "flight recording is obs-independent");
        assert!(
            records.iter().all(|r| !r.slow),
            "disabled metrics keep the median empty, so nothing is ever slow"
        );
        assert!(service.metrics().counters.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_ratio_gauges_use_the_full_signature_key() {
        // Regression: the gauge name used to truncate the signature
        // key, which would fold distinct signatures into one gauge if
        // the key format ever widened. Two signatures must always get
        // two gauges, each suffixed with its *full* store key.
        let dir = temp_dir("drift-gauge-keys");
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let mut expected = Vec::new();
        for seed in [1, 2] {
            let req = request(seed, vec![Collective::Bcast]);
            assert!(matches!(
                service.submit(req.clone()).wait(),
                JobStatus::Done(_)
            ));
            let q = QueryRequest {
                dataset: req.dataset.clone(),
                config: req.config.clone(),
                collective: Collective::Bcast,
                point: Point::new(2, 2, 1024),
            };
            let selected = service.query(&q);
            assert!(service.observe(&q, &selected.algorithm, 20.0).matched);
            let sig = ClusterSignature::new(
                &req.dataset,
                &req.config.space,
                Collective::Bcast,
                &req.config.learner.collection,
            );
            expected.push(format!("drift.ratio.{}", sig.key()));
        }
        assert_ne!(expected[0], expected[1]);
        let snapshot = service.metrics();
        let ratio_gauges: Vec<&String> = snapshot
            .gauges
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("drift.ratio."))
            .collect();
        assert_eq!(ratio_gauges.len(), 2, "one gauge per signature");
        for name in &expected {
            assert!(
                ratio_gauges.contains(&name),
                "missing full-key gauge {name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_observations_never_touch_drift_state() {
        // Regression: `observed_us = +inf` used to pass the `> 0.0`
        // check and poison the running mean permanently.
        let dir = temp_dir("drift-finite");
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let req = request(3, vec![Collective::Bcast]);
        assert!(matches!(
            service.submit(req.clone()).wait(),
            JobStatus::Done(_)
        ));
        let q = QueryRequest {
            dataset: req.dataset.clone(),
            config: req.config.clone(),
            collective: Collective::Bcast,
            point: Point::new(2, 2, 1024),
        };
        let algorithm = service.query(&q).algorithm;
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -5.0] {
            let sample = service.observe(&q, &algorithm, bad);
            assert!(!sample.matched, "observed_us = {bad} must be rejected");
            assert!(sample.ratio.is_none());
        }
        let report = service.drift_status();
        assert!(
            report.signatures.is_empty(),
            "rejected observations must leave no detector state"
        );
        let snapshot = service.metrics();
        let observations = snapshot
            .counters
            .iter()
            .find(|(n, _)| n == "drift.observations")
            .map_or(0, |(_, v)| *v);
        assert_eq!(observations, 0);

        // A finite observation still lands normally afterwards.
        assert!(service.observe(&q, &algorithm, 25.0).matched);
        assert_eq!(service.drift_status().signatures.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_eviction_rewarms_from_store_bit_identically() {
        // Capacity 1 on one shard: tuning a second signature evicts
        // the first serving model. A later query must re-warm it from
        // the store and predict bit-identically — the cache is an
        // accelerator, never a source of truth.
        let dir = temp_dir("cache-evict");
        let config = ServeConfig {
            shards: 1,
            cache_capacity: 1,
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::enabled()).unwrap();
        let req_a = request(1, vec![Collective::Bcast]);
        let req_b = request(2, vec![Collective::Bcast]);
        assert!(matches!(
            service.submit(req_a.clone()).wait(),
            JobStatus::Done(_)
        ));
        let q = QueryRequest {
            dataset: req_a.dataset.clone(),
            config: req_a.config.clone(),
            collective: Collective::Bcast,
            point: Point::new(2, 2, 4096),
        };
        let before = service.query(&q);
        assert_eq!(before.source, QuerySource::Tuned);

        // Tuning B's signature takes the single cache slot from A.
        assert!(matches!(service.submit(req_b).wait(), JobStatus::Done(_)));
        let stats = service.stats();
        assert!(stats.cache_evicted >= 1, "capacity 1 must evict");
        assert_eq!(stats.cached_models, 1, "cache stays within capacity");

        // Re-querying A re-warms from the store, bit-identically.
        let after = service.query(&q);
        assert_eq!(after.source, QuerySource::Tuned);
        assert_eq!(after.algorithm, before.algorithm);
        assert_eq!(
            after.predicted_us.unwrap().to_bits(),
            before.predicted_us.unwrap().to_bits(),
            "re-warmed prediction must be bit-identical"
        );
        assert_eq!(service.stats().cached_models, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn late_identical_requests_attach_to_the_running_job() {
        // Regression: a request identical to a job *already running*
        // used to re-run the whole tune (`take_matching` only sweeps
        // the queue at pop time). It must attach to the running job
        // and share its result object.
        let dir = temp_dir("inflight-attach");
        let (hooks, gate, entered) = first_call_gate();
        let config = ServeConfig {
            workers: 1,
            hooks,
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::enabled()).unwrap();

        let req = request(1, vec![Collective::Bcast]);
        let primary = service.submit(req.clone());
        // The hook blocks inside run_tune, *after* the worker
        // registered the fingerprint as in-flight.
        await_entered(&entered);
        let late: Vec<_> = (0..2).map(|_| service.submit(req.clone())).collect();
        for h in &late {
            assert!(
                matches!(h.status(), JobStatus::Running),
                "a late duplicate attaches immediately instead of queueing"
            );
        }
        open_gate(&gate);
        let JobStatus::Done(first) = primary.wait() else {
            panic!("primary must complete")
        };
        for h in &late {
            let JobStatus::Done(r) = h.wait() else {
                panic!("attached rider must complete")
            };
            assert!(Arc::ptr_eq(&first, &r), "riders share the primary's result");
        }
        let stats = service.stats();
        assert_eq!(stats.trained, 1, "the tune ran exactly once");
        assert_eq!(stats.attached, 2);
        assert_eq!(stats.coalesced, 0, "nothing was swept from the queue");
        assert_eq!(stats.completed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_forgets_settled_jobs_beyond_the_flight_window() {
        // The job table keeps every live job and the last
        // `flight_capacity` settled ones. One worker is held mid-run by
        // the hook while the other settles ten tunes.
        let dir = temp_dir("job-window");
        let (hooks, gate, entered) = first_call_gate();
        let config = ServeConfig {
            workers: 2,
            flight_capacity: 4,
            hooks,
            ..ServeConfig::default()
        };
        let service = TuneService::open(&dir, config, Obs::disabled()).unwrap();
        let held = service.submit(request(1, vec![Collective::Bcast]));
        await_entered(&entered);
        let req = request(2, vec![Collective::Reduce]);
        let ids: Vec<JobId> = (0..10)
            .map(|_| {
                let handle = service.submit(req.clone());
                assert!(matches!(handle.wait(), JobStatus::Done(_)));
                handle.id()
            })
            .collect();
        assert!(
            service.status(ids[0]).is_none(),
            "the first id reads unknown"
        );
        for &id in &ids[6..] {
            assert!(matches!(service.status(id), Some(JobStatus::Done(_))));
        }
        assert!(
            matches!(service.status(held.id()), Some(JobStatus::Running)),
            "a running job is never dropped"
        );
        open_gate(&gate);
        assert!(matches!(held.wait(), JobStatus::Done(_)));
        assert!(matches!(
            service.status(held.id()),
            Some(JobStatus::Done(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn work_fingerprint_separates_different_work_and_ignores_priority() {
        let a = request(1, vec![Collective::Bcast]);
        let mut b = a.clone();
        b.priority = Priority::High;
        assert_eq!(a.work_fingerprint(), b.work_fingerprint());
        let mut c = a.clone();
        c.dataset.seed = 2;
        assert_ne!(a.work_fingerprint(), c.work_fingerprint());
        let mut d = a.clone();
        d.collectives = vec![Collective::Allgather];
        assert_ne!(a.work_fingerprint(), d.work_fingerprint());
        let mut e = a.clone();
        e.config.learner.max_iterations += 1;
        assert_ne!(a.work_fingerprint(), e.work_fingerprint());
    }
}
