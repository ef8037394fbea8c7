//! Deterministic load generator: seeded virtual clients drive tune
//! sessions, follow-up rule queries and drift feedback.
//!
//! [`run`] is the one session driver. Each client thread opens its own
//! transport, a function from a [`WireRequest`] to its
//! [`WireResponse`]: [`in_process`] answers through [`handle_request`],
//! the daemon's own dispatch, and `acclaim client --load` uses the Unix
//! socket. Every session fact is read from the replies, so both report
//! the same run. Everything a test asserts on is seed-determined, never
//! wall-clock- or interleaving-determined:
//!
//! * The request pool is built from the seed alone, and its entries
//!   are **pairwise incompatible** (distinct dataset seeds force
//!   distinct environment fingerprints, so signatures never collide or
//!   near-match across pool slots). A session's training inputs are
//!   therefore independent of what other sessions did first.
//! * Session `i` always picks pool slot, priority and query points from
//!   its own seeded RNG stream — thread assignment is round-robin by
//!   session index, so which thread runs a session never changes what
//!   the session asks for.
//! * The report's [`LoadReport::fingerprint`] hashes per-session
//!   outcomes in session order, *excluding* interleaving-dependent
//!   facts (who trained vs. who hit the cache, iteration counts):
//!   two runs with the same seed produce the same fingerprint no
//!   matter how the scheduler interleaved them or which transport
//!   carried them.

use crate::protocol::{handle_request, WireRequest, WireResponse};
use crate::queue::Priority;
use crate::service::{QueryRequest, QuerySource, TuneRequest, TuneService};
use acclaim_core::AcclaimConfig;
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace, Point};
use acclaim_netsim::Fingerprint;
use acclaim_obs::{Histogram, HistogramSnapshot, Obs};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Load-generator shape. Everything is deterministic given `seed`.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Total tune sessions to run.
    pub sessions: usize,
    /// Concurrent virtual clients (threads, one transport each).
    pub clients: usize,
    /// Distinct request-pool slots sessions draw from.
    pub pool: usize,
    /// Master seed for pool construction and per-session draws.
    pub seed: u64,
    /// Rule queries each session issues after its tune completes.
    /// Each selection is then "run" in the simulator and its cost fed
    /// back as a drift observation, so the daemon's `drift.*` family
    /// sees traffic; observations never enter the fingerprint.
    pub queries_per_session: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            sessions: 64,
            clients: 8,
            pool: 16,
            seed: 0,
            queries_per_session: 2,
        }
    }
}

/// What one session observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The session's index (0..sessions).
    pub session: usize,
    /// Which pool slot it drew.
    pub pool_index: usize,
    /// Whether the result came from cache (interleaving-dependent —
    /// excluded from the fingerprint).
    pub cached: bool,
    /// Whether the tune was answered with `Tuned`.
    pub ok: bool,
    /// Whether the result reports convergence.
    pub converged: bool,
    /// Store keys the job touched.
    pub keys: Vec<String>,
    /// Follow-up queries answered by the default heuristic.
    pub default_selections: usize,
    /// Drift observations that matched a served model.
    pub observations: usize,
}

/// The aggregate outcome of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-session outcomes, in session order.
    pub outcomes: Vec<SessionOutcome>,
    /// Rule queries issued.
    pub queries: usize,
    /// Queries answered by the default heuristic instead of a tuned
    /// table (0 when every query targets a tuned signature).
    pub default_selections: usize,
    /// Drift observations that matched a served model.
    pub observations: usize,
    /// Submit→reply latency of every tune session (µs), aggregated
    /// in an obs histogram for bucketed quantiles.
    pub tune_latency: HistogramSnapshot,
    /// Rule-query latency (µs) as seen by the virtual clients.
    pub query_latency: HistogramSnapshot,
}

impl LoadReport {
    /// Every session completed successfully.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.ok)
    }

    /// Every session's result reports convergence.
    pub fn all_converged(&self) -> bool {
        self.outcomes.iter().all(|o| o.converged)
    }

    /// The distinct store keys touched across every session.
    pub fn distinct_keys(&self) -> BTreeSet<String> {
        self.outcomes
            .iter()
            .flat_map(|o| o.keys.iter().cloned())
            .collect()
    }

    /// Seed-determined digest of the run: per-session (index, pool
    /// slot, digest of the store keys, ok) in session order. Identical
    /// across reruns with the same seed regardless of thread
    /// interleaving, and across transports.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        for o in &self.outcomes {
            let mut keys = Fingerprint::new();
            for key in &o.keys {
                keys.write_str(key);
            }
            f.write_u64(o.session as u64);
            f.write_u64(o.pool_index as u64);
            f.write_u64(if o.ok { keys.finish() } else { 0 });
            f.write_u32(u32::from(o.ok));
        }
        f.finish()
    }
}

/// Build the deterministic request pool: `n` pairwise-incompatible
/// tiny tuning problems (distinct dataset seeds ⇒ distinct environment
/// fingerprints ⇒ no signature ever matches across slots).
pub fn request_pool(n: usize, seed: u64) -> Vec<TuneRequest> {
    use acclaim_collectives::Collective;
    (0..n)
        .map(|i| {
            let mut dataset = DatasetConfig::tiny();
            // An injective map keeps slot seeds pairwise distinct for
            // any master seed.
            dataset.seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xACC1;
            let mut config = AcclaimConfig::new(FeatureSpace::tiny());
            config.learner.max_iterations = 40;
            // A loose relative plateau so tiny sessions converge by
            // criterion well within the cap (the default absolute
            // threshold never fires before tiny spaces exhaust).
            config.learner.criterion = acclaim_core::CriterionConfig::CumulativeVariance(
                acclaim_core::VarianceConvergence::relative(4, 0.2),
            );
            TuneRequest {
                dataset,
                config,
                collectives: vec![Collective::ALL[i % Collective::ALL.len()]],
                priority: Priority::Normal,
            }
        })
        .collect()
}

/// The query of a pool slot's collective at `point`, under the slot's
/// dataset and configuration.
pub fn query(slot: &TuneRequest, point: Point) -> QueryRequest {
    QueryRequest {
        dataset: slot.dataset.clone(),
        config: slot.config.clone(),
        collective: slot.collectives[0],
        point,
    }
}

/// The in-process transport: each request is answered by
/// [`handle_request`] on `service`, the dispatch the daemon runs for
/// every line it reads.
pub fn in_process(
    service: &TuneService,
) -> impl FnMut(WireRequest) -> Result<WireResponse, String> + '_ {
    move |request| Ok(handle_request(service, request).0)
}

/// Per-session RNG stream: independent of thread assignment.
fn session_rng(seed: u64, session: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (session as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// What every client thread reads: the shape, the pool, and the
/// client-side latency histograms.
struct Load<'a> {
    config: &'a LoadGenConfig,
    pool: Vec<TuneRequest>,
    tune_latency: Histogram,
    query_latency: Histogram,
}

impl Load<'_> {
    /// Session `session`: tune a seeded pool slot, then query it at
    /// seeded points and feed each selection's simulated cost back.
    fn session<T>(&self, transport: &mut T, session: usize) -> Result<SessionOutcome, String>
    where
        T: FnMut(WireRequest) -> Result<WireResponse, String>,
    {
        let mut rng = session_rng(self.config.seed, session);
        let pool_index = rng.random_range(0..self.pool.len());
        let slot = &self.pool[pool_index];
        let mut request = slot.clone();
        request.priority = match rng.random_range(0..3u32) {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        };
        let started = Instant::now();
        let reply = transport(WireRequest::Tune { request })?;
        self.tune_latency
            .record(started.elapsed().as_secs_f64() * 1e6);
        let (ok, cached, converged, keys) = match reply {
            WireResponse::Tuned {
                cached,
                converged,
                keys,
                ..
            } => (true, cached, converged, keys),
            _ => (false, false, false, Vec::new()),
        };
        let mut outcome = SessionOutcome {
            session,
            pool_index,
            cached,
            ok,
            converged,
            keys,
            default_selections: 0,
            observations: 0,
        };

        let mut db = None;
        let space = &slot.config.space;
        for _ in 0..self.config.queries_per_session {
            let point = Point::new(
                space.nodes[rng.random_range(0..space.nodes.len())],
                space.ppns[rng.random_range(0..space.ppns.len())],
                space.msg_sizes[rng.random_range(0..space.msg_sizes.len())],
            );
            let request = query(slot, point);
            let started = Instant::now();
            let reply = transport(WireRequest::Query {
                request: request.clone(),
            })?;
            self.query_latency
                .record(started.elapsed().as_secs_f64() * 1e6);
            let WireResponse::Selected { response } = reply else {
                continue;
            };
            outcome.default_selections += usize::from(response.source == QuerySource::Default);
            // Close the loop for drift measurement: "run" the selection
            // in the simulator and report what it actually cost.
            let Some(algorithm) = request
                .collective
                .algorithms()
                .iter()
                .copied()
                .find(|a| a.name() == response.algorithm)
            else {
                continue;
            };
            let observed_us = db
                .get_or_insert_with(|| BenchmarkDatabase::new(slot.dataset.clone()))
                .time(algorithm, point);
            if let WireResponse::Drift { sample } = transport(WireRequest::Observe {
                request,
                algorithm: response.algorithm,
                observed_us,
            })? {
                outcome.observations += usize::from(sample.matched);
            }
        }
        Ok(outcome)
    }
}

/// Run the load, blocking until every session finishes. `connect`
/// opens one transport per client thread; sessions are distributed
/// round-robin over `clients` threads, and outcomes come back in
/// session order. A transport error (a broken socket) ends the run
/// with that error; an error reply to a `Tune` is a failed session.
pub fn run<T>(
    config: &LoadGenConfig,
    connect: impl Fn() -> Result<T, String> + Sync,
) -> Result<LoadReport, String>
where
    T: FnMut(WireRequest) -> Result<WireResponse, String>,
{
    let clients = config.clients.max(1);
    // Client-side latency aggregation lives in a recorder local to
    // this run, so it never mixes with the service's own metrics.
    let recorder = Obs::enabled();
    let load = Load {
        config,
        pool: request_pool(config.pool.max(1), config.seed),
        tune_latency: recorder.histogram("loadgen.tune_latency_us"),
        query_latency: recorder.histogram("loadgen.query_latency_us"),
    };
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (load, connect) = (&load, &connect);
                scope.spawn(move || {
                    let mut transport = connect()?;
                    (client..config.sessions)
                        .step_by(clients)
                        .map(|session| load.session(&mut transport, session))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut outcomes: Vec<SessionOutcome> = per_client.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.session);
    let query_latency = load.query_latency.snapshot();
    Ok(LoadReport {
        queries: query_latency.count as usize,
        default_selections: outcomes.iter().map(|o| o.default_selections).sum(),
        observations: outcomes.iter().map(|o| o.observations).sum(),
        outcomes,
        tune_latency: load.tune_latency.snapshot(),
        query_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, TuneService};
    use acclaim_obs::Obs;
    use acclaim_store::Compatibility;

    #[test]
    fn pool_entries_are_pairwise_incompatible() {
        use acclaim_store::ClusterSignature;
        let pool = request_pool(12, 3);
        let sigs: Vec<ClusterSignature> = pool
            .iter()
            .map(|r| {
                ClusterSignature::new(
                    &r.dataset,
                    &r.config.space,
                    r.collectives[0],
                    &r.config.learner.collection,
                )
            })
            .collect();
        for (i, a) in sigs.iter().enumerate() {
            for (j, b) in sigs.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    a.compatibility(b),
                    Compatibility::Incompatible,
                    "pool slots {i} and {j} must not share tuning state"
                );
            }
        }
    }

    #[test]
    fn pool_and_session_draws_are_seed_deterministic() {
        let a = request_pool(8, 42);
        let b = request_pool(8, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.work_fingerprint(), y.work_fingerprint());
        }
        let c = request_pool(8, 43);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.work_fingerprint() != y.work_fingerprint()));
    }

    #[test]
    fn small_load_converges_and_counts_signatures() {
        let dir = std::env::temp_dir().join("acclaim-serve-loadgen-small");
        std::fs::remove_dir_all(&dir).ok();
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let config = LoadGenConfig {
            sessions: 12,
            clients: 4,
            pool: 4,
            seed: 9,
            queries_per_session: 1,
        };
        let report = run(&config, || Ok(in_process(&service))).unwrap();
        assert_eq!(report.outcomes.len(), 12);
        assert!(report.all_ok());
        assert!(report.all_converged());
        assert_eq!(report.queries, 12);
        assert_eq!(
            report.default_selections, 0,
            "every query targets a signature its own session tuned"
        );
        assert_eq!(
            report.observations, 12,
            "every tuned query feeds one matched drift observation"
        );
        assert_eq!(report.tune_latency.count, 12);
        assert_eq!(report.query_latency.count, 12);
        assert!(report.tune_latency.quantile(0.5) > 0.0);
        let drift = service
            .metrics()
            .counters
            .iter()
            .find(|(n, _)| n == "drift.observations")
            .map(|(_, v)| *v);
        assert_eq!(drift, Some(12));
        // Store entries == distinct signatures touched.
        assert_eq!(
            service.shared().len(),
            report.distinct_keys().len(),
            "one store entry per distinct signature"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
