//! Line-delimited JSON wire protocol between clients and the daemon.
//!
//! One request per line, one response per line, in order. The framing
//! is plain `\n` (JSON string escapes keep payloads single-line), so
//! any language with a JSON library and a socket can speak it:
//!
//! ```text
//! → "Stats"
//! ← {"Stats":{"stats":{...}}}
//! → "Shutdown"
//! ← "Bye"
//! ```
//!
//! [`handle_request`] maps one decoded request onto a [`TuneService`];
//! the CLI's daemon loop is a thin socket wrapper around it. `Tune` is
//! synchronous from the client's point of view: the connection blocks
//! until the job completes (coalescing and caching make repeat
//! requests cheap); `Cancel`/`Status` act on job ids returned by
//! `Tuned` responses on *other* connections.

use crate::drift::DriftStatusReport;
use crate::queue::JobStatus;
use crate::service::{
    DriftSample, QueryRequest, QueryResponse, ServiceStats, TuneRequest, TuneService,
};
use acclaim_obs::FlightRecord;
use serde::{Deserialize, Serialize};

/// A decoded client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireRequest {
    /// Ensure a configuration is tuned; respond when done.
    Tune {
        /// The work to ensure.
        request: TuneRequest,
    },
    /// Select an algorithm for one point.
    Query {
        /// The selection to answer.
        request: QueryRequest,
    },
    /// Cancel a job by id.
    Cancel {
        /// Id from a prior `Tuned` response.
        job: u64,
    },
    /// Report a job's status.
    Status {
        /// Id from a prior `Tuned` response.
        job: u64,
    },
    /// Report service activity counters.
    Stats,
    /// Scrape the live metrics as Prometheus-style text plus a JSON
    /// exposition object.
    Metrics,
    /// Dump the most recent flight-recorder records.
    Trace {
        /// Maximum records to return (newest win; oldest-first order).
        last: u64,
    },
    /// Report the drift policy engine's state: the configured band and
    /// every tracked signature's window, arming, and re-tune counts.
    DriftStatus,
    /// Feed back an observed cost for a previously served selection.
    /// Always folds into the drift detector; with a drift band
    /// configured, a drifted signature triggers a warm re-tune.
    Observe {
        /// The query the selection answered.
        request: QueryRequest,
        /// The algorithm that actually ran.
        algorithm: String,
        /// Its observed cost (µs).
        observed_us: f64,
    },
    /// Stop the daemon.
    Shutdown,
}

/// The daemon's reply to one [`WireRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireResponse {
    /// A tune request finished.
    Tuned {
        /// The job's id.
        job: u64,
        /// Served from cache without training.
        cached: bool,
        /// Every trained collective converged by criterion.
        converged: bool,
        /// Total training iterations.
        iterations: u64,
        /// Freshly measured points persisted.
        fresh_points: u64,
        /// Store keys touched, in collective order.
        keys: Vec<String>,
    },
    /// A query's selection.
    Selected {
        /// The response payload.
        response: QueryResponse,
    },
    /// Outcome of a cancel request.
    Cancelled {
        /// The job id the cancel named.
        job: u64,
        /// Whether the cancellation could still take effect.
        effective: bool,
    },
    /// A status report.
    StatusIs {
        /// The job id the status names.
        job: u64,
        /// `queued` / `running` / `done` / `cancelled` / `failed`, or
        /// `unknown` for ids the service never issued.
        state: String,
    },
    /// Service activity counters.
    Stats {
        /// The snapshot.
        stats: ServiceStats,
    },
    /// A metrics scrape.
    Metrics {
        /// Prometheus-style text exposition.
        prometheus: String,
        /// JSON exposition (the `obs-check --metrics-json` contract).
        json: String,
    },
    /// A flight-recorder dump, oldest first.
    Flight {
        /// The records (each also serializes as one JSONL line via
        /// [`acclaim_obs::FlightRecorder::to_jsonl`]).
        records: Vec<FlightRecord>,
    },
    /// The verdict of a drift observation.
    Drift {
        /// Matched/predicted/ratio payload.
        sample: DriftSample,
    },
    /// The drift policy engine's state.
    DriftReport {
        /// Detector configuration plus per-signature windows.
        report: DriftStatusReport,
    },
    /// Acknowledges shutdown; the connection closes after this.
    Bye,
    /// The request failed.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Encode a request as one wire line (no trailing newline).
pub fn encode_request(request: &WireRequest) -> String {
    serde_json::to_string(request).expect("wire requests always serialize")
}

/// Decode one wire line into a request.
pub fn decode_request(line: &str) -> Result<WireRequest, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("bad request: {e}"))
}

/// Encode a response as one wire line (no trailing newline).
pub fn encode_response(response: &WireResponse) -> String {
    serde_json::to_string(response).expect("wire responses always serialize")
}

/// Decode one wire line into a response.
pub fn decode_response(line: &str) -> Result<WireResponse, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("bad response: {e}"))
}

/// Execute one request against `service`. Returns the response and
/// whether the daemon should shut down after sending it.
pub fn handle_request(service: &TuneService, request: WireRequest) -> (WireResponse, bool) {
    match request {
        WireRequest::Tune { request } => {
            let handle = service.submit(request);
            let job = handle.id();
            match handle.wait() {
                JobStatus::Done(r) => (
                    WireResponse::Tuned {
                        job,
                        cached: r.cached,
                        converged: r.converged,
                        iterations: r.iterations as u64,
                        fresh_points: r.fresh_points as u64,
                        keys: r.keys.clone(),
                    },
                    false,
                ),
                JobStatus::Cancelled => (
                    WireResponse::Error {
                        message: format!("job {job} was cancelled"),
                    },
                    false,
                ),
                JobStatus::Failed(message) => (WireResponse::Error { message }, false),
                other => (
                    WireResponse::Error {
                        message: format!("job {job} ended in non-terminal state {other:?}"),
                    },
                    false,
                ),
            }
        }
        WireRequest::Query { request } => (
            WireResponse::Selected {
                response: service.query(&request),
            },
            false,
        ),
        WireRequest::Cancel { job } => (
            WireResponse::Cancelled {
                job,
                effective: service.cancel(job),
            },
            false,
        ),
        WireRequest::Status { job } => (
            WireResponse::StatusIs {
                job,
                state: service
                    .status(job)
                    .map_or_else(|| "unknown".to_string(), |s| s.label().to_string()),
            },
            false,
        ),
        WireRequest::Stats => (
            WireResponse::Stats {
                stats: service.stats(),
            },
            false,
        ),
        WireRequest::Metrics => {
            let snapshot = service.metrics();
            (
                WireResponse::Metrics {
                    prometheus: acclaim_obs::to_prometheus(&snapshot),
                    json: acclaim_obs::to_metrics_json(&snapshot),
                },
                false,
            )
        }
        WireRequest::Trace { last } => (
            WireResponse::Flight {
                records: service.flight_recent(last as usize),
            },
            false,
        ),
        WireRequest::DriftStatus => (
            WireResponse::DriftReport {
                report: service.drift_status(),
            },
            false,
        ),
        WireRequest::Observe {
            request,
            algorithm,
            observed_us,
        } => (
            WireResponse::Drift {
                sample: service.observe(&request, &algorithm, observed_us),
            },
            false,
        ),
        WireRequest::Shutdown => (WireResponse::Bye, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Priority;
    use acclaim_collectives::Collective;
    use acclaim_core::AcclaimConfig;
    use acclaim_dataset::{DatasetConfig, FeatureSpace, Point};

    fn tune_request() -> TuneRequest {
        TuneRequest {
            dataset: DatasetConfig::tiny(),
            config: AcclaimConfig::new(FeatureSpace::tiny()),
            collectives: vec![Collective::Bcast, Collective::Reduce],
            priority: Priority::High,
        }
    }

    fn requests() -> Vec<WireRequest> {
        vec![
            WireRequest::Tune {
                request: tune_request(),
            },
            WireRequest::Query {
                request: QueryRequest {
                    dataset: DatasetConfig::tiny(),
                    config: AcclaimConfig::new(FeatureSpace::tiny()),
                    collective: Collective::Allreduce,
                    point: Point::new(4, 2, 65536),
                },
            },
            WireRequest::Cancel { job: 3 },
            WireRequest::Status { job: 9 },
            WireRequest::Stats,
            WireRequest::DriftStatus,
            WireRequest::Metrics,
            WireRequest::Trace { last: 32 },
            WireRequest::Observe {
                request: QueryRequest {
                    dataset: DatasetConfig::tiny(),
                    config: AcclaimConfig::new(FeatureSpace::tiny()),
                    collective: Collective::Bcast,
                    point: Point::new(8, 4, 1024),
                },
                algorithm: "binomial".into(),
                observed_us: 42.5,
            },
            WireRequest::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip_as_single_lines() {
        for request in requests() {
            let line = encode_request(&request);
            assert!(!line.contains('\n'), "wire lines must be single-line");
            let decoded = decode_request(&line).unwrap();
            assert_eq!(encode_request(&decoded), line);
        }
    }

    fn responses() -> Vec<WireResponse> {
        vec![
            WireResponse::Tuned {
                job: 1,
                cached: false,
                converged: true,
                iterations: 12,
                fresh_points: 34,
                keys: vec!["00ff".into()],
            },
            WireResponse::Selected {
                response: crate::service::QueryResponse {
                    algorithm: "scatter_recursive_doubling_allgather".into(),
                    predicted_us: Some(12.5),
                    source: crate::service::QuerySource::Tuned,
                },
            },
            WireResponse::Cancelled {
                job: 2,
                effective: true,
            },
            WireResponse::StatusIs {
                job: 3,
                state: "running".into(),
            },
            WireResponse::Metrics {
                prometheus: "# TYPE serve_tune_requests counter\nserve_tune_requests 1\n".into(),
                json: "{\"type\":\"metrics\",\"version\":1}".into(),
            },
            WireResponse::Flight {
                records: vec![FlightRecord {
                    id: 7,
                    fingerprint: 0xACC1,
                    class: "normal".into(),
                    outcome: "trained".into(),
                    riders: 2,
                    slow: true,
                    phases: acclaim_obs::PhaseTimings {
                        queue_wait_us: 10.0,
                        probe_us: 5.0,
                        collect_us: 100.0,
                        refit_us: 20.0,
                        write_back_us: 3.0,
                        total_us: 140.0,
                    },
                }],
            },
            WireResponse::Drift {
                sample: DriftSample {
                    matched: true,
                    predicted_us: Some(11.0),
                    ratio: Some(1.2),
                },
            },
            WireResponse::DriftReport {
                report: DriftStatusReport {
                    band: 1.5,
                    enabled: true,
                    min_obs: 16,
                    cooldown_obs: 32,
                    tracked: 1,
                    triggered: 2,
                    completed: 1,
                    suppressed: 0,
                    evicted: 0,
                    signatures: vec![crate::drift::DriftSignatureStatus {
                        key: "00ff00ff00ff00ff".into(),
                        observations: 40,
                        window: 8,
                        mean: 1.7,
                        last_ratio: 1.9,
                        armed: false,
                        in_flight: true,
                        cooldown_left: 12,
                        retunes: 2,
                    }],
                },
            },
            WireResponse::Bye,
            WireResponse::Error {
                message: "multi\nline\ncause".into(),
            },
        ]
    }

    #[test]
    fn responses_round_trip_as_single_lines() {
        for response in responses() {
            let line = encode_response(&response);
            assert!(!line.contains('\n'), "newlines must stay escaped");
            let decoded = decode_response(&line).unwrap();
            assert_eq!(encode_response(&decoded), line);
        }
    }

    /// Every cut of a line short of its end (a read torn mid-line)
    /// decodes to an error instead of panicking or yielding a value.
    #[test]
    fn truncated_lines_are_rejected() {
        fn cuts(line: &str) -> impl Iterator<Item = &str> {
            (0..line.len())
                .filter(|&end| line.is_char_boundary(end))
                .map(|end| &line[..end])
        }
        for line in requests().iter().map(encode_request) {
            for cut in cuts(&line) {
                assert!(decode_request(cut).is_err(), "accepted {cut:?}");
            }
        }
        for line in responses().iter().map(encode_response) {
            for cut in cuts(&line) {
                assert!(decode_response(cut).is_err(), "accepted {cut:?}");
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request("{\"NoSuchOp\":{}}").is_err());
        assert!(decode_response("[1,2,3]").is_err());
    }
}
