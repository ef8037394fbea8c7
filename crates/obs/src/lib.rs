//! `acclaim-obs` — structured tracing and metrics for the ACCLAiM
//! pipeline.
//!
//! ACCLAiM's value claim is a wall-clock budget argument (training time
//! vs. job time, paper Figs. 7/13/14), which makes *attributable* time
//! the repo's most important telemetry. This crate is the single
//! instrumentation layer every other crate records into:
//!
//! * [`recorder::Obs`] — a cheap-to-clone recorder handle. Disabled
//!   handles (the default) reduce every operation to a branch on
//!   `None`, so instrumented code paths cost nothing measurable when
//!   tracing is off; a metrics-only handle keeps counters, gauges and
//!   histograms but drops spans, for long-running processes.
//! * **Spans** ([`span`]) — hierarchical, thread-aware intervals with
//!   attributes. Two timelines coexist: `host` spans are stamped by the
//!   recorder's injectable [`clock::Clock`] (real wall time by default,
//!   a [`clock::ManualClock`] under simulation), while `sim` spans
//!   carry explicit simulated timestamps (e.g. one lane per allocation
//!   node range during parallel collection).
//! * **Metrics** ([`metrics`]) — counters, gauges, and log₂-bucketed
//!   fixed-size histograms. Handles are resolved once; recording is
//!   lock-free atomics, allocation-free on the hot path.
//! * **Exporters** ([`export`]) — JSONL structured events (one
//!   schema-validated object per line), Chrome `trace_event` JSON
//!   (load it in `chrome://tracing` to *see* the parallel-collection
//!   concurrency), and a human terminal summary table.
//! * **Exposition** ([`expose`]) — render a [`metrics::MetricsSnapshot`]
//!   as Prometheus-style text or a JSON object, so a live daemon can be
//!   scraped instead of waiting for its exit report.
//! * **Flight recorder** ([`flight`]) — a fixed-capacity lock-light
//!   ring of recent per-request records (phase timings, outcome, slow
//!   flag) for dump-on-demand diagnostics.
//! * **Schema** ([`schema`]) — the JSONL event contract plus a
//!   validator, also compiled into the `obs-check` binary CI runs over
//!   emitted traces; the metrics JSON exposition and flight dumps have
//!   validators (and `obs-check` modes) of their own.
//! * **Diagnostics** ([`diag`]) — the CLI's leveled stderr helper
//!   (error / warning / progress) honoring `--quiet`.
//!
//! Instrumentation is behaviorally inert by contract: recorders never
//! feed values back into the code they observe, and the workspace's
//! golden tests assert bit-identical training outcomes with tracing on
//! and off.

pub mod clock;
pub mod diag;
pub mod export;
pub mod expose;
pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod schema;
pub mod span;

pub use clock::{Clock, ManualClock, WallClock};
pub use diag::Diag;
pub use expose::{to_metrics_json, to_prometheus};
pub use flight::{FlightRecord, FlightRecorder, PhaseTimings};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use recorder::{AdoptGuard, Obs, TraceSnapshot};
pub use span::{AttrValue, SpanGuard, SpanRecord, Timeline};
