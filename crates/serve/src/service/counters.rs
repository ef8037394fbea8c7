//! The service's `serve.*` and `drift.*` metric handles. The
//! `serve.phase.*` histograms belong to the request clock
//! (`phase.rs`), the one place that times a request, and the
//! `serve.cache_*` series to the key map (`index.rs`), the one place
//! that holds serving models.

use acclaim_obs::{Counter, Gauge, Histogram, Obs};

/// Pre-registered metric handles (lock-free after creation).
#[derive(Debug)]
pub(super) struct ServeCounters {
    pub(super) tune_requests: Counter,
    pub(super) coalesced: Counter,
    pub(super) attached: Counter,
    pub(super) cache_served: Counter,
    pub(super) trained: Counter,
    pub(super) retuned: Counter,
    pub(super) completed: Counter,
    pub(super) cancelled: Counter,
    pub(super) failed: Counter,
    pub(super) queries: Counter,
    pub(super) query_defaults: Counter,
    pub(super) queue_depth: Gauge,
    pub(super) active_jobs: Gauge,
    pub(super) query_latency_us: Histogram,
    pub(super) drift_observations: Counter,
    pub(super) drift_unmatched: Counter,
    pub(super) drift_triggered: Counter,
    pub(super) drift_cost_ratio: Histogram,
    pub(super) drift_last_ratio: Gauge,
    pub(super) drift_signatures: Gauge,
}

impl ServeCounters {
    pub(super) fn new(obs: &Obs) -> Self {
        ServeCounters {
            tune_requests: obs.counter("serve.tune_requests"),
            coalesced: obs.counter("serve.coalesced"),
            attached: obs.counter("serve.attached"),
            cache_served: obs.counter("serve.cache_served"),
            trained: obs.counter("serve.trained"),
            retuned: obs.counter("serve.retuned"),
            completed: obs.counter("serve.completed"),
            cancelled: obs.counter("serve.cancelled"),
            failed: obs.counter("serve.failed"),
            queries: obs.counter("serve.queries"),
            query_defaults: obs.counter("serve.query_defaults"),
            queue_depth: obs.gauge("serve.queue_depth"),
            active_jobs: obs.gauge("serve.active_jobs"),
            query_latency_us: obs.histogram("serve.query_latency_us"),
            drift_observations: obs.counter("drift.observations"),
            drift_unmatched: obs.counter("drift.unmatched"),
            drift_triggered: obs.counter("drift.triggered"),
            drift_cost_ratio: obs.histogram("drift.cost_ratio"),
            drift_last_ratio: obs.gauge("drift.last_ratio"),
            drift_signatures: obs.gauge("drift.signatures"),
        }
    }
}
