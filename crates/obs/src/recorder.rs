//! The recorder handle threaded through the pipeline.
//!
//! [`Obs`] is a cheap-to-clone handle around an optional shared
//! recorder. The disabled handle (`Obs::disabled()`, also `Default`) is
//! what every API takes when the caller doesn't care about tracing:
//! every operation short-circuits on the `None` and the instrumented
//! code never branches on enablement itself. An enabled handle collects
//! spans and metrics into shared state that [`Obs::snapshot`] freezes
//! for export; a metrics-only handle ([`Obs::metrics_only`]) keeps the
//! metrics and drops every span, so its memory stays bounded however
//! long the process runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::clock::{Clock, WallClock};
use crate::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use crate::span::{AttrValue, OpenSpan, SpanGuard, SpanRecord, Timeline};

#[derive(Debug)]
struct Inner {
    clock: Box<dyn Clock>,
    /// False for a metrics-only recorder, whose span log stays empty.
    keep_spans: bool,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: Registry,
    next_id: AtomicU64,
    /// Innermost open guarded span per thread (the parent for the next
    /// one opened on that thread).
    current: Mutex<HashMap<ThreadId, Vec<u64>>>,
}

/// Recorder handle. Clone freely; clones share the recorder.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A no-op recorder: spans and metrics vanish at near-zero cost.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A live recorder stamping host spans with real wall time.
    pub fn enabled() -> Self {
        Obs::with_clock(Box::new(WallClock::new()))
    }

    /// A live recorder with an injected clock (e.g. a
    /// [`crate::clock::ManualClock`] driven by a simulation or test).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Obs::live(clock, true)
    }

    /// A live recorder that keeps counters, gauges and histograms but
    /// drops spans: for a long-running process that reports metrics
    /// and writes no trace.
    pub fn metrics_only() -> Self {
        Obs::live(Box::new(WallClock::new()), false)
    }

    fn live(clock: Box<dyn Clock>, keep_spans: bool) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                clock,
                keep_spans,
                spans: Mutex::new(Vec::new()),
                metrics: Registry::default(),
                next_id: AtomicU64::new(1),
                current: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// Whether anything (metrics, at least) is being recorded. Use only
    /// to skip *preparing* expensive attributes — recording calls are
    /// already no-ops when disabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Recorder-clock time (µs); 0.0 when disabled.
    pub fn now_us(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.clock.now_us())
    }

    /// Open a guarded host-timeline span. The innermost open span on
    /// this thread becomes its parent; dropping the guard closes it.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        let open = self.span_log().map(|inner| {
            let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
            let tid = std::thread::current().id();
            let mut current = inner.current.lock().expect("span stack lock");
            let stack = current.entry(tid).or_default();
            let parent = stack.last().copied();
            stack.push(id);
            OpenSpan {
                id,
                parent,
                name,
                cat,
                start_us: inner.clock.now_us(),
                attrs: Vec::new(),
            }
        });
        SpanGuard { obs: self, open }
    }

    /// Record a closed sim-timeline span with explicit stamps and an
    /// explicit display lane (e.g. `"nodes 0-3"` for a collection
    /// slot). Explicit spans have no thread-inferred parent.
    pub fn span_at(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        start_us: f64,
        end_us: f64,
        attrs: Vec<(String, AttrValue)>,
    ) {
        self.explicit_span(Timeline::Sim, cat, name, track, start_us, end_us, attrs);
    }

    /// Record a closed host-timeline span with explicit stamps and an
    /// explicit display lane (e.g. `"req 17"`). For intervals measured
    /// retroactively by the caller — queue waits, request phases —
    /// where no guard can stay alive across threads. Stamps must come
    /// from this recorder's clock ([`Obs::now_us`]).
    pub fn host_span_at(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        start_us: f64,
        end_us: f64,
        attrs: Vec<(String, AttrValue)>,
    ) {
        self.explicit_span(Timeline::Host, cat, name, track, start_us, end_us, attrs);
    }

    #[allow(clippy::too_many_arguments)]
    fn explicit_span(
        &self,
        timeline: Timeline,
        cat: &'static str,
        name: &str,
        track: &str,
        start_us: f64,
        end_us: f64,
        attrs: Vec<(String, AttrValue)>,
    ) {
        let Some(inner) = self.span_log() else { return };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.spans.lock().expect("span log lock").push(SpanRecord {
            id,
            parent: None,
            name: name.to_string(),
            cat: cat.to_string(),
            track: track.to_string(),
            timeline,
            start_us,
            end_us: end_us.max(start_us),
            attrs,
        });
    }

    /// The innermost open guarded span on this thread, if spans are
    /// kept. Hand it to [`Obs::adopt`] on another thread, so the spans
    /// opened there nest under it.
    pub fn current_span(&self) -> Option<u64> {
        let inner = self.span_log()?;
        let current = inner.current.lock().expect("span stack lock");
        current.get(&std::thread::current().id())?.last().copied()
    }

    /// Make `parent` the innermost open span on this thread until the
    /// guard drops: the spans opened here meanwhile nest under it. For
    /// work a caller hands to another thread, such as a pool map's
    /// item, with `parent` read by [`Obs::current_span`] on the
    /// caller's thread. `None` changes nothing.
    pub fn adopt(&self, parent: Option<u64>) -> AdoptGuard<'_> {
        let adopted = self.span_log().zip(parent);
        if let Some((inner, id)) = adopted {
            let mut current = inner.current.lock().expect("span stack lock");
            let stack = current.entry(std::thread::current().id()).or_default();
            stack.push(id);
        }
        AdoptGuard { adopted }
    }

    /// Take `id` off this thread's span stack.
    fn pop_current(inner: &Inner, id: u64) {
        let tid = std::thread::current().id();
        let mut current = inner.current.lock().expect("span stack lock");
        if let Some(stack) = current.get_mut(&tid) {
            // Guards normally drop innermost-first; tolerate
            // out-of-order drops by removing wherever the id sits.
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                current.remove(&tid);
            }
        }
    }

    pub(crate) fn close_span(&self, open: OpenSpan) {
        let Some(inner) = &self.inner else { return };
        let end_us = inner.clock.now_us();
        let tid = std::thread::current().id();
        Obs::pop_current(inner, open.id);
        inner.spans.lock().expect("span log lock").push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name.to_string(),
            cat: open.cat.to_string(),
            track: format!("{:?}", tid),
            timeline: Timeline::Host,
            start_us: open.start_us,
            end_us: end_us.max(open.start_us),
            attrs: open.attrs,
        });
    }

    /// The recorder, if it keeps spans.
    fn span_log(&self) -> Option<&Inner> {
        self.inner.as_deref().filter(|i| i.keep_spans)
    }

    /// Handle to the counter `name` (inert when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.metrics.counter(name)))
    }

    /// Handle to the gauge `name` (inert when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.metrics.gauge(name)))
    }

    /// Handle to the histogram `name` (inert when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.metrics.histogram(name)))
    }

    /// One-shot counter bump (for cold paths; hot paths should hold a
    /// [`Counter`] handle).
    pub fn incr_counter(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// One-shot gauge store.
    pub fn set_gauge(&self, name: &str, v: f64) {
        if self.inner.is_some() {
            self.gauge(name).set(v);
        }
    }

    /// One-shot histogram observation.
    pub fn record_hist(&self, name: &str, v: f64) {
        if self.inner.is_some() {
            self.histogram(name).record(v);
        }
    }

    /// Freeze only the metrics — no span clone, so it stays cheap
    /// enough to serve a live scrape endpoint from while the span log
    /// keeps growing.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |i| i.metrics.snapshot())
    }

    /// Freeze everything recorded so far. Spans sort by
    /// `(start_us, id)` so exports are deterministic under a manual
    /// clock; open guarded spans are not included.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let mut spans = inner.spans.lock().expect("span log lock").clone();
        spans.sort_by(|a, b| {
            a.start_us
                .partial_cmp(&b.start_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        TraceSnapshot {
            clock: inner.clock.name(),
            spans,
            metrics: inner.metrics.snapshot(),
        }
    }
}

/// An adopted parent span (see [`Obs::adopt`]); dropping it takes the
/// span off this thread's stack again.
#[derive(Debug)]
#[must_use = "the adopted parent is dropped at once"]
pub struct AdoptGuard<'a> {
    adopted: Option<(&'a Inner, u64)>,
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, id)) = self.adopted {
            Obs::pop_current(inner, id);
        }
    }
}

/// Frozen copy of a recorder's spans and metrics.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Name of the clock that stamped host spans (`"wall"`,
    /// `"manual"`; empty for the default snapshot).
    pub clock: &'static str,
    /// Closed spans sorted by `(start_us, id)`.
    pub spans: Vec<SpanRecord>,
    /// All metrics at snapshot time.
    pub metrics: MetricsSnapshot,
}

impl TraceSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn disabled_recorder_records_nothing() {
        let obs = Obs::disabled();
        {
            let _g = obs.span("t", "outer").attr("k", 1u64);
        }
        obs.span_at("t", "slot", "nodes 0-1", 0.0, 5.0, Vec::new());
        obs.incr_counter("c", 3);
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn guarded_spans_nest_per_thread() {
        let clock = ManualClock::new();
        let obs = Obs::with_clock(Box::new(clock.clone()));
        {
            let _outer = obs.span("t", "outer");
            clock.set_us(10.0);
            {
                let _inner = obs.span("t", "inner").attr("i", 7u64);
                clock.set_us(15.0);
            }
            clock.set_us(20.0);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.clock, "manual");
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((outer.start_us, outer.end_us), (0.0, 20.0));
        assert_eq!((inner.start_us, inner.end_us), (10.0, 15.0));
        assert_eq!(inner.attrs, vec![("i".to_string(), AttrValue::U64(7))]);
        assert_eq!(outer.timeline, Timeline::Host);
    }

    #[test]
    fn adopted_parent_nests_spans_on_another_thread() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        {
            let _outer = obs.span("t", "outer");
            let parent = obs.current_span();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _adopted = obs.adopt(parent);
                    let _inner = obs.span("t", "inner");
                });
                s.spawn(|| {
                    let _orphan = obs.span("t", "orphan");
                });
            });
            // Adopting on the caller's own thread leaves its stack as
            // it was once the guard drops.
            drop(obs.adopt(parent));
            assert_eq!(obs.current_span(), parent);
        }
        assert_eq!(obs.current_span(), None);
        let snap = obs.snapshot();
        let find = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(find("outer").parent, None);
        assert_eq!(find("inner").parent, Some(find("outer").id));
        assert_eq!(find("orphan").parent, None);
        assert_eq!(Obs::disabled().current_span(), None);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        {
            let _outer = obs.span("t", "outer");
            for _ in 0..2 {
                let _child = obs.span("t", "child");
            }
        }
        let snap = obs.snapshot();
        let outer_id = snap.spans.iter().find(|s| s.name == "outer").unwrap().id;
        let parents: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "child")
            .map(|s| s.parent)
            .collect();
        assert_eq!(parents, vec![Some(outer_id), Some(outer_id)]);
    }

    #[test]
    fn explicit_spans_are_sim_timeline_with_track() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        obs.span_at(
            "collect",
            "slot",
            "nodes 4-7",
            100.0,
            250.0,
            vec![("bytes".to_string(), AttrValue::U64(1024))],
        );
        let snap = obs.snapshot();
        let s = &snap.spans[0];
        assert_eq!(s.timeline, Timeline::Sim);
        assert_eq!(s.track, "nodes 4-7");
        assert_eq!(s.parent, None);
        assert_eq!((s.start_us, s.end_us), (100.0, 250.0));
    }

    #[test]
    fn spans_from_spawned_threads_are_recorded() {
        let obs = Obs::enabled();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    let _g = obs.span("t", "worker").attr("i", i as u64);
                    obs.incr_counter("work", 1);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 4);
        // Spawned-thread spans have no cross-thread parent.
        assert!(snap.spans.iter().all(|s| s.parent.is_none()));
        assert_eq!(snap.metrics.counters, vec![("work".to_string(), 4)]);
        // Distinct threads land on distinct tracks.
        let tracks: std::collections::BTreeSet<_> =
            snap.spans.iter().map(|s| s.track.clone()).collect();
        assert_eq!(tracks.len(), 4);
    }

    #[test]
    fn host_span_at_lands_on_the_host_timeline() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        obs.host_span_at(
            "serve",
            "queue_wait",
            "req 17",
            10.0,
            25.0,
            vec![("request".to_string(), AttrValue::U64(17))],
        );
        // Inverted stamps clamp to an empty interval instead of
        // corrupting the trace.
        obs.host_span_at("serve", "phase", "req 17", 30.0, 20.0, Vec::new());
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let s = &snap.spans[0];
        assert_eq!(s.timeline, Timeline::Host);
        assert_eq!(s.track, "req 17");
        assert_eq!(s.parent, None);
        assert_eq!((s.start_us, s.end_us), (10.0, 25.0));
        assert_eq!((snap.spans[1].start_us, snap.spans[1].end_us), (30.0, 30.0));
    }

    #[test]
    fn metrics_only_recorder_keeps_metrics_and_drops_spans() {
        let obs = Obs::metrics_only();
        assert!(obs.is_enabled());
        {
            let _g = obs.span("t", "outer").attr("k", 1u64);
            let _inner = obs.span("t", "inner");
        }
        obs.span_at("t", "slot", "nodes 0-1", 0.0, 5.0, Vec::new());
        obs.host_span_at("serve", "request", "req 1", 1.0, 2.0, Vec::new());
        obs.incr_counter("c", 3);
        obs.set_gauge("g", 2.5);
        obs.record_hist("h", 40.0);
        assert!(obs.now_us() >= 0.0);

        let snap = obs.snapshot();
        assert_eq!(snap.clock, "wall");
        assert!(snap.spans.is_empty());
        assert_eq!(snap.metrics.counters, vec![("c".to_string(), 3)]);
        assert_eq!(snap.metrics.gauges, vec![("g".to_string(), 2.5)]);
        assert_eq!(snap.metrics.histograms[0].1.count, 1);
        assert_eq!(obs.metrics_snapshot().counters, snap.metrics.counters);
    }

    #[test]
    fn snapshot_clock_name_defaults() {
        assert_eq!(TraceSnapshot::default().clock, "");
        assert_eq!(Obs::enabled().snapshot().clock, "wall");
    }
}
