//! Counters, gauges, and log₂-bucketed histograms.
//!
//! The registry hands out `Arc`-shared handles; after the one-time
//! lookup every record operation is a handful of lock-free atomics on
//! fixed-size storage — no allocation, no mutex — so metrics are safe
//! to thread through hot simulation loops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets. Bucket `i` covers values `v` (µs) with
/// `2^(i-32) <= v < 2^(i-31)`; bucket 0 additionally absorbs zero,
/// negative, and sub-`2^-32` values, bucket 63 everything at or above
/// `2^31` µs (~36 minutes). The fixed power-of-two ladder keeps
/// recording allocation-free and makes bucket boundaries exact in
/// binary floating point.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent offset of the bucket ladder: bucket `i` starts at
/// `2^(i - BUCKET_EXP_OFFSET)`.
pub const BUCKET_EXP_OFFSET: i64 = 32;

/// The bucket a value lands in. Uses the IEEE-754 exponent directly so
/// exact powers of two always land on their own lower bound.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i64;
    // Subnormals (biased == 0) sit far below bucket 0's range anyway.
    let e = biased - 1023;
    (e + BUCKET_EXP_OFFSET).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Inclusive lower bound of bucket `i` (0.0 for bucket 0, which also
/// catches everything smaller).
pub fn bucket_lower_bound(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        ((i as i64 - BUCKET_EXP_OFFSET) as f64).exp2()
    }
}

/// Exclusive upper bound of bucket `i` (`f64::INFINITY` for the last).
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        f64::INFINITY
    } else {
        ((i as i64 + 1 - BUCKET_EXP_OFFSET) as f64).exp2()
    }
}

/// Atomically add `v` to an f64 stored as bits in `cell`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomically fold `v` into an f64 min/max cell.
fn atomic_f64_fold(cell: &AtomicU64, v: f64, pick: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct CounterCore {
    value: AtomicU64,
}

/// Handle to a counter; a default (disabled) handle ignores updates.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCore>>);

impl Counter {
    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug)]
pub struct GaugeCore {
    bits: AtomicU64,
}

impl Default for GaugeCore {
    fn default() -> Self {
        GaugeCore {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Handle to a gauge; a default (disabled) handle ignores updates.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCore>>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Atomically add `delta` (CAS loop on the f64 bits). Unlike
    /// `get` + `set`, concurrent adjusters never lose updates — the
    /// right primitive for queue-depth style gauges maintained from
    /// many threads.
    #[inline]
    pub fn add(&self, delta: f64) {
        if let Some(g) = &self.0 {
            atomic_f64_add(&g.bits, delta);
        }
    }

    /// Atomically subtract `delta` (see [`Gauge::add`]).
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.bits.load(Ordering::Relaxed)))
    }
}

/// Fixed-size log₂-bucketed histogram (see [`bucket_index`]).
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Handle to a histogram; a default (disabled) handle ignores updates.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Record one observation. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, v: f64) {
        let Some(h) = &self.0 else { return };
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&h.sum_bits, v);
        atomic_f64_fold(&h.min_bits, v, f64::min);
        atomic_f64_fold(&h.max_bits, v, f64::max);
    }

    /// Point-in-time copy of the distribution (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(h) = &self.0 else {
            return HistogramSnapshot::default();
        };
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(h.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(h.max_bits.load(Ordering::Relaxed))
            },
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let n = h.buckets[i].load(Ordering::Relaxed);
                    (n > 0).then_some(BucketCount {
                        lo: bucket_lower_bound(i),
                        hi: bucket_upper_bound(i),
                        count: n,
                    })
                })
                .collect(),
        }
    }
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Inclusive lower bound (µs).
    pub lo: f64,
    /// Exclusive upper bound (µs; infinity for the last bucket).
    pub hi: f64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Frozen histogram contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`q` in `[0, 1]`, clamped), at
    /// bucket resolution: the upper edge of the first bucket whose
    /// cumulative count covers `q` of the observations, clamped to the
    /// observed max so the open-ended last bucket never reports
    /// infinity. With power-of-two buckets the answer is within 2x of
    /// the true quantile — the right precision for counter-style
    /// reporting ("median query latency under a millisecond"), not for
    /// benchmarking (measure raw samples there). 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for b in &self.buckets {
            cumulative += b.count;
            if cumulative >= target {
                return b.hi.min(self.max);
            }
        }
        self.max
    }
}

/// Name-keyed metric registry. Lookup takes a mutex; handles do not.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCore>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCore>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl Registry {
    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<CounterCore> {
        let mut map = self.counters.lock().expect("counter registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<GaugeCore> {
        let mut map = self.gauges.lock().expect("gauge registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<HistogramCore> {
        let mut map = self.histograms.lock().expect("histogram registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Freeze every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("counter registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.bits.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), Histogram(Some(v.clone())).snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, distribution)`, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::default();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::default();
        h.record(1.0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = Registry::default();
        Counter(Some(r.counter("x"))).add(2);
        Counter(Some(r.counter("x"))).add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("x".to_string(), 5)]);
    }

    #[test]
    fn bucket_index_boundaries_are_exact() {
        // Exact powers of two start their own bucket.
        for e in -31..31 {
            let v = (e as f64).exp2();
            let i = bucket_index(v);
            assert_eq!(bucket_lower_bound(i), v, "2^{e} must open its bucket");
            assert!(bucket_index(v * 0.999) < i || i == 0);
        }
        // Degenerate inputs land in bucket 0.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-300), 0);
        // Huge values saturate into the last bucket.
        assert_eq!(bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn histogram_counts_sum_min_max() {
        let r = Registry::default();
        let h = Histogram(Some(r.histogram("t")));
        for v in [0.5, 1.0, 1.5, 2.0, 1024.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert!((s.sum - 1029.0).abs() < 1e-9);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 1024.0);
        assert!((s.mean() - 1029.0 / 5.0).abs() < 1e-12);
        // 1.0 and 1.5 share the [1,2) bucket.
        let b1 = s.buckets.iter().find(|b| b.lo == 1.0).unwrap();
        assert_eq!((b1.count, b1.hi), (2, 2.0));
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_quantile_is_a_bucket_resolution_upper_bound() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        let r = Registry::default();
        let h = Histogram(Some(r.histogram("q")));
        // 100 observations: 50 in [1,2), 40 in [8,16), 10 in [512,1024).
        for _ in 0..50 {
            h.record(1.5);
        }
        for _ in 0..40 {
            h.record(9.0);
        }
        for _ in 0..10 {
            h.record(600.0);
        }
        let s = h.snapshot();
        // Medians and tails land on the covering bucket's upper edge.
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.9), 16.0);
        // [512,1024) covers the tail; its edge clamps to max = 600.
        assert_eq!(s.quantile(0.95), 600.0);
        // The open-ended side clamps to the observed extremes, never
        // reporting infinity or crossing below q=0's first bucket.
        assert_eq!(s.quantile(1.0), s.max);
        assert_eq!(s.quantile(2.0), s.max);
        assert_eq!(s.quantile(0.0), 2.0);
        assert_eq!(s.quantile(-1.0), 2.0);
        // A single huge observation exercises the max clamp on the
        // infinite last bucket.
        let h2 = Histogram(Some(r.histogram("q2")));
        h2.record(1e300);
        assert_eq!(h2.snapshot().quantile(0.5), 1e300);
    }

    #[test]
    fn quantile_degenerate_shapes() {
        let r = Registry::default();
        // A single observation answers every quantile with itself.
        let one = Histogram(Some(r.histogram("one")));
        one.record(7.0);
        let s = one.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7.0, "q={q} on a single observation");
        }
        // Many observations in a single bucket: every quantile clamps
        // to the observed max, never reporting the bucket edge above it.
        let flat = Histogram(Some(r.histogram("flat")));
        for _ in 0..100 {
            flat.record(3.0);
        }
        let s = flat.snapshot();
        assert_eq!(s.buckets.len(), 1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 3.0, "q={q} on a single-bucket histogram");
        }
    }

    #[test]
    fn gauge_add_sub_do_not_race() {
        let r = Registry::default();
        let g = Gauge(Some(r.gauge("depth")));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                        g.sub(1.0);
                    }
                    g.add(1.0);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // get+set would lose updates under this interleaving; the CAS
        // loop must land exactly one residual increment per thread.
        assert_eq!(g.get(), 8.0);
        let disabled = Gauge::default();
        disabled.add(5.0);
        disabled.sub(1.0);
        assert_eq!(disabled.get(), 0.0);
    }

    #[test]
    fn registry_snapshot_is_coherent_under_concurrent_writers() {
        let r = Arc::new(Registry::default());
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let c = Counter(Some(r.counter("writes")));
                    let h = Histogram(Some(r.histogram("lat")));
                    let g = Gauge(Some(r.gauge("active")));
                    let mut n = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        c.incr();
                        h.record((w + 1) as f64);
                        g.add(1.0);
                        g.sub(1.0);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        // Snapshots taken mid-churn must stay internally consistent:
        // observed extremes stay inside the recorded value range and
        // monotone series never move backwards. (Bucket totals and
        // `count` may transiently disagree — the two are distinct
        // relaxed atomics — which is why the exact-equality checks run
        // only after the writers join.)
        let mut last_writes = 0u64;
        for _ in 0..50 {
            let snap = r.snapshot();
            if let Some((_, hist)) = snap.histograms.iter().find(|(k, _)| k == "lat") {
                if hist.count > 0 {
                    assert!(hist.min >= 1.0 && hist.max <= 4.0);
                }
            }
            if let Some((_, v)) = snap.counters.iter().find(|(k, _)| k == "writes") {
                assert!(*v >= last_writes);
                last_writes = *v;
            }
        }
        stop.store(1, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|t| t.join().unwrap()).sum();
        let final_snap = r.snapshot();
        assert_eq!(final_snap.counters, vec![("writes".to_string(), written)]);
        let (_, hist) = final_snap
            .histograms
            .iter()
            .find(|(k, _)| k == "lat")
            .unwrap();
        assert_eq!(hist.count, written);
        assert_eq!(hist.buckets.iter().map(|b| b.count).sum::<u64>(), written);
        let (_, active) = final_snap
            .gauges
            .iter()
            .find(|(k, _)| k == "active")
            .unwrap();
        assert_eq!(*active, 0.0);
    }
}
