//! Calendar (bucket) event queue for the DES (the PR 6 tentpole's
//! netsim half).
//!
//! A discrete-event simulator's pending-event set is accessed in a very
//! particular pattern: pops are strictly time-ordered, and pushes only
//! ever land at or after the most recent pop (causality — an event can
//! schedule consequences, not history). Randal Brown's *calendar queue*
//! exploits that: hash events into time buckets of fixed `width` (days
//! of a circular calendar year) and drain buckets in order, so push and
//! pop are amortized O(1) instead of a binary heap's O(log n).
//!
//! Order contract: [`CalendarQueue::pop`] returns the pending entry
//! that is minimal under `(time.total_cmp, seq)` — *exactly* the total
//! order `des.rs`'s `BinaryHeap<Reverse<QueuedEvent>>` pops in, so
//! swapping engines never reorders ties (equal times pop in push
//! order via the strictly increasing `seq`). The `engines` and
//! workspace equivalence tests assert that simulated results are
//! bit-identical between the two.
//!
//! Implementation notes, for the invariants the DES relies on:
//!
//! * An entry with timestamp `t` lives in virtual bucket
//!   `vb = floor(t / width)`, stored at physical bucket `vb mod n`.
//! * `cur` tracks the virtual bucket being drained and is kept `<=`
//!   the minimum pending entry's virtual bucket (pushes lower it if
//!   needed), so a forward scan that finds a bucket whose minimum is
//!   in-year has found the global minimum's bucket.
//! * Each bucket ("day") is itself a small min-heap ordered by
//!   `(time, seq)` — see `Day` for why a linear-scan bucket is
//!   disastrous on this DES's burst-heavy timestamps.
//! * If a whole calendar year is empty (sparse far-future events), the
//!   queue jumps `cur` directly to the global minimum's bucket instead
//!   of spinning through empty years.
//! * The queue doubles its bucket count when buckets get crowded,
//!   re-estimating `width` from the observed event-time span so that a
//!   bucket holds a small constant number of entries.
//! * **Self-calibration.** A span-based width is wrong whenever event
//!   times are not uniform — the DES's never are (bursts of
//!   simultaneous deliveries, then µs-long gaps). A width that is too
//!   *narrow* makes every pop walk hundreds of empty buckets to reach
//!   the next event; too *wide* funnels everything into a handful of
//!   crowded days and the calendar degenerates to its day-heaps. Both
//!   pathologies are visible in the queue's own operation costs, so
//!   `pop` counts buckets probed and day sizes drained from, and
//!   periodically (every `CALIBRATE_POPS` pops, stretched for large
//!   queues so the O(len) rehash stays amortized) widens or narrows
//!   `width` when either average crosses its threshold. This is the
//!   operational-cost self-tuning of the SNOOPy calendar queue,
//!   without which the classic structure degrades far below a binary
//!   heap on bursty schedules (measured >50x slower before this fix
//!   at 128-rank recursive-doubling traces).
//!
//! Timestamps must be finite and non-negative (the DES only produces
//! such); `seq` values must be unique per queue.

use std::cmp::Reverse;

/// Initial physical bucket count (doubled as the queue grows).
const INITIAL_BUCKETS: usize = 16;
/// Cap on the bucket count (keeps the empty-year scan bounded).
const MAX_BUCKETS: usize = 1 << 16;
/// Pops between self-calibration checks (amortizes the O(len) rehash).
const CALIBRATE_POPS: u64 = 256;
/// Recalibrate when a pop probes more than this many buckets on
/// average (width too narrow: the calendar is mostly empty days).
const MAX_PROBES_PER_POP: f64 = 4.0;
/// Recalibrate when the day popped from holds more than this many
/// entries on average (width too wide: distinct times crowd one day).
const MAX_SCANNED_PER_POP: f64 = 12.0;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

// `(time.total_cmp, seq)` is a total order (`seq` is unique), written
// out so `Eq`/`Ord` stay consistent — the same float-ordering shape as
// `des.rs`'s `QueuedEvent`.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One calendar day: a min-heap (via [`Reverse`]) over its entries.
///
/// A plain `Vec` day degrades catastrophically on the DES's workload:
/// synchronized rounds give *many flows the identical end time* (one
/// `recompute_rates` pass reschedules every active flow under equal
/// shares), and no bucket width can separate equal timestamps — the
/// burst lands in one bucket whose linear min-scan makes draining it
/// quadratic. A heap per day keeps the calendar's O(1) bucket
/// selection and bounds within-day cost at O(log burst); the worst
/// case (everything in one day) degrades to exactly a binary heap,
/// never below it.
type Day<T> = std::collections::BinaryHeap<Reverse<Entry<T>>>;

/// An amortized-O(1) calendar priority queue over `(time, seq, item)`
/// entries, popping in ascending `(time.total_cmp, seq)` order.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    buckets: Vec<Day<T>>,
    /// Time width of one bucket (µs); adapted when the queue grows and
    /// by the pop-cost self-calibration.
    width: f64,
    /// `1.0 / width`, cached for the hot `vb` computation.
    inv_width: f64,
    /// Virtual bucket currently being drained; `<=` every pending
    /// entry's virtual bucket.
    cur: u64,
    len: usize,
    /// Buckets probed by pops since the last calibration check.
    probes: u64,
    /// Sizes of the days popped from since the last calibration check
    /// (a crowding signal; day pops themselves cost O(log size)).
    scanned: u64,
    /// Pops since the last calibration check.
    pops: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with a 1 µs initial bucket width (the width
    /// re-calibrates automatically as the queue fills).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Day::new()).collect(),
            width: 1.0,
            inv_width: 1.0,
            cur: 0,
            len: 0,
            probes: 0,
            scanned: 0,
            pops: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Virtual bucket of a timestamp. The cast saturates for times far
    /// beyond any simulation horizon. Computed by reciprocal multiply —
    /// `pop` probes call this in its hot loop, and the result only
    /// steers bucketing (pop *order* comes from `(time, seq)`), so the
    /// reciprocal's rounding is harmless as long as it is consistent
    /// between push and pop — it is: both go through this function and
    /// `inv_width` only changes on rehash, which re-buckets everything.
    fn vb(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }

    /// Insert an entry. `seq` must be unique; `time` finite and
    /// non-negative.
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        let vb = self.vb(time);
        if self.len == 0 || vb < self.cur {
            self.cur = vb;
        }
        let mask = self.buckets.len() - 1;
        self.buckets[vb as usize & mask].push(Reverse(Entry { time, seq, item }));
        self.len += 1;
        if self.len > 4 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Remove and return the minimum entry under `(time.total_cmp,
    /// seq)`, or `None` when empty.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.pops += 1;
        let n = self.buckets.len();
        let mask = n - 1;
        // Drain the calendar forward: the first bucket whose day-heap
        // minimum is in-year holds the global minimum (every pending
        // entry's virtual bucket is >= `cur`, and a day's later-year
        // entries all sort after its in-year ones).
        for _ in 0..n {
            self.probes += 1;
            let b = self.cur as usize & mask;
            let in_year = match self.buckets[b].peek() {
                Some(Reverse(e)) => self.vb(e.time) <= self.cur,
                None => false,
            };
            if in_year {
                self.scanned += self.buckets[b].len() as u64;
                let Reverse(e) = self.buckets[b].pop().expect("peeked entry");
                self.len -= 1;
                self.maybe_calibrate();
                return Some((e.time, e.seq, e.item));
            }
            self.cur += 1;
        }
        // A whole year was empty: jump straight to the global minimum.
        self.probes += n as u64;
        let b = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, day)| day.peek().map(|Reverse(e)| (b, e)))
            .min_by(|(_, x), (_, y)| x.cmp(y))
            .map(|(b, _)| b)
            .expect("non-empty queue must hold a minimum");
        let Reverse(e) = self.buckets[b].pop().expect("chosen day is non-empty");
        self.cur = self.vb(e.time);
        self.len -= 1;
        self.maybe_calibrate();
        Some((e.time, e.seq, e.item))
    }

    /// Every [`CALIBRATE_POPS`] pops, compare the average pop cost
    /// against the thresholds and rehash with a wider (mostly-empty
    /// calendar) or narrower (crowded-bucket) `width` as indicated.
    /// Pop *order* is unaffected — the `(time, seq)` comparison never
    /// changes — so this is invisible to the engine-equivalence tests
    /// except as host time.
    fn maybe_calibrate(&mut self) {
        // Space checks by queue size as well as pop count: a rehash is
        // O(len log), so a large queue must earn it over more pops.
        if self.pops < CALIBRATE_POPS.max(self.len as u64) {
            return;
        }
        let probes = self.probes as f64 / self.pops as f64;
        let scanned = self.scanned as f64 / self.pops as f64;
        self.probes = 0;
        self.scanned = 0;
        self.pops = 0;
        if self.len < 2 {
            return;
        }
        if probes > MAX_PROBES_PER_POP {
            // Days are mostly empty: widen so the typical forward scan
            // reaches the next event within a few buckets.
            let factor = (probes / 2.0).min(1024.0);
            self.rehash(self.buckets.len(), self.width * factor);
        } else if scanned > MAX_SCANNED_PER_POP {
            // Bursts pile into one day: narrow, but never below a femto-
            // second — truly simultaneous events cannot be separated by
            // any width, and the floor stops narrowing from chasing them.
            let factor = (scanned / 4.0).min(1024.0);
            let w = (self.width / factor).max(1e-9);
            if w < self.width {
                self.rehash(self.buckets.len(), w);
            }
        }
    }

    /// Double the bucket count, re-estimating `width` so a bucket holds
    /// a few entries, and rehash.
    fn grow(&mut self) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for Reverse(e) in self.buckets.iter().flatten() {
            lo = lo.min(e.time);
            hi = hi.max(e.time);
        }
        let span = hi - lo;
        let mut width = self.width;
        if span.is_finite() && span > 0.0 {
            let w = 2.0 * span / self.len as f64;
            if w.is_finite() && w > 0.0 {
                width = w;
            }
        }
        self.rehash(self.buckets.len() * 2, width);
    }

    /// Redistribute every entry over `n` buckets of time width `width`.
    fn rehash(&mut self, n: usize, width: f64) {
        debug_assert!(n.is_power_of_two(), "bucket count must stay a power of two");
        let entries: Vec<Reverse<Entry<T>>> =
            self.buckets.iter_mut().flat_map(std::mem::take).collect();
        if self.buckets.len() != n {
            self.buckets = (0..n).map(|_| Day::new()).collect();
        }
        self.width = width;
        self.inv_width = 1.0 / width;
        self.len = 0;
        self.cur = 0;
        let mask = n - 1;
        for e in entries {
            let vb = self.vb(e.0.time);
            if self.len == 0 || vb < self.cur {
                self.cur = vb;
            }
            self.buckets[vb as usize & mask].push(e);
            self.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Mirror of the DES heap ordering for the oracle.
    #[derive(Debug, Clone, Copy)]
    struct Key(f64, u64);
    impl PartialEq for Key {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5.0, 1, "a");
        q.push(1.0, 2, "b");
        q.push(5.0, 3, "c");
        q.push(0.5, 4, "d");
        assert_eq!(q.len(), 4);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, ["d", "b", "a", "c"]);
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = CalendarQueue::new();
        for seq in 1..=100u64 {
            q.push(3.25, seq, seq);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(popped, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_far_future_events_jump_years() {
        let mut q = CalendarQueue::new();
        // Gaps of many calendar years at the initial width.
        q.push(1_000_000.0, 1, 1);
        q.push(0.0, 2, 2);
        q.push(50_000.0, 3, 3);
        assert_eq!(q.pop().map(|(_, _, x)| x), Some(2));
        assert_eq!(q.pop().map(|(_, _, x)| x), Some(3));
        assert_eq!(q.pop().map(|(_, _, x)| x), Some(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn grow_preserves_every_entry_and_order() {
        let mut q = CalendarQueue::new();
        // Enough entries to force several doublings.
        let mut seq = 0u64;
        for i in 0..2_000u64 {
            seq += 1;
            // A deterministic scatter of times with duplicates.
            let t = (i.wrapping_mul(0x9e37_79b9) % 977) as f64 * 0.37;
            q.push(t, seq, (t, seq));
        }
        let mut prev: Option<(f64, u64)> = None;
        let mut count = 0;
        while let Some((t, s, _)) = q.pop() {
            if let Some((pt, ps)) = prev {
                assert!(
                    pt.total_cmp(&t).then(ps.cmp(&s)).is_lt(),
                    "order violated: ({pt},{ps}) before ({t},{s})"
                );
            }
            prev = Some((t, s));
            count += 1;
        }
        assert_eq!(count, 2_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `BinaryHeap` oracle under the DES access pattern:
        /// interleaved pushes (never in the popped past) and pops must
        /// yield the identical sequence.
        #[test]
        fn matches_binary_heap_oracle(
            ops in proptest::collection::vec((0.0f64..50.0, 1u32..6), 1..200),
        ) {
            let mut q = CalendarQueue::new();
            let mut oracle: BinaryHeap<Reverse<(Key, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            for (dt, burst) in ops {
                for k in 0..burst {
                    seq += 1;
                    let t = now + dt * (k as f64 + 1.0) / burst as f64;
                    q.push(t, seq, seq);
                    oracle.push(Reverse((Key(t, seq), seq)));
                }
                // Drain a couple to advance simulated time.
                for _ in 0..2 {
                    let got = q.pop();
                    let want = oracle.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some((t, s, item)), Some(Reverse((Key(wt, ws), witem)))) => {
                            prop_assert_eq!(t.to_bits(), wt.to_bits());
                            prop_assert_eq!(s, ws);
                            prop_assert_eq!(item, witem);
                            now = t;
                        }
                        other => prop_assert!(false, "queues diverged: {other:?}"),
                    }
                }
            }
            // Final drain must agree entry for entry.
            loop {
                match (q.pop(), oracle.pop()) {
                    (None, None) => break,
                    (Some((t, s, _)), Some(Reverse((Key(wt, ws), _)))) => {
                        prop_assert_eq!(t.to_bits(), wt.to_bits());
                        prop_assert_eq!(s, ws);
                    }
                    other => prop_assert!(false, "drain diverged: {other:?}"),
                }
            }
        }
    }
}
