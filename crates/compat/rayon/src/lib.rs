//! Offline subset of the `rayon` API over one process-wide worker pool.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the surface the workspace uses: `into_par_iter().map(..).collect()`.
//! The first map starts one pool of `available_parallelism() - 1`
//! helper threads, which park between maps. A map posts its items to
//! the pool, hands them out one at a time to the helpers and the
//! calling thread, and keeps the input order. A map that finds the pool
//! busy runs serially on its own thread: a nested map inside an item,
//! or a second thread mapping at the same time. A panicking item is
//! re-raised in the caller once every helper has left the map. Users:
//! forest fits and refits, the variance scan's paint and variances,
//! rule generation, and dataset prefill.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, OnceLock, PoisonError};
use std::thread::available_parallelism;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

/// Conversion into an (eager) parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Convert; the returned [`ParIter`] owns the materialized items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// An eager, order-preserving parallel pipeline over owned items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map: runs `f` over all items on the pool, keeping the
    /// input order in the output.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        let pool =
            POOL.get_or_init(|| Pool::new(available_parallelism().map_or(0, |n| n.get() - 1)));
        let items = pool.map(self.items, &f);
        ParIter { items }
    }

    /// Gather the results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// A posted map's work loop, borrowed from the caller's stack with its
/// lifetime erased. It never unwinds.
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync`, and the map that posted it outlives
// every helper's use of it (see `Posted`).
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Bumped per posted job, so a helper enters each job once.
    epoch: u64,
    /// Helpers inside the posted (or just withdrawn) job.
    active: usize,
}

/// Helpers park on `posted` until a job is posted; a caller waits on
/// `left` for its job's last helper to leave.
#[derive(Default)]
struct Pool {
    state: Mutex<State>,
    posted: Condvar,
    left: Condvar,
    helpers: usize,
}

/// Every update leaves the pool state valid, so a poisoned lock is
/// recovered (and `Posted::drop` never panics).
fn unpoison<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// A posted job. Dropping it withdraws the job and waits until every
/// helper has left it, so the borrowed work loop outlives their use.
struct Posted<'a>(&'a Pool);

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let mut state = unpoison(self.0.state.lock());
        state.job = None;
        while state.active > 0 {
            state = unpoison(self.0.left.wait(state));
        }
    }
}

impl Pool {
    /// A pool of `helpers` parked threads, never joined: they live as
    /// long as the process (a failed spawn just leaves fewer).
    fn new(helpers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            helpers,
            ..Pool::default()
        }));
        for _ in 0..helpers {
            std::thread::Builder::new().spawn(|| pool.help()).ok();
        }
        pool
    }

    /// A helper's life: park until a job is posted, run it, repeat.
    fn help(&self) {
        let mut seen = 0;
        let mut state = unpoison(self.state.lock());
        loop {
            match state.job {
                Some(Job(job)) if state.epoch != seen => {
                    seen = state.epoch;
                    state.active += 1;
                    drop(state);
                    // SAFETY: the job is alive until `active` drops to zero.
                    unsafe { (*job)() };
                    state = unpoison(self.state.lock());
                    state.active -= 1;
                    if state.active == 0 {
                        self.left.notify_all();
                    }
                }
                _ => state = unpoison(self.posted.wait(state)),
            }
        }
    }

    /// Post `work` to the helpers, or `None` when a job is already
    /// posted or its helpers have not all left yet.
    fn post<'a>(&'a self, work: &'a (dyn Fn() + Sync)) -> Option<Posted<'a>> {
        let mut state = unpoison(self.state.lock());
        if state.job.is_some() || state.active > 0 {
            return None;
        }
        let work: *const (dyn Fn() + Sync + 'a) = work;
        // SAFETY: only the lifetime changes; `Posted` borrows `work`
        // until no helper can reach it.
        let work: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(work) };
        state.job = Some(Job(work));
        state.epoch += 1;
        drop(state);
        self.posted.notify_all();
        Some(Posted(self))
    }

    fn map<T: Send, R: Send, F: Fn(T) -> R + Sync>(&self, items: Vec<T>, f: &F) -> Vec<R> {
        let len = items.len();
        if self.helpers == 0 || len <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Items are handed out one at a time from a shared counter, so
        // uneven item costs still keep every thread busy. The counter
        // only claims indices (items and results pass through mutexes),
        // so it is `Relaxed`. An item may run on a helper, so it must
        // not rely on the caller's thread-local state, such as its span.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(len));
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let work = || {
            let mut done = Vec::new();
            let run = panic::catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return;
                }
                let item = slots[i].lock().expect("slot").take();
                done.push((i, f(item.expect("each slot is taken once"))));
            }));
            if let Err(payload) = run {
                panicked.lock().expect("panic slot").get_or_insert(payload);
            }
            results.lock().expect("results").extend(done);
        };
        // Post, work alongside any helpers, then withdraw and wait.
        drop((self.post(&work), work()));
        if let Some(payload) = panicked.into_inner().expect("panic slot") {
            panic::resume_unwind(payload);
        }
        let mut results = results.into_inner().expect("results");
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::Pool;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Every test pool has this many helpers, whatever the host's cores.
    const HELPERS: usize = 2;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        let pool = Pool::new(HELPERS);
        let out = pool.map((0..1000usize).collect(), &|i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_item_costs_keep_input_order() {
        // One slow item early on: the other items go to whichever
        // thread is free, and the output order is still the input's.
        let pool = Pool::new(HELPERS);
        let out = pool.map((0..64usize).collect(), &|i| {
            if i == 1 {
                thread::sleep(Duration::from_millis(20));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn vec_and_empty_inputs_work() {
        let out: Vec<String> = vec!["a", "bb", "ccc"]
            .into_par_iter()
            .map(|s| s.to_uppercase())
            .collect();
        assert_eq!(out, vec!["A", "BB", "CCC"]);
        let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn helpers_take_items() {
        // Item 0 holds its thread until a second thread has taken an
        // item, which only a helper can do.
        let pool = Pool::new(HELPERS);
        let seen = Mutex::new(HashSet::new());
        pool.map((0..HELPERS + 1).collect(), &|i| {
            seen.lock().unwrap().insert(thread::current().id());
            let deadline = Instant::now() + Duration::from_secs(30);
            while i == 0 && seen.lock().unwrap().len() < 2 && Instant::now() < deadline {
                thread::yield_now();
            }
        });
        assert!(
            seen.into_inner().unwrap().len() >= 2,
            "no helper took an item"
        );
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_map() {
        let pool = Pool::new(HELPERS);
        thread::scope(|s| {
            for caller in 0..4u64 {
                s.spawn(move || {
                    for round in 0..20u64 {
                        let items: Vec<u64> = (0..50).map(|i| i + caller * 1000 + round).collect();
                        let f = |x: u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ caller;
                        let serial: Vec<u64> = items.iter().copied().map(f).collect();
                        assert_eq!(pool.map(items, &f), serial);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_map_runs_serially_on_the_item_thread() {
        let pool = Pool::new(HELPERS);
        let out = pool.map((0..8usize).collect(), &|i| {
            let outer = thread::current().id();
            let inner = pool.map((0..8usize).collect(), &|j| (thread::current().id(), i * j));
            assert!(
                inner.iter().all(|&(id, _)| id == outer),
                "nested map left its thread"
            );
            inner.into_iter().map(|(_, v)| v).sum::<usize>()
        });
        assert_eq!(out, (0..8).map(|i| i * 28).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_item_reaches_the_caller_and_the_pool_survives() {
        let pool = Pool::new(HELPERS);
        for _ in 0..3 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.map((0..32usize).collect(), &|i| {
                    assert!(i != 17, "item {i} fails");
                    i
                })
            }));
            let payload = caught.expect_err("the item's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("item 17 fails"));
            let out = pool.map((0..32usize).collect(), &|i| i + 1);
            assert_eq!(out, (1..33).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thousand_calls_stay_on_the_pool_threads() {
        let pool = Pool::new(HELPERS);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let callers = 2;
        thread::scope(|s| {
            for _ in 0..callers {
                s.spawn(|| {
                    for _ in 0..500 {
                        pool.map((0..4usize).collect(), &|i| {
                            seen.lock().unwrap().insert(thread::current().id());
                            i
                        });
                    }
                });
            }
        });
        let threads = seen.into_inner().unwrap().len();
        assert!(threads <= HELPERS + callers, "{threads} threads ran items");
    }
}
