//! Offline subset of the `rayon` API over `std::thread::scope`.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the surface the workspace uses: `into_par_iter().map(..).collect()`.
//! Unlike a sequential shim it is genuinely parallel — a map hands its
//! items out one at a time to per-core scoped threads, the calling
//! thread among them, and preserves input order. The eager model (each
//! adapter runs to completion) is fine for the coarse-grained work the
//! autotuner parallelizes: tree fits and microbenchmark simulations,
//! each far heavier than a thread handoff.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParChunksMut, ParIter, ParallelSliceMut};
}

/// `par_chunks_mut` over mutable slices (subset of rayon's
/// `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Split into mutable chunks of `chunk_size` (the last may be
    /// shorter) to be processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Eager parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumeratedParChunksMut<'a, T> {
        EnumeratedParChunksMut(self)
    }

    /// Run `f` over every chunk on scoped threads.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// [`ParChunksMut`] with chunk indices attached.
pub struct EnumeratedParChunksMut<'a, T: Send>(ParChunksMut<'a, T>);

impl<T: Send> EnumeratedParChunksMut<'_, T> {
    /// Run `f` over every `(index, chunk)` pair on scoped threads.
    /// Chunks are distributed contiguously over the worker threads, so
    /// the callback sees each chunk exactly once, in no particular
    /// order across threads.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let chunk_size = self.0.chunk_size;
        let chunks: Vec<(usize, &mut [T])> =
            self.0.slice.chunks_mut(chunk_size).enumerate().collect();
        let len = chunks.len();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(len.max(1));
        if threads <= 1 || len <= 1 {
            for pair in chunks {
                f(pair);
            }
            return;
        }
        let per_thread = len.div_ceil(threads);
        let mut groups: Vec<Vec<(usize, &mut [T])>> = Vec::new();
        let mut it = chunks.into_iter();
        loop {
            let group: Vec<_> = it.by_ref().take(per_thread).collect();
            if group.is_empty() {
                break;
            }
            groups.push(group);
        }
        std::thread::scope(|scope| {
            for group in groups {
                scope.spawn(|| {
                    for pair in group {
                        f(pair);
                    }
                });
            }
        });
    }
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

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
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
    /// Parallel map: runs `f` over all items on scoped threads, keeping
    /// the input order in the output.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map(self.items, &f),
        }
    }

    /// Gather the results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items in the pipeline.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the pipeline holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

fn par_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let len = items.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(len.max(1));
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items are handed out one at a time from a shared counter, so
    // uneven item costs still keep every thread busy; the calling
    // thread works too instead of idling in the join. (An item can thus
    // see the caller's thread-local state, such as its open trace span.)
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            let item = slots[i]
                .lock()
                .expect("no worker panics while holding a slot")
                .take()
                .expect("each slot is taken once");
            done.push((i, f(item)));
        }
    };
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mine = work();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("parallel map worker panicked"));
        for (i, r) in mine.into_iter().chain(theirs) {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|o| o.expect("every item was mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_item_costs_keep_input_order() {
        // One slow item early on: the other items go to whichever
        // thread is free, and the output order is still the input's.
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                if i == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                i * 3
            })
            .collect();
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
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..256usize)
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            })
            .collect();
        let n = seen.lock().unwrap().len();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(n >= 1 && n <= cores.max(1));
        if cores > 1 {
            assert!(n > 1, "expected parallel execution on a multi-core host");
        }
    }
}
