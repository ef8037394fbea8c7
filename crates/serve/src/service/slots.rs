//! The training-slot semaphore: how many tunes may hold a simulated
//! allocation at once. Cache-served requests never take a slot.

use std::sync::{Condvar, Mutex};

/// Counting semaphore bounding concurrent training allocations.
#[derive(Debug)]
pub(super) struct SlotPool {
    max: usize,
    busy: Mutex<usize>,
    cv: Condvar,
}

/// One held slot; dropping it frees the slot and wakes a waiter.
pub(super) struct SlotGuard<'a> {
    pool: &'a SlotPool,
}

impl SlotPool {
    pub(super) fn new(max: usize) -> Self {
        SlotPool {
            max: max.max(1),
            busy: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    pub(super) fn acquire(&self) -> SlotGuard<'_> {
        let mut busy = self.busy.lock().unwrap();
        while *busy >= self.max {
            busy = self.cv.wait(busy).unwrap();
        }
        *busy += 1;
        SlotGuard { pool: self }
    }

    pub(super) fn in_use(&self) -> usize {
        *self.busy.lock().unwrap()
    }

    pub(super) fn free(&self) -> usize {
        self.max - self.in_use()
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *self.pool.busy.lock().unwrap() -= 1;
        self.pool.cv.notify_one();
    }
}
