//! The service's job queue: priority ordering with an anti-starvation
//! escape hatch, request coalescing, and per-job state tracking.
//!
//! Jobs are held in a flat vector under one mutex (queue depths are
//! small — bounded by in-flight clients, not by work). [`JobQueue::pop_blocking`]
//! normally takes the highest-priority job, FIFO within a priority;
//! every `starvation_window`-th pop it instead takes the globally
//! oldest job, so a stream of high-priority submissions cannot starve
//! a low-priority one forever.
//!
//! Each submitted job owns a [`JobState`]: a cancellation flag workers
//! poll at collective boundaries plus a condvar-guarded [`JobStatus`]
//! clients block on. Terminal states ([`JobStatus::Done`],
//! [`JobStatus::Cancelled`], [`JobStatus::Failed`]) are sticky — a
//! late transition attempt is ignored, so a job that completed can
//! never be "re-cancelled" into a different outcome.

use crate::service::{RetuneSpec, TuneRequest, TuneResult};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Identifies one submitted job within a service instance.
pub type JobId = u64;

/// Scheduling priority of a tune request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub enum Priority {
    /// Background refresh work; runs when nothing else is queued.
    Low,
    /// The default for interactive requests.
    #[default]
    Normal,
    /// Jump the queue (subject to the anti-starvation tick).
    High,
}

impl Priority {
    /// A short lowercase label for flight records and log output.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is training (or serving) it.
    Running,
    /// Finished; the result is shared by every coalesced waiter.
    Done(Arc<TuneResult>),
    /// Cancelled before completion.
    Cancelled,
    /// The worker hit an I/O error; the message is the error text.
    Failed(String),
}

impl JobStatus {
    /// Whether this status is final (sticky).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done(_) | JobStatus::Cancelled | JobStatus::Failed(_)
        )
    }

    /// A short lowercase label for wire and log output.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Shared per-job state: cancellation flag plus observable status.
#[derive(Debug)]
pub(crate) struct JobState {
    id: JobId,
    cancelled: AtomicBool,
    status: Mutex<JobStatus>,
    cv: Condvar,
}

impl JobState {
    pub(crate) fn new(id: JobId) -> Self {
        JobState {
            id,
            cancelled: AtomicBool::new(false),
            status: Mutex::new(JobStatus::Queued),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn id(&self) -> JobId {
        self.id
    }

    pub(crate) fn request_cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub(crate) fn status(&self) -> JobStatus {
        self.status.lock().unwrap().clone()
    }

    /// Transition to `status` unless already terminal. Returns whether
    /// the transition happened.
    pub(crate) fn set(&self, status: JobStatus) -> bool {
        self.set_with(status, || {})
    }

    /// Like [`JobState::set`], running `before_notify` under the
    /// status lock before waiters wake — side effects (counters) are
    /// visible to anyone unblocked by this transition.
    pub(crate) fn set_with(&self, status: JobStatus, before_notify: impl FnOnce()) -> bool {
        let mut cur = self.status.lock().unwrap();
        if cur.is_terminal() {
            return false;
        }
        *cur = status;
        before_notify();
        self.cv.notify_all();
        true
    }

    /// Block until the job reaches a terminal status.
    pub(crate) fn wait_terminal(&self) -> JobStatus {
        let mut cur = self.status.lock().unwrap();
        while !cur.is_terminal() {
            cur = self.cv.wait(cur).unwrap();
        }
        cur.clone()
    }

    /// Block until the job leaves [`JobStatus::Queued`].
    pub(crate) fn wait_started(&self) -> JobStatus {
        let mut cur = self.status.lock().unwrap();
        while matches!(*cur, JobStatus::Queued) {
            cur = self.cv.wait(cur).unwrap();
        }
        cur.clone()
    }
}

/// One queued unit of work.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// Global submission order (unique, ascending).
    pub seq: u64,
    pub priority: Priority,
    /// Work fingerprint for coalescing identical requests.
    pub fingerprint: u64,
    pub request: TuneRequest,
    pub state: Arc<JobState>,
    /// When the job entered the queue (stamped by [`JobQueue::push`]);
    /// the worker's queue-wait phase is measured against this.
    pub submitted: Instant,
    /// `Some` marks a drift-triggered warm re-tune (self-submitted by
    /// the service, never a client): it skips the cached fast path,
    /// deweights stale store rows, and reports back to the drift
    /// detector on completion.
    pub retune: Option<RetuneSpec>,
}

/// The jobs a service can report on by id: every job not yet settled,
/// plus the `keep` most recently settled. Older settled jobs are
/// dropped, with their results; a client holding a job's handle still
/// reads its status from the handle.
#[derive(Debug)]
pub(crate) struct JobTable {
    states: HashMap<JobId, Arc<JobState>>,
    settled: VecDeque<JobId>,
    keep: usize,
}

impl JobTable {
    pub(crate) fn new(keep: usize) -> Self {
        JobTable {
            states: HashMap::new(),
            settled: VecDeque::new(),
            keep,
        }
    }

    pub(crate) fn insert(&mut self, state: Arc<JobState>) {
        self.states.insert(state.id(), state);
    }

    pub(crate) fn get(&self, id: JobId) -> Option<Arc<JobState>> {
        self.states.get(&id).cloned()
    }

    /// Note that job `id` settled. Once more than `keep` have settled,
    /// the oldest settled job is dropped.
    pub(crate) fn retire(&mut self, id: JobId) {
        self.settled.push_back(id);
        if self.settled.len() > self.keep {
            let oldest = self.settled.pop_front().expect("more than `keep` settled");
            self.states.remove(&oldest);
        }
    }
}

#[derive(Debug, Default)]
struct QueueInner {
    jobs: Vec<QueuedJob>,
    seq: u64,
    pops: u64,
    closed: bool,
}

/// The shared queue workers pull from.
#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    /// Every this-many pops, take the oldest job regardless of
    /// priority (0 disables the anti-starvation tick).
    starvation_window: u64,
}

impl JobQueue {
    pub(crate) fn new(starvation_window: u64) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            starvation_window,
        }
    }

    /// Enqueue a job, stamping its `seq` and `submitted` instant.
    /// Hands the job back if the queue is closed.
    pub(crate) fn push(&self, mut job: QueuedJob) -> Result<(), Box<QueuedJob>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(Box::new(job));
        }
        job.seq = inner.seq;
        job.submitted = Instant::now();
        inner.seq += 1;
        inner.jobs.push(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a job is available or the queue is closed. Returns
    /// `None` only after close (remaining jobs are the closer's to
    /// drain via [`JobQueue::drain`]).
    pub(crate) fn pop_blocking(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return None;
            }
            if !inner.jobs.is_empty() {
                inner.pops += 1;
                let starved_tick =
                    self.starvation_window > 0 && inner.pops.is_multiple_of(self.starvation_window);
                let idx = if starved_tick {
                    // Anti-starvation: the globally oldest job.
                    position_of_min(&inner.jobs, |j| j.seq)
                } else {
                    // Highest priority, FIFO within a priority. seq is
                    // unique so the key never ties.
                    position_of_min(&inner.jobs, |j| (std::cmp::Reverse(j.priority), j.seq))
                };
                return Some(inner.jobs.swap_remove(idx));
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Remove and return every queued job with the given work
    /// fingerprint (the popped job's riders), oldest first.
    pub(crate) fn take_matching(&self, fingerprint: u64) -> Vec<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        let mut taken: Vec<QueuedJob> = Vec::new();
        let mut i = 0;
        while i < inner.jobs.len() {
            if inner.jobs[i].fingerprint == fingerprint {
                taken.push(inner.jobs.swap_remove(i));
            } else {
                i += 1;
            }
        }
        taken.sort_by_key(|j| j.seq);
        taken
    }

    /// Remove a queued job by id (a cancellation that won the race
    /// against the workers). `None` if it already left the queue.
    pub(crate) fn remove(&self, id: JobId) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        let idx = inner.jobs.iter().position(|j| j.state.id() == id)?;
        Some(inner.jobs.swap_remove(idx))
    }

    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Close the queue: pushes start failing and blocked workers wake
    /// with `None`.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Take every job still queued (used after close to cancel them).
    pub(crate) fn drain(&self) -> Vec<QueuedJob> {
        let mut jobs = std::mem::take(&mut self.inner.lock().unwrap().jobs);
        jobs.sort_by_key(|j| j.seq);
        jobs
    }
}

/// Index of the job minimizing `key` (first wins ties; keys built on
/// `seq` never tie). Caller guarantees a non-empty slice.
fn position_of_min<K: Ord>(jobs: &[QueuedJob], key: impl Fn(&QueuedJob) -> K) -> usize {
    let mut best = 0;
    let mut best_key = key(&jobs[0]);
    for (i, j) in jobs.iter().enumerate().skip(1) {
        let k = key(j);
        if k < best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TuneRequest;
    use acclaim_collectives::Collective;
    use acclaim_core::AcclaimConfig;
    use acclaim_dataset::{DatasetConfig, FeatureSpace};

    fn request(seed: u64) -> TuneRequest {
        let mut dataset = DatasetConfig::tiny();
        dataset.seed = seed;
        TuneRequest {
            dataset,
            config: AcclaimConfig::new(FeatureSpace::tiny()),
            collectives: vec![Collective::Bcast],
            priority: Priority::Normal,
        }
    }

    fn job(id: JobId, priority: Priority, fingerprint: u64) -> QueuedJob {
        QueuedJob {
            seq: 0,
            priority,
            fingerprint,
            request: request(id),
            state: Arc::new(JobState::new(id)),
            submitted: Instant::now(),
            retune: None,
        }
    }

    fn push(q: &JobQueue, id: JobId, priority: Priority, fingerprint: u64) -> Arc<JobState> {
        let job = job(id, priority, fingerprint);
        let state = job.state.clone();
        assert!(q.push(job).is_ok());
        state
    }

    #[test]
    fn pop_orders_by_priority_then_fifo() {
        let q = JobQueue::new(0);
        push(&q, 1, Priority::Low, 1);
        push(&q, 2, Priority::Normal, 2);
        push(&q, 3, Priority::High, 3);
        push(&q, 4, Priority::Normal, 4);
        push(&q, 5, Priority::High, 5);
        let order: Vec<JobId> = (0..5)
            .map(|_| q.pop_blocking().unwrap().state.id())
            .collect();
        assert_eq!(order, vec![3, 5, 2, 4, 1]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn starvation_tick_pops_the_oldest_job() {
        // Window 2: every second pop takes the oldest job even though
        // higher-priority work keeps arriving.
        let q = JobQueue::new(2);
        push(&q, 1, Priority::Low, 1);
        for id in 2..=5 {
            push(&q, id, Priority::High, id);
        }
        // Pop 1: High (job 2). Pop 2: starvation tick → oldest (job 1).
        assert_eq!(q.pop_blocking().unwrap().state.id(), 2);
        assert_eq!(q.pop_blocking().unwrap().state.id(), 1);
        assert_eq!(q.pop_blocking().unwrap().state.id(), 3);
    }

    #[test]
    fn low_priority_job_is_never_starved_forever() {
        // Regression: with a continuous high-priority stream, the Low
        // job must still be popped within `window * stream` pops.
        let window = 8;
        let q = JobQueue::new(window);
        push(&q, 0, Priority::Low, 0);
        let mut next_id = 1;
        let mut popped_low_after = None;
        for pop in 0..64u64 {
            // Keep the queue saturated with fresh High jobs.
            while q.len() < 4 {
                push(&q, next_id, Priority::High, next_id);
                next_id += 1;
            }
            let job = q.pop_blocking().unwrap();
            if job.priority == Priority::Low {
                popped_low_after = Some(pop + 1);
                break;
            }
        }
        let after = popped_low_after.expect("low-priority job starved");
        assert!(
            after <= window,
            "low job took {after} pops (window {window})"
        );
    }

    #[test]
    fn take_matching_returns_riders_oldest_first() {
        let q = JobQueue::new(0);
        push(&q, 1, Priority::Normal, 7);
        push(&q, 2, Priority::Normal, 9);
        push(&q, 3, Priority::High, 7);
        push(&q, 4, Priority::Normal, 7);
        let primary = q.pop_blocking().unwrap();
        assert_eq!(primary.state.id(), 3);
        let riders = q.take_matching(primary.fingerprint);
        assert_eq!(
            riders.iter().map(|j| j.state.id()).collect::<Vec<_>>(),
            vec![1, 4]
        );
        assert_eq!(q.len(), 1, "the unrelated job stays queued");
    }

    #[test]
    fn remove_takes_a_queued_job_exactly_once() {
        let q = JobQueue::new(0);
        push(&q, 1, Priority::Normal, 1);
        push(&q, 2, Priority::Normal, 2);
        assert_eq!(q.remove(1).unwrap().state.id(), 1);
        assert!(q.remove(1).is_none());
        assert_eq!(q.pop_blocking().unwrap().state.id(), 2);
    }

    #[test]
    fn close_rejects_pushes_and_wakes_poppers() {
        let q = Arc::new(JobQueue::new(0));
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.pop_blocking().is_none());
        // Give the waiter a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(waiter.join().unwrap(), "popper must wake with None");
        let rejected = q.push(job(9, Priority::Normal, 9)).unwrap_err();
        assert_eq!(rejected.state.id(), 9, "a closed queue hands the job back");
    }

    #[test]
    fn terminal_status_is_sticky() {
        let s = JobState::new(1);
        assert!(s.set(JobStatus::Running));
        assert!(s.set(JobStatus::Cancelled));
        assert!(!s.set(JobStatus::Failed("late".into())));
        assert!(matches!(s.status(), JobStatus::Cancelled));
        assert!(s.status().is_terminal());
        assert_eq!(s.status().label(), "cancelled");
    }
}
