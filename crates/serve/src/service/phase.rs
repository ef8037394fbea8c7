//! Phase timing of one served request.
//!
//! A [`RequestClock`] starts when a worker pops the job and keeps the
//! last phase boundary as one `Instant`. Ending a phase reads the
//! clock once; that one reading sets the request's [`PhaseTimings`]
//! field, records the `serve.phase.*` sample and stamps the host span
//! on the request's `req <id>` track. Spans are stamped as *end minus
//! duration* on the recorder's clock, so a span lasts exactly as long
//! as the phase time the flight record reports. Finishing the request
//! sets the end-to-end total, applies the slow-log check, emits the
//! whole-`request` span and writes the flight record, in that order:
//! the flight record is the request's last telemetry write.

use super::ServiceInner;
use crate::queue::QueuedJob;
use acclaim_obs::{AttrValue, Counter, FlightRecord, Histogram, Obs, PhaseTimings};
use std::time::Instant;

/// The `serve.phase.*` histograms and the slow-request counter.
#[derive(Debug)]
pub(super) struct PhaseMetrics {
    queue_wait_us: Histogram,
    probe_us: Histogram,
    collect_us: Histogram,
    refit_us: Histogram,
    write_back_us: Histogram,
    total_us: Histogram,
    slow_requests: Counter,
}

impl PhaseMetrics {
    pub(super) fn new(obs: &Obs) -> Self {
        PhaseMetrics {
            queue_wait_us: obs.histogram("serve.phase.queue_wait_us"),
            probe_us: obs.histogram("serve.phase.probe_us"),
            collect_us: obs.histogram("serve.phase.collect_us"),
            refit_us: obs.histogram("serve.phase.refit_us"),
            write_back_us: obs.histogram("serve.phase.write_back_us"),
            total_us: obs.histogram("serve.phase.total_us"),
            slow_requests: obs.counter("serve.slow_requests"),
        }
    }
}

/// A phase that ends at a boundary of [`RequestClock`].
pub(super) enum Phase {
    /// Submit → worker pop.
    QueueWait,
    /// The warm-start store probe.
    Probe,
    /// Training: the collectives' model updates took `refit_us` of
    /// their summed training walls `train_us`, the rest went to
    /// benchmark collection. Collectives that train concurrently sum
    /// to more than the phase, so both terms shrink by the same factor
    /// until they fit: refit plus collection is always the phase wall.
    /// Its span carries the phase's `refit_us`.
    Collect { refit_us: f64, train_us: f64 },
    /// Store write-back of the trained entries.
    WriteBack,
}

/// The phase boundaries of one served request. See the module docs.
pub(super) struct RequestClock<'a> {
    inner: &'a ServiceInner,
    job: &'a QueuedJob,
    track: String,
    /// The last boundary: where the next phase starts.
    mark: Instant,
    phases: PhaseTimings,
}

impl<'a> RequestClock<'a> {
    /// Start timing `job` as a worker pops it, ending its queue wait.
    pub(super) fn popped(inner: &'a ServiceInner, job: &'a QueuedJob) -> Self {
        let id = job.state.id();
        let mut clock = RequestClock {
            inner,
            job,
            track: format!("req {id}"),
            mark: job.submitted,
            phases: PhaseTimings::default(),
        };
        let class = job.priority.label();
        clock.end(
            Phase::QueueWait,
            vec![("id".into(), id.into()), ("class".into(), class.into())],
        );
        clock
    }

    /// Start the next phase now. The time since the last boundary
    /// (cache lookup, waiting for a slot, building the benchmark
    /// database) belongs to no phase.
    pub(super) fn restart(&mut self) {
        self.mark = Instant::now();
    }

    /// End `phase` now; the next phase starts at the same instant.
    pub(super) fn end(&mut self, phase: Phase, mut attrs: Vec<(String, AttrValue)>) {
        let now = Instant::now();
        let us = (now - self.mark).as_secs_f64() * 1e6;
        self.mark = now;
        let (m, p) = (&self.inner.phase_metrics, &mut self.phases);
        let (name, field, histogram, value) = match phase {
            Phase::QueueWait => ("queue_wait", &mut p.queue_wait_us, &m.queue_wait_us, us),
            Phase::Probe => ("probe", &mut p.probe_us, &m.probe_us, us),
            Phase::Collect { refit_us, train_us } => {
                let refit_us = if train_us > us {
                    refit_us * us / train_us
                } else {
                    refit_us
                };
                p.refit_us = refit_us;
                m.refit_us.record(refit_us);
                attrs.push(("refit_us".into(), refit_us.into()));
                ("collect", &mut p.collect_us, &m.collect_us, us - refit_us)
            }
            Phase::WriteBack => ("write_back", &mut p.write_back_us, &m.write_back_us, us),
        };
        *field = value;
        histogram.record(value);
        self.span(name, us, attrs);
    }

    /// A host span of `us` ending now on this request's track.
    fn span(&self, name: &str, us: f64, attrs: Vec<(String, AttrValue)>) {
        let obs = &self.inner.obs;
        let end = obs.now_us();
        obs.host_span_at("serve", name, &self.track, (end - us).max(0.0), end, attrs);
    }

    /// The request reached its terminal `outcome`, settling `riders`
    /// coalesced jobs with it.
    pub(super) fn finish(mut self, outcome: &str, riders: u64) {
        let (inner, job) = (self.inner, self.job);
        let (id, class) = (job.state.id(), job.priority.label());
        let m = &inner.phase_metrics;
        let p = &mut self.phases;
        p.total_us = job.submitted.elapsed().as_secs_f64() * 1e6;
        m.total_us.record(p.total_us);
        // Slow: a configured `--slow-log` factor, an 8-sample warm-up so
        // the median means something, and `total > factor × p50`. With
        // telemetry disabled the histogram stays empty, so nothing is
        // ever slow.
        let slow = inner.slow_log_factor.is_some_and(|factor| {
            let snap = m.total_us.snapshot();
            snap.count >= 8 && p.total_us > factor * snap.quantile(0.5)
        });
        if slow {
            m.slow_requests.incr();
            inner.diag.warn(&format!(
                "slow request id={} fingerprint={:016x} outcome={} total={:.0}us \
                 (queue={:.0} probe={:.0} collect={:.0} refit={:.0} write_back={:.0})",
                id,
                job.fingerprint,
                outcome,
                p.total_us,
                p.queue_wait_us,
                p.probe_us,
                p.collect_us,
                p.refit_us,
                p.write_back_us,
            ));
        }
        let phases = *p;
        self.span(
            "request",
            phases.total_us,
            vec![
                ("id".into(), id.into()),
                ("fingerprint".into(), job.fingerprint.into()),
                ("class".into(), class.into()),
                ("outcome".into(), outcome.into()),
                ("riders".into(), riders.into()),
                ("slow".into(), slow.into()),
            ],
        );
        inner.flight.record(FlightRecord {
            id,
            fingerprint: job.fingerprint,
            class: class.to_string(),
            outcome: outcome.to_string(),
            riders,
            slow,
            phases,
        });
    }
}
