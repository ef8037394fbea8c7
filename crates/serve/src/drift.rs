//! The drift policy engine: per-signature detectors over
//! observed/predicted cost ratios, deciding when a served model has
//! drifted far enough from reality to deserve a warm re-tune.
//!
//! PR 8 landed the *measurement* half of drift — `Observe` feedback
//! flows into `drift.*` ratio counters and gauges. This module is the
//! *policy* half: [`DriftDetector`] keeps a bounded map of per-signature
//! running means over the ratios and answers, on every observation,
//! whether the service should enqueue a background re-tune now.
//!
//! The state machine per signature (all thresholds from
//! [`DriftConfig`]):
//!
//! * **Armed** — the steady state. After `min_obs` window samples, a
//!   mean outside the trigger band `[1/band, band]` fires: the detector
//!   disarms, marks the signature in-flight, starts the cooldown, and
//!   tells the caller to re-tune.
//! * **In flight** — a re-tune is queued or running. Further
//!   excursions are suppressed (counted, never acted on) until the
//!   service reports the re-tune terminal via
//!   [`DriftDetector::retune_finished`]. A successful re-tune resets
//!   the window — ratios against the replaced model say nothing about
//!   the new one; a failed one re-arms so the cooldown paces a retry.
//! * **Hysteresis** — after a successful re-tune the signature reports
//!   disarmed until the fresh window's mean settles inside the tighter
//!   re-arm band `[1/r, r]` with `r = 1 + (band-1)/2`; gray-zone means
//!   (inside the trigger band, outside the re-arm band) leave it
//!   disarmed. Arming is an observability signal, not a trigger gate: a
//!   window refilled after a re-tune that *still* sits outside the
//!   trigger band is fresh evidence the re-tune was not enough, and
//!   fires again once the cooldown drains — which is also what paces a
//!   model that stays wrong, so it cannot storm the queue.
//! * **Cooldown** — `cooldown_obs` observations must pass after a
//!   trigger before the next one, armed or not.
//!
//! The detector is deliberately independent of whether the service's
//! telemetry recorder is enabled: policy must not be blind in the
//! default (telemetry-off) configuration. Tracked signatures are
//! bounded by `max_signatures` with least-recently-observed eviction,
//! so a daemon fed unbounded distinct signatures holds bounded state.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Tuning knobs for the drift policy. `band <= 1.0` disables
/// triggering (the detector still tracks means for the `drift.ratio.*`
/// gauges); this is the default, so a plain service behaves exactly
/// like the measurement-only daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Trigger when a signature's mean ratio leaves `[1/band, band]`.
    /// Values `<= 1.0` disable triggering entirely.
    pub band: f64,
    /// Window samples required before the mean is trusted to trigger
    /// (or to re-arm).
    pub min_obs: u64,
    /// Observations that must pass after a trigger before the next
    /// trigger on the same signature.
    pub cooldown_obs: u64,
    /// Weight in `[0, 1]` applied when thinning store rows from the
    /// drifted regime into re-tune priors (lower = trust old rows
    /// less).
    pub deweight: f64,
    /// Bound on tracked signatures; the least recently observed one is
    /// evicted at capacity. `0` means 1 (the map is never unbounded).
    pub max_signatures: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            band: 0.0,
            min_obs: 16,
            cooldown_obs: 32,
            deweight: 0.75,
            max_signatures: 1024,
        }
    }
}

impl DriftConfig {
    /// Whether this configuration can ever trigger a re-tune.
    pub fn enabled(&self) -> bool {
        self.band > 1.0
    }

    /// The re-arm (hysteresis) band edge: halfway between 1 and the
    /// trigger edge.
    fn rearm_edge(&self) -> f64 {
        1.0 + (self.band - 1.0) * 0.5
    }
}

/// Per-signature detector state.
#[derive(Debug)]
struct SigState {
    /// Samples in the current window.
    count: u64,
    /// Running mean of the window's ratios.
    mean: f64,
    /// Settled inside the re-arm band (observability hysteresis).
    armed: bool,
    /// Observations left before the cooldown expires.
    cooldown_left: u64,
    /// A triggered re-tune has not yet finished.
    in_flight: bool,
    /// Re-tunes triggered for this signature.
    retunes: u64,
    /// Lifetime observations (windows reset, this does not).
    total_obs: u64,
    /// The most recent ratio.
    last_ratio: f64,
    /// Recency stamp for least-recently-observed eviction.
    last_seq: u64,
}

impl SigState {
    fn new() -> Self {
        SigState {
            count: 0,
            mean: 0.0,
            armed: true,
            cooldown_left: 0,
            in_flight: false,
            retunes: 0,
            total_obs: 0,
            last_ratio: 0.0,
            last_seq: 0,
        }
    }
}

#[derive(Debug, Default)]
struct DetectorInner {
    states: HashMap<String, SigState>,
    seq: u64,
    triggered: u64,
    completed: u64,
    suppressed: u64,
    evicted: u64,
}

/// What one observation decided. `trigger` is `true` at most once per
/// excursion: the caller must enqueue a re-tune and eventually call
/// [`DriftDetector::retune_finished`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDecision {
    /// Enqueue a re-tune for this signature now.
    pub trigger: bool,
    /// The window's running mean after this observation.
    pub mean: f64,
    /// Window sample count after this observation.
    pub count: u64,
}

/// Point-in-time detector state, served over the `DriftStatus`
/// protocol verb and rendered by `client drift`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftStatusReport {
    /// The trigger band edge (`<= 1.0` means triggering is disabled).
    pub band: f64,
    /// Whether triggering is enabled.
    pub enabled: bool,
    /// Window samples required before triggering.
    pub min_obs: u64,
    /// Post-trigger cooldown in observations.
    pub cooldown_obs: u64,
    /// Signatures currently tracked.
    pub tracked: usize,
    /// Re-tunes triggered since start.
    pub triggered: u64,
    /// Triggered re-tunes that completed successfully.
    pub completed: u64,
    /// Out-of-band observations suppressed by the cooldown or an
    /// in-flight re-tune.
    pub suppressed: u64,
    /// Signatures evicted by the capacity bound.
    pub evicted: u64,
    /// Per-signature state, sorted by key.
    pub signatures: Vec<DriftSignatureStatus>,
}

/// One tracked signature's detector state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftSignatureStatus {
    /// The store key of the signature.
    pub key: String,
    /// Lifetime observations.
    pub observations: u64,
    /// Samples in the current window.
    pub window: u64,
    /// The window's mean observed/predicted ratio.
    pub mean: f64,
    /// The most recent ratio.
    pub last_ratio: f64,
    /// Settled: the mean sits (or has settled back) inside the re-arm
    /// band. Cleared by a trigger; purely an observability signal.
    pub armed: bool,
    /// A triggered re-tune is queued or running.
    pub in_flight: bool,
    /// Observations left on the cooldown.
    pub cooldown_left: u64,
    /// Re-tunes triggered for this signature.
    pub retunes: u64,
}

/// The service-wide drift detector. One mutex guards all state —
/// observations are rare (one per client-reported collective call) and
/// the critical section is a map probe plus a handful of float ops.
#[derive(Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    inner: Mutex<DetectorInner>,
}

impl DriftDetector {
    /// Build a detector with the given policy.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            inner: Mutex::new(DetectorInner::default()),
        }
    }

    /// The policy this detector runs.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Signatures currently tracked.
    pub fn tracked(&self) -> usize {
        self.inner.lock().unwrap().states.len()
    }

    /// Fold one observed/predicted ratio for `key` into its window and
    /// decide whether to trigger a re-tune. Callers pass only finite,
    /// positive ratios.
    pub fn observe(&self, key: &str, ratio: f64) -> DriftDecision {
        let config = self.config;
        let mut inner = self.inner.lock().unwrap();
        inner.seq += 1;
        let seq = inner.seq;
        if !inner.states.contains_key(key) {
            let cap = config.max_signatures.max(1);
            if inner.states.len() >= cap {
                // Evict the least recently observed signature to stay
                // within the bound.
                if let Some(stale) = inner
                    .states
                    .iter()
                    .min_by_key(|(_, s)| s.last_seq)
                    .map(|(k, _)| k.clone())
                {
                    inner.states.remove(&stale);
                    inner.evicted += 1;
                }
            }
            inner.states.insert(key.to_string(), SigState::new());
        }
        let state = inner.states.get_mut(key).expect("state just ensured");
        state.last_seq = seq;
        state.total_obs += 1;
        state.last_ratio = ratio;
        state.count += 1;
        state.mean += (ratio - state.mean) / state.count as f64;
        if state.cooldown_left > 0 {
            state.cooldown_left -= 1;
        }
        let decision = DriftDecision {
            trigger: false,
            mean: state.mean,
            count: state.count,
        };
        if !config.enabled() || state.count < config.min_obs {
            return decision;
        }
        let out_of_band = state.mean > config.band || state.mean < 1.0 / config.band;
        if out_of_band {
            // A mean beyond the trigger band with a full window fires
            // whether or not the signature is armed: a window that
            // filled *after* a re-tune and still sits out of band is
            // fresh evidence the re-tune was not enough (the window
            // resets on success, so no stale ratios linger). Re-trigger
            // storms are paced by the cooldown and the in-flight mark,
            // not by the arming hysteresis.
            if !state.in_flight && state.cooldown_left == 0 {
                state.armed = false;
                state.in_flight = true;
                state.cooldown_left = config.cooldown_obs;
                state.retunes += 1;
                inner.triggered += 1;
                return DriftDecision {
                    trigger: true,
                    ..decision
                };
            }
            inner.suppressed += 1;
        } else if !state.armed && !state.in_flight && state.cooldown_left == 0 {
            // Hysteresis: after a re-tune the signature reports
            // disarmed until its mean settles inside the tighter
            // re-arm band. Gray-zone means (between the re-arm and
            // trigger edges) leave it disarmed indefinitely.
            let edge = config.rearm_edge();
            if state.mean <= edge && state.mean >= 1.0 / edge {
                state.armed = true;
            }
        }
        decision
    }

    /// Report a triggered re-tune terminal. On success the affected
    /// windows reset (the old model's residuals say nothing about the
    /// new one) and the hysteresis keeps the signature disarmed until
    /// its fresh mean settles; on failure the signature re-arms so the
    /// cooldown paces a retry.
    pub fn retune_finished(&self, keys: &[String], success: bool) {
        let mut inner = self.inner.lock().unwrap();
        for key in keys {
            let Some(state) = inner.states.get_mut(key) else {
                continue;
            };
            state.in_flight = false;
            if success {
                state.count = 0;
                state.mean = 0.0;
            } else {
                state.armed = true;
            }
        }
        if success {
            inner.completed += 1;
        }
    }

    /// Snapshot the detector for the `DriftStatus` wire verb.
    pub fn status(&self) -> DriftStatusReport {
        let inner = self.inner.lock().unwrap();
        let mut signatures: Vec<DriftSignatureStatus> = inner
            .states
            .iter()
            .map(|(key, s)| DriftSignatureStatus {
                key: key.clone(),
                observations: s.total_obs,
                window: s.count,
                mean: s.mean,
                last_ratio: s.last_ratio,
                armed: s.armed,
                in_flight: s.in_flight,
                cooldown_left: s.cooldown_left,
                retunes: s.retunes,
            })
            .collect();
        signatures.sort_by(|a, b| a.key.cmp(&b.key));
        DriftStatusReport {
            band: self.config.band,
            enabled: self.config.enabled(),
            min_obs: self.config.min_obs,
            cooldown_obs: self.config.cooldown_obs,
            tracked: inner.states.len(),
            triggered: inner.triggered,
            completed: inner.completed,
            suppressed: inner.suppressed,
            evicted: inner.evicted,
            signatures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(band: f64, min_obs: u64, cooldown: u64) -> DriftConfig {
        DriftConfig {
            band,
            min_obs,
            cooldown_obs: cooldown,
            ..DriftConfig::default()
        }
    }

    fn feed(d: &DriftDetector, key: &str, ratio: f64, n: u64) -> u64 {
        (0..n)
            .map(|_| u64::from(d.observe(key, ratio).trigger))
            .sum()
    }

    #[test]
    fn disabled_band_tracks_means_but_never_triggers() {
        let d = DriftDetector::new(config(0.0, 1, 0));
        assert!(!d.config().enabled());
        assert_eq!(feed(&d, "a", 100.0, 50), 0);
        let report = d.status();
        assert_eq!(report.tracked, 1);
        assert_eq!(report.triggered, 0);
        assert!((report.signatures[0].mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn min_obs_gates_the_first_trigger() {
        let d = DriftDetector::new(config(1.5, 8, 0));
        for i in 1..8 {
            assert!(!d.observe("a", 3.0).trigger, "obs {i} is before min_obs");
        }
        assert!(d.observe("a", 3.0).trigger, "obs 8 reaches min_obs");
    }

    #[test]
    fn band_edges_are_exclusive_on_both_sides() {
        // Means exactly at the edge stay in-band; beyond it triggers.
        let d = DriftDetector::new(config(1.5, 2, 0));
        assert_eq!(feed(&d, "hi-edge", 1.5, 10), 0, "mean == band stays quiet");
        let d = DriftDetector::new(config(1.5, 2, 0));
        assert_eq!(feed(&d, "hi", 1.5001, 10), 1, "mean > band triggers once");
        let d = DriftDetector::new(config(1.5, 2, 0));
        assert_eq!(feed(&d, "lo-edge", 1.0 / 1.5, 10), 0);
        let d = DriftDetector::new(config(1.5, 2, 0));
        assert_eq!(
            feed(&d, "lo", 1.0 / 1.6, 10),
            1,
            "pessimistic drift triggers too"
        );
    }

    #[test]
    fn in_flight_suppresses_until_retune_finishes() {
        let d = DriftDetector::new(config(1.5, 2, 0));
        assert_eq!(feed(&d, "a", 4.0, 2), 1);
        // Still drifting, but the re-tune is in flight: suppressed.
        assert_eq!(feed(&d, "a", 4.0, 20), 0);
        let report = d.status();
        assert_eq!(report.triggered, 1);
        assert!(report.suppressed >= 20);
        assert!(report.signatures[0].in_flight);
    }

    #[test]
    fn successful_retune_resets_the_window_and_hysteresis_rearms() {
        let d = DriftDetector::new(config(2.0, 2, 0));
        assert_eq!(feed(&d, "a", 5.0, 2), 1);
        d.retune_finished(&["a".to_string()], true);
        let report = d.status();
        assert_eq!(report.completed, 1);
        assert_eq!(report.signatures[0].window, 0, "window resets on success");
        assert!(!report.signatures[0].armed);

        // Re-arm band is [1/1.5, 1.5]: a mean of 1.8 is inside the
        // trigger band but outside the re-arm band — stays disarmed,
        // never triggers.
        assert_eq!(feed(&d, "a", 1.8, 30), 0);
        assert!(
            !d.status().signatures[0].armed,
            "1.8 must not re-arm at band 2.0"
        );

        // Pull the mean inside the re-arm band: re-arms, then a fresh
        // excursion triggers again.
        assert_eq!(feed(&d, "a", 1.0, 60), 0);
        assert!(d.status().signatures[0].armed);
        assert_eq!(feed(&d, "a", 40.0, 10), 1);
    }

    #[test]
    fn failed_retune_rearms_and_cooldown_paces_the_retry() {
        let cooldown = 10;
        let d = DriftDetector::new(config(1.5, 2, cooldown));
        assert_eq!(feed(&d, "a", 4.0, 2), 1);
        d.retune_finished(&["a".to_string()], false);
        let report = d.status();
        assert_eq!(report.completed, 0);
        assert!(report.signatures[0].armed, "failure re-arms");
        assert!(report.signatures[0].window > 0, "failure keeps the window");
        // Armed and out of band, but the cooldown (10 observations
        // counted from the trigger) holds the retry back until it
        // drains.
        assert_eq!(feed(&d, "a", 4.0, cooldown - 1), 0);
        assert_eq!(
            feed(&d, "a", 4.0, 1),
            1,
            "retry fires when the cooldown drains"
        );
    }

    #[test]
    fn capacity_evicts_the_least_recently_observed_signature() {
        let d = DriftDetector::new(DriftConfig {
            max_signatures: 2,
            ..config(0.0, 1, 0)
        });
        d.observe("a", 1.0);
        d.observe("b", 1.0);
        d.observe("a", 1.0); // refresh a: b is now the stale one
        d.observe("c", 1.0);
        let report = d.status();
        assert_eq!(report.tracked, 2);
        assert_eq!(report.evicted, 1);
        let keys: Vec<&str> = report.signatures.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "c"], "b was least recently observed");
    }

    #[test]
    fn distinct_signatures_keep_independent_windows() {
        let d = DriftDetector::new(config(1.5, 4, 0));
        assert_eq!(feed(&d, "drifting", 3.0, 4), 1);
        assert_eq!(feed(&d, "healthy", 1.0, 40), 0);
        let report = d.status();
        assert_eq!(report.triggered, 1);
        let healthy = report
            .signatures
            .iter()
            .find(|s| s.key == "healthy")
            .unwrap();
        assert!(healthy.armed && !healthy.in_flight);
    }
}
