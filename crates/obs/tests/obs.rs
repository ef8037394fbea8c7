//! Property and integration tests for `acclaim-obs`: random span trees
//! must keep their nesting invariants through export, JSONL output must
//! always validate against the schema, and histogram bucketing must be
//! consistent with the published bucket bounds for arbitrary inputs.

use acclaim_obs::export::{to_chrome, to_jsonl};
use acclaim_obs::metrics::{bucket_index, bucket_lower_bound, bucket_upper_bound};
use acclaim_obs::schema::validate_trace;
use acclaim_obs::{AttrValue, Clock, ManualClock, Obs, Timeline};
use proptest::prelude::*;
use serde_json::Value;

/// One step of a random instrumentation scenario.
#[derive(Debug, Clone)]
enum Step {
    /// Open a guarded span (pushes onto the live stack).
    Open,
    /// Close the innermost open span, if any.
    Close,
    /// Advance the manual clock.
    Advance(u32),
    /// Record an explicit sim-timeline slot span of the given length.
    Slot(u32),
    /// Bump a counter and a histogram.
    Metric(u32),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u32..5, 1u32..1000).prop_map(|(kind, arg)| match kind {
        0 => Step::Open,
        1 => Step::Close,
        2 => Step::Advance(arg),
        3 => Step::Slot(arg),
        _ => Step::Metric(arg),
    });
    proptest::collection::vec(step, 1..40)
}

/// Run a scenario against a manual-clock recorder. Guards are held in a
/// stack so open/close order matches real nested instrumentation.
fn run_scenario(script: &[Step]) -> acclaim_obs::TraceSnapshot {
    let clock = ManualClock::new();
    let obs = Obs::with_clock(Box::new(clock.clone()));
    let mut stack = Vec::new();
    for step in script {
        match step {
            Step::Open => stack.push(obs.span("test", "node").attr("depth", stack.len() as u64)),
            Step::Close => {
                stack.pop();
            }
            Step::Advance(dt) => clock.advance_us(f64::from(*dt)),
            Step::Slot(len) => {
                let t = clock.now_us();
                obs.span_at(
                    "collect",
                    "slot",
                    "nodes 0-1",
                    t,
                    t + f64::from(*len),
                    vec![("len".to_string(), AttrValue::U64(u64::from(*len)))],
                );
            }
            Step::Metric(v) => {
                obs.incr_counter("events", 1);
                obs.record_hist("values", f64::from(*v));
            }
        }
    }
    drop(stack); // close any spans still open
    obs.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_nesting_invariants_hold(script in steps()) {
        let snap = run_scenario(&script);
        let by_id: std::collections::BTreeMap<u64, _> =
            snap.spans.iter().map(|s| (s.id, s)).collect();
        prop_assert_eq!(by_id.len(), snap.spans.len(), "span ids must be unique");
        for s in &snap.spans {
            prop_assert!(s.end_us >= s.start_us);
            if let Some(pid) = s.parent {
                let p = by_id.get(&pid).expect("parent span exists in snapshot");
                // A child's interval nests inside its parent's.
                prop_assert!(p.start_us <= s.start_us, "parent starts first");
                prop_assert!(p.end_us >= s.end_us, "parent ends last");
                prop_assert_eq!(p.timeline, Timeline::Host);
            }
            if s.timeline == Timeline::Sim {
                prop_assert!(s.parent.is_none(), "explicit spans have no parent");
            }
        }
        // Snapshot ordering is (start_us, id).
        for pair in snap.spans.windows(2) {
            prop_assert!(
                (pair[0].start_us, pair[0].id) <= (pair[1].start_us, pair[1].id)
            );
        }
    }

    #[test]
    fn jsonl_always_validates_and_round_trips(script in steps()) {
        let snap = run_scenario(&script);
        let text = to_jsonl(&snap);
        let n = validate_trace(&text).expect("exported trace validates");
        prop_assert_eq!(n, text.lines().count());
        // Round-trip: every span line reparses with the original fields.
        let parsed: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        let span_lines: Vec<&Value> = parsed
            .iter()
            .filter(|v| v.get("type").unwrap().as_str() == Some("span"))
            .collect();
        prop_assert_eq!(span_lines.len(), snap.spans.len());
        for (line, span) in span_lines.iter().zip(&snap.spans) {
            prop_assert_eq!(line.get("id").unwrap().as_u64(), Some(span.id));
            prop_assert_eq!(
                line.get("start_us").unwrap().as_f64(),
                Some(span.start_us)
            );
            prop_assert_eq!(line.get("end_us").unwrap().as_f64(), Some(span.end_us));
            prop_assert_eq!(
                line.get("timeline").unwrap().as_str(),
                Some(span.timeline.as_str())
            );
        }
        // Counter totals survive the trip.
        let metrics: u64 = script
            .iter()
            .filter(|s| matches!(s, Step::Metric(_)))
            .count() as u64;
        if metrics > 0 {
            let counter = parsed
                .iter()
                .find(|v| v.get("type").unwrap().as_str() == Some("counter"))
                .expect("counter line present");
            prop_assert_eq!(counter.get("value").unwrap().as_u64(), Some(metrics));
        }
    }

    #[test]
    fn chrome_export_always_parses(script in steps()) {
        let snap = run_scenario(&script);
        let v: Value = serde_json::from_str(&to_chrome(&snap)).expect("chrome JSON");
        let events = v.as_array().expect("top-level array");
        let complete = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        prop_assert_eq!(complete, snap.spans.len());
        for e in events.iter() {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            prop_assert!(ph == "X" || ph == "M");
            if ph == "X" {
                prop_assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values(v in 1e-12f64..1e12) {
        let i = bucket_index(v);
        prop_assert!(bucket_lower_bound(i) <= v, "lo({i}) <= {v}");
        prop_assert!(v < bucket_upper_bound(i), "{v} < hi({i})");
        // Bounds tile the line: each upper bound is the next lower bound.
        if i + 1 < acclaim_obs::metrics::HISTOGRAM_BUCKETS {
            prop_assert_eq!(bucket_upper_bound(i), bucket_lower_bound(i + 1));
        }
    }
}

#[test]
fn histogram_snapshot_matches_bucket_functions() {
    let obs = Obs::enabled();
    let h = obs.histogram("t");
    let values = [0.3, 1.0, 7.7, 4096.0, 1e-40, 2.0f64.powi(40)];
    for v in values {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, values.len() as u64);
    for b in &snap.buckets {
        let hits = values
            .iter()
            .filter(|&&v| {
                let i = bucket_index(v);
                bucket_lower_bound(i) == b.lo
            })
            .count() as u64;
        assert_eq!(b.count, hits, "bucket [{}, {}) count", b.lo, b.hi);
    }
}
