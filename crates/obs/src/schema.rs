//! The JSONL trace event contract, and a validator over it.
//!
//! Every line emitted by [`crate::export::to_jsonl`] is a complete
//! JSON object with a `type` discriminator:
//!
//! | `type`      | required fields                                                                  |
//! |-------------|----------------------------------------------------------------------------------|
//! | `meta`      | `version` (uint), `clock` (string)                                               |
//! | `span`      | `id` (uint), `parent` (uint or null), `name`, `cat`, `track` (strings), `timeline` (`"host"`/`"sim"`), `start_us`, `end_us` (numbers, `end_us >= start_us`), `attrs` (object) |
//! | `counter`   | `name` (string), `value` (uint)                                                  |
//! | `gauge`     | `name` (string), `value` (number)                                                |
//! | `histogram` | `name` (string), `count` (uint), `sum`, `min`, `max` (numbers), `buckets` (array of `{lo, hi, count}`; `hi` null for the open-ended top bucket) |
//!
//! The first line must be the `meta` line. [`validate_trace`] enforces
//! all of this; the `obs-check` binary wraps it for CI.
//!
//! Two sibling contracts live here as well:
//!
//! * [`validate_metrics_json`] — the single-object metrics exposition
//!   emitted by [`crate::expose::to_metrics_json`] (`type: "metrics"`,
//!   `version`, counter/gauge/histogram maps; histogram bucket counts
//!   must sum to `count`, and `p50 <= p95 <= p99`).
//! * [`validate_flight_records`] — the flight-recorder dump
//!   ([`crate::flight::FlightRecorder::to_jsonl`]): one record per
//!   line with `id`, `fingerprint`, `class`, `outcome` (from the known
//!   outcome set), `riders`, `slow`, and a `phases` object of six
//!   non-negative µs fields whose five phases add up to no more than
//!   `total_us`.
//!
//! `obs-check` exposes both via `--metrics-json` and `--flight`.

use serde_json::Value;

fn require<'a>(obj: &'a Value, field: &str, line: usize) -> Result<&'a Value, String> {
    obj.get(field)
        .ok_or_else(|| format!("line {line}: missing field `{field}`"))
}

fn require_str<'a>(obj: &'a Value, field: &str, line: usize) -> Result<&'a str, String> {
    require(obj, field, line)?
        .as_str()
        .ok_or_else(|| format!("line {line}: `{field}` must be a string"))
}

fn require_uint(obj: &Value, field: &str, line: usize) -> Result<u64, String> {
    require(obj, field, line)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: `{field}` must be a non-negative integer"))
}

fn require_num(obj: &Value, field: &str, line: usize) -> Result<f64, String> {
    require(obj, field, line)?
        .as_f64()
        .ok_or_else(|| format!("line {line}: `{field}` must be a number"))
}

/// Validate one JSONL trace line (1-based `line` for error messages).
pub fn validate_line(text: &str, line: usize) -> Result<(), String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("line {line}: not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err(format!("line {line}: top level must be a JSON object"));
    }
    match require_str(&v, "type", line)? {
        "meta" => {
            require_uint(&v, "version", line)?;
            require_str(&v, "clock", line)?;
        }
        "span" => {
            require_uint(&v, "id", line)?;
            let parent = require(&v, "parent", line)?;
            if !parent.is_null() && parent.as_u64().is_none() {
                return Err(format!("line {line}: `parent` must be null or an id"));
            }
            require_str(&v, "name", line)?;
            require_str(&v, "cat", line)?;
            require_str(&v, "track", line)?;
            let timeline = require_str(&v, "timeline", line)?;
            if timeline != "host" && timeline != "sim" {
                return Err(format!(
                    "line {line}: `timeline` must be \"host\" or \"sim\", got {timeline:?}"
                ));
            }
            let start = require_num(&v, "start_us", line)?;
            let end = require_num(&v, "end_us", line)?;
            if end < start {
                return Err(format!(
                    "line {line}: end_us ({end}) precedes start_us ({start})"
                ));
            }
            if require(&v, "attrs", line)?.as_object().is_none() {
                return Err(format!("line {line}: `attrs` must be an object"));
            }
        }
        "counter" => {
            require_str(&v, "name", line)?;
            require_uint(&v, "value", line)?;
        }
        "gauge" => {
            require_str(&v, "name", line)?;
            require_num(&v, "value", line)?;
        }
        "histogram" => {
            require_str(&v, "name", line)?;
            require_uint(&v, "count", line)?;
            require_num(&v, "sum", line)?;
            require_num(&v, "min", line)?;
            require_num(&v, "max", line)?;
            let buckets = require(&v, "buckets", line)?
                .as_array()
                .ok_or_else(|| format!("line {line}: `buckets` must be an array"))?;
            let mut total = 0u64;
            for b in buckets {
                require_num(b, "lo", line)?;
                let hi = require(b, "hi", line)?;
                if !hi.is_null() && hi.as_f64().is_none() {
                    return Err(format!("line {line}: bucket `hi` must be null or a number"));
                }
                total += require_uint(b, "count", line)?;
            }
            let count = require_uint(&v, "count", line)?;
            if total != count {
                return Err(format!(
                    "line {line}: bucket counts sum to {total} but `count` is {count}"
                ));
            }
        }
        other => {
            return Err(format!("line {line}: unknown record type {other:?}"));
        }
    }
    Ok(())
}

/// Validate a whole JSONL trace document. Returns the number of
/// validated lines; enforces that the first line is `meta` and that
/// span parent references resolve to earlier-declared span ids.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let mut seen_ids = std::collections::BTreeSet::new();
    let mut n = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            return Err(format!("line {line}: blank line in JSONL trace"));
        }
        validate_line(raw, line)?;
        let v: Value = serde_json::from_str(raw).expect("validated line parses");
        let ty = v.get("type").and_then(Value::as_str).unwrap_or_default();
        if idx == 0 && ty != "meta" {
            return Err(format!("line 1: first record must be `meta`, got {ty:?}"));
        }
        if idx > 0 && ty == "meta" {
            return Err(format!("line {line}: duplicate `meta` record"));
        }
        if ty == "span" {
            let id = v.get("id").and_then(Value::as_u64).expect("validated id");
            if let Some(parent) = v.get("parent").and_then(Value::as_u64) {
                if !seen_ids.contains(&parent) {
                    return Err(format!(
                        "line {line}: span {id} references unknown parent {parent}"
                    ));
                }
            }
            if !seen_ids.insert(id) {
                return Err(format!("line {line}: duplicate span id {id}"));
            }
        }
        n += 1;
    }
    if n == 0 {
        return Err("empty trace: expected at least a `meta` line".to_string());
    }
    Ok(n)
}

fn require_object<'a>(
    obj: &'a Value,
    field: &str,
    line: usize,
) -> Result<&'a serde_json::Map, String> {
    require(obj, field, line)?
        .as_object()
        .ok_or_else(|| format!("line {line}: `{field}` must be an object"))
}

fn validate_histogram_body(v: &Value, name: &str, line: usize) -> Result<(), String> {
    let count = require_uint(v, "count", line)?;
    for field in ["sum", "min", "max", "mean"] {
        require_num(v, field, line)?;
    }
    let p50 = require_num(v, "p50", line)?;
    let p95 = require_num(v, "p95", line)?;
    let p99 = require_num(v, "p99", line)?;
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "line {line}: histogram {name:?} quantiles not monotone (p50={p50}, p95={p95}, p99={p99})"
        ));
    }
    let buckets = require(v, "buckets", line)?
        .as_array()
        .ok_or_else(|| format!("line {line}: histogram {name:?} `buckets` must be an array"))?;
    let mut total = 0u64;
    for b in buckets {
        require_num(b, "lo", line)?;
        let hi = require(b, "hi", line)?;
        if !hi.is_null() && hi.as_f64().is_none() {
            return Err(format!("line {line}: bucket `hi` must be null or a number"));
        }
        total += require_uint(b, "count", line)?;
    }
    if total != count {
        return Err(format!(
            "line {line}: histogram {name:?} bucket counts sum to {total} but `count` is {count}"
        ));
    }
    Ok(())
}

/// Validate the single-object JSON metrics exposition emitted by
/// [`crate::expose::to_metrics_json`].
pub fn validate_metrics_json(text: &str) -> Result<(), String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("line 1: not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("line 1: top level must be a JSON object".to_string());
    }
    let ty = require_str(&v, "type", 1)?;
    if ty != "metrics" {
        return Err(format!("line 1: `type` must be \"metrics\", got {ty:?}"));
    }
    require_uint(&v, "version", 1)?;
    for (name, value) in require_object(&v, "counters", 1)?.iter() {
        if value.as_u64().is_none() {
            return Err(format!(
                "line 1: counter {name:?} must be a non-negative integer"
            ));
        }
    }
    for (name, value) in require_object(&v, "gauges", 1)?.iter() {
        if value.as_f64().is_none() {
            return Err(format!("line 1: gauge {name:?} must be a number"));
        }
    }
    for (name, value) in require_object(&v, "histograms", 1)?.iter() {
        if value.as_object().is_none() {
            return Err(format!("line 1: histogram {name:?} must be an object"));
        }
        validate_histogram_body(value, name, 1)?;
    }
    Ok(())
}

/// Terminal outcomes a flight record may carry. `retuned` marks a
/// drift-triggered warm re-tune the service submitted to itself.
pub const FLIGHT_OUTCOMES: [&str; 5] = ["trained", "retuned", "cached", "cancelled", "failed"];

/// Phase fields every flight record's `phases` object must carry.
pub const FLIGHT_PHASES: [&str; 6] = [
    "queue_wait_us",
    "probe_us",
    "collect_us",
    "refit_us",
    "write_back_us",
    "total_us",
];

/// Validate one line of a flight-recorder dump.
pub fn validate_flight_line(text: &str, line: usize) -> Result<(), String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("line {line}: not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err(format!("line {line}: top level must be a JSON object"));
    }
    require_uint(&v, "id", line)?;
    require_uint(&v, "fingerprint", line)?;
    require_str(&v, "class", line)?;
    let outcome = require_str(&v, "outcome", line)?;
    if !FLIGHT_OUTCOMES.contains(&outcome) {
        return Err(format!(
            "line {line}: `outcome` must be one of {FLIGHT_OUTCOMES:?}, got {outcome:?}"
        ));
    }
    require_uint(&v, "riders", line)?;
    if require(&v, "slow", line)?.as_bool().is_none() {
        return Err(format!("line {line}: `slow` must be a boolean"));
    }
    let phases = require(&v, "phases", line)?;
    if phases.as_object().is_none() {
        return Err(format!("line {line}: `phases` must be an object"));
    }
    let mut sum = 0.0;
    for field in FLIGHT_PHASES {
        let us = require_num(phases, field, line)?;
        if us < 0.0 {
            return Err(format!(
                "line {line}: `phases.{field}` must be >= 0, got {us}"
            ));
        }
        if field != "total_us" {
            sum += us;
        }
    }
    // The phases are disjoint intervals inside submit → terminal, so
    // they cannot add up to more than the total beyond float rounding.
    let total = require_num(phases, "total_us", line)?;
    if sum > total + 1e-9 * total + 1e-6 {
        return Err(format!(
            "line {line}: phases add up to {sum} us, more than `total_us` {total}"
        ));
    }
    Ok(())
}

/// Validate a whole flight-recorder JSONL dump; returns the number of
/// records (an empty dump is valid — a fresh daemon has no history).
pub fn validate_flight_records(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            return Err(format!("line {line}: blank line in flight dump"));
        }
        validate_flight_line(raw, line)?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::export::to_jsonl;
    use crate::recorder::Obs;

    #[test]
    fn exporter_output_validates() {
        let clock = ManualClock::new();
        let obs = Obs::with_clock(Box::new(clock.clone()));
        {
            let _a = obs.span("learner", "iteration");
            clock.set_us(5.0);
            let _b = obs.span("learner", "fit");
            clock.set_us(9.0);
        }
        obs.span_at("collect", "slot", "nodes 0-1", 0.0, 3.0, Vec::new());
        obs.incr_counter("c", 1);
        obs.record_hist("h", 2.0);
        let text = to_jsonl(&obs.snapshot());
        let n = validate_trace(&text).unwrap();
        assert_eq!(n, text.lines().count());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_line("not json", 1).unwrap_err().contains("line 1"));
        assert!(validate_line("[1,2]", 3).unwrap_err().contains("object"));
        assert!(validate_line(r#"{"type":"mystery"}"#, 1)
            .unwrap_err()
            .contains("unknown record type"));
        assert!(
            validate_line(r#"{"type":"counter","name":"c","value":-1}"#, 1)
                .unwrap_err()
                .contains("non-negative")
        );
        let bad_span = r#"{"type":"span","id":1,"parent":null,"name":"x","cat":"c","track":"t","timeline":"host","start_us":5.0,"end_us":1.0,"attrs":{}}"#;
        assert!(validate_line(bad_span, 1).unwrap_err().contains("precedes"));
        let bad_timeline = r#"{"type":"span","id":1,"parent":null,"name":"x","cat":"c","track":"t","timeline":"dream","start_us":0.0,"end_us":1.0,"attrs":{}}"#;
        assert!(validate_line(bad_timeline, 1)
            .unwrap_err()
            .contains("timeline"));
    }

    #[test]
    fn trace_level_checks() {
        assert!(validate_trace("").unwrap_err().contains("empty trace"));
        let no_meta = r#"{"type":"counter","name":"c","value":1}"#;
        assert!(validate_trace(no_meta).unwrap_err().contains("meta"));
        let orphan = concat!(
            r#"{"type":"meta","version":1,"clock":"manual"}"#,
            "\n",
            r#"{"type":"span","id":2,"parent":7,"name":"x","cat":"c","track":"t","timeline":"host","start_us":0.0,"end_us":1.0,"attrs":{}}"#,
        );
        assert!(validate_trace(orphan)
            .unwrap_err()
            .contains("unknown parent"));
        let bad_hist = concat!(
            r#"{"type":"meta","version":1,"clock":"manual"}"#,
            "\n",
            r#"{"type":"histogram","name":"h","count":3,"sum":1.0,"min":0.1,"max":0.9,"buckets":[{"lo":0.0,"hi":1.0,"count":2}]}"#,
        );
        assert!(validate_trace(bad_hist).unwrap_err().contains("sum to 2"));
    }

    #[test]
    fn metrics_json_checks() {
        let ok = r#"{"type":"metrics","version":1,"counters":{"c":1},"gauges":{"g":0.5},"histograms":{"h":{"count":2,"sum":3.0,"min":1.0,"max":2.0,"mean":1.5,"p50":2.0,"p95":2.0,"p99":2.0,"buckets":[{"lo":1.0,"hi":2.0,"count":1},{"lo":2.0,"hi":null,"count":1}]}}}"#;
        validate_metrics_json(ok).unwrap();
        assert!(validate_metrics_json("not json")
            .unwrap_err()
            .contains("JSON"));
        assert!(validate_metrics_json(r#"{"type":"trace"}"#)
            .unwrap_err()
            .contains("metrics"));
        let bad_counter =
            r#"{"type":"metrics","version":1,"counters":{"c":-1},"gauges":{},"histograms":{}}"#;
        assert!(validate_metrics_json(bad_counter)
            .unwrap_err()
            .contains("non-negative"));
        let bad_sum = ok.replace(r#""count":2"#, r#""count":3"#);
        assert!(validate_metrics_json(&bad_sum)
            .unwrap_err()
            .contains("sum to 2"));
        let bad_quantiles = ok.replace(r#""p95":2.0"#, r#""p95":0.5"#);
        assert!(validate_metrics_json(&bad_quantiles)
            .unwrap_err()
            .contains("monotone"));
    }

    #[test]
    fn flight_record_checks() {
        let ok = r#"{"id":3,"fingerprint":9,"class":"normal","outcome":"trained","riders":1,"slow":false,"phases":{"queue_wait_us":1.0,"probe_us":0.5,"collect_us":10.0,"refit_us":2.0,"write_back_us":0.5,"total_us":14.0}}"#;
        assert_eq!(validate_flight_records(ok).unwrap(), 1);
        assert_eq!(validate_flight_records("").unwrap(), 0);
        assert!(validate_flight_line(&ok.replace("trained", "vanished"), 1)
            .unwrap_err()
            .contains("outcome"));
        assert!(
            validate_flight_line(&ok.replace(r#""slow":false"#, r#""slow":0"#), 1)
                .unwrap_err()
                .contains("boolean")
        );
        assert!(
            validate_flight_line(&ok.replace(r#""probe_us":0.5"#, r#""probe_us":-0.5"#), 1)
                .unwrap_err()
                .contains(">= 0")
        );
        let missing_phase = ok.replace(r#""refit_us":2.0,"#, "");
        assert!(validate_flight_line(&missing_phase, 1)
            .unwrap_err()
            .contains("refit_us"));
        // The five phases of `ok` add up to exactly its total; a total
        // below their sum is rejected.
        let short_total = ok.replace(r#""total_us":14.0"#, r#""total_us":13.5"#);
        assert!(validate_flight_line(&short_total, 1)
            .unwrap_err()
            .contains("more than `total_us`"));
        let rounded = ok.replace(r#""total_us":14.0"#, r#""total_us":13.9999999999"#);
        assert!(validate_flight_line(&rounded, 1).is_ok());
    }
}
