//! `obs-check` — validate emitted telemetry against the acclaim-obs
//! schemas.
//!
//! Usage:
//!
//! * `obs-check <trace.jsonl> [more.jsonl ...]` — JSONL trace documents
//!   (the default).
//! * `obs-check --metrics-json <metrics.json> [...]` — single-object
//!   metrics expositions (`client metrics --json`).
//! * `obs-check --flight <flight.jsonl> [...]` — flight-recorder dumps
//!   (`client trace --json`).
//!
//! Exits 0 when every file validates (printing a per-file summary),
//! 1 with a line-numbered error otherwise. CI runs this over the
//! traces, metrics scrapes, and flight dumps its smoke jobs emit.

use std::process::ExitCode;

enum Mode {
    Trace,
    MetricsJson,
    Flight,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mode = match args.peek().map(String::as_str) {
        Some("--metrics-json") => {
            args.next();
            Mode::MetricsJson
        }
        Some("--flight") => {
            args.next();
            Mode::Flight
        }
        _ => Mode::Trace,
    };
    let paths: Vec<String> = args.collect();
    if paths.is_empty() {
        eprintln!("usage: obs-check [--metrics-json | --flight] <file> [more ...]");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
                continue;
            }
        };
        let outcome = match mode {
            Mode::Trace => {
                acclaim_obs::schema::validate_trace(&text).map(|n| format!("{n} lines ok"))
            }
            Mode::MetricsJson => acclaim_obs::schema::validate_metrics_json(&text)
                .map(|()| "metrics exposition ok".to_string()),
            Mode::Flight => acclaim_obs::schema::validate_flight_records(&text)
                .map(|n| format!("{n} flight records ok")),
        };
        match outcome {
            Ok(msg) => println!("{path}: {msg}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
