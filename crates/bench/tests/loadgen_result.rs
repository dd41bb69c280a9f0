//! The `result key=value …` line loadgen prints is what CI's overhead
//! and tier gates parse: run the binary once per mode with small counts
//! and check every key those gates read, plus the options it refuses.

use std::collections::HashMap;
use std::process::{Command, Output};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("run loadgen")
}

/// The fields of the single `result` line on stdout.
fn result_fields(output: &Output) -> HashMap<String, String> {
    assert!(output.status.success(), "loadgen failed: {output:?}");
    let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("result "))
        .collect();
    assert_eq!(lines.len(), 1, "one result line per pass:\n{stdout}");
    lines[0]
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn positive(fields: &HashMap<String, String>, key: &str) -> f64 {
    let raw = fields.get(key).unwrap_or_else(|| panic!("no {key}"));
    let value: f64 = raw.parse().unwrap_or_else(|_| panic!("{key}={raw}"));
    assert!(value.is_finite() && value > 0.0, "{key}={raw}");
    value
}

#[test]
fn estimate_mode_reports_tier_throughput_and_latency() {
    let fields = result_fields(&loadgen(&[
        "--clients",
        "2",
        "--requests",
        "500",
        "--app-share",
        "0",
        "--tier",
        "fixed",
    ]));
    assert_eq!(fields["tier"], "fixed");
    positive(&fields, "eps");
    let p50 = positive(&fields, "p50_us");
    assert!(positive(&fields, "p99_us") >= p50);
}

#[test]
fn stream_mode_reports_ingest_and_poll_latency() {
    let fields = result_fields(&loadgen(&[
        "--streams",
        "8",
        "--clients",
        "2",
        "--windows",
        "8",
    ]));
    positive(&fields, "ingest_wps");
    let p50 = positive(&fields, "poll_p50_us");
    assert!(positive(&fields, "poll_p99_us") >= p50);
}

#[test]
fn retired_options_are_usage_errors() {
    for args in [
        &["--json", "x"],
        &["--compare", "x"],
        &["--tier", "both"],
        &["--shards", "2"],
    ] {
        assert_eq!(loadgen(args).status.code(), Some(2), "{args:?}");
    }
}
