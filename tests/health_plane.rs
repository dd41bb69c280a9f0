//! Model-health plane over the full serving stack (ISSUE tentpole +
//! satellite): `HEALTH` / `HISTORY` round trips over TCP, cross-shard
//! aggregation with `shard=all` rows, METRICS/TRACE consistency under
//! `--shards 2` on both transports, and gauge sanity across a shard
//! `replace()` failover.

use pmca_serve::{
    Client, HealthRow, HealthState, Server, ServiceConfig, Trace, TraceScope, Transport,
    STREAM_PUSH_COUNTS,
};
use std::sync::Arc;

const GOOD_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

fn good_set() -> Vec<String> {
    GOOD_SET.iter().map(|s| s.to_string()).collect()
}

fn ladder() -> Vec<String> {
    (0..10)
        .flat_map(|i| {
            [
                format!("dgemm:{}", 7_000 + 1_900 * i),
                format!("fft:{}", 23_000 + 1_300 * i),
            ]
        })
        .collect()
}

fn calibration_rows(rows: &[HealthRow]) -> Vec<(Option<usize>, &pmca_serve::CalibrationSnapshot)> {
    rows.iter()
        .filter_map(|row| match row {
            HealthRow::Calibration { shard, snapshot } => Some((*shard, snapshot)),
            HealthRow::Additivity { .. } => None,
        })
        .collect()
}

fn additivity_rows(rows: &[HealthRow]) -> Vec<(Option<usize>, &pmca_serve::AdditivitySnapshot)> {
    rows.iter()
        .filter_map(|row| match row {
            HealthRow::Additivity { shard, snapshot } => Some((*shard, snapshot)),
            HealthRow::Calibration { .. } => None,
        })
        .collect()
}

#[test]
fn train_holdout_and_labelled_streams_populate_health_over_tcp() {
    let service = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(17)
            .build()
            .unwrap(),
    );
    let server = Server::start(service, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // TRAIN feeds its holdout (predicted, measured) pairs into the
    // calibration tracker, so HEALTH reports rows before any stream
    // traffic arrives.
    client.train("skylake", &good_set(), &ladder()).unwrap();
    let rows = client.health().unwrap();
    let calibration = calibration_rows(&rows);
    assert_eq!(calibration.len(), 1, "{rows:?}");
    let (shard, c) = &calibration[0];
    assert_eq!(*shard, Some(0), "single shard labels itself 0");
    assert_eq!(c.platform, "skylake");
    assert_eq!(c.version, 1);
    assert!(c.samples >= 10, "holdout fed every training pair: {c:?}");
    assert!(c.mae.is_finite() && c.mae >= 0.0);
    assert!((0.0..=1.0).contains(&c.coverage), "{c:?}");
    assert!(
        c.coverage >= 0.5,
        "a 95% PI should cover most in-sample residuals: {c:?}"
    );
    assert_eq!(c.state, HealthState::Ok, "{c:?}");

    // Perfectly additive compound traffic: base streams a and b plus a
    // compound a;b whose counts are exactly the sum. Every deployable
    // counter must report checks with zero violations.
    let base_a = [1.0e10; STREAM_PUSH_COUNTS];
    let base_b = [2.0e10; STREAM_PUSH_COUNTS];
    let compound = [3.0e10; STREAM_PUSH_COUNTS];
    client
        .stream_open("sa", "dgemm:8000", "skylake", 8)
        .unwrap();
    client.stream_open("sb", "fft:24000", "skylake", 8).unwrap();
    client
        .stream_open("sc", "dgemm:8000;fft:24000", "skylake", 8)
        .unwrap();
    client.stream_push("sa", 0, base_a, None).unwrap();
    client.stream_push("sb", 0, base_b, None).unwrap();
    client.stream_push("sc", 0, compound, None).unwrap();

    let rows = client.health().unwrap();
    let additivity = additivity_rows(&rows);
    assert_eq!(
        additivity.len(),
        STREAM_PUSH_COUNTS,
        "one row per deployable counter: {rows:?}"
    );
    for (_, a) in &additivity {
        assert_eq!(a.platform, "skylake");
        assert_eq!(a.checks, 1, "{a:?}");
        assert_eq!(a.violations, 0, "additive counts violate nothing: {a:?}");
        assert!(a.worst_error_pct < 1.0, "{a:?}");
    }

    // Labelled pushes keep growing the calibration sample count.
    let before = calibration_rows(&client.health().unwrap())[0].1.samples;
    client.stream_push("sa", 1, base_a, Some(250.0)).unwrap();
    let after = calibration_rows(&client.health().unwrap())[0].1.samples;
    assert!(
        after > before,
        "labelled push observed: {before} -> {after}"
    );
    client.quit().unwrap();
}

#[test]
fn history_retains_multiple_snapshots_and_honours_the_limit() {
    let service = Arc::new(
        ServiceConfig::default()
            .cache_capacity(8)
            .seed(3)
            .history_capacity(4)
            .build()
            .unwrap(),
    );
    let server = Server::start(service, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Each HEALTH or HISTORY request records one snapshot on the
    // primary, so polling is what advances the clock-free ring.
    client.health().unwrap();
    let rows = client.history(None).unwrap();
    assert!(!rows.is_empty());
    let seqs: Vec<u64> = {
        let mut s: Vec<u64> = rows.iter().map(|r| r.seq).collect();
        s.dedup();
        s
    };
    assert!(seqs.len() >= 2, "health + history probes: {seqs:?}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "snapshots arrive oldest first: {seqs:?}"
    );

    // Values carry deltas vs the previous snapshot: the health command
    // counter grew by one between the two probes above.
    let health_count = rows
        .iter()
        .filter(|r| {
            r.metric.starts_with("pmca_serve_command_seconds_count")
                && r.metric.contains(r#"command="health""#)
        })
        .collect::<Vec<_>>();
    assert!(!health_count.is_empty(), "{rows:?}");

    // The limit caps snapshots (not rows): exactly one seq survives.
    let rows = client.history(Some(1)).unwrap();
    let mut seqs: Vec<u64> = rows.iter().map(|r| r.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), 1, "{seqs:?}");

    // The ring is bounded: many probes later, at most 4 snapshots.
    for _ in 0..8 {
        client.health().unwrap();
    }
    let rows = client.history(None).unwrap();
    let mut seqs: Vec<u64> = rows.iter().map(|r| r.seq).collect();
    seqs.dedup();
    assert!(seqs.len() <= 4, "capacity 4 ring: {seqs:?}");
    client.quit().unwrap();

    // A zero or malformed limit is a protocol error, not a panic.
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.raw_line("HISTORY 0").unwrap();
    assert!(err.starts_with("ERR"), "{err}");
}

fn sharded_health_reports_aggregate_and_per_shard_rows_on(transport: Transport) {
    let router = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(17)
            .transport(transport)
            .event_loops(2)
            .build_sharded(2)
            .unwrap(),
    );
    let owner = router.route_index("skylake");
    let server = Server::start_router(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.train("skylake", &good_set(), &ladder()).unwrap();

    let rows = client.health().unwrap();
    let calibration = calibration_rows(&rows);
    // With >1 shard the listing starts with a merged shard=all row,
    // then the per-shard rows — here only the owner reports.
    assert_eq!(calibration.len(), 2, "{rows:?}");
    let (all_shard, all) = &calibration[0];
    assert_eq!(*all_shard, None, "aggregate first: {rows:?}");
    let (per_shard, per) = &calibration[1];
    assert_eq!(*per_shard, Some(owner), "{rows:?}");
    assert_eq!(all.platform, per.platform);
    assert_eq!(
        all.samples, per.samples,
        "one reporting shard: merge is identity"
    );
    assert!((all.mae - per.mae).abs() < 1e-12);
    assert_eq!(all.state, per.state);
    client.quit().unwrap();
}

#[test]
fn sharded_health_reports_aggregate_and_per_shard_rows() {
    sharded_health_reports_aggregate_and_per_shard_rows_on(Transport::Threaded);
}

#[test]
fn sharded_health_reports_aggregate_and_per_shard_rows_evented() {
    sharded_health_reports_aggregate_and_per_shard_rows_on(Transport::Evented);
}

/// Drive an identical scripted workload through a 2-shard server and
/// return the METRICS exposition plus the retained traces.
fn metrics_and_traces_under_load(transport: Transport) -> (Vec<String>, Vec<Trace>) {
    let router = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(17)
            .transport(transport)
            .event_loops(2)
            .build_sharded(2)
            .unwrap(),
    );
    let server = Server::start_router(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.train("skylake", &good_set(), &ladder()).unwrap();
    let counts: Vec<(String, f64)> = GOOD_SET.iter().map(|n| (n.to_string(), 1.5e10)).collect();
    for _ in 0..4 {
        client.estimate("skylake", &counts).unwrap();
    }
    client.health().unwrap();
    client.history(None).unwrap();
    client.shards().unwrap();

    // While this client is connected the shared gauge reports it. The
    // METRICS span records on drop after the exposition renders, so the
    // first fetch warms the command's own histogram and the second one
    // (used for the per-command assertions below) observes it.
    client.metrics().unwrap();
    let metrics = client.metrics().unwrap();
    let active =
        gauge_value(&metrics, "pmca_serve_active_connections").expect("active_connections exposed");
    assert!(active >= 1.0, "this connection counts: {active}");

    let lines = client.trace(TraceScope::Recent, None).unwrap();
    let traces = Trace::parse_dump(&lines).unwrap();
    client.quit().unwrap();
    (metrics, traces)
}

fn gauge_value(lines: &[String], name: &str) -> Option<f64> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
}

fn histogram_count(lines: &[String], command: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| {
            l.strip_prefix(&format!(
                r#"pmca_serve_command_seconds_count{{command="{command}"}} "#
            ))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn assert_workload_metrics(metrics: &[String], traces: &[Trace], transport: &str) {
    // Every verb the scripted workload exercised has a per-verb
    // histogram with at least that many samples.
    for (command, at_least) in [
        ("train", 1),
        ("estimate", 4),
        ("health", 1),
        ("history", 1),
        ("shards", 1),
        ("metrics", 1),
    ] {
        let count = histogram_count(metrics, command);
        assert!(
            count >= at_least,
            "{transport}: command={command} count {count} < {at_least}"
        );
    }
    // Shard request counters exist for both slots and the routed verbs
    // landed somewhere.
    let shard_total: f64 = (0..2)
        .map(|shard| {
            gauge_value(
                metrics,
                &format!(r#"pmca_serve_shard_requests_total{{shard="{shard}"}}"#),
            )
            .unwrap_or(0.0)
        })
        .sum();
    assert!(
        shard_total >= 5.0,
        "{transport}: shard requests {shard_total}"
    );

    // Routed request traces carry the owning shard on their request
    // begin event.
    let routed: Vec<&Trace> = traces
        .iter()
        .filter(|t| matches!(t.label.as_str(), "estimate" | "train"))
        .collect();
    assert!(!routed.is_empty(), "{transport}: no routed traces retained");
    for trace in routed {
        assert!(
            trace.events[0]
                .attrs
                .iter()
                .any(|(k, v)| k == "shard" && (v == "0" || v == "1")),
            "{transport}: trace {} lacks shard attribution: {:?}",
            trace.label,
            trace.events[0].attrs
        );
    }
}

#[test]
fn metrics_and_trace_are_consistent_across_transports_with_shards() {
    let (threaded_metrics, threaded_traces) = metrics_and_traces_under_load(Transport::Threaded);
    let (evented_metrics, evented_traces) = metrics_and_traces_under_load(Transport::Evented);
    assert_workload_metrics(&threaded_metrics, &threaded_traces, "threaded");
    assert_workload_metrics(&evented_metrics, &evented_traces, "evented");
    // The evented front end additionally exposes its loop gauges; the
    // command-histogram series themselves are transport-invariant.
    let series = |lines: &[String]| -> Vec<String> {
        let mut names: Vec<String> = lines
            .iter()
            .filter(|l| l.starts_with("pmca_serve_command_seconds_count"))
            .filter_map(|l| l.split_whitespace().next().map(str::to_string))
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        series(&threaded_metrics),
        series(&evented_metrics),
        "same per-verb histogram series under both transports"
    );
}

#[test]
fn shard_replace_returns_the_dead_shards_open_stream_gauge_share() {
    let router = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(17)
            .build_sharded(2)
            .unwrap(),
    );
    let server = Server::start_router(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Deterministically find stream ids for each slot, keeping slot 0
    // (the primary, whose registry serves METRICS) alive.
    let mut on_victim = Vec::new();
    let mut on_primary = Vec::new();
    for i in 0..32 {
        let id = format!("hs-{i}");
        if router.route_index(&id) == 1 && on_victim.len() < 2 {
            on_victim.push(id);
        } else if router.route_index(&id) == 0 && on_primary.is_empty() {
            on_primary.push(id);
        }
        if on_victim.len() == 2 && !on_primary.is_empty() {
            break;
        }
    }
    assert_eq!(on_victim.len(), 2, "hash spread covers both slots");
    for id in on_victim.iter().chain(&on_primary) {
        client.stream_open(id, "dgemm:8000", "skylake", 8).unwrap();
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(
        gauge_value(&metrics, "pmca_stream_open_streams"),
        Some(3.0),
        "{metrics:?}"
    );

    // Replace shard 1 with a fresh service (its own registry): when the
    // dead shard drops, its hub hands back its share of the shared
    // gauge instead of leaking two phantom streams.
    let fresh = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(17)
            .build()
            .unwrap(),
    );
    let dead = router.replace(1, fresh);
    drop(dead);
    let metrics = client.metrics().unwrap();
    assert_eq!(
        gauge_value(&metrics, "pmca_stream_open_streams"),
        Some(1.0),
        "only the primary's stream remains: {metrics:?}"
    );
    client.quit().unwrap();
}
