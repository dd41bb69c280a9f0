//! Stream lifecycle edge cases over the full serving stack: duplicate
//! OPEN, PUSH after CLOSE, out-of-order window ids, idle-stream eviction,
//! a multi-threaded flight-recorder stress run with streaming spans in
//! flight, and stream-learned models reaching ESTIMATE on the labelled
//! cadence and on entering drifting.

use pmca_serve::{
    Client, EnergyService, Server, ServiceConfig, Trace, TraceScope, STREAM_PUSH_COUNTS,
};
use pmca_stream::hub::DEFAULT_PMC_SET;
use pmca_stream::{synthetic_window, PUBLISH_EVERY};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn server(config: ServiceConfig) -> Server {
    Server::start(Arc::new(config.build().unwrap()), "127.0.0.1:0").unwrap()
}

fn default_server() -> Server {
    server(ServiceConfig::default().cache_capacity(16).seed(9))
}

#[test]
fn duplicate_open_is_rejected_and_the_original_survives() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client.stream_open("dup", "appA", "skylake", 8).unwrap(),
        8,
        "ring capacity echoes back"
    );
    let (counts, _) = synthetic_window(0, 0);
    client.stream_push("dup", 0, counts, None).unwrap();

    let err = client
        .stream_open("dup", "appB", "haswell", 4)
        .unwrap_err()
        .to_string();
    assert!(err.contains("already open"), "{err}");

    // The original stream is untouched: same app, same platform, its
    // window still retained.
    let status = client.stream_poll("dup").unwrap();
    assert_eq!(status.app, "appA");
    assert_eq!(status.platform, "skylake");
    assert_eq!(status.retained, 1);
    client.quit().unwrap();
}

#[test]
fn push_and_poll_after_close_are_unknown_stream_errors() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.stream_open("gone", "app", "skylake", 8).unwrap();
    let (counts, joules) = synthetic_window(3, 0);
    client.stream_push("gone", 0, counts, Some(joules)).unwrap();
    assert_eq!(client.stream_close("gone").unwrap(), 1);

    for result in [
        client.stream_push("gone", 1, counts, None).map(|_| ()),
        client.stream_poll("gone").map(|_| ()),
        client.stream_close("gone").map(|_| ()),
    ] {
        let err = result.unwrap_err().to_string();
        assert!(err.contains("no open stream"), "{err}");
    }

    // The id is free again after close.
    assert_eq!(client.stream_open("gone", "app", "skylake", 8).unwrap(), 8);
    let status = client.stream_poll("gone").unwrap();
    assert_eq!(status.accepted, 0, "reopen starts from a fresh ring");
    client.quit().unwrap();
}

#[test]
fn out_of_order_duplicate_and_late_windows_settle_into_a_sorted_ring() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.stream_open("ooo", "app", "skylake", 4).unwrap();
    let (counts, _) = synthetic_window(5, 0);

    // Arrivals: 10, 7 (reordered), 10 (retry duplicate), 12, 11, 13 —
    // then 7 again, which by now has slid out of the 4-slot ring.
    for (window, accepted) in [(10, true), (7, true), (10, false), (12, true), (11, true)] {
        assert_eq!(
            client.stream_push("ooo", window, counts, None).unwrap(),
            accepted,
            "window {window}"
        );
    }
    assert!(client.stream_push("ooo", 13, counts, None).unwrap());
    assert!(
        !client.stream_push("ooo", 7, counts, None).unwrap(),
        "window 7 is older than the full ring retains"
    );

    let status = client.stream_poll("ooo").unwrap();
    assert_eq!(status.accepted, 5);
    assert_eq!(status.duplicates, 1);
    assert_eq!(status.late, 1);
    assert_eq!(status.retained, 4);
    assert_eq!(status.highest, 13);
    client.quit().unwrap();
}

#[test]
fn idle_streams_are_evicted_but_active_streams_survive() {
    let server = default_server();
    let hub = Arc::clone(server.service().stream_hub().expect("streaming on"));
    let mut client = Client::connect(server.addr()).unwrap();
    client.stream_open("idle", "app", "skylake", 8).unwrap();
    client.stream_open("busy", "app", "skylake", 8).unwrap();
    let (counts, _) = synthetic_window(1, 0);
    thread::sleep(Duration::from_millis(30));
    client.stream_push("busy", 0, counts, None).unwrap();

    // Sweep with a horizon between the two streams' idle times: "idle"
    // has been quiet since its open, "busy" accepted a push just now.
    assert_eq!(hub.evict_idle_older_than(Duration::from_millis(20)), 1);
    let survivors = client.stream_list().unwrap();
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].stream, "busy");
    let err = client.stream_poll("idle").unwrap_err().to_string();
    assert!(err.contains("no open stream"), "{err}");
    client.quit().unwrap();
}

#[test]
fn concurrent_streaming_keeps_the_flight_recorder_coherent() {
    // Open/close churn records request traces from many connections at
    // once while labelled pushes keep the online model publishing.
    let server = server(
        ServiceConfig::default()
            .cache_capacity(16)
            .seed(11)
            .trace_capacity(256),
    );
    let addr = server.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..6 {
                    let id = format!("stress-{t}-{round}");
                    client.stream_open(&id, "app", "skylake", 16).unwrap();
                    for w in 0..12u64 {
                        let (counts, joules) = synthetic_window(t, w);
                        client.stream_push(&id, w, counts, Some(joules)).unwrap();
                    }
                    let status = client.stream_poll(&id).unwrap();
                    assert!(status.watts.is_finite() && status.watts >= 0.0);
                    assert_eq!(client.stream_close(&id).unwrap(), 12);
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for handle in threads {
        handle.join().unwrap();
    }

    // Publication runs on the pushing connection, so it is visible as
    // soon as the pushes are answered.
    let service: &Arc<EnergyService> = server.service();
    assert!(
        service.stats().stream_refits >= 1,
        "4 threads x 6 rounds x 12 labelled windows must cross {PUBLISH_EVERY}"
    );

    let mut client = Client::connect(addr).unwrap();
    let lines = client.trace(TraceScope::Recent, None).unwrap();
    let traces = Trace::parse_dump(&lines).unwrap();
    assert!(!traces.is_empty(), "flight recorder retained traces");
    let labels: Vec<&str> = traces.iter().map(|t| t.label.as_str()).collect();
    assert!(
        labels.contains(&"stream-open") || labels.contains(&"stream-close"),
        "stream request traces recorded: {labels:?}"
    );
    // Every retained trace parses back with consistent span nesting —
    // the recorder stayed coherent under concurrent streaming load.
    for trace in &traces {
        for (_, ns) in trace.span_durations() {
            assert!(ns <= trace.total_ns, "span exceeds its trace total");
        }
    }
    client.quit().unwrap();
}

/// The deployable 4-PMC set, named for an `ESTIMATE` of `counts`.
fn named(counts: [f64; STREAM_PUSH_COUNTS]) -> Vec<(String, f64)> {
    DEFAULT_PMC_SET
        .iter()
        .zip(counts)
        .map(|(name, count)| (name.to_string(), count))
        .collect()
}

fn stat(client: &mut Client, key: &str) -> u64 {
    let stats = client.stats().unwrap();
    let (_, value) = stats.iter().find(|(k, _)| k == key).expect("STATS key");
    value.parse().unwrap()
}

#[test]
fn stream_learned_coefficients_reach_estimate() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let pmcs: Vec<String> = DEFAULT_PMC_SET.iter().map(|s| s.to_string()).collect();
    let apps: Vec<String> = (0..4)
        .flat_map(|i| {
            [
                format!("dgemm:{}", 7_000 + 1_900 * i),
                format!("fft:{}", 23_000 + 1_300 * i),
            ]
        })
        .collect();
    assert_eq!(client.train("skylake", &pmcs, &apps).unwrap(), 1);
    // The stream's last window.
    let (probe, truth) = synthetic_window(0, PUBLISH_EVERY - 1);
    let trained = client.estimate("skylake", &named(probe)).unwrap();
    assert_eq!((trained.family.as_ref(), trained.version), ("online", 1));

    // 256 labelled windows of the synthetic ground truth.
    client.stream_open("learn", "app", "skylake", 16).unwrap();
    for w in 0..PUBLISH_EVERY {
        let (counts, joules) = synthetic_window(0, w);
        assert!(client
            .stream_push("learn", w, counts, Some(joules))
            .unwrap());
    }
    assert!(stat(&mut client, "stream-refits") >= 1);
    // POLL predicts the newest window, the probe, with the snapshot the
    // 256th label published.
    let status = client.stream_poll("learn").unwrap();
    let served = client.estimate("skylake", &named(probe)).unwrap();
    assert_eq!(served.family, "online");
    assert!(served.version > trained.version, "{served:?}");
    assert_eq!(
        served.joules, status.joules,
        "ESTIMATE answers with the stream's snapshot"
    );
    assert!(
        (served.joules - truth).abs() < 0.01 * truth,
        "{} vs ground truth {truth}",
        served.joules
    );
    client.quit().unwrap();
}

#[test]
fn entering_drifting_changes_what_estimate_serves() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.stream_open("shift", "app", "skylake", 16).unwrap();
    // Regime A: 300 windows of the synthetic ground truth; the 256th
    // publishes it to the store.
    for w in 0..300 {
        let (counts, joules) = synthetic_window(0, w);
        client
            .stream_push("shift", w, counts, Some(joules))
            .unwrap();
    }
    let mut w = 300;
    let (probe, truth) = synthetic_window(0, w);
    let before = client.estimate("skylake", &named(probe)).unwrap();
    assert!((before.joules - truth).abs() < 0.01 * truth, "{before:?}");
    assert_eq!(stat(&mut client, "stream-drift-refits"), 0);

    // Regime B: every window now costs 2.5x the energy. The default
    // health plane walks Ok → Degraded → Drifting within a handful of
    // windows; entering drifting refits and publishes.
    while stat(&mut client, "stream-drift-refits") == 0 {
        assert!(w < 320, "no drift refit 20 windows into the shift");
        let (counts, joules) = synthetic_window(0, w);
        client
            .stream_push("shift", w, counts, Some(2.5 * joules))
            .unwrap();
        w += 1;
    }
    let after = client.estimate("skylake", &named(probe)).unwrap();
    assert!(after.version > before.version, "{after:?} vs {before:?}");
    // The refit starts from the newest eight windows, about half of them
    // regime B, not from all 300 regime-A rows.
    assert!(
        after.joules > 1.5 * truth,
        "ESTIMATE still serves the old regime: {} vs {truth}",
        after.joules
    );
    client.quit().unwrap();
}
