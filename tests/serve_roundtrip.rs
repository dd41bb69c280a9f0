//! End-to-end serving round trip (ISSUE satellite): train an online model
//! on the simulated Skylake, register it, start a TCP server on an
//! ephemeral port, and verify that estimates served over the wire match
//! the direct [`OnlineModel`] arithmetic — and that the run cache earns
//! hits on repeated app-level queries.
//!
//! Every scenario runs under BOTH transports — the original
//! thread-per-connection model and the nonblocking evented front end —
//! asserting the transports are observably equivalent on the full
//! protocol surface.

use pmca_core::online::OnlineModel;
use pmca_cpusim::{Machine, PlatformSpec};
use pmca_mlkit::export::ModelParams;
use pmca_powermeter::{HclWattsUp, Methodology};
use pmca_serve::store::snapshot_from_dir;
use pmca_serve::{
    Client, EnergyService, Estimate, InferenceEngine, Registry, Server, ServiceConfig, StoredModel,
    Tier, Trace, TraceScope, Transport,
};
use pmca_workloads::parse::app_from_spec;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn service(cache_capacity: usize, transport: Transport) -> EnergyService {
    ServiceConfig::default()
        .cache_capacity(cache_capacity)
        .seed(SEED)
        .transport(transport)
        .event_loops(2)
        .build()
        .unwrap()
}

const SEED: u64 = 123;

const GOOD_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

fn ladder() -> Vec<String> {
    let mut specs = Vec::new();
    for i in 0..12 {
        specs.push(format!("dgemm:{}", 7_000 + 1_800 * i));
        specs.push(format!("fft:{}", 23_000 + 1_200 * i));
    }
    specs
}

fn good_set() -> Vec<String> {
    GOOD_SET.iter().map(|s| s.to_string()).collect()
}

/// Train the reference model exactly the way the service does: fresh
/// machine from the same seed, same methodology, same workload ladder —
/// so coefficients are bit-identical to the served model's.
fn reference_model() -> OnlineModel {
    let mut machine = Machine::new(PlatformSpec::intel_skylake(), SEED);
    let mut meter = HclWattsUp::with_methodology(&machine, SEED, Methodology::quick());
    let apps: Vec<_> = ladder().iter().map(|s| app_from_spec(s).unwrap()).collect();
    let refs: Vec<&dyn pmca_cpusim::app::Application> = apps.iter().map(|a| a.as_ref()).collect();
    OnlineModel::train(&mut machine, &mut meter, &GOOD_SET, &refs).unwrap()
}

fn served_estimates_match_the_direct_model_on(transport: Transport) {
    let service = Arc::new(service(64, transport));
    let stored = service
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    assert_eq!(stored.version, 1);
    assert_eq!(stored.key.family, "online");

    let reference = reference_model();
    let spec = reference.to_spec();
    assert_eq!(spec.pmc_names, good_set(), "feature order preserved");

    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Several count vectors spanning the training range, each estimated
    // from its own client thread.
    let probes: Vec<Vec<f64>> = (1..=6)
        .map(|i| {
            let scale = f64::from(i) * 0.5e10;
            vec![4.0 * scale, 1.5 * scale, 0.4 * scale, 0.4 * scale]
        })
        .collect();
    let handles: Vec<_> = probes
        .iter()
        .cloned()
        .map(|counts| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let named: Vec<(String, f64)> = GOOD_SET
                    .iter()
                    .zip(&counts)
                    .map(|(n, &v)| (n.to_string(), v))
                    .collect();
                let estimate = client.estimate("skylake", &named).unwrap();
                client.quit().unwrap();
                (counts, estimate)
            })
        })
        .collect();

    for handle in handles {
        let (counts, served) = handle.join().unwrap();
        let direct = reference.estimate_from_counts(&counts);
        let tolerance = direct.abs().max(1.0) * 1e-9;
        assert!(
            (served.joules - direct).abs() <= tolerance,
            "served {} vs direct {direct}",
            served.joules
        );
        assert_eq!(served.family, "online");
        assert_eq!(served.version, 1);
        assert!(served.ci_half_width >= 0.0);
    }

    let stats = service.stats();
    assert_eq!(stats.served, 6);
    assert_eq!(stats.errors, 0);
}

#[test]
fn served_estimates_match_the_direct_model() {
    served_estimates_match_the_direct_model_on(Transport::Threaded);
}

#[test]
fn served_estimates_match_the_direct_model_evented() {
    served_estimates_match_the_direct_model_on(Transport::Evented);
}

fn repeated_app_queries_hit_the_run_cache_on(transport: Transport) {
    let service = Arc::new(service(64, transport));
    service
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client.estimate_app("skylake", "dgemm:11500").unwrap();
    assert!(first.joules > 0.0 && first.joules.is_finite());
    let before = service.stats();
    assert_eq!(before.cache_misses, 1);
    assert_eq!(before.cache_hits, 0);

    for _ in 0..3 {
        let again = client.estimate_app("skylake", "dgemm:11500").unwrap();
        assert_eq!(again, first, "cached counts make repeats identical");
    }
    let after = service.stats();
    assert_eq!(after.cache_misses, 1, "only the first query collects");
    assert_eq!(after.cache_hits, 3, "every repeat is a cache hit");

    // A different workload misses again.
    client.estimate_app("skylake", "fft:25000").unwrap();
    assert_eq!(service.stats().cache_misses, 2);
    client.quit().unwrap();
}

#[test]
fn repeated_app_queries_hit_the_run_cache() {
    repeated_app_queries_hit_the_run_cache_on(Transport::Threaded);
}

#[test]
fn repeated_app_queries_hit_the_run_cache_evented() {
    repeated_app_queries_hit_the_run_cache_on(Transport::Evented);
}

fn training_and_introspection_work_over_the_wire_on(transport: Transport) {
    let service = Arc::new(service(32, transport));
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // No model yet: app estimation fails with a protocol-level error.
    assert!(client.estimate_app("skylake", "dgemm:9000").is_err());

    let version = client.train("skylake", &good_set(), &ladder()).unwrap();
    assert_eq!(version, 1);
    let version = client.train("skylake", &good_set(), &ladder()).unwrap();
    assert_eq!(version, 2, "retraining bumps the registry version");

    let models = client.models().unwrap();
    assert_eq!(models.len(), 2);
    assert!(
        models.iter().all(|line| line.contains("skylake online")),
        "{models:?}"
    );

    let estimate = client.estimate_app("skylake", "dgemm:10000").unwrap();
    assert_eq!(estimate.version, 2, "the latest version serves");

    let stats = client.stats().unwrap();
    let get = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
    };
    assert_eq!(get("models"), "2");

    // The retired SHARDS verb is an unknown command; the connection
    // keeps serving.
    let reply = client.raw_line("SHARDS").unwrap();
    assert_eq!(reply, r#"ERR unknown command "SHARDS""#);
    assert_eq!(client.models().unwrap().len(), 2);
    client.quit().unwrap();
}

#[test]
fn training_and_introspection_work_over_the_wire() {
    training_and_introspection_work_over_the_wire_on(Transport::Threaded);
}

#[test]
fn training_and_introspection_work_over_the_wire_evented() {
    training_and_introspection_work_over_the_wire_on(Transport::Evented);
}

fn metrics_over_the_wire_cover_commands_and_caches_on(transport: Transport) {
    let service = Arc::new(service(32, transport));
    service
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Exercise the estimate path (one miss + one hit) so the command
    // histogram and cache counters have something to show.
    client.estimate_app("skylake", "dgemm:9500").unwrap();
    client.estimate_app("skylake", "dgemm:9500").unwrap();

    let lines = client.metrics().unwrap();
    let has = |prefix: &str| lines.iter().any(|l| l.starts_with(prefix));
    assert!(
        has(r#"pmca_serve_command_seconds{command="estimate-app",quantile="0.99"}"#),
        "no estimate-app p99 in {lines:?}"
    );
    assert!(has("pmca_serve_train_seconds"), "{lines:?}");
    assert!(has("pmca_cache_hits_total"), "{lines:?}");
    assert!(has("pmca_cache_misses_total"), "{lines:?}");
    assert!(has("pmca_engine_compute_seconds"), "{lines:?}");
    assert!(
        has(r#"pmca_train_fits_total{family="linear"}"#),
        "{lines:?}"
    );

    // STATS now reports evictions alongside hits/misses.
    let stats = client.stats().unwrap();
    assert!(
        stats.iter().any(|(k, _)| k == "cache-evictions"),
        "{stats:?}"
    );
    client.quit().unwrap();
}

#[test]
fn metrics_over_the_wire_cover_commands_and_caches() {
    metrics_over_the_wire_cover_commands_and_caches_on(Transport::Threaded);
}

#[test]
fn metrics_over_the_wire_cover_commands_and_caches_evented() {
    metrics_over_the_wire_cover_commands_and_caches_on(Transport::Evented);
}

fn traces_over_the_wire_break_requests_into_stages_on(transport: Transport) {
    // Threshold 0 ms: every request counts as slow, so both requests
    // below land in the slow ring regardless of machine speed.
    let service = Arc::new(
        ServiceConfig::default()
            .cache_capacity(64)
            .seed(SEED)
            .trace_slow_ms(0)
            .transport(transport)
            .event_loops(2)
            .build()
            .unwrap(),
    );
    service
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.estimate_app("skylake", "dgemm:11500").unwrap(); // miss: simulates
    client.estimate_app("skylake", "dgemm:11500").unwrap(); // repeat: cache hit

    let lines = client.trace(TraceScope::Slow, None).unwrap();
    let traces = Trace::parse_dump(&lines).unwrap();
    assert!(traces.len() >= 2, "expected both requests, got {traces:?}");

    let miss = traces
        .iter()
        .find(|t| t.events.iter().any(|e| e.name == "cache.miss"))
        .expect("no miss trace retained");
    assert_eq!(miss.label, "estimate-app");
    assert!(miss.connection > 0, "server did not stamp a connection id");
    let stages = miss.span_durations();
    let stage = |name: &str| {
        stages
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no {name} stage in {stages:?}"))
            .1
    };
    // The full breakdown: cache lookup, compute, and the substrate
    // (simulator runs inside the cache fill).
    for name in [
        "engine.compute",
        "cache.lookup",
        "cache.fill",
        "sim.run",
        "collect.sweep",
    ] {
        assert!(stage(name) <= miss.total_ns, "{name} exceeds the total");
    }

    let hit = traces
        .iter()
        .find(|t| t.events.iter().any(|e| e.name == "cache.hit"))
        .expect("no hit trace retained");
    assert!(
        !hit.events.iter().any(|e| e.name == "cache.fill"),
        "cache hit should not fill: {hit:?}"
    );

    // SLOWEST returns exactly one trace, parseable the same way.
    let slowest = Trace::parse_dump(&client.trace(TraceScope::Slowest, None).unwrap()).unwrap();
    assert_eq!(slowest.len(), 1);
    assert!(slowest[0].total_ns >= traces.iter().map(|t| t.total_ns).min().unwrap());
    client.quit().unwrap();
}

/// Forcing the scalar kernels (the `PMCA_SIMD=scalar` escape hatch) on a
/// live server must not change a single served bit: SIMD dispatch is a
/// throughput lever, never an accuracy knob. `pmca_simd::force` is the
/// in-process equivalent of the env override, which is latched before
/// the test harness could set it.
#[test]
fn forced_scalar_kernels_serve_identical_estimates() {
    let service = Arc::new(service(32, Transport::Threaded));
    service
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let named: Vec<(String, f64)> = GOOD_SET
        .iter()
        .enumerate()
        .map(|(i, n)| (n.to_string(), 1.0e10 + i as f64 * 2.5e9))
        .collect();
    let native = client.estimate("skylake", &named).unwrap();

    let previous = pmca_simd::force(pmca_simd::Isa::Scalar);
    assert_eq!(pmca_simd::Isa::active(), pmca_simd::Isa::Scalar);
    let scalar = client.estimate("skylake", &named).unwrap();
    let restored = pmca_simd::force(previous);
    assert_eq!(restored, pmca_simd::Isa::Scalar, "swap returns what ran");
    assert_eq!(pmca_simd::Isa::active(), previous, "dispatch restored");

    assert_eq!(
        scalar.joules.to_bits(),
        native.joules.to_bits(),
        "scalar {} vs native {}",
        scalar.joules,
        native.joules
    );
    assert_eq!(scalar.version, native.version);
    client.quit().unwrap();
}

#[test]
fn traces_over_the_wire_break_requests_into_stages() {
    traces_over_the_wire_break_requests_into_stages_on(Transport::Threaded);
}

#[test]
fn traces_over_the_wire_break_requests_into_stages_evented() {
    traces_over_the_wire_break_requests_into_stages_on(Transport::Evented);
}

#[test]
fn calling_threads_share_one_lowering_bit_identically() {
    // Eight threads race on two never-lowered versions, interleaving
    // f64 and fixed rows. Whichever thread builds a version's
    // lowering, every answer must match a single-threaded reference
    // bit for bit, and none may be lost or doubled.
    fn versions(registry: &mut Registry) -> [Arc<StoredModel>; 2] {
        let names: Vec<String> = (0..4).map(|i| format!("E{i}")).collect();
        [
            [2.5e-9, 1.0e-9, 3.0e-9, 0.5e-9],
            [2.0e-9, 1.5e-9, 2.5e-9, 1.0e-9],
        ]
        .map(|coefficients| {
            registry.register(
                "skylake",
                "online",
                names.clone(),
                0.8,
                40,
                ModelParams::Linear {
                    coefficients: coefficients.to_vec(),
                    intercept: 0.0,
                },
            )
        })
    }
    let threads = 8u32;
    let per_thread = 400u32;
    let request = |t: u32, i: u32| {
        let n = f64::from(t * per_thread + i);
        let row = vec![
            1.0e9 + n * 3.7e6,
            4.0e8 + n * 1.1e6,
            2.0e8 + n,
            9.0e7 + n * 7.0,
        ];
        let tier = if i.is_multiple_of(2) {
            Tier::F64
        } else {
            Tier::Fixed
        };
        ((i / 2 % 2) as usize, tier, row)
    };
    let answer = |engine: &InferenceEngine, model: &Arc<StoredModel>, tier, row| match tier {
        Tier::F64 => engine.estimate(model, row).unwrap(),
        Tier::Fixed => engine.estimate_fixed(model, row).unwrap(),
    };

    let reference_engine = InferenceEngine::new(1);
    let reference_models = versions(&mut Registry::new());
    let reference: Vec<Vec<Estimate>> = (0..threads)
        .map(|t| {
            (0..per_thread)
                .map(|i| {
                    let (v, tier, row) = request(t, i);
                    answer(&reference_engine, &reference_models[v], tier, row)
                })
                .collect()
        })
        .collect();

    let engine = InferenceEngine::new(1);
    let models = versions(&mut Registry::new());
    thread::scope(|scope| {
        for (t, expected) in (0..threads).zip(&reference) {
            let (engine, models) = (&engine, &models);
            scope.spawn(move || {
                for (i, want) in (0..per_thread).zip(expected) {
                    let (v, tier, row) = request(t, i);
                    assert_eq!(&answer(engine, &models[v], tier, row), want);
                }
            });
        }
    });
    assert_eq!(engine.served(), u64::from(threads * per_thread));
    assert_eq!(engine.errors(), 0);
}

/// A client that never sends a newline must not grow server memory
/// without bound: past the request-line cap its connection is closed,
/// and the server goes on answering other connections.
fn over_long_request_lines_close_the_connection_on(transport: Transport) {
    let server = Server::start(Arc::new(service(4, transport)), "127.0.0.1:0").unwrap();
    let mut flood = TcpStream::connect(server.addr()).unwrap();
    flood
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    flood
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may close mid-write, so the write itself may fail.
    let _ = flood.write_all(&vec![b'A'; 1 << 20]);
    let mut byte = [0u8; 1];
    match flood.read(&mut byte) {
        // A close with unread bytes in the server's buffer arrives as a
        // reset rather than a clean EOF.
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("a 1 MiB line without a newline was not closed: {other:?}"),
    }
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.stats().is_ok(), "server stopped answering");
}

#[test]
fn over_long_request_lines_close_the_connection() {
    over_long_request_lines_close_the_connection_on(Transport::Threaded);
}

#[test]
fn over_long_request_lines_close_the_connection_evented() {
    over_long_request_lines_close_the_connection_on(Transport::Evented);
}

/// Counts for the good set, distinct per counter.
fn probe_counts() -> Vec<(String, f64)> {
    GOOD_SET
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), 1.0e10 + i as f64 * 3.0e9))
        .collect()
}

fn restored_snapshot_serves_bit_identical_estimates_on(transport: Transport) {
    let trained = Arc::new(service(64, transport));
    let server = Server::start(Arc::clone(&trained), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.train("skylake", &good_set(), &ladder()).unwrap(), 1);
    let before = client.estimate("skylake", &probe_counts()).unwrap();
    assert!(before.joules.is_finite());
    client.quit().unwrap();
    drop(server);

    // Snapshot the trained store, restore it into a fresh service, and
    // serve that from a new server: coefficients round-trip exactly.
    let snapshot = trained.store().snapshot();
    let fresh = Arc::new(service(64, transport));
    assert_eq!(fresh.stats().models, 0);
    assert_eq!(fresh.store().restore(&snapshot).unwrap(), 1);
    let server = Server::start(fresh, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let after = client.estimate("skylake", &probe_counts()).unwrap();
    assert_eq!(after, before, "snapshot/restore changed the estimate");
    client.quit().unwrap();
}

#[test]
fn restored_snapshot_serves_bit_identical_estimates() {
    restored_snapshot_serves_bit_identical_estimates_on(Transport::Threaded);
}

#[test]
fn restored_snapshot_serves_bit_identical_estimates_evented() {
    restored_snapshot_serves_bit_identical_estimates_on(Transport::Evented);
}

#[test]
fn file_backed_registry_restores_bit_identical_estimates() {
    let dir = std::env::temp_dir().join(format!("pmca-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A file-backed service trains; every put writes through to disk.
    let on_disk = ServiceConfig::default()
        .cache_capacity(64)
        .seed(SEED)
        .registry_dir(&dir)
        .build()
        .unwrap();
    on_disk
        .train_online("skylake", &good_set(), &ladder())
        .unwrap();
    let before = on_disk.estimate("skylake", &probe_counts()).unwrap();

    // Rebuild purely from the on-disk registry via a directory
    // snapshot, into an in-memory service.
    let snapshot = snapshot_from_dir(&dir).unwrap();
    let fresh = service(64, Transport::Threaded);
    assert_eq!(fresh.store().restore(&snapshot).unwrap(), 1);
    let after = fresh.estimate("skylake", &probe_counts()).unwrap();
    assert_eq!(after, before, "disk round trip changed the estimate");
    let _ = std::fs::remove_dir_all(&dir);
}
