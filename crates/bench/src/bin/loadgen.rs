//! Load generator for the `pmca-serve` estimation server.
//!
//! Spawns N concurrent clients, each firing M requests over the line
//! protocol (pipelined in batches, like `redis-benchmark -P`), and
//! reports throughput plus p50/p90/p99 per-request latency. By default
//! it starts an in-process server on an ephemeral port, trains an online
//! model on the simulated Skylake, and warms the run cache, so the
//! numbers reflect steady-state serving; pass `--addr HOST:PORT` to
//! target an already-running `slope-pmc serve` instead.
//!
//! ```text
//! cargo run --release -p pmca-bench --bin loadgen -- \
//!     [--addr HOST:PORT] [--clients N] [--requests M]
//!     [--duration-secs S] [--pipeline D] [--app-share PCT]
//!     [--tier f64|fixed]
//!     [--connections N] [--idle-fraction F]
//!     [--transport threaded|evented] [--event-loops N]
//!     [--no-metrics] [--no-trace] [--no-health] [--trace-sample N]
//!     [--streams N] [--windows M] [--label-every K]
//! ```
//!
//! `--connections N --idle-fraction F` switches to connection-scale
//! mode: N total connections are held open for the whole run, but only
//! `N·(1-F)` of them actively fire requests — the rest sit idle, each
//! probed with one `STATS` round trip when opened and once more after
//! the timed run (both probes must answer, proving the server kept every
//! idle connection alive under load). Pair it with `--transport evented`
//! to measure the readiness-driven front end at 10k+ mostly-idle
//! connections. Open file limits apply: `ulimit -n 65536` before a
//! 10k-connection run.
//!
//! `--streams N` switches to streaming-ingestion mode: the clients open
//! N concurrent telemetry streams, push `--windows` one-second windows
//! into each (every `--label-every`'th labelled with measured joules, so
//! the online model refits and every 256th label publishes it), and
//! measure ingest throughput in windows/sec plus per-window estimate
//! latency as individually timed `STREAM POLL` round trips
//! (p50/p95/p99). The summary also reports how many online models the
//! server published into its registry.
//!
//! `--tier f64|fixed` picks the inference tier the estimate requests ask
//! for (`tier=fixed` runs the integer fixed-point fast tier).
//!
//! `--duration-secs S` replaces the fixed request count with a wall-clock
//! budget: every client fires pipelined batches until the deadline.
//!
//! The timed pass ends with one machine-readable line on stdout,
//! `result key=value …`: `tier`, `eps`, `p50_us` and `p99_us` in
//! estimate mode, `ingest_wps`, `poll_p50_us` and `poll_p99_us` in
//! streaming mode. loadgen writes no files and keeps no baselines: the
//! repository's steady numbers, with run-to-run spread, come from
//! `perfbench/`.
//!
//! After the run it fetches the server-side view via the `METRICS`
//! command — per-command latency percentiles measured inside the server,
//! next to the client-side numbers — and the full span breakdown of the
//! slowest request via `TRACE SLOWEST` (registry lookup, cache lookup,
//! compute, substrate). `--trace-sample N` additionally prints one full
//! server-side trace every N requests while the run is in flight.
//! `--no-metrics` / `--no-trace` / `--no-health` build the in-process
//! server with inert instruments — run both ways to measure the
//! observability overhead. In streaming mode with health enabled, the
//! run ends with a model-health acceptance check: the labelled windows
//! must have produced calibration rows with sane prediction-interval
//! coverage, or the process exits nonzero so CI gates on it.

use pmca_obs::log;
use pmca_serve::protocol::parse_estimate_reply;
use pmca_serve::{
    Client, HealthRow, Request, Server, ServiceConfig, Tier, Trace, TraceScope, Transport,
};
use pmca_stream::synthetic_window;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const GOOD_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

/// The workload specs app-level queries rotate over (all warmed up
/// front, so steady-state queries are run-cache hits).
const APP_SPECS: [&str; 4] = [
    "dgemm:11500",
    "fft:26000",
    "dgemm:9500",
    "dgemm:9000;fft:24000",
];

struct Options {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    pipeline: usize,
    /// Out of 100: how many requests are app-level (cache-backed) rather
    /// than raw counter-level estimates.
    app_share: u32,
    /// Inference tier the estimate requests ask for.
    tier: Tier,
    /// Build the in-process server with inert metrics (overhead A/B).
    no_metrics: bool,
    /// Build the in-process server with tracing disabled (overhead A/B).
    no_trace: bool,
    /// Build the in-process server with the model-health plane disabled
    /// (overhead A/B).
    no_health: bool,
    /// Print one full server-side trace every N requests.
    trace_sample: Option<usize>,
    /// Run for a wall-clock budget instead of a fixed request count.
    duration_secs: Option<u64>,
    /// Streaming mode: open this many concurrent telemetry streams.
    streams: Option<usize>,
    /// Streaming mode: windows pushed per stream.
    windows: usize,
    /// Streaming mode: every K'th window carries measured joules.
    label_every: usize,
    /// Connection-scale mode: hold this many connections open, mostly
    /// idle.
    connections: Option<usize>,
    /// Connection-scale mode: the fraction of connections that stay
    /// idle (the rest fire requests).
    idle_fraction: f64,
    /// Transport for the in-process server.
    transport: Transport,
    /// Event-loop threads for the evented transport.
    event_loops: usize,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        addr: None,
        clients: 4,
        requests: 20_000,
        pipeline: 64,
        app_share: 50,
        tier: Tier::F64,
        no_metrics: false,
        no_trace: false,
        no_health: false,
        trace_sample: None,
        duration_secs: None,
        streams: None,
        windows: 64,
        label_every: 4,
        connections: None,
        idle_fraction: 0.99,
        transport: Transport::Threaded,
        event_loops: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => options.addr = Some(value("--addr")?),
            "--clients" => options.clients = parse_count(&value("--clients")?, "--clients")?,
            "--requests" => options.requests = parse_count(&value("--requests")?, "--requests")?,
            "--pipeline" => options.pipeline = parse_count(&value("--pipeline")?, "--pipeline")?,
            "--app-share" => {
                let raw = value("--app-share")?;
                options.app_share = raw
                    .parse::<u32>()
                    .ok()
                    .filter(|&p| p <= 100)
                    .ok_or(format!("--app-share: {raw:?} is not a percentage"))?;
            }
            "--tier" => {
                let raw = value("--tier")?;
                options.tier =
                    Tier::parse(&raw).ok_or(format!("--tier: {raw:?} is not f64 or fixed"))?;
            }
            "--no-metrics" => options.no_metrics = true,
            "--no-trace" => options.no_trace = true,
            "--no-health" => options.no_health = true,
            "--trace-sample" => {
                options.trace_sample =
                    Some(parse_count(&value("--trace-sample")?, "--trace-sample")?);
            }
            "--duration-secs" => {
                options.duration_secs =
                    Some(parse_count(&value("--duration-secs")?, "--duration-secs")? as u64);
            }
            "--streams" => options.streams = Some(parse_count(&value("--streams")?, "--streams")?),
            "--windows" => options.windows = parse_count(&value("--windows")?, "--windows")?,
            "--label-every" => {
                options.label_every = parse_count(&value("--label-every")?, "--label-every")?;
            }
            "--connections" => {
                options.connections = Some(parse_count(&value("--connections")?, "--connections")?);
            }
            "--idle-fraction" => {
                let raw = value("--idle-fraction")?;
                options.idle_fraction = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..1.0).contains(f))
                    .ok_or(format!(
                        "--idle-fraction: {raw:?} is not a fraction in [0, 1)"
                    ))?;
            }
            "--transport" => options.transport = value("--transport")?.parse()?,
            "--event-loops" => {
                options.event_loops = parse_count(&value("--event-loops")?, "--event-loops")?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

fn parse_count(raw: &str, name: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or(format!("{name}: {raw:?} is not a positive count"))
}

/// Stand up the in-process server the options describe. With `train`,
/// the service first trains the online model the estimates ask for.
fn start_local_server(options: &Options, train: bool) -> Server {
    println!(
        "starting in-process server ({} transport, metrics {}, tracing {}, health {})...",
        options.transport,
        if options.no_metrics { "off" } else { "on" },
        if options.no_trace { "off" } else { "on" },
        if options.no_health { "off" } else { "on" }
    );
    let service = Arc::new(
        ServiceConfig::default()
            .cache_capacity(1024)
            .seed(42)
            .metrics(!options.no_metrics)
            .tracing(!options.no_trace)
            .health(!options.no_health)
            .transport(options.transport)
            .event_loops(options.event_loops)
            .build()
            .expect("build service"),
    );
    if train {
        let pmcs: Vec<String> = GOOD_SET.iter().map(|s| s.to_string()).collect();
        let ladder: Vec<String> = (0..10)
            .flat_map(|i| {
                [
                    format!("dgemm:{}", 7_000 + 1_900 * i),
                    format!("fft:{}", 23_000 + 1_300 * i),
                ]
            })
            .collect();
        service
            .train_online("skylake", &pmcs, &ladder)
            .expect("train online model");
    }
    Server::start(service, "127.0.0.1:0").expect("bind ephemeral port")
}

/// One request line for slot `i` of a client: app-level or counter-level
/// according to `app_share`, deterministic per (client, slot). `tier`
/// rides along on every request (a no-op on the wire for `Tier::F64`).
fn request_line(client_index: usize, i: usize, app_share: u32, tier: Tier) -> String {
    let pick = ((i * 97 + client_index * 31) % 100) as u32;
    if pick < app_share {
        let spec = APP_SPECS[(i + client_index) % APP_SPECS.len()];
        Request::EstimateApp {
            platform: "skylake".to_string(),
            app: spec.to_string(),
            tier,
        }
        .to_line()
    } else {
        let counts: Vec<(String, f64)> = GOOD_SET
            .iter()
            .map(|n| (n.to_string(), 1.0e10 + (i % 7) as f64 * 1.0e9))
            .collect();
        Request::Estimate {
            platform: "skylake".to_string(),
            counts,
            tier,
        }
        .to_line()
    }
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            log::error("loadgen", &message, &[]);
            std::process::exit(2);
        }
    };
    if options.streams.is_some() {
        run_streams(&options);
        return;
    }

    // Either target an external server or stand one up in-process.
    let local_server;
    let addr = match &options.addr {
        Some(addr) => addr.clone(),
        None => {
            local_server = start_local_server(&options, true);
            local_server.addr().to_string()
        }
    };

    // Warm the run cache so app-level queries measure serving, not the
    // simulator.
    let mut warm = Client::connect(addr.as_str()).expect("connect for warm-up");
    for spec in APP_SPECS {
        warm.estimate_app("skylake", spec)
            .expect("warm-up estimate");
    }
    let warm_counts: Vec<(String, f64)> =
        GOOD_SET.iter().map(|n| (n.to_string(), 2.0e10)).collect();
    warm.estimate("skylake", &warm_counts)
        .expect("warm-up counter estimate");
    // Connection-scale mode: open the idle herd before the timed run and
    // size the active client pool from what's left of the budget.
    let (active_clients, idle_conns) = match options.connections {
        Some(total) => {
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let active =
                (((total as f64) * (1.0 - options.idle_fraction)).round() as usize).clamp(1, total);
            let idle = total - active;
            println!("opening {idle} idle connections ({active} active)...");
            let opened = Instant::now();
            let conns = open_idle_connections(&addr, idle);
            println!(
                "{} idle connections open and probed in {:.2} s",
                conns.len(),
                opened.elapsed().as_secs_f64()
            );
            (active, conns)
        }
        None => (options.clients, Vec::new()),
    };
    let load_spec = match options.duration_secs {
        Some(secs) => format!("{secs} s wall-clock budget"),
        None => format!("{} requests", options.requests),
    };
    println!(
        "warmed {} app specs; {} clients x {load_spec}, pipeline depth {}, {}% app-level, \
         tier {}, against {addr}",
        APP_SPECS.len(),
        active_clients,
        options.pipeline,
        options.app_share,
        options.tier
    );

    // In-flight trace sampler: every N completed requests (across all
    // clients) fetch the most recent completed trace over a dedicated
    // connection — never the pipelining connections, whose reply stream
    // must stay one line per request.
    let sampler = options.trace_sample.map(|every| {
        let client = Client::connect(addr.as_str()).expect("connect trace sampler");
        Arc::new(TraceSampler {
            every,
            completed: AtomicUsize::new(0),
            client: Mutex::new(client),
        })
    });

    let pass = run_pass(&addr, &options, active_clients, sampler);
    println!(
        "{} estimates in {:.2} s -> {:.0} estimates/sec",
        pass.total,
        pass.elapsed_secs,
        pass.throughput_eps()
    );
    println!(
        "latency (per request, amortised over the pipeline): p50 {:?}  \
         p90 {:?}  p99 {:?}  p99.9 {:?}  max {:?}",
        pass.percentile(50.0),
        pass.percentile(90.0),
        pass.percentile(99.0),
        pass.percentile(99.9),
        pass.max()
    );
    println!(
        "result tier={} eps={:.1} p50_us={:.1} p99_us={:.1}",
        options.tier,
        pass.throughput_eps(),
        as_micros(pass.percentile(50.0)),
        as_micros(pass.percentile(99.0))
    );

    // Every idle connection must still answer after the run: the front
    // end kept them alive while the active herd saturated it.
    let idle_held = idle_conns.len();
    let idle_probe_failures = probe_all_idle(&idle_conns);
    drop(idle_conns);
    if idle_held > 0 {
        println!(
            "idle connections after the run: {}/{idle_held} still answering STATS \
             ({idle_probe_failures} failed)",
            idle_held - idle_probe_failures
        );
    }

    if let Ok(mut client) = Client::connect(addr.as_str()) {
        if let Ok(stats) = client.stats() {
            let line: Vec<String> = stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("server stats: {}", line.join(" "));
        }
        if let Ok(lines) = client.metrics() {
            print_server_percentiles(&lines);
        }
        if let Ok(lines) = client.trace(TraceScope::Slowest, None) {
            match Trace::parse_dump(&lines) {
                Ok(traces) if !traces.is_empty() => {
                    print_trace(&traces[0], "slowest request server-side");
                }
                _ => println!("slowest request server-side: no trace retained (tracing off?)"),
            }
        }
        let _ = client.quit();
    }
    // Connection-scale acceptance: a dropped idle connection is a
    // failure, not a footnote — exit nonzero so CI gates on it.
    if idle_probe_failures > 0 {
        log::error(
            "loadgen",
            "idle connections stopped answering after the run",
            &[("failed", &idle_probe_failures.to_string())],
        );
        std::process::exit(1);
    }
}

/// One timed pass's sorted latencies and wall clock.
struct PassResult {
    total: usize,
    elapsed_secs: f64,
    /// Sorted ascending.
    latencies: Vec<Duration>,
}

impl PassResult {
    fn throughput_eps(&self) -> f64 {
        self.total as f64 / self.elapsed_secs
    }

    fn percentile(&self, p: f64) -> Duration {
        let index = ((self.total as f64 * p / 100.0).ceil() as usize).clamp(1, self.total) - 1;
        self.latencies[index]
    }

    fn max(&self) -> Duration {
        self.latencies[self.total - 1]
    }
}

/// The timed load pass: every active client fires its budget of
/// pipelined batches and reports per-request latencies.
fn run_pass(
    addr: &str,
    options: &Options,
    active_clients: usize,
    sampler: Option<Arc<TraceSampler>>,
) -> PassResult {
    let started = Instant::now();
    let deadline = options
        .duration_secs
        .map(|secs| started + Duration::from_secs(secs));
    let handles: Vec<_> = (0..active_clients)
        .map(|client_index| {
            let addr = addr.to_string();
            let requests = options.requests;
            let depth = options.pipeline;
            let app_share = options.app_share;
            let tier = options.tier;
            let sampler = sampler.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("client connect");
                // The request mix repeats with period 700 (lcm of the
                // pick/spec/count cycles): precompute one period so the
                // timed loop measures serving, not request formatting.
                let period = 700;
                let pattern: Vec<String> = (0..period)
                    .map(|i| request_line(client_index, i, app_share, tier))
                    .collect();
                let mut latencies = Vec::with_capacity(requests);
                let mut sent = 0;
                let mut lines: Vec<String> = Vec::with_capacity(depth);
                loop {
                    // Fixed-count mode stops at the request budget;
                    // duration mode stops at the wall-clock deadline.
                    let batch = match deadline {
                        Some(deadline) => {
                            if Instant::now() >= deadline {
                                break;
                            }
                            depth
                        }
                        None => {
                            if sent >= requests {
                                break;
                            }
                            depth.min(requests - sent)
                        }
                    };
                    lines.clear();
                    lines.extend((sent..sent + batch).map(|i| pattern[i % period].clone()));
                    let fired = Instant::now();
                    let replies = client.raw_pipelined(&lines).expect("pipelined batch");
                    let per_request = fired.elapsed() / batch as u32;
                    for reply in &replies {
                        let estimate = parse_estimate_reply(reply).expect("estimate reply");
                        assert!(estimate.joules.is_finite());
                        latencies.push(per_request);
                    }
                    sent += batch;
                    if let Some(sampler) = &sampler {
                        sampler.note(batch);
                    }
                }
                let _ = client.quit();
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().expect("client thread"));
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    PassResult {
        total: latencies.len(),
        elapsed_secs,
        latencies,
    }
}

/// Streaming-ingestion mode: `--streams N` concurrent telemetry streams,
/// `--windows` pushed windows each, poll latency measured one round trip
/// at a time.
fn run_streams(options: &Options) {
    let streams = options.streams.expect("streaming mode");
    let clients = options.clients.min(streams);
    let local_server;
    let addr = match &options.addr {
        Some(addr) => addr.clone(),
        None => {
            local_server = start_local_server(options, false);
            local_server.addr().to_string()
        }
    };
    println!(
        "{streams} streams x {} windows (every {}th labelled) over {clients} clients, \
         pipeline depth {}, against {addr}",
        options.windows, options.label_every, options.pipeline
    );

    // Every client opens its streams before any window is pushed, so the
    // timed ingest phase runs with all N streams concurrently open.
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|client_index| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let windows = options.windows;
            let label_every = options.label_every;
            let depth = options.pipeline;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("client connect");
                let owned: Vec<usize> = (client_index..streams).step_by(clients).collect();
                for &s in &owned {
                    client
                        .stream_open(&format!("lg-{s}"), "synthetic", "skylake", 32)
                        .expect("stream open");
                }
                barrier.wait();
                let ingest_started = Instant::now();
                let mut pushed = 0usize;
                let mut poll_latencies: Vec<Duration> = Vec::with_capacity(windows);
                let mut lines: Vec<String> = Vec::with_capacity(depth);
                for w in 0..windows {
                    let window = w as u64;
                    let labelled = (w + 1) % label_every == 0;
                    for chunk in owned.chunks(depth) {
                        lines.clear();
                        for &s in chunk {
                            let (counts, joules) = synthetic_window(s as u64, window);
                            lines.push(
                                Request::StreamPush {
                                    id: format!("lg-{s}"),
                                    window,
                                    counts,
                                    joules: labelled.then_some(joules),
                                }
                                .to_line(),
                            );
                        }
                        let replies = client.raw_pipelined(&lines).expect("pipelined pushes");
                        for reply in &replies {
                            assert!(reply.starts_with("OK "), "push rejected: {reply}");
                        }
                        pushed += chunk.len();
                    }
                    // One individually timed POLL per window round — the
                    // per-window estimate latency, streams visited in
                    // rotation.
                    let probe = owned[w % owned.len()];
                    let fired = Instant::now();
                    let status = client
                        .stream_poll(&format!("lg-{probe}"))
                        .expect("stream poll");
                    poll_latencies.push(fired.elapsed());
                    assert!(status.watts.is_finite());
                }
                (pushed, ingest_started.elapsed(), poll_latencies, client)
            })
        })
        .collect();
    let mut pushed_total = 0usize;
    let mut poll_latencies: Vec<Duration> = Vec::new();
    let mut clients_alive: Vec<Client> = Vec::new();
    // The barrier aligns every thread's ingest start, so the ingest
    // wall-clock is the slowest thread's elapsed — opens excluded.
    let mut elapsed = Duration::ZERO;
    for handle in handles {
        let (pushed, thread_elapsed, latencies, client) = handle.join().expect("client thread");
        pushed_total += pushed;
        elapsed = elapsed.max(thread_elapsed);
        poll_latencies.extend(latencies);
        clients_alive.push(client);
    }

    // Server-side view while every stream is still open, then close them.
    let mut open_streams = 0usize;
    let mut refit_swaps = 0u64;
    let mut health_failure = None;
    if let Ok(mut client) = Client::connect(addr.as_str()) {
        if let Ok(stats) = client.stats() {
            for (k, v) in &stats {
                match k.as_str() {
                    "streams" => open_streams = v.parse().unwrap_or(0),
                    "stream-refits" => refit_swaps = v.parse().unwrap_or(0),
                    _ => {}
                }
            }
        }
        // Model-health acceptance: the labelled pushes above must have
        // fed the calibration tracker, and empirical PI coverage must be
        // a sane fraction. Only checkable on the in-process server —
        // an external `--addr` target may run with health disabled.
        if options.addr.is_none() && !options.no_health {
            health_failure = check_stream_health(&mut client);
        }
        let _ = client.quit();
    }
    for (client_index, mut client) in clients_alive.into_iter().enumerate() {
        for s in (client_index..streams).step_by(clients) {
            let _ = client.stream_close(&format!("lg-{s}"));
        }
        let _ = client.quit();
    }

    poll_latencies.sort_unstable();
    let polls = poll_latencies.len();
    let percentile = |p: f64| {
        let index = ((polls as f64 * p / 100.0).ceil() as usize).clamp(1, polls) - 1;
        poll_latencies[index]
    };
    let ingest_wps = pushed_total as f64 / elapsed.as_secs_f64();
    println!(
        "{pushed_total} windows ingested across {open_streams} concurrently open streams \
         in {:.2} s -> {ingest_wps:.0} windows/sec",
        elapsed.as_secs_f64()
    );
    println!(
        "estimate latency (STREAM POLL round trip, {polls} samples): p50 {:?}  p95 {:?}  \
         p99 {:?}  max {:?}",
        percentile(50.0),
        percentile(95.0),
        percentile(99.0),
        poll_latencies[polls - 1]
    );
    println!("online model publications server-side (cadence + drift): {refit_swaps}");
    println!(
        "result ingest_wps={ingest_wps:.1} poll_p50_us={:.1} poll_p99_us={:.1}",
        as_micros(percentile(50.0)),
        as_micros(percentile(99.0))
    );
    if let Some(reason) = health_failure {
        log::error(
            "loadgen",
            "model-health acceptance check failed",
            &[("reason", &reason)],
        );
        std::process::exit(1);
    }
}

/// Streaming-mode acceptance check over the `HEALTH` verb: returns a
/// failure reason, or `None` when the calibration rows look sane.
fn check_stream_health(client: &mut Client) -> Option<String> {
    let rows = match client.health() {
        Ok(rows) => rows,
        Err(e) => return Some(format!("HEALTH failed: {e}")),
    };
    let calibration: Vec<_> = rows
        .iter()
        .filter_map(|row| match row {
            HealthRow::Calibration { snapshot, .. } => Some(snapshot),
            HealthRow::Additivity { .. } => None,
        })
        .collect();
    if calibration.is_empty() {
        return Some("no calibration rows after labelled pushes".to_string());
    }
    for c in &calibration {
        if c.samples == 0 {
            return Some(format!("calibration row for {} has no samples", c.platform));
        }
        if !(0.0..=1.0).contains(&c.coverage) {
            return Some(format!(
                "PI coverage {} out of range for {}",
                c.coverage, c.platform
            ));
        }
        println!(
            "model health {}: {} labelled window(s), MAE {:.3} J, MPE {:+.2}%, \
             PI coverage {:.0}%, state {}",
            c.platform,
            c.samples,
            c.mae,
            c.mpe,
            c.coverage * 100.0,
            c.state.as_str()
        );
    }
    None
}

fn as_micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Open `count` idle connections in parallel, probing each with one
/// `STATS` round trip so a connection that never got accepted fails
/// loudly at open rather than silently at the end-of-run recheck.
fn open_idle_connections(addr: &str, count: usize) -> Vec<TcpStream> {
    if count == 0 {
        return Vec::new();
    }
    let threads = count.min(16);
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let addr = addr.to_string();
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                while next.fetch_add(1, Ordering::Relaxed) < count {
                    let conn = TcpStream::connect(addr.as_str()).expect("idle connect");
                    conn.set_nodelay(true).expect("idle nodelay");
                    probe_stats(&conn).expect("idle connection STATS probe at open");
                    conns.push(conn);
                }
                conns
            })
        })
        .collect();
    let mut conns = Vec::with_capacity(count);
    for handle in handles {
        conns.extend(handle.join().expect("idle opener thread"));
    }
    conns
}

/// Re-probe every idle connection (in parallel — an idle connection on
/// the evented transport sits in the cold tier, so replies can take a
/// few sweep periods each) and count the ones that no longer answer.
fn probe_all_idle(conns: &[TcpStream]) -> usize {
    if conns.is_empty() {
        return 0;
    }
    let threads = conns.len().min(16);
    let failures = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(conn) = conns.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if probe_stats(conn).is_err() {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    failures.into_inner()
}

/// One `STATS` round trip over a raw idle connection: write the request,
/// read until the reply's newline. Any I/O failure or early EOF means
/// the server dropped the connection.
fn probe_stats(mut conn: &TcpStream) -> std::io::Result<()> {
    conn.write_all(b"STATS\n")?;
    let mut chunk = [0u8; 256];
    loop {
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the idle connection",
            ));
        }
        if chunk[..n].contains(&b'\n') {
            return Ok(());
        }
    }
}

/// Shared in-flight sampler: counts completed requests across client
/// threads and dumps one server-side trace each time the count crosses a
/// multiple of `every`.
struct TraceSampler {
    every: usize,
    completed: AtomicUsize,
    client: Mutex<Client>,
}

impl TraceSampler {
    fn note(&self, batch: usize) {
        let before = self.completed.fetch_add(batch, Ordering::Relaxed);
        let after = before + batch;
        if after / self.every > before / self.every {
            self.sample(after);
        }
    }

    fn sample(&self, completed: usize) {
        let Ok(mut client) = self.client.lock() else {
            return;
        };
        if let Ok(lines) = client.trace(TraceScope::Recent, Some(1)) {
            match Trace::parse_dump(&lines) {
                Ok(traces) if !traces.is_empty() => {
                    print_trace(
                        &traces[0],
                        &format!("trace sample at ~{completed} requests"),
                    );
                }
                _ => println!("trace sample at ~{completed} requests: none retained"),
            }
        }
    }
}

/// Print one trace as a "where did the time go" span breakdown.
fn print_trace(trace: &Trace, heading: &str) {
    println!(
        "{heading}: {} (trace {}, conn {}) total {:?}",
        trace.label,
        trace.id,
        trace.connection,
        Duration::from_nanos(trace.total_ns)
    );
    for (name, ns) in trace.span_durations() {
        // The whole-request span duplicates the total printed above.
        if name == "request" {
            continue;
        }
        println!("  {name:<16} {:?}", Duration::from_nanos(ns));
    }
}

/// Summarise the server-side view of the run: per-command latency
/// quantiles out of the `METRICS` exposition lines, e.g.
/// `pmca_serve_command_seconds{command="estimate",quantile="0.5"} 1.2e-5`.
fn print_server_percentiles(lines: &[String]) {
    if lines.is_empty() {
        println!("server metrics: disabled");
        return;
    }
    for command in ["estimate", "estimate-app"] {
        let quantile = |q: &str| -> Option<f64> {
            let prefix =
                format!(r#"pmca_serve_command_seconds{{command="{command}",quantile="{q}"}} "#);
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&prefix))
                .and_then(|v| v.parse().ok())
        };
        let samples: u64 = lines
            .iter()
            .find_map(|l| {
                l.strip_prefix(&format!(
                    r#"pmca_serve_command_seconds_count{{command="{command}"}} "#
                ))
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if samples == 0 {
            println!("server-side {command:>12} latency: no samples (metrics disabled?)");
            continue;
        }
        if let (Some(p50), Some(p95), Some(p99)) =
            (quantile("0.5"), quantile("0.95"), quantile("0.99"))
        {
            println!(
                "server-side {command:>12} latency: p50 {:?}  p95 {:?}  p99 {:?}",
                Duration::from_secs_f64(p50),
                Duration::from_secs_f64(p95),
                Duration::from_secs_f64(p99)
            );
        }
    }
    for counter in ["pmca_cache_hits_total", "pmca_cache_misses_total"] {
        if let Some(v) = lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{counter} ")))
        {
            println!("server-side {counter}: {v}");
        }
    }
}
