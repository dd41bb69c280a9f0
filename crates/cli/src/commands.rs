//! Subcommand parsing and execution for `slope-pmc`.

use pmca_additivity::{AdditivityChecker, AdditivityMatrix, AdditivityTest, CompoundCase};
use pmca_core::online::OnlineModel;
use pmca_core::tables::TextTable;
use pmca_cpusim::events::EventId;
use pmca_cpusim::{Machine, PlatformSpec};
use pmca_pmctools::collector::collect_all;
use pmca_pmctools::scheduler::schedule;
use pmca_powermeter::HclWattsUp;
use pmca_serve::{Client, HealthRow, Request, Server, ServiceConfig, Transport};
use pmca_workloads::parse::app_from_spec;
use pmca_workloads::suite::class_b_compound_pairs;
use std::sync::Arc;

/// Usage text shown on any argument error.
pub const USAGE: &str = "\
usage:
  slope-pmc specs
      print the simulated platform specifications (paper Table 1)

  slope-pmc schedule [--platform haswell|skylake] [EVENT ...]
      partition events (default: the whole catalog) into counter groups;
      one group = one application run

  slope-pmc audit [--platform haswell|skylake] [--compounds N] [--jobs N]
                  EVENT [EVENT ...]
      run the paper's two-stage additivity test over N DGEMM/FFT compounds
      (default 8) and print the ranked report

  slope-pmc measure [--platform haswell|skylake] [--jobs N] APP_SPEC [APP_SPEC ...]
      measure dynamic energy via the simulated WattsUp meter
      (APP_SPEC examples: dgemm:12000  npb-cg:1.2  'dgemm:9000;fft:24000')

  slope-pmc collect [--platform haswell|skylake] [--jobs N] --app APP_SPEC
                    EVENT [EVENT ...]
      collect PMCs for one application, reporting the runs consumed

  slope-pmc online [--platform haswell|skylake] [--jobs N]
                   --train SPEC,SPEC,... --events E,E,...
                   APP_SPEC [APP_SPEC ...]
      train a single-run online energy model (<= 4 events) on the --train
      applications and estimate each APP_SPEC's energy from one run

  slope-pmc matrix [--platform haswell|skylake] [--compounds N] [--jobs N]
                   EVENT [EVENT ...]
      print the full event x compound additivity-error matrix: which
      compositions break which counters

  --jobs N sizes the offline experiment thread pool (simulated runs, forest
  training, cross-validation); it defaults to the available parallelism and
  never changes results: every output is bit-identical at any thread count

  slope-pmc serve [--addr HOST:PORT] [--cache N] [--registry DIR]
                  [--shards N] [--transport threaded|evented] [--event-loops N]
                  [--metrics] [--trace-slow-ms MS] [--trace-log PATH] [--no-trace]
      run the energy estimation server (default 127.0.0.1:7771); speaks
      the line protocol: ESTIMATE, ESTIMATE-APP, TRAIN, MODELS, STATS,
      METRICS, TRACE, HEALTH, HISTORY, SHARDS, QUIT; every estimate is
      answered on the thread that read it (tier=fixed picks the
      fixed-point kernel); --registry loads saved models at startup;
      --shards N runs N in-process shards behind a consistent-hash router
      (shard 0 keeps the file-backed registry, replicas restore from its
      snapshot); --transport evented serves all connections from
      --event-loops nonblocking event-loop threads instead of one thread
      per connection; --metrics serves until stdin closes, then dumps the
      metrics snapshot (latency histograms + counters) before exiting;
      --trace-slow-ms keeps every request slower than MS in the slow
      flight recorder, --trace-log appends each captured trace as JSONL
      to PATH, --no-trace disables request tracing entirely

  slope-pmc query [--addr HOST:PORT] REQUEST...
      send one protocol request to a running server and print the reply
      (e.g.  slope-pmc query STATS
             slope-pmc query METRICS
             slope-pmc query SHARDS
             slope-pmc query TRACE SLOWEST
             slope-pmc query HEALTH
             slope-pmc query HISTORY 4
             slope-pmc query ESTIMATE-APP skylake dgemm:12000)

  slope-pmc stream [--addr HOST:PORT] [--platform haswell|skylake]
                   [--app APP_SPEC] [--window N] [--windows N]
                   [--label-every N] [ID]
      drive one telemetry stream against a running server: STREAM OPEN,
      push --windows one-second windows of deployable-set PMC counts
      (every --label-every'th window labelled with measured joules so the
      online linear model learns; every 256th label on a platform, and
      entering drifting, publish it for ESTIMATE), then poll the live
      energy/power estimate and close; ID defaults to cli-stream

  slope-pmc monitor [--addr HOST:PORT] [--interval-ms MS] [--iterations N]
                    [--health]
      poll STREAM LIST on a running server every MS milliseconds (default
      1000) for N rounds (default 1; 0 = forever) and print a status
      table per round: windows retained, estimated watts ±95% PI, model
      family/version feeding each stream; --health also polls HEALTH and
      prints per-platform calibration (MAE, MPE, PI coverage, drift
      state) and per-counter additivity violation rates";

/// Parsed global options plus positional arguments.
struct Parsed {
    platform: PlatformSpec,
    compounds: usize,
    app: Option<String>,
    train: Vec<String>,
    events: Vec<String>,
    addr: String,
    jobs: Option<usize>,
    cache: usize,
    registry: Option<String>,
    shards: usize,
    transport: Transport,
    event_loops: usize,
    metrics_dump: bool,
    trace_slow_ms: Option<u64>,
    trace_log: Option<String>,
    no_trace: bool,
    window: usize,
    windows: usize,
    label_every: usize,
    interval_ms: u64,
    iterations: usize,
    health: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Parsed, String> {
    let mut platform = PlatformSpec::intel_skylake();
    let mut compounds = 8;
    let mut app = None;
    let mut train = Vec::new();
    let mut events = Vec::new();
    let mut addr = "127.0.0.1:7771".to_string();
    let mut jobs = None;
    let mut cache = 256;
    let mut registry = None;
    let mut shards = 1;
    let mut transport = Transport::Threaded;
    let mut event_loops = 4;
    let mut metrics_dump = false;
    let mut trace_slow_ms = None;
    let mut trace_log = None;
    let mut no_trace = false;
    let mut window = 32;
    let mut windows = 60;
    let mut label_every = 1;
    let mut interval_ms = 1000;
    let mut iterations = 1;
    let mut health = false;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--platform" => {
                let value = it.next().ok_or("--platform needs a value")?;
                platform = match value.to_ascii_lowercase().as_str() {
                    "haswell" => PlatformSpec::intel_haswell(),
                    "skylake" => PlatformSpec::intel_skylake(),
                    other => return Err(format!("unknown platform {other:?}")),
                };
            }
            "--compounds" => {
                let value = it.next().ok_or("--compounds needs a value")?;
                compounds = value
                    .parse::<usize>()
                    .map_err(|_| format!("--compounds: {value:?} is not a count"))?
                    .max(1);
            }
            "--app" => {
                app = Some(it.next().ok_or("--app needs a value")?.clone());
            }
            "--train" => {
                let value = it.next().ok_or("--train needs a comma-separated list")?;
                train = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--events" => {
                let value = it.next().ok_or("--events needs a comma-separated list")?;
                events = value.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                jobs = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--jobs: {value:?} is not a positive count"))?,
                );
            }
            "--cache" => {
                let value = it.next().ok_or("--cache needs a value")?;
                cache = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--cache: {value:?} is not a positive count"))?;
            }
            "--registry" => {
                registry = Some(it.next().ok_or("--registry needs a directory")?.clone());
            }
            "--shards" => {
                let value = it.next().ok_or("--shards needs a value")?;
                shards = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--shards: {value:?} is not a positive count"))?;
            }
            "--transport" => {
                let value = it.next().ok_or("--transport needs threaded or evented")?;
                transport = value.parse::<Transport>()?;
            }
            "--event-loops" => {
                let value = it.next().ok_or("--event-loops needs a value")?;
                event_loops = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--event-loops: {value:?} is not a positive count"))?;
            }
            "--metrics" => metrics_dump = true,
            "--trace-slow-ms" => {
                let value = it.next().ok_or("--trace-slow-ms needs a value")?;
                trace_slow_ms = Some(value.parse::<u64>().map_err(|_| {
                    format!("--trace-slow-ms: {value:?} is not a millisecond count")
                })?);
            }
            "--trace-log" => {
                trace_log = Some(it.next().ok_or("--trace-log needs a file path")?.clone());
            }
            "--no-trace" => no_trace = true,
            "--window" => {
                let value = it.next().ok_or("--window needs a value")?;
                window = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--window: {value:?} is not a positive count"))?;
            }
            "--windows" => {
                let value = it.next().ok_or("--windows needs a value")?;
                windows = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--windows: {value:?} is not a positive count"))?;
            }
            "--label-every" => {
                let value = it.next().ok_or("--label-every needs a value")?;
                label_every = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--label-every: {value:?} is not a positive count"))?;
            }
            "--interval-ms" => {
                let value = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = value
                    .parse::<u64>()
                    .map_err(|_| format!("--interval-ms: {value:?} is not a millisecond count"))?;
            }
            "--iterations" => {
                let value = it.next().ok_or("--iterations needs a value")?;
                iterations = value
                    .parse::<usize>()
                    .map_err(|_| format!("--iterations: {value:?} is not a count"))?;
            }
            "--health" => health = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    Ok(Parsed {
        platform,
        compounds,
        app,
        train,
        events,
        addr,
        jobs,
        cache,
        registry,
        shards,
        transport,
        event_loops,
        metrics_dump,
        trace_slow_ms,
        trace_log,
        no_trace,
        window,
        windows,
        label_every,
        interval_ms,
        iterations,
        health,
        positional,
    })
}

fn resolve_events(machine: &Machine, names: &[String]) -> Result<Vec<EventId>, String> {
    if names.is_empty() {
        return Ok(machine.catalog().all_ids());
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    machine
        .catalog()
        .ids(&refs)
        .map_err(|unknown| format!("unknown event {unknown:?} on {}", machine.spec().micro_arch))
}

/// Dispatch a full argument vector.
///
/// # Errors
///
/// Returns a user-facing message on any parse or lookup failure.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let options = parse_options(rest)?;
    if let Some(n) = options.jobs {
        pmca_parallel::set_global_jobs(n);
    }
    match command.as_str() {
        "specs" => cmd_specs(),
        "schedule" => cmd_schedule(options),
        "audit" => cmd_audit(options),
        "measure" => cmd_measure(options),
        "collect" => cmd_collect(options),
        "online" => cmd_online(options),
        "matrix" => cmd_matrix(options),
        "serve" => cmd_serve(&options),
        "query" => cmd_query(&options),
        "stream" => cmd_stream(&options),
        "monitor" => cmd_monitor(&options),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn cmd_specs() -> Result<(), String> {
    for spec in [PlatformSpec::intel_haswell(), PlatformSpec::intel_skylake()] {
        println!(
            "{arch}: {proc}, {sockets}×{cores} cores ({threads} threads), L2 {l2} KB, L3 {l3} KB, \
             {mem} GB, TDP {tdp} W, idle {idle} W",
            arch = spec.micro_arch,
            proc = spec.processor,
            sockets = spec.sockets,
            cores = spec.cores_per_socket,
            threads = spec.total_threads(),
            l2 = spec.l2_kib,
            l3 = spec.l3_kib,
            mem = spec.memory_gib,
            tdp = spec.tdp_watts,
            idle = spec.idle_power_watts,
        );
    }
    Ok(())
}

fn cmd_schedule(options: Parsed) -> Result<(), String> {
    let machine = Machine::new(options.platform, 1);
    let events = resolve_events(&machine, &options.positional)?;
    let groups = schedule(machine.catalog(), &events).map_err(|e| e.to_string())?;
    println!(
        "{} events on {} → {} runs",
        events.len(),
        machine.spec().micro_arch,
        groups.len()
    );
    for (i, group) in groups.iter().enumerate() {
        let names: Vec<&str> = group
            .events
            .iter()
            .map(|&id| machine.catalog().event(id).name.as_str())
            .collect();
        println!("  run {:>3}: {}", i + 1, names.join(", "));
        if i >= 19 && groups.len() > 24 {
            println!("  … {} more runs", groups.len() - i - 1);
            break;
        }
    }
    Ok(())
}

fn cmd_audit(options: Parsed) -> Result<(), String> {
    if options.positional.is_empty() {
        return Err("audit needs at least one EVENT".into());
    }
    let mut machine = Machine::new(options.platform, 1);
    let events = resolve_events(&machine, &options.positional)?;
    let cases: Vec<CompoundCase> = class_b_compound_pairs(options.compounds, 1)
        .into_iter()
        .map(|(a, b)| CompoundCase::new(a, b))
        .collect();
    let report = AdditivityChecker::default()
        .check(&mut machine, &events, &cases)
        .map_err(|e| e.to_string())?;
    println!(
        "additivity over {} DGEMM/FFT compounds on {} (tolerance {:.0}%):\n",
        options.compounds,
        machine.spec().micro_arch,
        report.tolerance_pct()
    );
    print!("{}", report.to_table());
    Ok(())
}

fn cmd_measure(options: Parsed) -> Result<(), String> {
    if options.positional.is_empty() {
        return Err("measure needs at least one APP_SPEC".into());
    }
    let mut machine = Machine::new(options.platform, 1);
    let mut meter = HclWattsUp::new(&machine, 1);
    let mut t = TextTable::new(
        format!(
            "dynamic energy on {} (static power {:.1} W)",
            machine.spec().micro_arch,
            meter.static_power_w()
        ),
        &["application", "energy (J)", "±CI", "time (s)", "runs"],
    );
    for spec in &options.positional {
        let app = app_from_spec(spec).map_err(|e| e.to_string())?;
        let m = meter.measure_dynamic_energy(&mut machine, app.as_ref());
        t.row(vec![
            app.name(),
            format!("{:.1}", m.mean_joules),
            format!("{:.1}", m.ci_half_width),
            format!("{:.2}", m.mean_seconds),
            m.runs.to_string(),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_collect(options: Parsed) -> Result<(), String> {
    let spec = options
        .app
        .as_deref()
        .ok_or("collect needs --app APP_SPEC")?;
    if options.positional.is_empty() {
        return Err("collect needs at least one EVENT".into());
    }
    let mut machine = Machine::new(options.platform, 1);
    let events = resolve_events(&machine, &options.positional)?;
    let app = app_from_spec(spec).map_err(|e| e.to_string())?;
    let pmcs = collect_all(&mut machine, app.as_ref(), &events).map_err(|e| e.to_string())?;
    println!(
        "{} on {} ({} runs consumed):",
        app.name(),
        machine.spec().micro_arch,
        pmcs.runs_used
    );
    for &id in &events {
        println!(
            "  {:<44} {:>20.0}",
            machine.catalog().event(id).name,
            pmcs.get(id)
        );
    }
    Ok(())
}

fn cmd_online(options: Parsed) -> Result<(), String> {
    if options.train.is_empty() {
        return Err("online needs --train SPEC,SPEC,...".into());
    }
    if options.events.is_empty() {
        return Err("online needs --events E,E,...".into());
    }
    if options.positional.is_empty() {
        return Err("online needs at least one APP_SPEC to estimate".into());
    }
    let mut machine = Machine::new(options.platform, 1);
    let mut meter = HclWattsUp::new(&machine, 1);
    let train_apps = options
        .train
        .iter()
        .map(|spec| app_from_spec(spec).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let train_refs: Vec<&dyn pmca_cpusim::Application> =
        train_apps.iter().map(|a| a.as_ref()).collect();
    let event_refs: Vec<&str> = options.events.iter().map(String::as_str).collect();
    let model = OnlineModel::train(&mut machine, &mut meter, &event_refs, &train_refs)
        .map_err(|e| e.to_string())?;
    println!(
        "online model on {} using {} (trained on {} apps):",
        machine.spec().micro_arch,
        model.pmc_names().join(", "),
        train_refs.len()
    );
    let mut t = TextTable::new("", &["application", "estimated energy (J)", "runs used"]);
    for spec in &options.positional {
        let app = app_from_spec(spec).map_err(|e| e.to_string())?;
        let estimate = model.estimate(&mut machine, app.as_ref());
        t.row(vec![app.name(), format!("{estimate:.1}"), "1".into()]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_matrix(options: Parsed) -> Result<(), String> {
    if options.positional.is_empty() {
        return Err("matrix needs at least one EVENT".into());
    }
    let mut machine = Machine::new(options.platform, 1);
    let events = resolve_events(&machine, &options.positional)?;
    let cases: Vec<CompoundCase> = class_b_compound_pairs(options.compounds, 1)
        .into_iter()
        .map(|(a, b)| CompoundCase::new(a, b))
        .collect();
    let checker = AdditivityChecker::default();
    let matrix = AdditivityMatrix::measure(&checker, &mut machine, &events, &cases)
        .map_err(|e| e.to_string())?;
    println!(
        "Eq. 1 additivity error (%) per event x compound on {}:\n",
        machine.spec().micro_arch
    );
    print!("{}", matrix.to_table());
    println!("\ncompounds:");
    for (i, name) in matrix.compound_names().iter().enumerate() {
        println!("  #{:<3} {name}", i + 1);
    }
    println!("\nbroad-spectrum non-additive (median error above tolerance):");
    let test = AdditivityTest::default();
    for (i, name) in matrix.event_names().iter().enumerate() {
        if matrix.is_broad_spectrum(i, &test) {
            println!("  {name}");
        }
    }
    if let Some((worst, err)) = matrix.most_destructive_compounds().first() {
        println!("\nmost destructive composition: {worst} (mean error {err:.1}%)");
    }
    Ok(())
}

fn cmd_serve(options: &Parsed) -> Result<(), String> {
    let mut config = ServiceConfig::default()
        .cache_capacity(options.cache)
        .seed(1)
        .transport(options.transport)
        .event_loops(options.event_loops)
        .tracing(!options.no_trace);
    if let Some(dir) = &options.registry {
        config = config.registry_dir(dir);
    }
    if let Some(ms) = options.trace_slow_ms {
        config = config.trace_slow_ms(ms);
    }
    if let Some(path) = &options.trace_log {
        config = config.trace_log(path);
    }
    let router = Arc::new(config.build_sharded(options.shards).map_err(
        |e| match &options.registry {
            Some(dir) => format!("--registry {dir}: {e}"),
            None => e.to_string(),
        },
    )?);
    let service = router.primary();
    if let Some(dir) = &options.registry {
        println!("loaded {} model(s) from {dir}", service.stats().models);
    }
    match pmca_simd::override_request() {
        Some(req) => println!(
            "simd kernels: {} (PMCA_SIMD={req})",
            pmca_simd::Isa::active().as_str()
        ),
        None => println!(
            "simd kernels: {} (detected)",
            pmca_simd::Isa::active().as_str()
        ),
    }
    let server = Server::start_router(Arc::clone(&router), &options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let topology = if options.shards > 1 {
        format!(", {} shards", options.shards)
    } else {
        String::new()
    };
    if options.metrics_dump {
        println!(
            "slope-pmc serving on {} ({}-run cache, {} transport{topology}); \
             close stdin (Ctrl-D) for a metrics dump and exit",
            server.addr(),
            options.cache,
            options.transport,
        );
        // No signal handling in std: drain stdin so the operator (or a
        // driving script) can end the run deterministically, then dump
        // every instrument the METRICS command would expose.
        let mut sink = String::new();
        while let Ok(n) = std::io::stdin().read_line(&mut sink) {
            if n == 0 {
                break;
            }
            sink.clear();
        }
        println!("metrics at shutdown:");
        for line in service.metrics_lines() {
            println!("{line}");
        }
        return Ok(());
    }
    println!(
        "slope-pmc serving on {} ({}-run cache, {} transport{topology}); stop with Ctrl-C",
        server.addr(),
        options.cache,
        options.transport,
    );
    // Serve until killed: connections are handled on their own threads.
    loop {
        std::thread::park();
    }
}

fn cmd_query(options: &Parsed) -> Result<(), String> {
    if options.positional.is_empty() {
        return Err("query needs a request, e.g.  slope-pmc query STATS".into());
    }
    let mut client = Client::connect(options.addr.as_str())
        .map_err(|e| format!("cannot reach server at {}: {e}", options.addr))?;
    let line = options.positional.join(" ");
    if line.trim().eq_ignore_ascii_case("MODELS") {
        let models = client.models().map_err(|e| e.to_string())?;
        println!("{} model(s) registered", models.len());
        for model in models {
            println!("  {model}");
        }
    } else if line.trim().eq_ignore_ascii_case("METRICS") {
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        println!("{} metric line(s)", metrics.len());
        for metric in metrics {
            println!("  {metric}");
        }
    } else if line.trim().eq_ignore_ascii_case("SHARDS") {
        let shards = client.shards().map_err(|e| e.to_string())?;
        println!("{} shard(s)", shards.len());
        for shard in shards {
            println!(
                "  shard {}: owns [{}], {} model(s), {} stream(s), served {}, \
                 errors {}, {} cached run(s)",
                shard.shard,
                shard.owns.join(", "),
                shard.models,
                shard.streams,
                shard.served,
                shard.errors,
                shard.cache_entries,
            );
        }
    } else if line.trim().eq_ignore_ascii_case("HEALTH") {
        let rows = client.health().map_err(|e| e.to_string())?;
        print_health(&rows);
    } else if let Ok(Request::History { limit }) = Request::parse(&line) {
        let rows = client.history(limit).map_err(|e| e.to_string())?;
        println!("{} history row(s)", rows.len());
        let mut t = TextTable::new(String::new(), &["snapshot", "metric", "value", "delta"]);
        for row in &rows {
            t.row(vec![
                row.seq.to_string(),
                row.metric.clone(),
                format!("{:.3}", row.value),
                format!("{:+.3}", row.delta),
            ]);
        }
        print!("{}", t.render());
    } else if let Ok(Request::Trace { scope, limit }) = Request::parse(&line) {
        let lines = client.trace(scope, limit).map_err(|e| e.to_string())?;
        println!("{} trace event line(s)", lines.len());
        for event in lines {
            println!("{event}");
        }
    } else {
        let reply = client.raw_line(&line).map_err(|e| e.to_string())?;
        println!("{reply}");
    }
    Ok(())
}

fn print_health(rows: &[HealthRow]) {
    let shard_label =
        |shard: &Option<usize>| shard.map_or_else(|| "all".to_string(), |index| index.to_string());
    let calibration: Vec<_> = rows
        .iter()
        .filter_map(|row| match row {
            HealthRow::Calibration { shard, snapshot } => Some((shard, snapshot)),
            HealthRow::Additivity { .. } => None,
        })
        .collect();
    let additivity: Vec<_> = rows
        .iter()
        .filter_map(|row| match row {
            HealthRow::Additivity { shard, snapshot } => Some((shard, snapshot)),
            HealthRow::Calibration { .. } => None,
        })
        .collect();
    println!(
        "{} calibration row(s), {} additivity row(s)",
        calibration.len(),
        additivity.len()
    );
    if !calibration.is_empty() {
        let mut t = TextTable::new(
            "model calibration".to_string(),
            &[
                "shard", "platform", "version", "samples", "MAE (J)", "MPE (%)", "coverage",
                "drift", "state",
            ],
        );
        for (shard, c) in &calibration {
            t.row(vec![
                shard_label(shard),
                c.platform.clone(),
                c.version.to_string(),
                c.samples.to_string(),
                format!("{:.3}", c.mae),
                format!("{:+.2}", c.mpe),
                format!("{:.0}%", c.coverage * 100.0),
                format!("{:.2}", c.cusum.max(c.page_hinkley)),
                c.state.as_str().to_string(),
            ]);
        }
        print!("{}", t.render());
    }
    if !additivity.is_empty() {
        let mut t = TextTable::new(
            "counter additivity".to_string(),
            &[
                "shard",
                "platform",
                "counter",
                "checks",
                "violations",
                "rate",
                "worst (%)",
            ],
        );
        for (shard, a) in &additivity {
            t.row(vec![
                shard_label(shard),
                a.platform.clone(),
                a.counter.clone(),
                a.checks.to_string(),
                a.violations.to_string(),
                format!("{:.2}", a.rate),
                format!("{:.1}", a.worst_error_pct),
            ]);
        }
        print!("{}", t.render());
    }
}

fn cmd_stream(options: &Parsed) -> Result<(), String> {
    let id = options
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "cli-stream".to_string());
    let app = options.app.clone().unwrap_or_else(|| "dgemm:8000".into());
    let platform = options.platform.micro_arch.to_string().to_ascii_lowercase();
    let mut client = Client::connect(options.addr.as_str())
        .map_err(|e| format!("cannot reach server at {}: {e}", options.addr))?;
    let capacity = client
        .stream_open(&id, &app, &platform, options.window)
        .map_err(|e| e.to_string())?;
    println!("stream {id} open on {platform} (ring capacity {capacity} windows)");
    let mut labelled = 0usize;
    for i in 0..options.windows {
        let window = i as u64;
        let (counts, joules) = pmca_stream::synthetic_window(1, window);
        let label = (i + 1) % options.label_every == 0;
        labelled += usize::from(label);
        client
            .stream_push(&id, window, counts, label.then_some(joules))
            .map_err(|e| e.to_string())?;
    }
    let status = client.stream_poll(&id).map_err(|e| e.to_string())?;
    println!(
        "pushed {} windows ({labelled} labelled); estimate from {} v{} ({} rows):",
        options.windows, status.family, status.version, status.rows
    );
    let mut t = TextTable::new(
        String::new(),
        &["retained", "energy (J/window)", "±95% PI", "power (W)"],
    );
    t.row(vec![
        format!("{}/{}", status.retained, status.capacity),
        format!("{:.2}", status.joules),
        format!("{:.2}", status.ci95),
        format!("{:.2}", status.watts),
    ]);
    print!("{}", t.render());
    let accepted = client.stream_close(&id).map_err(|e| e.to_string())?;
    println!("stream {id} closed after {accepted} accepted windows");
    Ok(())
}

fn cmd_monitor(options: &Parsed) -> Result<(), String> {
    let mut client = Client::connect(options.addr.as_str())
        .map_err(|e| format!("cannot reach server at {}: {e}", options.addr))?;
    let mut round = 0usize;
    loop {
        round += 1;
        let statuses = client.stream_list().map_err(|e| e.to_string())?;
        let mut t = TextTable::new(
            format!("{} open stream(s)", statuses.len()),
            &[
                "stream",
                "app",
                "platform",
                "windows",
                "power (W)",
                "±95% PI",
                "model",
                "idle (ms)",
            ],
        );
        for s in &statuses {
            t.row(vec![
                s.stream.clone(),
                s.app.clone(),
                s.platform.clone(),
                format!("{}/{}", s.retained, s.capacity),
                format!("{:.2}", s.watts),
                format!("{:.2}", s.ci95),
                format!("{} v{}", s.family, s.version),
                s.idle_ms.to_string(),
            ]);
        }
        print!("{}", t.render());
        if options.health {
            let rows = client.health().map_err(|e| e.to_string())?;
            print_health(&rows);
        }
        if options.iterations != 0 && round >= options.iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_empty_and_unknown_commands() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn specs_runs() {
        assert!(dispatch(&argv(&["specs"])).is_ok());
    }

    #[test]
    fn schedule_subset_runs() {
        assert!(dispatch(&argv(&[
            "schedule",
            "--platform",
            "haswell",
            "IDQ_MS_UOPS",
            "L2_RQSTS_MISS"
        ]))
        .is_ok());
    }

    #[test]
    fn audit_runs_on_small_compound_count() {
        assert!(dispatch(&argv(&[
            "audit",
            "--compounds",
            "2",
            "MEM_INST_RETIRED_ALL_STORES",
            "ARITH_DIVIDER_COUNT"
        ]))
        .is_ok());
    }

    #[test]
    fn measure_runs_on_app_spec() {
        assert!(dispatch(&argv(&["measure", "dgemm:4000"])).is_ok());
    }

    #[test]
    fn collect_runs() {
        assert!(dispatch(&argv(&[
            "collect",
            "--app",
            "dgemm:4000",
            "UOPS_EXECUTED_CORE",
            "MEM_INST_RETIRED_ALL_STORES"
        ]))
        .is_ok());
    }

    #[test]
    fn online_trains_and_estimates() {
        assert!(dispatch(&argv(&[
            "online",
            "--train",
            "dgemm:4000,dgemm:6000,fft:23000,fft:25000",
            "--events",
            "UOPS_EXECUTED_CORE,FP_ARITH_INST_RETIRED_DOUBLE,MEM_INST_RETIRED_ALL_STORES",
            "dgemm:5000"
        ]))
        .is_ok());
    }

    #[test]
    fn online_rejects_multi_run_event_sets() {
        let err = dispatch(&argv(&[
            "online",
            "--train",
            "dgemm:4000,fft:23000",
            "--events",
            "ARITH_DIVIDER_COUNT,UOPS_EXECUTED_CORE",
            "dgemm:5000",
        ]))
        .unwrap_err();
        assert!(err.contains("runs"), "{err}");
    }

    #[test]
    fn matrix_runs() {
        assert!(dispatch(&argv(&[
            "matrix",
            "--compounds",
            "2",
            "MEM_INST_RETIRED_ALL_STORES",
            "IDQ_MS_UOPS"
        ]))
        .is_ok());
    }

    #[test]
    fn query_round_trips_against_a_live_server() {
        let service = Arc::new(
            ServiceConfig::default()
                .cache_capacity(8)
                .seed(1)
                .build()
                .unwrap(),
        );
        let server = Server::start(service, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        assert!(dispatch(&argv(&["query", "--addr", &addr, "STATS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "MODELS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "METRICS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "SHARDS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "TRACE", "RECENT", "5"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "HEALTH"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "HISTORY"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "HISTORY", "2"])).is_ok());
        // ERR replies are still successful round trips: the reply prints.
        assert!(dispatch(&argv(&[
            "query",
            "--addr",
            &addr,
            "ESTIMATE-APP",
            "skylake",
            "dgemm:9000"
        ]))
        .is_ok());
    }

    #[test]
    fn stream_and_monitor_round_trip_against_a_live_server() {
        let service = Arc::new(
            ServiceConfig::default()
                .cache_capacity(8)
                .seed(1)
                .build()
                .unwrap(),
        );
        let server = Server::start(service, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        assert!(dispatch(&argv(&[
            "stream",
            "--addr",
            &addr,
            "--windows",
            "12",
            "--window",
            "8",
            "--label-every",
            "2",
            "cli-test-stream"
        ]))
        .is_ok());
        // The driven stream closed itself; monitor still renders the
        // (now empty) table once. The labelled pushes above populated
        // the calibration tracker, so --health has rows to print.
        assert!(dispatch(&argv(&["monitor", "--addr", &addr, "--iterations", "1"])).is_ok());
        assert!(dispatch(&argv(&[
            "monitor",
            "--addr",
            &addr,
            "--iterations",
            "1",
            "--health"
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["stream", "--addr", "127.0.0.1:1"]))
            .unwrap_err()
            .contains("cannot reach server"));
        assert!(dispatch(&argv(&["stream", "--windows", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(dispatch(&argv(&["monitor", "--interval-ms", "soon"]))
            .unwrap_err()
            .contains("millisecond"));
    }

    #[test]
    fn query_round_trips_against_a_sharded_evented_server() {
        let router = Arc::new(
            ServiceConfig::default()
                .cache_capacity(8)
                .seed(1)
                .transport(Transport::Evented)
                .event_loops(2)
                .build_sharded(2)
                .unwrap(),
        );
        let server = Server::start_router(router, "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        assert!(dispatch(&argv(&["query", "--addr", &addr, "SHARDS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "STATS"])).is_ok());
        assert!(dispatch(&argv(&["query", "--addr", &addr, "MODELS"])).is_ok());
    }

    #[test]
    fn serve_and_query_report_connection_problems() {
        assert!(dispatch(&argv(&["serve", "--addr", "999.999.999.999:1"]))
            .unwrap_err()
            .contains("bind"));
        let err = dispatch(&argv(&["query", "--addr", "127.0.0.1:1", "STATS"])).unwrap_err();
        assert!(err.contains("cannot reach server"), "{err}");
        assert!(dispatch(&argv(&["query"])).unwrap_err().contains("request"));
        assert!(dispatch(&argv(&["serve", "--workers", "4"]))
            .unwrap_err()
            .contains("unknown option --workers"));
        assert!(dispatch(&argv(&["serve", "--cache", "none"]))
            .unwrap_err()
            .contains("positive"));
        assert!(dispatch(&argv(&["serve", "--trace-slow-ms", "soon"]))
            .unwrap_err()
            .contains("millisecond"));
        assert!(dispatch(&argv(&["serve", "--shards", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(dispatch(&argv(&["serve", "--event-loops", "none"]))
            .unwrap_err()
            .contains("positive"));
        assert!(dispatch(&argv(&["serve", "--transport", "quantum"]))
            .unwrap_err()
            .contains("expected threaded or evented"));
    }

    #[test]
    fn helpful_errors() {
        assert!(dispatch(&argv(&["audit"])).unwrap_err().contains("EVENT"));
        assert!(dispatch(&argv(&["collect", "EVENTX"]))
            .unwrap_err()
            .contains("--app"));
        assert!(dispatch(&argv(&["measure", "bogus:1"]))
            .unwrap_err()
            .contains("bogus"));
        assert!(dispatch(&argv(&["specs", "--platform"]))
            .unwrap_err()
            .contains("value"));
        assert!(dispatch(&argv(&["schedule", "--platform", "arm"]))
            .unwrap_err()
            .contains("arm"));
        assert!(dispatch(&argv(&["audit", "NOT_AN_EVENT"]))
            .unwrap_err()
            .contains("NOT_AN_EVENT"));
        assert!(dispatch(&argv(&["online", "dgemm:1000"]))
            .unwrap_err()
            .contains("--train"));
    }
}
