//! `perfbench`: the repository's benchmark.
//!
//! Three workloads, each measured end to end with every reply checked:
//! `estimate_rpc` and `estimate_batch` send ESTIMATE traffic to
//! `slope-pmc serve` ([`serving`]), and `stream_ingest` pushes telemetry
//! windows into open streams on the same server ([`streaming`]). With
//! `--trace 1` a run also replays its inputs through the public
//! functions of each layer and times every call from outside
//! ([`spans`]); the traced `estimate_rpc` run also replays the paper's
//! offline pipeline once ([`paper`]). Why each workload exists, and
//! what it loads and bypasses, is in `perfbench/README.md`.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! bash perfbench/run.sh compare perfbench/out/A.json perfbench/out/B.json
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! the run's facts and metrics are also written to `perfbench/out/`.

mod paper;
mod serving;
mod spans;
mod stats;
mod streaming;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["estimate_rpc", "estimate_batch", "stream_ingest"];

/// Where runs write their result files and spans.
const OUT_DIR: &str = "perfbench/out";

/// Rounds per untraced run. Each round sets the program up from scratch
/// (on the serving workloads, a fresh server process) and then measures
/// it for an equal share of the run. Every end-to-end metric is the
/// median over the rounds. On two cores, where the scheduler places a
/// fresh server's threads moves a whole round, and a shared host's
/// stalls come and go; the median of seven rounds follows neither an
/// unlucky round nor a stall.
const ROUNDS: u32 = 7;

/// Set-ups per round. The round's program is set up this many times
/// from scratch, each timed, and the last one is measured; the round's
/// `setup_s` is the median. A set-up lasts milliseconds, so a single one
/// follows every short stall of a shared host.
const SETUPS: usize = 5;

/// Options of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run facts that are not metrics: sample counts, the load
    /// generator's own CPU, refit swaps.
    pub notes: Vec<(String, String)>,
    /// Load-generator threads and connections.
    pub threads: usize,
    pub connections: usize,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// One completed op as the load generator saw it: how long it took, and
/// how many ops it carried.
#[derive(Clone, Copy)]
pub struct Done {
    pub latency_us: f64,
    pub ops: u32,
}

/// The clock and CPU readings at one edge of a round's timed phase.
pub struct Mark {
    at: Instant,
    /// CPU seconds of the program under test.
    program_cpu_s: f64,
    /// CPU seconds of this process, the load generator.
    generator_cpu_s: f64,
    /// The machine's steal and total CPU ticks.
    host_ticks: (u64, u64),
}

impl Mark {
    /// Read the clock, this process's CPU and the machine's ticks now;
    /// `program_cpu_s` is the program's CPU seconds, read just before.
    pub fn now(program_cpu_s: f64) -> Result<Mark, String> {
        Ok(Mark {
            at: Instant::now(),
            program_cpu_s,
            generator_cpu_s: sys::cpu_seconds("self")?,
            host_ticks: sys::host_ticks()?,
        })
    }
}

/// Run `ROUNDS` rounds, each given an equal share of `run` to measure
/// for.
pub fn rounds(
    run: Duration,
    mut round: impl FnMut(Duration) -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    (0..ROUNDS).map(|_| round(run / ROUNDS)).collect()
}

/// Set the program up `SETUPS` times with `once`, each after the last
/// one is torn down, and keep the last: returns it with the median
/// set-up time in seconds. Tearing down is not timed.
pub fn set_up<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(once()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, stats::median(&seconds)))
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub done: Vec<Done>,
    pub from: Mark,
    pub to: Mark,
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of an untraced run, from its rounds: each
/// metric is taken per round, and the median over rounds is reported.
pub fn report(rounds: &[Round], out: &mut Outcome) -> Result<(), String> {
    let mut per_round: [Vec<f64>; 6] = Default::default();
    let (mut ops_total, mut samples, mut generator_cpu_s) = (0u64, 0usize, 0.0);
    // The share of the machine's CPU time the hypervisor gave to other
    // guests in each round: a run whose figures stray with a high steal
    // was measured on a host that was not its own.
    let steal: Vec<String> = rounds
        .iter()
        .map(|r| {
            let stolen = r.to.host_ticks.0.saturating_sub(r.from.host_ticks.0);
            let total = r.to.host_ticks.1.saturating_sub(r.from.host_ticks.1);
            format!("{:.2}", stolen as f64 * 100.0 / total.max(1) as f64)
        })
        .collect();
    out.note("rounds.steal_pct", steal.join(" "));
    for (i, round) in rounds.iter().enumerate() {
        let ops: u64 = round.done.iter().map(|d| u64::from(d.ops)).sum();
        let latencies = stats::Sample::new(round.done.iter().map(|d| d.latency_us).collect());
        let p99 = latencies.p99().ok_or(format!(
            "round {i} holds {} latency samples, too few for ten beyond p99",
            latencies.len()
        ))?;
        let seconds = (round.to.at - round.from.at).as_secs_f64();
        let values = [
            ops as f64 / seconds,
            latencies.median(),
            p99,
            (round.to.program_cpu_s - round.from.program_cpu_s) * 1e6 / ops.max(1) as f64,
            round.peak_rss_mb,
            round.setup_s,
        ];
        for (column, value) in per_round.iter_mut().zip(values) {
            column.push(value);
        }
        ops_total += ops;
        samples += latencies.len();
        generator_cpu_s += round.to.generator_cpu_s - round.from.generator_cpu_s;
    }
    let names = [
        ("ops_per_s", "1/s"),
        ("latency_p50_us", "us"),
        ("latency_p99_us", "us"),
        ("cpu_us_per_op", "us"),
        ("peak_rss_mb", "MB"),
        ("setup_s", "s"),
    ];
    for ((name, unit), values) in names.into_iter().zip(&per_round) {
        out.metric(name, stats::median(values), unit);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        out.note(&format!("rounds.{name}"), shown.join(" "));
    }
    out.note("ops", ops_total);
    out.note("rounds", rounds.len());
    out.note("setups_per_round", SETUPS);
    out.note("latency_samples", samples);
    out.note(
        "generator_cpu_us_per_op",
        format!("{:.3}", generator_cpu_s * 1e6 / ops_total.max(1) as f64),
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("compare") => return compare(&raw[1..]),
        Some("catalog") => {
            println!("{}", spans::catalog_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "estimate_rpc" => serving::run(&args, serving::Shape::Rpc),
        "estimate_batch" => serving::run(&args, serving::Shape::Batch),
        _ => streaming::run(&args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let facts = facts(&args, &outcome);
    for (key, value) in facts.iter().chain(&outcome.notes) {
        println!("{key:<28} {value}");
    }
    for m in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record_json(&facts, &outcome)) {
        eprintln!("perfbench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&outcome));
    if outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}: one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(name.clone());
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required (run through perfbench/run.sh)")?,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

/// The facts every result records: what ran, where, and with how much
/// load-generator concurrency.
fn facts(args: &Args, outcome: &Outcome) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    [
        (
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        ),
        ("nproc", nproc.to_string()),
        ("simd_isa", pmca_simd::Isa::active().as_str().to_string()),
        (
            "simd_override",
            pmca_simd::override_request().unwrap_or("none").to_string(),
        ),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("generator_threads", outcome.threads.to_string()),
        ("generator_connections", outcome.connections.to_string()),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_string(), value))
    .collect()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result the benchmark contract asks for.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The result file: a flat JSON object, one key per line, that
/// `compare` reads back.
fn record_json(facts: &[(String, String)], outcome: &Outcome) -> String {
    let mut lines: Vec<String> = facts
        .iter()
        .chain(&outcome.notes)
        .map(|(key, value)| format!("  {key:?}: {value:?}"))
        .collect();
    lines.push(format!("  \"correct\": {}", outcome.failed == 0));
    lines.push(format!("  \"attempted\": {}", outcome.attempted));
    lines.push(format!("  \"failed\": {}", outcome.failed));
    for m in &outcome.metrics {
        lines.push(format!("  \"metric:{}\": {}", m.name, json_number(m.value)));
    }
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn read_record(path: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let (key, value) = line.trim().trim_end_matches(',').split_once(": ")?;
            Some((
                key.trim_matches('"').to_string(),
                value.trim_matches('"').to_string(),
            ))
        })
        .collect())
}

/// `compare A B`: metric-by-metric deltas of two result files. Results
/// from different SIMD ISAs or core counts are not comparable, so the
/// comparison is refused.
fn compare(args: &[String]) -> ExitCode {
    // run.sh appends `--server-bin PATH`, which a comparison ignores.
    let paths: Vec<&String> = args
        .iter()
        .take_while(|arg| *arg != "--server-bin")
        .collect();
    let [a, b] = paths[..] else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let (base, now) = match (read_record(a), read_record(b)) {
        (Ok(base), Ok(now)) => (base, now),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let field = |record: &[(String, String)], key: &str| {
        record
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    for key in ["simd_isa", "nproc", "workload"] {
        let (x, y) = (field(&base, key), field(&now, key));
        if x != y {
            eprintln!("perfbench: refusing to compare: {key} differs ({x:?} vs {y:?})");
            return ExitCode::from(3);
        }
    }
    for (key, value) in &base {
        let Some(name) = key.strip_prefix("metric:") else {
            continue;
        };
        let (Ok(x), Some(Ok(y))) = (
            value.parse::<f64>(),
            field(&now, key).map(|v| v.parse::<f64>()),
        ) else {
            continue;
        };
        let delta = if x != 0.0 {
            format!("{:+.2}%", (y - x) / x * 100.0)
        } else {
            "-".to_string()
        };
        println!("{name:<44} {x:>16.4} {y:>16.4} {delta:>9}");
    }
    ExitCode::SUCCESS
}
