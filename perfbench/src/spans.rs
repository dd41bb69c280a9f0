//! Spans timed from outside the program, around calls into each layer's
//! public functions, and their per-layer summary.
//!
//! A traced run alternates untraced and traced ops over the same inputs.
//! Untraced ops record nothing, so the two op rates give the tracing
//! overhead. Spans are held in memory and written out when the run ends.

use crate::stats::median;
use crate::{Args, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Unit {
    Ns,
    Us,
    Ms,
}

impl Unit {
    fn suffix(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
        }
    }

    fn ns(self) -> f64 {
        match self {
            Unit::Ns => 1.0,
            Unit::Us => 1e3,
            Unit::Ms => 1e6,
        }
    }
}

/// Every span a traced run records, with the unit it is reported in.
/// Each gives three per-layer metrics: `<name>_<unit>`, the median per
/// call (per row for batched calls); `<name>.calls`; and
/// `<name>.self_<unit>_per_op`, the time no child span covers, per
/// traced op. A workload that never calls a layer reports zeros for it.
pub const SPANS: [(&str, Unit); 30] = [
    ("serve.protocol.parse", Unit::Ns),
    ("serve.shard.route", Unit::Ns),
    ("serve.registry.lookup", Unit::Ns),
    ("serve.engine.f64", Unit::Ns),
    ("serve.engine.fixed", Unit::Ns),
    ("serve.service.row", Unit::Ns),
    ("serve.cache.get", Unit::Ns),
    ("serve.engine.batch_row", Unit::Ns),
    ("mlkit.compiled.row", Unit::Ns),
    ("mlkit.fixed.row", Unit::Ns),
    ("stream.window.push", Unit::Ns),
    ("stream.hub.push", Unit::Ns),
    ("stream.hub.push_labelled", Unit::Ns),
    ("mlkit.rls.update", Unit::Ns),
    ("obs.health.observe", Unit::Ns),
    ("stream.hub.poll", Unit::Ns),
    ("stream.snapshot.window", Unit::Ns),
    ("mlkit.fit.refit", Unit::Ms),
    ("cpusim.run", Unit::Us),
    ("pmctools.collect", Unit::Ms),
    ("powermeter.measure", Unit::Ms),
    ("additivity.check", Unit::Ms),
    ("mlkit.fit.lr", Unit::Ms),
    ("mlkit.fit.rf", Unit::Ms),
    ("mlkit.fit.nn", Unit::Ms),
    ("e2e.request", Unit::Us),
    ("e2e.push_batch", Unit::Us),
    ("e2e.poll", Unit::Us),
    ("replay.op", Unit::Us),
    ("replay.experiment", Unit::Ms),
];

/// Per-layer metrics that are not span summaries: name, unit, and which
/// direction is better.
pub const EXTRAS: [(&str, &str, &str); 14] = [
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.transport_us", "us", "lower"),
    ("serve.rpc.f64.latency_p50_us", "us", "lower"),
    ("serve.rpc.f64.service_us", "us", "lower"),
    ("serve.rpc.f64.transport_us", "us", "lower"),
    ("serve.rpc.fixed.latency_p50_us", "us", "lower"),
    ("serve.rpc.fixed.service_us", "us", "lower"),
    ("serve.rpc.fixed.transport_us", "us", "lower"),
    ("stream.refit.swaps", "count", "higher"),
    ("cpusim.runs_per_op", "count", "lower"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
];

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
    rows: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
pub struct Recorder {
    origin: Instant,
    clock: OpClock,
    traced: bool,
    op: u32,
    traced_ops: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            clock: OpClock::default(),
            traced: false,
            op: 0,
            traced_ops: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Start the next op; an untraced op records no spans.
    pub fn begin_op(&mut self, traced: bool) {
        self.op += 1;
        self.traced = traced;
        self.traced_ops += u32::from(traced);
        self.stack.clear();
    }

    /// Whether the current op records spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.traced {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            rows: 1,
        });
        self.stack
            .push(u32::try_from(index).expect("fewer than 2^32 spans"));
        Some(index)
    }

    /// Close the span `open` returned, over `rows` rows of work.
    pub fn close(&mut self, token: Option<usize>, rows: usize) {
        if let Some(index) = token {
            let end_ns = self.at(Instant::now());
            let span = &mut self.spans[index];
            span.end_ns = end_ns;
            span.rows = u32::try_from(rows.max(1)).unwrap_or(u32::MAX);
            self.stack.pop();
        }
    }

    /// Time `f` as one span over `rows` rows.
    pub fn time<T>(&mut self, name: &'static str, rows: usize, f: impl FnOnce() -> T) -> T {
        let token = self.open(name);
        let out = f();
        self.close(token, rows);
        out
    }

    /// Time `f` as a span even outside a traced op: for a layer timed
    /// once per run rather than per op.
    pub fn time_once<T>(&mut self, name: &'static str, rows: usize, f: impl FnOnce() -> T) -> T {
        let traced = std::mem::replace(&mut self.traced, true);
        let out = self.time(name, rows, f);
        self.traced = traced;
        out
    }

    /// Run `f` as an op of its own with spans on, not counted among the
    /// traced ops: for layers replayed once per run rather than per op.
    pub fn once<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op += 1;
        self.stack.clear();
        let traced = std::mem::replace(&mut self.traced, true);
        let out = f(self);
        self.traced = traced;
        out
    }

    /// Record a span timed by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.traced {
            self.spans.push(Span {
                name,
                start_ns: self.at(start),
                end_ns: self.at(end),
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                op: self.op,
                rows: 1,
            });
        }
    }

    /// Per traced op, in op order: the summed nanoseconds of the spans
    /// named in `names` (ops with none of them are left out).
    fn per_op_ns(&self, names: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(span.op).or_default() += span.ns() as f64;
        }
        sums.into_values().collect()
    }

    /// Finish a traced run: add the summary of every span in [`SPANS`]
    /// to `out`, write the spans out, and add the [`EXTRAS`] — `values`,
    /// the share of the `e2e` span's per-op median that the `attributed`
    /// spans leave unexplained, and the traced and untraced op rates.
    pub fn finish(
        &self,
        args: &Args,
        out: &mut Outcome,
        e2e: &str,
        attributed: &[&str],
        mut values: Vec<(&'static str, f64)>,
    ) -> Result<(), String> {
        self.summarise(out);
        self.write_tsv(
            &args
                .out_dir
                .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed)),
        )?;
        let total = median(&self.per_op_ns(&[e2e]));
        let share = if total > 0.0 {
            ((total - median(&self.per_op_ns(attributed))) / total).max(0.0)
        } else {
            0.0
        };
        values.push(("trace.unattributed_share", share));
        values.extend(self.clock.rates());
        for (name, unit, _) in EXTRAS {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            out.metric(name, value, unit);
        }
        Ok(())
    }

    /// Add the three summary metrics of every span in [`SPANS`] to `out`.
    fn summarise(&self, out: &mut Outcome) {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                covered[span.parent as usize] += span.ns();
            }
        }
        let ops = f64::from(self.traced_ops.max(1));
        for (name, unit) in SPANS {
            let mut per_row = Vec::new();
            let mut self_ns = 0u64;
            for (i, span) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                per_row.push(span.ns() as f64 / f64::from(span.rows));
                self_ns += span.ns().saturating_sub(covered[i]);
            }
            let suffix = unit.suffix();
            out.metric(
                format!("{name}_{suffix}"),
                median(&per_row) / unit.ns(),
                suffix,
            );
            out.metric(format!("{name}.calls"), per_row.len() as f64, "count");
            out.metric(
                format!("{name}.self_{suffix}_per_op"),
                self_ns as f64 / ops / unit.ns(),
                suffix,
            );
        }
    }

    /// Write every span as one tab-separated line.
    fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let mut text = String::from("op\tspan\tname\tparent\tstart_ns\tend_ns\trows\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{}\t{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.rows
            );
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The loop every traced run shares: until `run` has passed, start op
/// `i`, traced when `traced(i)` says so, and let `step` send it to the
/// program under test and replay it through the layers. Each op is timed
/// whole, for the tracing overhead.
pub fn traced_loop(
    run: Duration,
    traced: impl Fn(usize) -> bool,
    mut step: impl FnMut(&mut Recorder, usize) -> Result<(), String>,
) -> Result<Recorder, String> {
    let mut rec = Recorder::new();
    let deadline = Instant::now() + run;
    let mut op = 0;
    while Instant::now() < deadline {
        rec.begin_op(traced(op));
        let started = Instant::now();
        step(&mut rec, op)?;
        rec.clock.add(rec.traced, started.elapsed());
        op += 1;
    }
    Ok(rec)
}

/// Wall time of the traced and untraced ops of a traced run.
#[derive(Default)]
struct OpClock {
    seconds: [f64; 2],
    ops: [f64; 2],
}

impl OpClock {
    fn add(&mut self, traced: bool, elapsed: Duration) {
        let i = usize::from(traced);
        self.seconds[i] += elapsed.as_secs_f64();
        self.ops[i] += 1.0;
    }

    /// Op rates with and without spans, and the overhead between them.
    fn rates(&self) -> [(&'static str, f64); 3] {
        let rate = |i: usize| {
            if self.seconds[i] > 0.0 {
                self.ops[i] / self.seconds[i]
            } else {
                0.0
            }
        };
        let (traced, untraced) = (rate(1), rate(0));
        let overhead = if traced > 0.0 {
            (untraced / traced - 1.0) * 100.0
        } else {
            0.0
        };
        [
            ("trace.ops_per_s_traced", traced),
            ("trace.ops_per_s_untraced", untraced),
            ("trace.overhead_pct", overhead),
        ]
    }
}

/// The per-layer metric list of `BENCHMARK.json`, as JSON lines.
pub fn catalog_json() -> String {
    let mut entries = Vec::new();
    for (name, unit) in SPANS {
        let suffix = unit.suffix();
        entries.push(format!(
            "{{\"name\": \"{name}_{suffix}\", \"unit\": \"{suffix}\", \"better\": \"lower\"}}"
        ));
        entries.push(format!(
            "{{\"name\": \"{name}.calls\", \"unit\": \"count\", \"better\": \"higher\"}}"
        ));
        entries.push(format!(
            "{{\"name\": \"{name}.self_{suffix}_per_op\", \"unit\": \"{suffix}\", \"better\": \"lower\"}}"
        ));
    }
    for (name, unit, better) in EXTRAS {
        entries.push(format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
        ));
    }
    format!("[\n    {}\n  ]", entries.join(",\n    "))
}
