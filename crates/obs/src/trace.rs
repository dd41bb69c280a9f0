//! Per-request tracing: trace IDs, structured events, a flight
//! recorder, and slow-request capture.
//!
//! Where the metrics half of this crate answers "how is the server
//! doing on aggregate?", this module answers "why was *this* request
//! slow?". Each served request gets an [`ActiveTrace`]: a shared,
//! thread-safe event buffer identified by a process-unique trace id and
//! the id of the connection that originated it. Layers append
//! [`TraceEvent`]s — `begin`/`end` pairs bracketing a stage, or
//! zero-duration `instant` markers — each stamped with nanoseconds
//! since the request started and optional `key=value` attributes.
//!
//! The handle is an `Arc` underneath, so clones are cheap and may cross
//! thread boundaries; every stage still lands on the originating
//! request's trace. Within a thread, [`scope`] installs the trace as the
//! *current* one
//! so deep substrate code ([`TraceSpan`], [`instant`]) can contribute
//! events without any plumbing through intermediate signatures.
//!
//! Completed traces land in the [`Tracer`]'s [`FlightRecorder`] — a
//! fixed-capacity ring that always holds the last N requests — and,
//! when they exceed the configured latency threshold, in a separate
//! slow-request ring that a burst of fast traffic cannot flush. The
//! single slowest request since startup is additionally pinned. All
//! three are dumped over the wire by the `TRACE` protocol command as
//! JSONL (one event per line; see [`Trace::to_jsonl`]).
//!
//! A disabled tracer follows the same contract as a disabled
//! [`MetricsRegistry`](crate::MetricsRegistry): [`Tracer::start`]
//! returns `None`, no scope is installed, and every [`TraceSpan`] or
//! [`instant`] call collapses to one thread-local check with **zero
//! clock reads** — the serving fast path stays unmeasurably close to
//! the untraced build.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, LineWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on events per trace: a runaway loop (e.g. a TRAIN request
/// sweeping hundreds of simulated runs) degrades to a truncated trace
/// instead of unbounded memory.
const MAX_TRACE_EVENTS: usize = 8192;

/// What kind of moment a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stage opened (paired with a later `End` of the same name).
    Begin,
    /// A stage closed.
    End,
    /// A zero-duration marker (e.g. a cache hit).
    Instant,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }

    fn parse(raw: &str) -> Option<EventKind> {
        match raw {
            "begin" => Some(EventKind::Begin),
            "end" => Some(EventKind::End),
            "instant" => Some(EventKind::Instant),
            _ => None,
        }
    }
}

/// One structured moment inside a request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Stage or marker name, e.g. `engine.queue` or `cache.lookup`.
    pub name: String,
    /// Begin/end/instant.
    pub kind: EventKind,
    /// Nanoseconds since the request trace started.
    pub at_ns: u64,
    /// Free-form `key=value` attributes (e.g. `app=dgemm:11500`).
    pub attrs: Vec<(String, String)>,
}

/// A completed request trace: identity, total latency, and the event
/// stream, ready for rendering or analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Process-unique request id.
    pub id: u64,
    /// Id of the connection that carried the request (0 when the
    /// request did not arrive over a connection, e.g. direct API use).
    pub connection: u64,
    /// Request label, e.g. `estimate` or `train`.
    pub label: String,
    /// End-to-end latency of the request in nanoseconds.
    pub total_ns: u64,
    /// Events in record order (monotone `at_ns` per recording thread).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Render the trace as JSONL: one self-contained JSON object per
    /// event, each repeating the trace identity so a line survives
    /// being separated from its siblings (grep, tail, log shippers).
    ///
    /// Schema per line:
    /// `{"trace":N,"conn":N,"label":S,"total_ns":N,"seq":N,"name":S,"kind":"begin|end|instant","at_ns":N,"attrs":{...}}`
    pub fn to_jsonl(&self) -> Vec<String> {
        self.events
            .iter()
            .enumerate()
            .map(|(seq, event)| {
                let mut line = String::with_capacity(96);
                let _ = write!(
                    line,
                    "{{\"trace\":{},\"conn\":{},\"label\":{},\"total_ns\":{},\"seq\":{},\"name\":{},\"kind\":\"{}\",\"at_ns\":{},\"attrs\":{{",
                    self.id,
                    self.connection,
                    json_string(&self.label),
                    self.total_ns,
                    seq,
                    json_string(&event.name),
                    event.kind.as_str(),
                    event.at_ns,
                );
                for (i, (key, value)) in event.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{}:{}", json_string(key), json_string(value));
                }
                line.push_str("}}");
                line
            })
            .collect()
    }

    /// Parse a complete JSONL rendering back into a [`Trace`]. Strict
    /// inverse of [`Trace::to_jsonl`]: every line must carry the same
    /// trace identity and the `seq` numbers must match line order.
    pub fn from_jsonl(lines: &[String]) -> Result<Trace, TraceParseError> {
        if lines.is_empty() {
            return Err(TraceParseError::new(0, "empty trace dump"));
        }
        let mut trace: Option<Trace> = None;
        for (index, line) in lines.iter().enumerate() {
            let parsed = parse_event_line(line)
                .map_err(|message| TraceParseError::new(index + 1, &message))?;
            if parsed.seq != index as u64 {
                return Err(TraceParseError::new(
                    index + 1,
                    &format!("seq {} out of order (expected {index})", parsed.seq),
                ));
            }
            match &mut trace {
                None => {
                    trace = Some(Trace {
                        id: parsed.trace,
                        connection: parsed.conn,
                        label: parsed.label,
                        total_ns: parsed.total_ns,
                        events: vec![parsed.event],
                    });
                }
                Some(trace) => {
                    if parsed.trace != trace.id
                        || parsed.conn != trace.connection
                        || parsed.label != trace.label
                        || parsed.total_ns != trace.total_ns
                    {
                        return Err(TraceParseError::new(
                            index + 1,
                            "trace identity differs from the first line",
                        ));
                    }
                    trace.events.push(parsed.event);
                }
            }
        }
        Ok(trace.expect("non-empty input"))
    }

    /// Split a multi-trace JSONL dump (as returned by the `TRACE`
    /// protocol command) into individual traces, preserving dump order.
    /// Lines are grouped by consecutive runs of the same trace id.
    pub fn parse_dump(lines: &[String]) -> Result<Vec<Trace>, TraceParseError> {
        let mut traces = Vec::new();
        let mut group: Vec<String> = Vec::new();
        let mut group_id: Option<u64> = None;
        for line in lines {
            let id = leading_trace_id(line)
                .ok_or_else(|| TraceParseError::new(traces.len() + 1, "missing trace id"))?;
            if group_id != Some(id) && !group.is_empty() {
                traces.push(Trace::from_jsonl(&group)?);
                group.clear();
            }
            group_id = Some(id);
            group.push(line.clone());
        }
        if !group.is_empty() {
            traces.push(Trace::from_jsonl(&group)?);
        }
        Ok(traces)
    }

    /// Total nanoseconds spent in each named stage: `Begin`/`End` pairs
    /// are matched back-to-front per name (supporting repeated stages,
    /// e.g. one `engine.compute` per batch row) and their durations
    /// summed. Instants are skipped. Useful for the "where did the time
    /// go" breakdown loadgen prints for the slowest request.
    pub fn span_durations(&self) -> Vec<(String, u64)> {
        let mut open: HashMap<&str, Vec<u64>> = HashMap::new();
        let mut totals: Vec<(String, u64)> = Vec::new();
        for event in &self.events {
            match event.kind {
                EventKind::Begin => open.entry(&event.name).or_default().push(event.at_ns),
                EventKind::End => {
                    if let Some(begin_ns) = open.get_mut(event.name.as_str()).and_then(Vec::pop) {
                        let elapsed = event.at_ns.saturating_sub(begin_ns);
                        match totals.iter_mut().find(|(name, _)| *name == event.name) {
                            Some((_, total)) => *total += elapsed,
                            None => totals.push((event.name.clone(), elapsed)),
                        }
                    }
                }
                EventKind::Instant => {}
            }
        }
        totals
    }
}

/// Error from [`Trace::from_jsonl`] / [`Trace::parse_dump`]: the 1-based
/// line (or trace group) and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    line: usize,
    message: String,
}

impl TraceParseError {
    fn new(line: usize, message: &str) -> TraceParseError {
        TraceParseError {
            line,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

// ---------------------------------------------------------------------
// JSON encoding/decoding (hand-rolled; the build is std-only)
// ---------------------------------------------------------------------

/// Encode a string as a JSON string literal (quotes included).
fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct ParsedEventLine {
    trace: u64,
    conn: u64,
    label: String,
    total_ns: u64,
    seq: u64,
    event: TraceEvent,
}

/// Cheap peek at the `"trace":N` field that every event line leads
/// with, used to group dump lines without a full parse.
fn leading_trace_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"trace\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Strict parser for one event line. Field order is fixed (we only ever
/// parse our own rendering), which keeps this a simple cursor walk.
fn parse_event_line(line: &str) -> Result<ParsedEventLine, String> {
    let mut cursor = Cursor::new(line);
    cursor.literal("{")?;
    let trace = cursor.number_field("trace")?;
    cursor.literal(",")?;
    let conn = cursor.number_field("conn")?;
    cursor.literal(",")?;
    let label = cursor.string_field("label")?;
    cursor.literal(",")?;
    let total_ns = cursor.number_field("total_ns")?;
    cursor.literal(",")?;
    let seq = cursor.number_field("seq")?;
    cursor.literal(",")?;
    let name = cursor.string_field("name")?;
    cursor.literal(",")?;
    let kind_raw = cursor.string_field("kind")?;
    let kind = EventKind::parse(&kind_raw).ok_or(format!("unknown event kind {kind_raw:?}"))?;
    cursor.literal(",")?;
    let at_ns = cursor.number_field("at_ns")?;
    cursor.literal(",")?;
    cursor.key("attrs")?;
    cursor.literal("{")?;
    let mut attrs = Vec::new();
    if !cursor.try_literal("}") {
        loop {
            let key = cursor.string()?;
            cursor.literal(":")?;
            let value = cursor.string()?;
            attrs.push((key, value));
            if cursor.try_literal("}") {
                break;
            }
            cursor.literal(",")?;
        }
    }
    cursor.literal("}")?;
    cursor.end()?;
    Ok(ParsedEventLine {
        trace,
        conn,
        label,
        total_ns,
        seq,
        event: TraceEvent {
            name,
            kind,
            at_ns,
            attrs,
        },
    })
}

struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Cursor<'a> {
        Cursor { rest: line }
    }

    fn literal(&mut self, token: &str) -> Result<(), String> {
        self.rest = self
            .rest
            .strip_prefix(token)
            .ok_or_else(|| format!("expected {token:?} at {:?}", head(self.rest)))?;
        Ok(())
    }

    fn try_literal(&mut self, token: &str) -> bool {
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        self.literal(&format!("\"{name}\":"))
    }

    fn number_field(&mut self, name: &str) -> Result<u64, String> {
        self.key(name)?;
        let digits: String = self.rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return Err(format!(
                "expected digits for {name:?} at {:?}",
                head(self.rest)
            ));
        }
        self.rest = &self.rest[digits.len()..];
        digits
            .parse()
            .map_err(|_| format!("{name:?} value {digits:?} overflows u64"))
    }

    fn string_field(&mut self, name: &str) -> Result<String, String> {
        self.key(name)?;
        self.string()
    }

    /// Decode a JSON string literal at the cursor.
    fn string(&mut self) -> Result<String, String> {
        self.literal("\"")?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (index, c) = chars
                .next()
                .ok_or_else(|| "unterminated string".to_string())?;
            match c {
                '"' => {
                    self.rest = &self.rest[index + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, escaped) = chars.next().ok_or_else(|| "dangling escape".to_string())?;
                    match escaped {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars
                                    .next()
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                code = code * 16
                                    + h.to_digit(16)
                                        .ok_or(format!("bad hex digit {h:?} in \\u escape"))?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing bytes {:?}", head(self.rest)))
        }
    }
}

fn head(rest: &str) -> &str {
    &rest[..rest.len().min(16)]
}

// ---------------------------------------------------------------------
// Active traces and the thread-local current-trace scope
// ---------------------------------------------------------------------

/// A live, shared handle to an in-flight request trace. Clone it freely
/// — clones append to the same event buffer — and hand one across the
/// worker channel so off-thread stages land in the right trace.
#[derive(Debug, Clone)]
pub struct ActiveTrace {
    inner: Arc<ActiveInner>,
}

#[derive(Debug)]
struct ActiveInner {
    id: u64,
    connection: u64,
    label: String,
    started: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl ActiveTrace {
    /// This trace's process-unique request id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Nanoseconds elapsed since the trace started.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.inner.events.lock().expect("trace events poisoned");
        if events.len() < MAX_TRACE_EVENTS {
            events.push(event);
        }
    }

    /// Record a `Begin` marker for stage `name` now.
    pub fn begin(&self, name: &str, attrs: &[(&str, &str)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            kind: EventKind::Begin,
            at_ns: self.now_ns(),
            attrs: own_attrs(attrs),
        });
    }

    /// Record an `End` marker for stage `name` now.
    pub fn end(&self, name: &str) {
        self.push(TraceEvent {
            name: name.to_string(),
            kind: EventKind::End,
            at_ns: self.now_ns(),
            attrs: Vec::new(),
        });
    }

    /// Record a zero-duration marker now.
    pub fn instant(&self, name: &str, attrs: &[(&str, &str)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            kind: EventKind::Instant,
            at_ns: self.now_ns(),
            attrs: own_attrs(attrs),
        });
    }

    /// Seal the trace: stamp the total latency, append the closing
    /// `request` end marker, and return the immutable [`Trace`].
    fn finish(&self) -> Trace {
        let total_ns = self.now_ns();
        self.push(TraceEvent {
            name: "request".to_string(),
            kind: EventKind::End,
            at_ns: total_ns,
            attrs: Vec::new(),
        });
        let events = self.inner.events.lock().expect("trace events poisoned");
        Trace {
            id: self.inner.id,
            connection: self.inner.connection,
            label: self.inner.label.clone(),
            total_ns,
            events: events.clone(),
        }
    }
}

fn own_attrs(attrs: &[(&str, &str)]) -> Vec<(String, String)> {
    attrs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

thread_local! {
    /// The trace the current thread is working for, if any.
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    /// Connection id ambient to this thread (set by the server's
    /// per-connection handler so request traces inherit it).
    static CONNECTION: Cell<u64> = const { Cell::new(0) };
}

/// Install `trace` as the current trace for this thread until the
/// returned guard drops. Passing `None` is a no-op guard, so call
/// sites don't need to branch on whether tracing is live.
pub fn scope(trace: Option<&ActiveTrace>) -> CurrentScope {
    let Some(trace) = trace else {
        return CurrentScope {
            saved: None,
            installed: false,
        };
    };
    let saved = CURRENT.with(|current| current.replace(Some(trace.clone())));
    CurrentScope {
        saved,
        installed: true,
    }
}

/// Guard restoring the previous current trace on drop. See [`scope`].
#[derive(Debug)]
pub struct CurrentScope {
    saved: Option<ActiveTrace>,
    installed: bool,
}

impl Drop for CurrentScope {
    fn drop(&mut self) {
        if self.installed {
            CURRENT.with(|current| *current.borrow_mut() = self.saved.take());
        }
    }
}

/// The current thread's active trace, if one is in scope.
pub fn current() -> Option<ActiveTrace> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Whether a trace is in scope on this thread (one thread-local read;
/// no clock access).
pub fn is_active() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// Record an instant marker on the current trace, if any. The
/// no-trace path is one thread-local check — attribute formatting is
/// skipped entirely, so pass borrowed values.
pub fn instant(name: &str, attrs: &[(&str, &str)]) {
    CURRENT.with(|current| {
        if let Some(trace) = current.borrow().as_ref() {
            trace.instant(name, attrs);
        }
    });
}

/// Mark this thread as serving connection `id` until the guard drops.
/// Traces started on the thread inherit the id.
pub fn connection_scope(id: u64) -> ConnectionScope {
    let saved = CONNECTION.with(|connection| connection.replace(id));
    ConnectionScope { saved }
}

/// Guard restoring the previous ambient connection id on drop.
#[derive(Debug)]
pub struct ConnectionScope {
    saved: u64,
}

impl Drop for ConnectionScope {
    fn drop(&mut self) {
        CONNECTION.with(|connection| connection.set(self.saved));
    }
}

/// A scoped stage timer on the *current* trace: records `Begin` on
/// entry and `End` on drop. When no trace is in scope the constructor
/// returns an inert value — one thread-local check, zero clock reads —
/// mirroring the disabled-[`Span`](crate::Span) contract.
#[derive(Debug)]
pub struct TraceSpan {
    inner: Option<(ActiveTrace, &'static str)>,
}

impl TraceSpan {
    /// Open a stage named `name` on the current trace, if any.
    pub fn enter(name: &'static str) -> TraceSpan {
        TraceSpan::with_attrs(name, &[])
    }

    /// Open a stage with attributes on its `Begin` event. Attributes
    /// are only materialised when a trace is actually in scope.
    pub fn with_attrs(name: &'static str, attrs: &[(&str, &str)]) -> TraceSpan {
        let Some(trace) = current() else {
            return TraceSpan { inner: None };
        };
        trace.begin(name, attrs);
        TraceSpan {
            inner: Some((trace, name)),
        }
    }

    /// Whether this span is live (a trace was in scope at entry).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((trace, name)) = self.inner.take() {
            trace.end(name);
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Fixed-capacity ring of completed traces. Lock-minimal: the write
/// cursor is a single `fetch_add`, and each slot has its own mutex, so
/// concurrent recorders only contend when they hash to the same slot.
/// Slots hold `Arc<Trace>` — a snapshot clones the Arcs, never the
/// traces, so readers can't observe a torn trace.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<Trace>>>>,
    next: AtomicUsize,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` traces (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of traces the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record a completed trace, evicting the oldest when full.
    pub fn record(&self, trace: Arc<Trace>) {
        let index = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[index].lock().expect("recorder slot poisoned") = Some(trace);
    }

    /// Snapshot the ring's contents, oldest first. Each entry is a
    /// complete trace (the Arc was stored in one slot assignment).
    pub fn snapshot(&self) -> Vec<Arc<Trace>> {
        let len = self.slots.len();
        let cursor = self.next.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(len);
        for offset in 0..len {
            let index = (cursor + offset) % len;
            let slot = self.slots[index].lock().expect("recorder slot poisoned");
            if let Some(trace) = slot.as_ref() {
                out.push(Arc::clone(trace));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// Configuration for a [`Tracer`]. All knobs have serving-friendly
/// defaults; `build` only fails when the JSONL sink path can't be
/// opened.
#[derive(Debug, Clone, Default)]
pub struct TracerConfig {
    capacity: Option<usize>,
    slow_capacity: Option<usize>,
    slow_threshold: Option<Duration>,
    log_path: Option<PathBuf>,
}

impl TracerConfig {
    /// Start from defaults (recent ring 64, slow ring 16, no slow
    /// threshold, no JSONL sink).
    pub fn new() -> TracerConfig {
        TracerConfig::default()
    }

    /// Capacity of the recent-traces flight recorder (default 64).
    pub fn capacity(mut self, capacity: usize) -> TracerConfig {
        self.capacity = Some(capacity);
        self
    }

    /// Capacity of the slow-traces ring (default 16).
    pub fn slow_capacity(mut self, capacity: usize) -> TracerConfig {
        self.slow_capacity = Some(capacity);
        self
    }

    /// Latency threshold above which a request's full trace is retained
    /// in the slow ring (and written to the sink, if configured).
    pub fn slow_threshold(mut self, threshold: Duration) -> TracerConfig {
        self.slow_threshold = Some(threshold);
        self
    }

    /// Append completed slow traces as JSONL to this file. With no slow
    /// threshold configured, *every* trace is written.
    pub fn log_path(mut self, path: PathBuf) -> TracerConfig {
        self.log_path = Some(path);
        self
    }

    /// Build the tracer; opens (appends to) the JSONL sink if set.
    pub fn build(self) -> io::Result<Tracer> {
        let sink = match self.log_path {
            Some(path) => {
                let file = File::options().create(true).append(true).open(path)?;
                Some(Mutex::new(LineWriter::new(file)))
            }
            None => None,
        };
        Ok(Tracer {
            inner: Some(Arc::new(TracerInner {
                recent: FlightRecorder::new(self.capacity.unwrap_or(64)),
                slow: FlightRecorder::new(self.slow_capacity.unwrap_or(16)),
                slow_threshold: self.slow_threshold,
                slowest: Mutex::new(None),
                next_trace: AtomicU64::new(1),
                next_connection: AtomicU64::new(1),
                sink,
            })),
        })
    }
}

#[derive(Debug)]
struct TracerInner {
    recent: FlightRecorder,
    slow: FlightRecorder,
    slow_threshold: Option<Duration>,
    /// The single slowest request seen since startup.
    slowest: Mutex<Option<Arc<Trace>>>,
    next_trace: AtomicU64,
    next_connection: AtomicU64,
    sink: Option<Mutex<LineWriter<File>>>,
}

/// Front end for request tracing: hands out trace ids, collects
/// completed traces into the flight recorder / slow ring / slowest
/// pin, and writes the JSONL sink. Cheap to clone (`Arc` underneath).
///
/// A tracer built with [`Tracer::disabled`] never starts traces, so
/// every downstream [`TraceSpan`]/[`instant`] collapses to a
/// thread-local check with no clock reads.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing and starts no traces.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records traces.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocate a connection id for a newly accepted connection.
    /// (Works on a disabled tracer too — ids are also used for logs.)
    pub fn next_connection(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_connection.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Start a trace for a request labelled `label` (e.g. `estimate`).
    /// Returns `None` on a disabled tracer. The trace inherits the
    /// thread's ambient connection id (see [`connection_scope`]) and
    /// opens with a `request` begin event carrying `attrs`.
    pub fn start(&self, label: &str, attrs: &[(&str, &str)]) -> Option<ActiveTrace> {
        let inner = self.inner.as_ref()?;
        let trace = ActiveTrace {
            inner: Arc::new(ActiveInner {
                id: inner.next_trace.fetch_add(1, Ordering::Relaxed),
                connection: CONNECTION.with(Cell::get),
                label: label.to_string(),
                started: Instant::now(),
                events: Mutex::new(Vec::with_capacity(16)),
            }),
        };
        trace.push(TraceEvent {
            name: "request".to_string(),
            kind: EventKind::Begin,
            at_ns: 0,
            attrs: own_attrs(attrs),
        });
        Some(trace)
    }

    /// Seal `trace` and file it: always into the recent ring, into the
    /// slow ring when over the threshold, pinned if it is the slowest
    /// so far, and appended to the JSONL sink when one is configured
    /// (every trace with no threshold, slow traces otherwise).
    pub fn finish(&self, trace: &ActiveTrace) {
        let Some(inner) = &self.inner else { return };
        let completed = Arc::new(trace.finish());
        let is_slow = match inner.slow_threshold {
            Some(threshold) => completed.total_ns >= threshold.as_nanos() as u64,
            None => false,
        };
        if is_slow {
            inner.slow.record(Arc::clone(&completed));
        }
        {
            let mut slowest = inner.slowest.lock().expect("slowest pin poisoned");
            if slowest
                .as_ref()
                .is_none_or(|s| completed.total_ns > s.total_ns)
            {
                *slowest = Some(Arc::clone(&completed));
            }
        }
        if let Some(sink) = &inner.sink {
            if is_slow || inner.slow_threshold.is_none() {
                let mut writer = sink.lock().expect("trace sink poisoned");
                for line in completed.to_jsonl() {
                    let _ = writeln!(writer, "{line}");
                }
            }
        }
        inner.recent.record(completed);
    }

    /// The most recent completed traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        match &self.inner {
            Some(inner) => inner.recent.snapshot(),
            None => Vec::new(),
        }
    }

    /// Retained slow traces (over the threshold), oldest first.
    pub fn slow(&self) -> Vec<Arc<Trace>> {
        match &self.inner {
            Some(inner) => inner.slow.snapshot(),
            None => Vec::new(),
        }
    }

    /// The slowest request seen since startup, if any completed.
    pub fn slowest(&self) -> Option<Arc<Trace>> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.slowest.lock().expect("slowest pin poisoned").clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        TracerConfig::new().build().expect("in-memory tracer")
    }

    #[test]
    fn traces_collect_events_and_render_jsonl_losslessly() {
        let tracer = tracer();
        let trace = tracer
            .start("estimate", &[("platform", "skylake")])
            .unwrap();
        {
            let _scope = scope(Some(&trace));
            let _span = TraceSpan::enter("engine.compute");
            instant("cache.hit", &[("key", "a=b \"quoted\"\n")]);
        }
        tracer.finish(&trace);
        let completed = tracer.slowest().expect("one trace finished");
        assert_eq!(completed.label, "estimate");
        assert_eq!(completed.events.first().unwrap().name, "request");
        assert_eq!(completed.events.last().unwrap().kind, EventKind::End);
        let lines = completed.to_jsonl();
        let parsed = Trace::from_jsonl(&lines).expect("JSONL parses back");
        assert_eq!(parsed, *completed.as_ref());
    }

    #[test]
    fn span_durations_pair_begin_end_by_name() {
        let trace = Trace {
            id: 1,
            connection: 1,
            label: "estimate".to_string(),
            total_ns: 100,
            events: vec![
                TraceEvent {
                    name: "a".into(),
                    kind: EventKind::Begin,
                    at_ns: 0,
                    attrs: vec![],
                },
                TraceEvent {
                    name: "b".into(),
                    kind: EventKind::Begin,
                    at_ns: 10,
                    attrs: vec![],
                },
                TraceEvent {
                    name: "b".into(),
                    kind: EventKind::End,
                    at_ns: 30,
                    attrs: vec![],
                },
                TraceEvent {
                    name: "a".into(),
                    kind: EventKind::End,
                    at_ns: 90,
                    attrs: vec![],
                },
                TraceEvent {
                    name: "b".into(),
                    kind: EventKind::Begin,
                    at_ns: 90,
                    attrs: vec![],
                },
                TraceEvent {
                    name: "b".into(),
                    kind: EventKind::End,
                    at_ns: 95,
                    attrs: vec![],
                },
            ],
        };
        let durations = trace.span_durations();
        assert_eq!(
            durations,
            vec![("b".to_string(), 25), ("a".to_string(), 90)]
        );
    }

    #[test]
    fn disabled_tracer_starts_nothing_and_spans_are_inert() {
        let tracer = Tracer::disabled();
        assert!(tracer.start("estimate", &[]).is_none());
        assert!(!is_active());
        let span = TraceSpan::enter("engine.compute");
        assert!(!span.is_recording());
        drop(span);
        assert!(tracer.recent().is_empty());
        assert!(tracer.slowest().is_none());
    }

    #[test]
    fn scope_nests_and_restores() {
        let tracer = tracer();
        let outer = tracer.start("outer", &[]).unwrap();
        let inner = tracer.start("inner", &[]).unwrap();
        {
            let _a = scope(Some(&outer));
            assert_eq!(current().unwrap().id(), outer.id());
            {
                let _b = scope(Some(&inner));
                assert_eq!(current().unwrap().id(), inner.id());
                // A `None` scope must not clobber the current trace.
                let _c = scope(None);
                assert_eq!(current().unwrap().id(), inner.id());
            }
            assert_eq!(current().unwrap().id(), outer.id());
        }
        assert!(current().is_none());
    }

    #[test]
    fn slow_capture_retains_only_over_threshold_traces() {
        let tracer = TracerConfig::new()
            .slow_threshold(Duration::from_millis(5))
            .build()
            .unwrap();
        let fast = tracer.start("fast", &[]).unwrap();
        tracer.finish(&fast);
        let slow = tracer.start("slow", &[]).unwrap();
        std::thread::sleep(Duration::from_millis(8));
        tracer.finish(&slow);
        let slow_traces = tracer.slow();
        assert_eq!(slow_traces.len(), 1);
        assert_eq!(slow_traces[0].label, "slow");
        assert_eq!(tracer.recent().len(), 2);
        assert_eq!(tracer.slowest().unwrap().label, "slow");
    }

    #[test]
    fn flight_recorder_caps_capacity_and_keeps_newest() {
        let recorder = FlightRecorder::new(3);
        for id in 1..=7u64 {
            recorder.record(Arc::new(Trace {
                id,
                connection: 0,
                label: "t".to_string(),
                total_ns: 0,
                events: Vec::new(),
            }));
        }
        let kept: Vec<u64> = recorder.snapshot().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![5, 6, 7]);
    }

    #[test]
    fn flight_recorder_survives_concurrent_recording() {
        // ISSUE satellite: 8 writers record while a reader snapshots.
        // Every snapshot must contain only complete traces (id encodes
        // the event count) and never exceed capacity.
        let recorder = Arc::new(FlightRecorder::new(16));
        let writers: Vec<_> = (0..8)
            .map(|thread_index| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let events = (thread_index % 4) + 1;
                        let trace = Trace {
                            id: events as u64,
                            connection: thread_index as u64,
                            label: format!("t{thread_index}"),
                            total_ns: i,
                            events: (0..events)
                                .map(|e| TraceEvent {
                                    name: format!("stage{e}"),
                                    kind: EventKind::Instant,
                                    at_ns: e as u64,
                                    attrs: vec![("i".to_string(), i.to_string())],
                                })
                                .collect(),
                        };
                        recorder.record(Arc::new(trace));
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let snapshot = recorder.snapshot();
            assert!(snapshot.len() <= 16);
            for trace in snapshot {
                assert_eq!(trace.events.len() as u64, trace.id, "torn trace observed");
            }
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(recorder.snapshot().len(), 16);
    }

    #[test]
    fn jsonl_sink_writes_every_trace_without_threshold() {
        let dir = std::env::temp_dir().join(format!(
            "pmca-trace-sink-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let tracer = TracerConfig::new().log_path(path.clone()).build().unwrap();
            let trace = tracer.start("estimate", &[]).unwrap();
            trace.instant("cache.hit", &[]);
            tracer.finish(&trace);
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = contents.lines().map(str::to_string).collect();
        let parsed = Trace::from_jsonl(&lines).expect("sink lines parse");
        assert_eq!(parsed.label, "estimate");
        assert_eq!(parsed.events.len(), 3);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn parse_dump_splits_consecutive_traces() {
        let tracer = tracer();
        for label in ["a", "b"] {
            let trace = tracer.start(label, &[]).unwrap();
            tracer.finish(&trace);
        }
        let mut lines = Vec::new();
        for trace in tracer.recent() {
            lines.extend(trace.to_jsonl());
        }
        let traces = Trace::parse_dump(&lines).expect("dump parses");
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].label, "a");
        assert_eq!(traces[1].label, "b");
    }

    #[test]
    fn from_jsonl_rejects_mixed_and_malformed_lines() {
        let tracer = tracer();
        let t1 = tracer.start("a", &[]).unwrap();
        tracer.finish(&t1);
        let t2 = tracer.start("b", &[]).unwrap();
        tracer.finish(&t2);
        let recent = tracer.recent();
        let mut mixed = recent[0].to_jsonl();
        mixed.extend(recent[1].to_jsonl());
        assert!(Trace::from_jsonl(&mixed).is_err());
        assert!(Trace::from_jsonl(&["not json".to_string()]).is_err());
        assert!(Trace::from_jsonl(&[]).is_err());
    }
}
