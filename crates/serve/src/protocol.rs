//! The serving line protocol.
//!
//! One request per line, whitespace-separated, first word the command:
//!
//! ```text
//! ESTIMATE <platform> <pmc>=<count> [<pmc>=<count> ...]
//! ESTIMATE-APP <platform> <appspec>
//! TRAIN <platform> <pmc,pmc,...> <appspec,appspec,...>
//! STREAM OPEN <id> <app> <platform> <window>
//! STREAM PUSH <id> <window-id> <c1> <c2> <c3> <c4> [<joules>]
//! STREAM POLL <id>
//! STREAM CLOSE <id>
//! STREAM LIST
//! MODELS
//! STATS
//! METRICS
//! TRACE [RECENT|SLOW|SLOWEST] [<limit>]
//! HEALTH
//! HISTORY [<limit>]
//! QUIT
//! ```
//!
//! Parsing is `line → verb → [`Command`] → arguments`: every verb (and
//! `STREAM` subcommand) maps onto one [`Command`] variant first, so
//! serve and stream verbs share a single exhaustive match
//! instead of scattered string comparisons.
//!
//! The `STREAM` family is the streaming-ingestion surface: `OPEN`
//! registers a stream whose sliding ring holds `<window>` one-second
//! telemetry windows, `PUSH` delivers one window's counts for the
//! deployable 4-PMC set (plus the measured joules when the producer is
//! metered — that is what drives online model updates), `POLL` reads the
//! stream's current energy/power estimates, and `CLOSE`/`LIST` manage
//! lifecycle. `PUSH` and `POLL` are hot commands: like the estimates,
//! they parse without copying the request line.
//!
//! Replies are single lines — `OK key=value ...` or `ERR <message>` —
//! except `MODELS`, `METRICS`, `TRACE`, and `STREAM LIST`, which answer
//! `OK count=<n>`
//! followed by `n` listing lines (the client knows how many to read).
//! `METRICS` lines are Prometheus-style exposition
//! (`name{label="v"} value`; see `pmca_obs`). `TRACE` lines are JSONL —
//! one event per line (see `pmca_obs::trace::Trace::to_jsonl`), grouped
//! by trace, and `<limit>` caps how many *traces* (not lines) are
//! dumped. `HEALTH` and `HISTORY` are counted listings too: `HEALTH`
//! reports the model-health plane — calibration rows (rolling MAE/MPE,
//! empirical 95%-PI coverage, drift scores and state per platform) and
//! additivity rows (per-counter violation rates; see
//! [`health_row_fields`]) — and `HISTORY` dumps the windowed metrics time series, one
//! `seq=.. metric=.. value=.. delta=..` row per metric per snapshot
//! (see [`history_row_fields`]), with `<limit>` capping how many
//! *snapshots* (not rows) are dumped.
//! Floats use Rust's default shortest-round-trip formatting, so
//! a reply parses back to the exact served value.

use crate::engine::Estimate;
use crate::service::ServiceStats;
use pmca_obs::{AdditivitySnapshot, CalibrationSnapshot, HealthState};
use pmca_stream::{PushOutcome, PushReply, StreamStatus};
use std::error::Error;
use std::fmt;

/// PMC counts carried by one `STREAM PUSH` — fixed at the paper's
/// deployable 4-PMC set so the hot parse never allocates.
pub const STREAM_PUSH_COUNTS: usize = 4;

/// The longest request line either transport buffers: a connection that
/// sends this many bytes without a newline is closed — no legitimate
/// request line is this long.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// Why a request or reply line did not parse, or what the server said
/// went wrong. This is the protocol layer's typed error: every `ERR`
/// reply and every malformed line maps onto one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was empty.
    EmptyRequest,
    /// The first word is not a command.
    UnknownCommand(String),
    /// A known command with unusable arguments.
    BadRequest {
        /// The command the arguments were for.
        command: String,
        /// What was wrong with them.
        detail: String,
    },
    /// A reply line that does not parse (client side).
    MalformedReply(String),
    /// The server's own `ERR` message, relayed verbatim (client side).
    Server(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyRequest => write!(f, "empty request"),
            ProtocolError::UnknownCommand(word) => write!(f, "unknown command {word:?}"),
            ProtocolError::BadRequest { command, detail } => write!(f, "{command}: {detail}"),
            ProtocolError::MalformedReply(line) => write!(f, "malformed reply {line:?}"),
            ProtocolError::Server(message) => write!(f, "{message}"),
        }
    }
}

impl Error for ProtocolError {}

impl ProtocolError {
    fn bad(command: &str, detail: impl Into<String>) -> Self {
        ProtocolError::BadRequest {
            command: command.to_string(),
            detail: detail.into(),
        }
    }
}

/// Every protocol verb as a typed command. A request line resolves to a
/// `Command` first (`parse → Command → arguments`), so serve and stream
/// verbs share one exhaustive match instead of scattered string
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// `ESTIMATE <platform> <pmc>=<count> ...`
    Estimate,
    /// `ESTIMATE-APP <platform> <appspec>`
    EstimateApp,
    /// `TRAIN <platform> <pmcs> <apps>`
    Train,
    /// `STREAM OPEN <id> <app> <platform> <window>`
    StreamOpen,
    /// `STREAM PUSH <id> <window-id> <c1..c4> [<joules>]`
    StreamPush,
    /// `STREAM POLL <id>`
    StreamPoll,
    /// `STREAM CLOSE <id>`
    StreamClose,
    /// `STREAM LIST`
    StreamList,
    /// `MODELS`
    Models,
    /// `STATS`
    Stats,
    /// `METRICS`
    Metrics,
    /// `TRACE [RECENT|SLOW|SLOWEST] [<limit>]`
    Trace,
    /// `HEALTH`
    Health,
    /// `HISTORY [<limit>]`
    History,
    /// `QUIT`
    Quit,
}

impl Command {
    /// Resolve a verb (and, for `STREAM`, its subcommand) to a command.
    /// Matching is case-insensitive and in place — no uppercased
    /// `String` is built, so this is safe on the hot path. Returns
    /// `None` for an unknown verb or subcommand; `sub` is ignored for
    /// verbs other than `STREAM`.
    pub fn parse(verb: &str, sub: Option<&str>) -> Option<Self> {
        if verb.eq_ignore_ascii_case("STREAM") {
            let sub = sub?;
            for (name, command) in [
                ("PUSH", Command::StreamPush),
                ("POLL", Command::StreamPoll),
                ("OPEN", Command::StreamOpen),
                ("CLOSE", Command::StreamClose),
                ("LIST", Command::StreamList),
            ] {
                if sub.eq_ignore_ascii_case(name) {
                    return Some(command);
                }
            }
            return None;
        }
        for (name, command) in [
            ("ESTIMATE", Command::Estimate),
            ("ESTIMATE-APP", Command::EstimateApp),
            ("TRAIN", Command::Train),
            ("MODELS", Command::Models),
            ("STATS", Command::Stats),
            ("METRICS", Command::Metrics),
            ("TRACE", Command::Trace),
            ("HEALTH", Command::Health),
            ("HISTORY", Command::History),
            ("QUIT", Command::Quit),
        ] {
            if verb.eq_ignore_ascii_case(name) {
                return Some(command);
            }
        }
        None
    }

    /// The command's canonical wire spelling (`"STREAM OPEN"`,
    /// `"HEALTH"`, ...), as used in error messages and `to_line`.
    pub fn wire_name(self) -> &'static str {
        match self {
            Command::Estimate => "ESTIMATE",
            Command::EstimateApp => "ESTIMATE-APP",
            Command::Train => "TRAIN",
            Command::StreamOpen => "STREAM OPEN",
            Command::StreamPush => "STREAM PUSH",
            Command::StreamPoll => "STREAM POLL",
            Command::StreamClose => "STREAM CLOSE",
            Command::StreamList => "STREAM LIST",
            Command::Models => "MODELS",
            Command::Stats => "STATS",
            Command::Metrics => "METRICS",
            Command::Trace => "TRACE",
            Command::Health => "HEALTH",
            Command::History => "HISTORY",
            Command::Quit => "QUIT",
        }
    }

    /// The stable label this command carries in per-command metrics
    /// (`pmca_serve_command_seconds{command=...}`).
    pub fn label(self) -> &'static str {
        match self {
            Command::Estimate => "estimate",
            Command::EstimateApp => "estimate-app",
            Command::Train => "train",
            Command::StreamOpen => "stream-open",
            Command::StreamPush => "stream-push",
            Command::StreamPoll => "stream-poll",
            Command::StreamClose => "stream-close",
            Command::StreamList => "stream-list",
            Command::Models => "models",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Trace => "trace",
            Command::Health => "health",
            Command::History => "history",
            Command::Quit => "quit",
        }
    }

    /// Whether the command rejects any trailing arguments.
    pub fn takes_no_arguments(self) -> bool {
        matches!(
            self,
            Command::StreamList
                | Command::Models
                | Command::Stats
                | Command::Metrics
                | Command::Health
                | Command::Quit
        )
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Which inference tier evaluates an estimate request.
///
/// `F64` is the default compiled path: requests that carry no `tier=`
/// argument behave exactly as they did before tiers existed, and
/// [`Request::to_line`] emits no `tier=` word for them, so default wire
/// bytes are unchanged. `Fixed` selects the integer fixed-point tier
/// lowered by `pmca_mlkit::FixedModel`; a server running with the fast
/// tier disabled quietly serves such requests from the f64 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// The compiled f64 path (default).
    #[default]
    F64,
    /// The fixed-point integer fast tier.
    Fixed,
}

impl Tier {
    /// The tier's wire spelling, which doubles as its metrics label
    /// (`pmca_serve_tier_seconds{tier=...}`).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::F64 => "f64",
            Tier::Fixed => "fixed",
        }
    }

    /// Parse a `tier=` value case-insensitively. Returns `None` for
    /// anything other than `f64` or `fixed`.
    pub fn parse(raw: &str) -> Option<Self> {
        if raw.eq_ignore_ascii_case("f64") {
            Some(Tier::F64)
        } else if raw.eq_ignore_ascii_case("fixed") {
            Some(Tier::Fixed)
        } else {
            None
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Estimate from named PMC counts.
    Estimate {
        /// Target platform.
        platform: String,
        /// `(pmc name, count)` pairs, in the order given.
        counts: Vec<(String, f64)>,
        /// Which inference tier to use (a `tier=f64|fixed` pair
        /// anywhere among the counts; absent means [`Tier::F64`]).
        tier: Tier,
    },
    /// Estimate a whole application by spec.
    EstimateApp {
        /// Target platform.
        platform: String,
        /// Workload spec (e.g. `dgemm:12000` or `dgemm:9000;fft:23000`).
        app: String,
        /// Which inference tier to use (an optional trailing
        /// `tier=f64|fixed` word; absent means [`Tier::F64`]).
        tier: Tier,
    },
    /// Train and register an online model.
    Train {
        /// Target platform.
        platform: String,
        /// PMC names, comma-separated on the wire.
        pmcs: Vec<String>,
        /// Training workload specs, comma-separated on the wire.
        apps: Vec<String>,
    },
    /// Open a telemetry stream.
    StreamOpen {
        /// Stream id (one whitespace-free token).
        id: String,
        /// Application tag the producer reports.
        app: String,
        /// Platform the counts come from.
        platform: String,
        /// Sliding-ring capacity in windows.
        window: usize,
    },
    /// Push one telemetry window into a stream.
    StreamPush {
        /// Stream id.
        id: String,
        /// Producer-assigned window id.
        window: u64,
        /// PMC counts in the stream's feature order.
        counts: [f64; STREAM_PUSH_COUNTS],
        /// Measured dynamic energy of the window, when the producer is
        /// metered.
        joules: Option<f64>,
    },
    /// Read a stream's current estimates.
    StreamPoll {
        /// Stream id.
        id: String,
    },
    /// Close a stream.
    StreamClose {
        /// Stream id.
        id: String,
    },
    /// List open streams.
    StreamList,
    /// List registered models.
    Models,
    /// Report service counters.
    Stats,
    /// Report the full metrics exposition (latency histograms, cache and
    /// substrate counters).
    Metrics,
    /// Dump completed request traces as JSONL.
    Trace {
        /// Which retained traces to dump.
        scope: TraceScope,
        /// Cap on the number of traces (not lines) dumped.
        limit: Option<usize>,
    },
    /// Report the model-health plane: calibration, drift, and
    /// additivity rows.
    Health,
    /// Dump the windowed metrics time series.
    History {
        /// Cap on the number of snapshots (not rows) dumped.
        limit: Option<usize>,
    },
    /// Close the connection.
    Quit,
}

/// Which of the server's retained trace sets a `TRACE` request dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceScope {
    /// The flight recorder: last N completed requests (default).
    #[default]
    Recent,
    /// Requests over the configured slow threshold.
    Slow,
    /// The single slowest request since startup.
    Slowest,
}

impl TraceScope {
    fn as_str(self) -> &'static str {
        match self {
            TraceScope::Recent => "RECENT",
            TraceScope::Slow => "SLOW",
            TraceScope::Slowest => "SLOWEST",
        }
    }
}

/// A parsed request line borrowing from the input — the serving hot
/// path's form. The two estimate commands (the only ones a pipelined
/// client issues at rate) keep platform, app, and PMC names as `&str`
/// slices into the request line; everything else falls back to the owned
/// [`Request`] via [`RequestRef::Owned`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestRef<'a> {
    /// Estimate from named PMC counts, names borrowed from the line.
    Estimate {
        /// Target platform.
        platform: &'a str,
        /// `(pmc name, count)` pairs, in the order given.
        counts: Vec<(&'a str, f64)>,
        /// Which inference tier to use.
        tier: Tier,
    },
    /// Estimate a whole application by spec.
    EstimateApp {
        /// Target platform.
        platform: &'a str,
        /// Workload spec.
        app: &'a str,
        /// Which inference tier to use.
        tier: Tier,
    },
    /// Push one telemetry window, id borrowed from the line.
    StreamPush {
        /// Stream id.
        id: &'a str,
        /// Producer-assigned window id.
        window: u64,
        /// PMC counts in the stream's feature order.
        counts: [f64; STREAM_PUSH_COUNTS],
        /// Measured dynamic energy of the window, when present.
        joules: Option<f64>,
    },
    /// Read a stream's current estimates, id borrowed from the line.
    StreamPoll {
        /// Stream id.
        id: &'a str,
    },
    /// Any other (cold) command, parsed to its owned form.
    Owned(Request),
}

impl<'a> RequestRef<'a> {
    /// Parse one request line without copying any of it for the estimate
    /// commands. Commands are matched case-insensitively in place (no
    /// uppercased `String` is built on the hot path).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] describing the first problem.
    pub fn parse(line: &'a str) -> Result<RequestRef<'a>, ProtocolError> {
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or(ProtocolError::EmptyRequest)?;
        // `STREAM` carries its subcommand in the second word; resolve
        // both to one `Command` before touching any arguments.
        let sub = if verb.eq_ignore_ascii_case("STREAM") {
            Some(words.next().ok_or_else(|| {
                ProtocolError::bad("STREAM", "usage: STREAM OPEN|PUSH|POLL|CLOSE|LIST ...")
            })?)
        } else {
            None
        };
        let command = Command::parse(verb, sub).ok_or_else(|| match sub {
            Some(sub) => ProtocolError::bad(
                "STREAM",
                format!("unknown subcommand {:?}", sub.to_ascii_uppercase()),
            ),
            None => ProtocolError::UnknownCommand(verb.to_ascii_uppercase()),
        })?;
        // The four hot commands (the ones a pipelined client issues at
        // rate) parse in place, borrowing from the line; everything else
        // is cold and goes through the owned path.
        match command {
            Command::Estimate => {
                let platform = words
                    .next()
                    .ok_or_else(|| ProtocolError::bad("ESTIMATE", "needs a platform"))?;
                let mut counts = Vec::new();
                let mut tier = Tier::default();
                for pair in words {
                    let (name, value) = pair.split_once('=').ok_or_else(|| {
                        ProtocolError::bad(
                            "ESTIMATE",
                            format!("expected pmc=count, found {pair:?}"),
                        )
                    })?;
                    // `tier=` is a reserved key, accepted anywhere a
                    // count pair is — it selects the tier instead of
                    // naming a PMC.
                    if name.eq_ignore_ascii_case("tier") {
                        tier = Tier::parse(value).ok_or_else(|| {
                            ProtocolError::bad("ESTIMATE", format!("bad tier {value:?}"))
                        })?;
                        continue;
                    }
                    let count = value.parse::<f64>().map_err(|_| {
                        ProtocolError::bad("ESTIMATE", format!("bad count {value:?} for {name}"))
                    })?;
                    counts.push((name, count));
                }
                if counts.is_empty() {
                    return Err(ProtocolError::bad(
                        "ESTIMATE",
                        "needs at least one pmc=count pair",
                    ));
                }
                Ok(RequestRef::Estimate {
                    platform,
                    counts,
                    tier,
                })
            }
            Command::EstimateApp => {
                let usage = || {
                    ProtocolError::bad(
                        "ESTIMATE-APP",
                        "usage: ESTIMATE-APP <platform> <appspec> [tier=f64|fixed]",
                    )
                };
                let (platform, app) = match (words.next(), words.next()) {
                    (Some(platform), Some(app)) => (platform, app),
                    _ => return Err(usage()),
                };
                let tier = match words.next() {
                    None => Tier::default(),
                    Some(word) => match word.split_once('=') {
                        Some((key, value)) if key.eq_ignore_ascii_case("tier") => {
                            Tier::parse(value).ok_or_else(|| {
                                ProtocolError::bad("ESTIMATE-APP", format!("bad tier {value:?}"))
                            })?
                        }
                        _ => return Err(usage()),
                    },
                };
                if words.next().is_some() {
                    return Err(usage());
                }
                Ok(RequestRef::EstimateApp {
                    platform,
                    app,
                    tier,
                })
            }
            Command::StreamPush => {
                let id = words
                    .next()
                    .ok_or_else(|| ProtocolError::bad("STREAM PUSH", "needs a stream id"))?;
                let window = words
                    .next()
                    .and_then(|w| w.parse::<u64>().ok())
                    .ok_or_else(|| {
                        ProtocolError::bad("STREAM PUSH", "needs a numeric window id")
                    })?;
                let mut counts = [0.0_f64; STREAM_PUSH_COUNTS];
                for slot in &mut counts {
                    let word = words.next().ok_or_else(|| {
                        ProtocolError::bad(
                            "STREAM PUSH",
                            format!("needs {STREAM_PUSH_COUNTS} PMC counts"),
                        )
                    })?;
                    *slot = word.parse::<f64>().map_err(|_| {
                        ProtocolError::bad("STREAM PUSH", format!("bad count {word:?}"))
                    })?;
                }
                let joules = match words.next() {
                    Some(word) => Some(word.parse::<f64>().map_err(|_| {
                        ProtocolError::bad("STREAM PUSH", format!("bad joules {word:?}"))
                    })?),
                    None => None,
                };
                if words.next().is_some() {
                    return Err(ProtocolError::bad(
                        "STREAM PUSH",
                        "usage: STREAM PUSH <id> <window-id> <c1> <c2> <c3> <c4> [<joules>]",
                    ));
                }
                Ok(RequestRef::StreamPush {
                    id,
                    window,
                    counts,
                    joules,
                })
            }
            Command::StreamPoll => match (words.next(), words.next()) {
                (Some(id), None) => Ok(RequestRef::StreamPoll { id }),
                _ => Err(ProtocolError::bad("STREAM POLL", "usage: STREAM POLL <id>")),
            },
            cold => parse_cold(cold, &words.collect::<Vec<&str>>()).map(RequestRef::Owned),
        }
    }

    /// Convert into the owned [`Request`].
    pub fn into_owned(self) -> Request {
        match self {
            RequestRef::Estimate {
                platform,
                counts,
                tier,
            } => Request::Estimate {
                platform: platform.to_string(),
                counts: counts
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
                tier,
            },
            RequestRef::EstimateApp {
                platform,
                app,
                tier,
            } => Request::EstimateApp {
                platform: platform.to_string(),
                app: app.to_string(),
                tier,
            },
            RequestRef::StreamPush {
                id,
                window,
                counts,
                joules,
            } => Request::StreamPush {
                id: id.to_string(),
                window,
                counts,
                joules,
            },
            RequestRef::StreamPoll { id } => Request::StreamPoll { id: id.to_string() },
            RequestRef::Owned(request) => request,
        }
    }

    /// The typed command this request carries.
    pub fn command(&self) -> Command {
        match self {
            RequestRef::Estimate { .. } => Command::Estimate,
            RequestRef::EstimateApp { .. } => Command::EstimateApp,
            RequestRef::StreamPush { .. } => Command::StreamPush,
            RequestRef::StreamPoll { .. } => Command::StreamPoll,
            RequestRef::Owned(request) => request.command(),
        }
    }

    /// The stable label this request carries in per-command metrics
    /// (`pmca_serve_command_seconds{command=...}`).
    pub fn command_label(&self) -> &'static str {
        self.command().label()
    }
}

/// Parse a cold command's arguments into the owned [`Request`] — one
/// exhaustive match over [`Command`]. The four hot commands never reach
/// here: [`RequestRef::parse`] consumes them in place.
fn parse_cold(command: Command, rest: &[&str]) -> Result<Request, ProtocolError> {
    if command.takes_no_arguments() && !rest.is_empty() {
        return Err(ProtocolError::bad(
            command.wire_name(),
            "takes no arguments",
        ));
    }
    match command {
        Command::Train => match rest {
            [platform, pmcs, apps] => Ok(Request::Train {
                platform: (*platform).to_string(),
                pmcs: split_list(pmcs, "PMC list")?,
                apps: split_list(apps, "workload list")?,
            }),
            _ => Err(ProtocolError::bad(
                "TRAIN",
                "usage: TRAIN <platform> <pmc,pmc,...> <appspec,appspec,...>",
            )),
        },
        Command::StreamOpen => match rest {
            [id, app, platform, window] => {
                let window = window
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or_else(|| {
                        ProtocolError::bad("STREAM OPEN", format!("bad window capacity {window:?}"))
                    })?;
                Ok(Request::StreamOpen {
                    id: (*id).to_string(),
                    app: (*app).to_string(),
                    platform: (*platform).to_string(),
                    window,
                })
            }
            _ => Err(ProtocolError::bad(
                "STREAM OPEN",
                "usage: STREAM OPEN <id> <app> <platform> <window>",
            )),
        },
        Command::StreamClose => match rest {
            [id] => Ok(Request::StreamClose {
                id: (*id).to_string(),
            }),
            _ => Err(ProtocolError::bad(
                "STREAM CLOSE",
                "usage: STREAM CLOSE <id>",
            )),
        },
        Command::StreamList => Ok(Request::StreamList),
        Command::Models => Ok(Request::Models),
        Command::Stats => Ok(Request::Stats),
        Command::Metrics => Ok(Request::Metrics),
        Command::Trace => parse_trace_args(rest),
        Command::Health => Ok(Request::Health),
        Command::History => match rest {
            [] => Ok(Request::History { limit: None }),
            [limit] => limit
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(|n| Request::History { limit: Some(n) })
                .ok_or_else(|| {
                    ProtocolError::bad("HISTORY", format!("bad snapshot limit {limit:?}"))
                }),
            _ => Err(ProtocolError::bad("HISTORY", "usage: HISTORY [<limit>]")),
        },
        Command::Quit => Ok(Request::Quit),
        Command::Estimate | Command::EstimateApp | Command::StreamPush | Command::StreamPoll => {
            unreachable!("hot commands are parsed in place by RequestRef::parse")
        }
    }
}

impl Request {
    /// Parse one request line (owned form; see [`RequestRef::parse`] for
    /// the allocation-free variant the server uses).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] describing the first problem.
    pub fn parse(line: &str) -> Result<Self, ProtocolError> {
        RequestRef::parse(line).map(RequestRef::into_owned)
    }

    /// Encode back to one request line (client side).
    pub fn to_line(&self) -> String {
        match self {
            Request::Estimate {
                platform,
                counts,
                tier,
            } => {
                let pairs: Vec<String> = counts.iter().map(|(n, v)| format!("{n}={v}")).collect();
                // `tier=` is emitted only for the non-default tier so
                // default requests keep their pre-tier wire bytes.
                match tier {
                    Tier::F64 => format!("ESTIMATE {platform} {}", pairs.join(" ")),
                    Tier::Fixed => format!("ESTIMATE {platform} tier=fixed {}", pairs.join(" ")),
                }
            }
            Request::EstimateApp {
                platform,
                app,
                tier,
            } => match tier {
                Tier::F64 => format!("ESTIMATE-APP {platform} {app}"),
                Tier::Fixed => format!("ESTIMATE-APP {platform} {app} tier=fixed"),
            },
            Request::Train {
                platform,
                pmcs,
                apps,
            } => {
                format!("TRAIN {platform} {} {}", pmcs.join(","), apps.join(","))
            }
            Request::StreamOpen {
                id,
                app,
                platform,
                window,
            } => format!("STREAM OPEN {id} {app} {platform} {window}"),
            Request::StreamPush {
                id,
                window,
                counts,
                joules,
            } => {
                let mut line = format!("STREAM PUSH {id} {window}");
                for count in counts {
                    line.push(' ');
                    line.push_str(&count.to_string());
                }
                if let Some(joules) = joules {
                    line.push(' ');
                    line.push_str(&joules.to_string());
                }
                line
            }
            Request::StreamPoll { id } => format!("STREAM POLL {id}"),
            Request::StreamClose { id } => format!("STREAM CLOSE {id}"),
            Request::StreamList => "STREAM LIST".to_string(),
            Request::Models => "MODELS".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Metrics => "METRICS".to_string(),
            Request::Trace { scope, limit } => match limit {
                Some(limit) => format!("TRACE {} {limit}", scope.as_str()),
                None => format!("TRACE {}", scope.as_str()),
            },
            Request::Health => "HEALTH".to_string(),
            Request::History { limit } => match limit {
                Some(limit) => format!("HISTORY {limit}"),
                None => "HISTORY".to_string(),
            },
            Request::Quit => "QUIT".to_string(),
        }
    }

    /// The typed command this request carries.
    pub fn command(&self) -> Command {
        match self {
            Request::Estimate { .. } => Command::Estimate,
            Request::EstimateApp { .. } => Command::EstimateApp,
            Request::Train { .. } => Command::Train,
            Request::StreamOpen { .. } => Command::StreamOpen,
            Request::StreamPush { .. } => Command::StreamPush,
            Request::StreamPoll { .. } => Command::StreamPoll,
            Request::StreamClose { .. } => Command::StreamClose,
            Request::StreamList => Command::StreamList,
            Request::Models => Command::Models,
            Request::Stats => Command::Stats,
            Request::Metrics => Command::Metrics,
            Request::Trace { .. } => Command::Trace,
            Request::Health => Command::Health,
            Request::History { .. } => Command::History,
            Request::Quit => Command::Quit,
        }
    }

    /// The stable label this request carries in per-command metrics
    /// (`pmca_serve_command_seconds{command=...}`).
    pub fn command_label(&self) -> &'static str {
        self.command().label()
    }
}

/// Parse the argument words of a `TRACE` request: an optional scope
/// word, then an optional positive trace-count limit.
fn parse_trace_args(rest: &[&str]) -> Result<Request, ProtocolError> {
    let mut words = rest.iter();
    let mut scope = TraceScope::default();
    let mut limit = None;
    if let Some(&word) = words.next() {
        match word.to_ascii_uppercase().as_str() {
            "RECENT" => scope = TraceScope::Recent,
            "SLOW" => scope = TraceScope::Slow,
            "SLOWEST" => scope = TraceScope::Slowest,
            raw => {
                limit = Some(parse_trace_limit(raw)?);
                if words.next().is_some() {
                    return Err(ProtocolError::bad(
                        "TRACE",
                        "usage: TRACE [RECENT|SLOW|SLOWEST] [<limit>]",
                    ));
                }
                return Ok(Request::Trace { scope, limit });
            }
        }
    }
    if let Some(&word) = words.next() {
        limit = Some(parse_trace_limit(word)?);
    }
    if words.next().is_some() {
        return Err(ProtocolError::bad(
            "TRACE",
            "usage: TRACE [RECENT|SLOW|SLOWEST] [<limit>]",
        ));
    }
    Ok(Request::Trace { scope, limit })
}

fn parse_trace_limit(raw: &str) -> Result<usize, ProtocolError> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| ProtocolError::bad("TRACE", format!("bad limit {raw:?}")))
}

fn split_list(word: &str, what: &str) -> Result<Vec<String>, ProtocolError> {
    let items: Vec<String> = word
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        return Err(ProtocolError::bad("TRAIN", format!("empty {what}")));
    }
    Ok(items)
}

/// `OK` reply for an estimate.
pub fn ok_estimate(estimate: &Estimate) -> String {
    let mut out = String::new();
    ok_estimate_into(estimate, &mut out);
    out
}

/// Append an estimate's `OK` reply to `out` — the server's hot path,
/// which reuses one reply buffer across a whole pipelined batch instead
/// of allocating a `String` per reply.
pub fn ok_estimate_into(estimate: &Estimate, out: &mut String) {
    use std::fmt::Write;

    let _ = write!(
        out,
        "OK joules={} ci={} family={} version={}",
        estimate.joules, estimate.ci_half_width, estimate.family, estimate.version
    );
}

/// `OK` reply for STATS.
pub fn ok_stats(stats: &ServiceStats) -> String {
    format!(
        "OK served={} errors={} cache-hits={} cache-misses={} cache-evictions={} \
         cache-entries={} models={} streams={} stream-refits={} stream-drift-refits={}",
        stats.served,
        stats.errors,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_entries,
        stats.models,
        stats.streams,
        stats.stream_refits,
        stats.stream_drift_refits
    )
}

/// Append a `STREAM PUSH` reply to `out` — hot like
/// [`ok_estimate_into`], reusing the connection's reply buffer.
/// `window` is the pushed window id (the reply echoes it so a pipelined
/// producer can match replies to pushes).
pub fn ok_stream_push_into(reply: &PushReply, window: u64, out: &mut String) {
    use std::fmt::Write;

    match reply.outcome {
        PushOutcome::Accepted { lag } => {
            let _ = write!(
                out,
                "OK window={window} accepted=1 lag={lag} retained={} highest={}",
                reply.retained, reply.highest
            );
        }
        PushOutcome::Duplicate => {
            let _ = write!(
                out,
                "OK window={window} accepted=0 reason=duplicate retained={} highest={}",
                reply.retained, reply.highest
            );
        }
        PushOutcome::TooOld => {
            let _ = write!(
                out,
                "OK window={window} accepted=0 reason=late retained={} highest={}",
                reply.retained, reply.highest
            );
        }
    }
}

/// `OK` reply for `STREAM POLL`.
pub fn ok_stream_status(status: &StreamStatus) -> String {
    format!("OK {}", stream_status_fields(status))
}

/// The `key=value` fields of one stream's status — the body of a POLL
/// reply and one row of a `STREAM LIST`.
pub fn stream_status_fields(status: &StreamStatus) -> String {
    format!(
        "stream={} app={} platform={} capacity={} retained={} accepted={} duplicates={} \
         late={} highest={} joules={} watts={} ci95={} family={} version={} rows={} idle-ms={}",
        status.stream,
        status.app,
        status.platform,
        status.capacity,
        status.retained,
        status.accepted,
        status.duplicates,
        status.late,
        status.highest,
        status.joules,
        status.watts,
        status.ci95,
        status.family,
        status.version,
        status.rows,
        status.idle_ms
    )
}

/// Parse a stream-status reply (POLL reply or LIST row, with or without
/// the leading `OK`) back into a [`StreamStatus`] (client side).
///
/// # Errors
///
/// Returns [`ProtocolError::Server`] with the server's `ERR` message, or
/// [`ProtocolError::MalformedReply`] for a reply that does not parse.
pub fn parse_stream_status(line: &str) -> Result<StreamStatus, ProtocolError> {
    let trimmed = line.trim();
    let with_ok;
    let fields = if trimmed.starts_with("OK") || trimmed.starts_with("ERR ") {
        parse_ok_fields(trimmed)?
    } else {
        with_ok = format!("OK {trimmed}");
        parse_ok_fields(&with_ok)?
    };
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ProtocolError::MalformedReply(format!("missing {key} in {line:?}")))
    };
    fn number<T: std::str::FromStr>(raw: &str, key: &str, line: &str) -> Result<T, ProtocolError> {
        raw.parse()
            .map_err(|_| ProtocolError::MalformedReply(format!("bad {key} in {line:?}")))
    }
    Ok(StreamStatus {
        stream: get("stream")?.to_string(),
        app: get("app")?.to_string(),
        platform: get("platform")?.to_string(),
        capacity: number(get("capacity")?, "capacity", line)?,
        retained: number(get("retained")?, "retained", line)?,
        accepted: number(get("accepted")?, "accepted", line)?,
        duplicates: number(get("duplicates")?, "duplicates", line)?,
        late: number(get("late")?, "late", line)?,
        highest: number(get("highest")?, "highest", line)?,
        joules: number(get("joules")?, "joules", line)?,
        watts: number(get("watts")?, "watts", line)?,
        ci95: number(get("ci95")?, "ci95", line)?,
        family: get("family")?.to_string(),
        version: number(get("version")?, "version", line)?,
        rows: number(get("rows")?, "rows", line)?,
        idle_ms: number(get("idle-ms")?, "idle-ms", line)?,
    })
}

/// One row of a `HEALTH` reply: a calibration readout or an additivity
/// readout.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthRow {
    /// Rolling calibration/drift readout for one platform.
    Calibration {
        /// The readout itself.
        snapshot: CalibrationSnapshot,
    },
    /// Additivity-violation readout for one `(platform, counter)`.
    Additivity {
        /// The readout itself.
        snapshot: AdditivitySnapshot,
    },
}

/// The `key=value` fields of one `HEALTH` row. The first field is
/// always `kind=` so a client can dispatch without sniffing.
pub fn health_row_fields(row: &HealthRow) -> String {
    match row {
        HealthRow::Calibration { snapshot } => format!(
            "kind=calibration platform={} version={} samples={} mae={} mpe={} \
             coverage={} covered={} cusum={} ph={} state={}",
            snapshot.platform,
            snapshot.version,
            snapshot.samples,
            snapshot.mae,
            snapshot.mpe,
            snapshot.coverage,
            snapshot.covered_samples,
            snapshot.cusum,
            snapshot.page_hinkley,
            snapshot.state.as_str()
        ),
        HealthRow::Additivity { snapshot } => format!(
            "kind=additivity platform={} counter={} checks={} violations={} rate={} worst={}",
            snapshot.platform,
            snapshot.counter,
            snapshot.checks,
            snapshot.violations,
            snapshot.rate,
            snapshot.worst_error_pct
        ),
    }
}

/// Parse a `HEALTH` listing row (with or without a leading `OK`) back
/// into a [`HealthRow`] (client side).
///
/// # Errors
///
/// Returns [`ProtocolError::Server`] with the server's `ERR` message, or
/// [`ProtocolError::MalformedReply`] for a row that does not parse.
pub fn parse_health_row(line: &str) -> Result<HealthRow, ProtocolError> {
    let trimmed = line.trim();
    let with_ok;
    let fields = if trimmed.starts_with("OK") || trimmed.starts_with("ERR ") {
        parse_ok_fields(trimmed)?
    } else {
        with_ok = format!("OK {trimmed}");
        parse_ok_fields(&with_ok)?
    };
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ProtocolError::MalformedReply(format!("missing {key} in {line:?}")))
    };
    fn number<T: std::str::FromStr>(raw: &str, key: &str, line: &str) -> Result<T, ProtocolError> {
        raw.parse()
            .map_err(|_| ProtocolError::MalformedReply(format!("bad {key} in {line:?}")))
    }
    match get("kind")? {
        "calibration" => Ok(HealthRow::Calibration {
            snapshot: CalibrationSnapshot {
                platform: get("platform")?.to_string(),
                version: number(get("version")?, "version", line)?,
                samples: number(get("samples")?, "samples", line)?,
                mae: number(get("mae")?, "mae", line)?,
                mpe: number(get("mpe")?, "mpe", line)?,
                coverage: number(get("coverage")?, "coverage", line)?,
                covered_samples: number(get("covered")?, "covered", line)?,
                cusum: number(get("cusum")?, "cusum", line)?,
                page_hinkley: number(get("ph")?, "ph", line)?,
                state: HealthState::parse(get("state")?).ok_or_else(|| {
                    ProtocolError::MalformedReply(format!("bad state in {line:?}"))
                })?,
            },
        }),
        "additivity" => Ok(HealthRow::Additivity {
            snapshot: AdditivitySnapshot {
                platform: get("platform")?.to_string(),
                counter: get("counter")?.to_string(),
                checks: number(get("checks")?, "checks", line)?,
                violations: number(get("violations")?, "violations", line)?,
                rate: number(get("rate")?, "rate", line)?,
                worst_error_pct: number(get("worst")?, "worst", line)?,
            },
        }),
        other => Err(ProtocolError::MalformedReply(format!(
            "unknown health row kind {other:?}"
        ))),
    }
}

/// One row of a `HISTORY` reply: one metric's reading inside one
/// windowed snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Snapshot sequence number (monotonic, from 1).
    pub seq: u64,
    /// Metric exposition id.
    pub metric: String,
    /// Value at snapshot time.
    pub value: f64,
    /// Change since the previous snapshot.
    pub delta: f64,
}

/// The `key=value` fields of one `HISTORY` row.
pub fn history_row_fields(row: &HistoryRow) -> String {
    format!(
        "seq={} metric={} value={} delta={}",
        row.seq, row.metric, row.value, row.delta
    )
}

/// Parse a `HISTORY` listing row (with or without a leading `OK`) back
/// into a [`HistoryRow`] (client side).
///
/// # Errors
///
/// Returns [`ProtocolError::Server`] with the server's `ERR` message, or
/// [`ProtocolError::MalformedReply`] for a row that does not parse.
pub fn parse_history_row(line: &str) -> Result<HistoryRow, ProtocolError> {
    let trimmed = line.trim();
    let with_ok;
    let fields = if trimmed.starts_with("OK") || trimmed.starts_with("ERR ") {
        parse_ok_fields(trimmed)?
    } else {
        with_ok = format!("OK {trimmed}");
        parse_ok_fields(&with_ok)?
    };
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ProtocolError::MalformedReply(format!("missing {key} in {line:?}")))
    };
    fn number<T: std::str::FromStr>(raw: &str, key: &str, line: &str) -> Result<T, ProtocolError> {
        raw.parse()
            .map_err(|_| ProtocolError::MalformedReply(format!("bad {key} in {line:?}")))
    }
    Ok(HistoryRow {
        seq: number(get("seq")?, "seq", line)?,
        metric: get("metric")?.to_string(),
        value: number(get("value")?, "value", line)?,
        delta: number(get("delta")?, "delta", line)?,
    })
}

/// `ERR` reply. Newlines are flattened so the reply stays one line.
pub fn err(message: &str) -> String {
    format!("ERR {}", message.replace(['\r', '\n'], " "))
}

/// Parse an estimate reply back into an [`Estimate`] (client side).
///
/// # Errors
///
/// Returns [`ProtocolError::Server`] with the server's `ERR` message, or
/// [`ProtocolError::MalformedReply`] for a reply that does not parse.
pub fn parse_estimate_reply(line: &str) -> Result<Estimate, ProtocolError> {
    let fields = parse_ok_fields(line)?;
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ProtocolError::MalformedReply(format!("missing {key} in {line:?}")))
    };
    let number = |key: &str| -> Result<f64, ProtocolError> {
        get(key)?
            .parse()
            .map_err(|_| ProtocolError::MalformedReply(format!("bad {key} in {line:?}")))
    };
    Ok(Estimate {
        joules: number("joules")?,
        ci_half_width: number("ci")?,
        family: get("family")?.to_string().into(),
        version: get("version")?
            .parse()
            .map_err(|_| ProtocolError::MalformedReply(format!("bad version in {line:?}")))?,
    })
}

/// Split an `OK key=value ...` reply into its fields (client side).
///
/// # Errors
///
/// Returns [`ProtocolError::Server`] with the server's `ERR` message, or
/// [`ProtocolError::MalformedReply`] for a reply that does not parse.
pub fn parse_ok_fields(line: &str) -> Result<Vec<(&str, &str)>, ProtocolError> {
    let line = line.trim();
    if let Some(message) = line.strip_prefix("ERR ") {
        return Err(ProtocolError::Server(message.to_string()));
    }
    let rest = line
        .strip_prefix("OK")
        .ok_or_else(|| ProtocolError::MalformedReply(line.to_string()))?;
    rest.split_whitespace()
        .map(|pair| {
            pair.split_once('=')
                .ok_or_else(|| ProtocolError::MalformedReply(format!("field {pair:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let requests = vec![
            Request::Estimate {
                platform: "skylake".to_string(),
                counts: vec![
                    ("UOPS_EXECUTED_CORE".to_string(), 1.25e11),
                    ("MEM_INST_RETIRED_ALL_STORES".to_string(), 4.0e9),
                ],
                tier: Tier::F64,
            },
            Request::Estimate {
                platform: "skylake".to_string(),
                counts: vec![("UOPS_EXECUTED_CORE".to_string(), 1.25e11)],
                tier: Tier::Fixed,
            },
            Request::EstimateApp {
                platform: "haswell".to_string(),
                app: "dgemm:9000;fft:23000".to_string(),
                tier: Tier::F64,
            },
            Request::EstimateApp {
                platform: "haswell".to_string(),
                app: "dgemm:9000".to_string(),
                tier: Tier::Fixed,
            },
            Request::Train {
                platform: "skylake".to_string(),
                pmcs: vec!["A".to_string(), "B".to_string()],
                apps: vec!["dgemm:9000".to_string(), "fft:23000".to_string()],
            },
            Request::StreamOpen {
                id: "node7".to_string(),
                app: "dgemm:12000".to_string(),
                platform: "skylake".to_string(),
                window: 32,
            },
            Request::StreamPush {
                id: "node7".to_string(),
                window: 41,
                counts: [1.25e11, 4.0e9, 7.5e9, 6.5e9],
                joules: Some(118.25),
            },
            Request::StreamPush {
                id: "node7".to_string(),
                window: 42,
                counts: [1.0, 2.0, 3.0, 4.0],
                joules: None,
            },
            Request::StreamPoll {
                id: "node7".to_string(),
            },
            Request::StreamClose {
                id: "node7".to_string(),
            },
            Request::StreamList,
            Request::Models,
            Request::Stats,
            Request::Metrics,
            Request::Trace {
                scope: TraceScope::Recent,
                limit: None,
            },
            Request::Trace {
                scope: TraceScope::Slow,
                limit: Some(5),
            },
            Request::Trace {
                scope: TraceScope::Slowest,
                limit: None,
            },
            Request::Health,
            Request::History { limit: None },
            Request::History { limit: Some(4) },
            Request::Quit,
        ];
        for request in requests {
            assert_eq!(Request::parse(&request.to_line()).unwrap(), request);
        }
    }

    #[test]
    fn health_and_history_requests_parse() {
        assert_eq!(Request::parse("health").unwrap(), Request::Health);
        assert_eq!(
            Request::parse("HISTORY").unwrap(),
            Request::History { limit: None }
        );
        assert_eq!(
            Request::parse("history 3").unwrap(),
            Request::History { limit: Some(3) }
        );
        for bad in ["HEALTH now", "HISTORY 0", "HISTORY x", "HISTORY 2 2"] {
            assert!(
                matches!(Request::parse(bad), Err(ProtocolError::BadRequest { .. })),
                "{bad:?} should be a BadRequest"
            );
        }
        assert_eq!(Request::Health.command_label(), "health");
        assert_eq!(Request::History { limit: None }.command_label(), "history");
        assert_eq!(Command::Health.wire_name(), "HEALTH");
        assert!(Command::Health.takes_no_arguments());
        assert!(!Command::History.takes_no_arguments());
    }

    #[test]
    fn health_rows_round_trip() {
        let calibration = HealthRow::Calibration {
            snapshot: CalibrationSnapshot {
                platform: "skylake".to_string(),
                version: 12,
                samples: 40,
                mae: 1.25,
                mpe: -3.5,
                coverage: 0.925,
                covered_samples: 37,
                cusum: 0.75,
                page_hinkley: 0.5,
                state: HealthState::Degraded,
            },
        };
        let row = health_row_fields(&calibration);
        assert!(
            row.starts_with("kind=calibration platform=skylake "),
            "{row}"
        );
        assert_eq!(parse_health_row(&row).unwrap(), calibration);
        assert_eq!(
            parse_health_row(&format!("OK {row}")).unwrap(),
            calibration,
            "leading OK is accepted"
        );
        let additivity = HealthRow::Additivity {
            snapshot: AdditivitySnapshot {
                platform: "haswell".to_string(),
                counter: "UOPS_EXECUTED_CORE".to_string(),
                checks: 8,
                violations: 2,
                rate: 0.25,
                worst_error_pct: 51.5,
            },
        };
        let row = health_row_fields(&additivity);
        assert!(
            row.starts_with("kind=additivity platform=haswell "),
            "{row}"
        );
        assert_eq!(parse_health_row(&row).unwrap(), additivity);
        assert!(matches!(
            parse_health_row("ERR health disabled"),
            Err(ProtocolError::Server(_))
        ));
        assert!(matches!(
            parse_health_row("kind=frobnicate platform=x"),
            Err(ProtocolError::MalformedReply(_))
        ));
        assert!(matches!(
            parse_health_row("kind=calibration platform=x"),
            Err(ProtocolError::MalformedReply(_))
        ));
    }

    #[test]
    fn history_rows_round_trip() {
        let row = HistoryRow {
            seq: 3,
            metric: "pmca_serve_command_seconds{command=\"estimate\",quantile=\"0.95\"}"
                .to_string(),
            value: 0.0025,
            delta: 0.0005,
        };
        let line = history_row_fields(&row);
        assert_eq!(parse_history_row(&line).unwrap(), row);
        assert_eq!(
            parse_history_row(&format!("OK {line}")).unwrap(),
            row,
            "exposition ids with inner '=' survive the field split"
        );
        assert!(matches!(
            parse_history_row("seq=1 metric=x value=y delta=0"),
            Err(ProtocolError::MalformedReply(_))
        ));
        assert!(matches!(
            parse_history_row("ERR no history"),
            Err(ProtocolError::Server(_))
        ));
    }

    #[test]
    fn trace_requests_parse_with_defaults_and_bare_limits() {
        assert_eq!(
            Request::parse("TRACE").unwrap(),
            Request::Trace {
                scope: TraceScope::Recent,
                limit: None,
            }
        );
        // A bare number keeps the default scope.
        assert_eq!(
            Request::parse("TRACE 3").unwrap(),
            Request::Trace {
                scope: TraceScope::Recent,
                limit: Some(3),
            }
        );
        assert_eq!(
            Request::parse("trace slow 2").unwrap(),
            Request::Trace {
                scope: TraceScope::Slow,
                limit: Some(2),
            }
        );
        for bad in [
            "TRACE 0",
            "TRACE SOON",
            "TRACE RECENT x",
            "TRACE 3 4",
            "TRACE SLOW 2 2",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ProtocolError::BadRequest { .. })),
                "{bad:?} should be a BadRequest"
            );
        }
    }

    #[test]
    fn parse_is_case_insensitive_on_the_command_only() {
        let parsed = Request::parse("estimate skylake Pmc_A=3.5").unwrap();
        assert_eq!(
            parsed,
            Request::Estimate {
                platform: "skylake".to_string(),
                counts: vec![("Pmc_A".to_string(), 3.5)],
                tier: Tier::F64,
            }
        );
    }

    #[test]
    fn tier_selection_parses_and_defaults_keep_their_bytes() {
        // No tier= word: default F64, and to_line round-trips to the
        // exact pre-tier bytes.
        let plain = Request::parse("ESTIMATE skylake A=1 B=2").unwrap();
        assert_eq!(plain.to_line(), "ESTIMATE skylake A=1 B=2");
        // tier= is accepted anywhere among the pairs, case-insensitively,
        // and never counts as a PMC.
        for line in [
            "ESTIMATE skylake tier=fixed A=1 B=2",
            "ESTIMATE skylake A=1 TIER=FIXED B=2",
            "ESTIMATE skylake A=1 B=2 tier=fixed",
        ] {
            assert_eq!(
                Request::parse(line).unwrap(),
                Request::Estimate {
                    platform: "skylake".to_string(),
                    counts: vec![("A".to_string(), 1.0), ("B".to_string(), 2.0)],
                    tier: Tier::Fixed,
                },
                "{line}"
            );
        }
        // An explicit tier=f64 parses back to the default and re-encodes
        // without the word.
        let explicit = Request::parse("ESTIMATE skylake tier=f64 A=1").unwrap();
        assert_eq!(explicit.to_line(), "ESTIMATE skylake A=1");
        assert_eq!(
            Request::parse("ESTIMATE-APP skylake dgemm:9000 tier=fixed").unwrap(),
            Request::EstimateApp {
                platform: "skylake".to_string(),
                app: "dgemm:9000".to_string(),
                tier: Tier::Fixed,
            }
        );
        assert_eq!(
            Request::parse("ESTIMATE-APP skylake dgemm:9000 TIER=f64")
                .unwrap()
                .to_line(),
            "ESTIMATE-APP skylake dgemm:9000"
        );
        for bad in [
            "ESTIMATE skylake tier=quick A=1",
            "ESTIMATE skylake tier=fixed",
            "ESTIMATE-APP skylake dgemm:9000 tier=quick",
            "ESTIMATE-APP skylake dgemm:9000 fixed",
            "ESTIMATE-APP skylake dgemm:9000 tier=fixed extra",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ProtocolError::BadRequest { .. })),
                "{bad:?} should be a BadRequest"
            );
        }
        assert_eq!(Tier::parse("FIXED"), Some(Tier::Fixed));
        assert_eq!(Tier::parse("f64"), Some(Tier::F64));
        assert_eq!(Tier::parse("float"), None);
        assert_eq!(Tier::Fixed.to_string(), "fixed");
        assert_eq!(Tier::default(), Tier::F64);
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        assert_eq!(Request::parse(""), Err(ProtocolError::EmptyRequest));
        assert_eq!(
            Request::parse("FROBNICATE"),
            Err(ProtocolError::UnknownCommand("FROBNICATE".to_string()))
        );
        // SHARDS was retired with in-process sharding.
        assert_eq!(
            Request::parse("shards"),
            Err(ProtocolError::UnknownCommand("SHARDS".to_string()))
        );
        for bad in [
            "ESTIMATE",
            "ESTIMATE skylake",
            "ESTIMATE skylake UOPS",
            "ESTIMATE skylake UOPS=abc",
            "ESTIMATE-APP skylake",
            "TRAIN skylake A,B",
            "TRAIN skylake , dgemm:9000",
            "STATS now",
            "METRICS now",
            "HEALTH now",
            "QUIT now",
            "STREAM",
            "STREAM OPEN s1 dgemm:9000 skylake",
            "STREAM OPEN s1 dgemm:9000 skylake zero",
            "STREAM OPEN s1 dgemm:9000 skylake 0",
            "STREAM PUSH s1",
            "STREAM PUSH s1 seven 1 2 3 4",
            "STREAM PUSH s1 7 1 2 3",
            "STREAM PUSH s1 7 1 2 3 nan?",
            "STREAM PUSH s1 7 1 2 3 4 5 6",
            "STREAM POLL",
            "STREAM POLL s1 s2",
            "STREAM CLOSE",
            "STREAM LIST now",
            "STREAM FROBNICATE",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ProtocolError::BadRequest { .. })),
                "{bad:?} should be a BadRequest"
            );
        }
    }

    #[test]
    fn command_labels_are_stable() {
        assert_eq!(Request::Metrics.command_label(), "metrics");
        assert_eq!(
            Request::parse("ESTIMATE-APP skylake dgemm:9000")
                .unwrap()
                .command_label(),
            "estimate-app"
        );
        assert_eq!(Request::Health.command_label(), "health");
    }

    #[test]
    fn commands_resolve_verbs_case_insensitively() {
        assert_eq!(Command::parse("health", None), Some(Command::Health));
        assert_eq!(
            Command::parse("Stream", Some("open")),
            Some(Command::StreamOpen)
        );
        assert_eq!(Command::parse("STREAM", None), None);
        assert_eq!(Command::parse("STREAM", Some("FROB")), None);
        assert_eq!(Command::parse("FROBNICATE", None), None);
        assert_eq!(Command::StreamOpen.wire_name(), "STREAM OPEN");
        assert_eq!(Command::Health.to_string(), "HEALTH");
        assert!(Command::Health.takes_no_arguments());
        assert!(!Command::Train.takes_no_arguments());
        // Request round trip agrees with the verb table.
        assert_eq!(Request::parse("HEALTH").unwrap(), Request::Health);
        assert_eq!(Request::Health.to_line(), "HEALTH");
        assert_eq!(Request::parse("HEALTH").unwrap().command(), Command::Health);
    }

    #[test]
    fn estimate_replies_round_trip_exactly() {
        let estimate = Estimate {
            joules: 123.456789012345,
            ci_half_width: 0.25,
            family: "online".into(),
            version: 3,
        };
        let parsed = parse_estimate_reply(&ok_estimate(&estimate)).unwrap();
        assert_eq!(parsed, estimate);
    }

    #[test]
    fn err_replies_surface_the_message() {
        let reply = err("no model: nothing\nregistered");
        assert_eq!(reply, "ERR no model: nothing registered");
        assert_eq!(
            parse_estimate_reply(&reply).unwrap_err(),
            ProtocolError::Server("no model: nothing registered".to_string())
        );
        assert!(matches!(
            parse_estimate_reply("gibberish"),
            Err(ProtocolError::MalformedReply(_))
        ));
    }

    #[test]
    fn protocol_errors_display_and_compose() {
        let e = Request::parse("").unwrap_err();
        assert_eq!(e.to_string(), "empty request");
        let e: Box<dyn std::error::Error> = Box::new(ProtocolError::UnknownCommand("X".into()));
        assert!(e.to_string().contains("unknown command"));
        assert_eq!(
            ProtocolError::bad("TRAIN", "empty PMC list").to_string(),
            "TRAIN: empty PMC list"
        );
    }

    #[test]
    fn stats_replies_parse_as_fields() {
        let stats = ServiceStats {
            served: 10,
            errors: 1,
            cache_hits: 5,
            cache_misses: 2,
            cache_evictions: 0,
            cache_entries: 2,
            models: 3,
            streams: 12,
            stream_refits: 2,
            stream_drift_refits: 1,
        };
        let reply = ok_stats(&stats);
        let fields = parse_ok_fields(&reply).unwrap();
        assert_eq!(fields.len(), 10);
        assert!(fields.contains(&("served", "10")));
        assert!(fields.contains(&("cache-hits", "5")));
        assert!(fields.contains(&("cache-evictions", "0")));
        assert!(fields.contains(&("streams", "12")));
        assert!(fields.contains(&("stream-refits", "2")));
        assert!(fields.contains(&("stream-drift-refits", "1")));
    }

    #[test]
    fn stream_push_and_poll_parse_hot_without_copying() {
        match RequestRef::parse("stream push node7 41 1.5 2 3 4 118.25").unwrap() {
            RequestRef::StreamPush {
                id,
                window,
                counts,
                joules,
            } => {
                assert_eq!(id, "node7");
                assert_eq!(window, 41);
                assert_eq!(counts, [1.5, 2.0, 3.0, 4.0]);
                assert_eq!(joules, Some(118.25));
            }
            other => panic!("expected hot StreamPush, got {other:?}"),
        }
        match RequestRef::parse("STREAM POLL node7").unwrap() {
            RequestRef::StreamPoll { id } => assert_eq!(id, "node7"),
            other => panic!("expected hot StreamPoll, got {other:?}"),
        }
        // Cold subcommands still parse through the same entry point.
        assert!(matches!(
            RequestRef::parse("stream open s1 dgemm:9000 skylake 64").unwrap(),
            RequestRef::Owned(Request::StreamOpen { .. })
        ));
        assert_eq!(
            RequestRef::parse("STREAM PUSH s 1 1 2 3 4")
                .unwrap()
                .command_label(),
            "stream-push"
        );
        assert_eq!(
            RequestRef::parse("STREAM POLL s").unwrap().command_label(),
            "stream-poll"
        );
    }

    #[test]
    fn stream_status_replies_round_trip() {
        let status = StreamStatus {
            stream: "node7".to_string(),
            app: "dgemm:12000".to_string(),
            platform: "skylake".to_string(),
            capacity: 32,
            retained: 17,
            accepted: 40,
            duplicates: 2,
            late: 1,
            highest: 41,
            joules: 118.25617,
            watts: 117.5,
            ci95: 6.25,
            family: "online".to_string(),
            version: 9,
            rows: 40,
            idle_ms: 12,
        };
        // POLL reply (with OK) and LIST row (without) both parse back.
        assert_eq!(
            parse_stream_status(&ok_stream_status(&status)).unwrap(),
            status
        );
        assert_eq!(
            parse_stream_status(&stream_status_fields(&status)).unwrap(),
            status
        );
        assert!(matches!(
            parse_stream_status("ERR no open stream"),
            Err(ProtocolError::Server(_))
        ));
        assert!(matches!(
            parse_stream_status("OK stream=x app=y"),
            Err(ProtocolError::MalformedReply(_))
        ));
    }

    #[test]
    fn stream_push_replies_echo_the_outcome() {
        let accepted = PushReply {
            outcome: PushOutcome::Accepted { lag: 3 },
            retained: 8,
            highest: 20,
        };
        let mut out = String::new();
        ok_stream_push_into(&accepted, 17, &mut out);
        assert_eq!(out, "OK window=17 accepted=1 lag=3 retained=8 highest=20");
        let fields = parse_ok_fields(&out).unwrap();
        assert!(fields.contains(&("accepted", "1")));

        let duplicate = PushReply {
            outcome: PushOutcome::Duplicate,
            retained: 8,
            highest: 20,
        };
        out.clear();
        ok_stream_push_into(&duplicate, 17, &mut out);
        assert!(out.contains("accepted=0 reason=duplicate"), "{out}");

        let late = PushReply {
            outcome: PushOutcome::TooOld,
            retained: 8,
            highest: 20,
        };
        out.clear();
        ok_stream_push_into(&late, 2, &mut out);
        assert!(out.contains("accepted=0 reason=late"), "{out}");
    }
}
