//! Blocking line-protocol client.
//!
//! Thin convenience wrapper over `TcpStream`. Every verb goes through
//! one I/O core — [`Client::request`] encodes a [`Request`], performs
//! the verb's wire exchange (single reply line or counted listing), and
//! parses the reply into a typed [`Response`]. The per-verb helpers
//! ([`Client::estimate`], [`Client::stream_poll`], ...) are thin
//! wrappers that unwrap the matching `Response` variant. Used by the
//! `slope-pmc query` subcommand, the round-trip integration tests, and
//! the loadgen bench binary.

use crate::engine::Estimate;
use crate::protocol::{
    parse_estimate_reply, parse_health_row, parse_history_row, parse_ok_fields,
    parse_stream_status, Command, HealthRow, HistoryRow, ProtocolError, Request, Tier, TraceScope,
    STREAM_PUSH_COUNTS,
};
use pmca_stream::StreamStatus;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure (including the server closing the connection).
    Io(io::Error),
    /// The server replied `ERR ...`, or the reply did not parse.
    Protocol(ProtocolError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A parsed server reply — one variant per reply shape, returned by
/// [`Client::request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An estimate (`ESTIMATE` / `ESTIMATE-APP`).
    Estimate(Estimate),
    /// A `TRAIN` acknowledgement.
    Trained {
        /// Platform the model was trained for.
        platform: String,
        /// Model family registered.
        family: String,
        /// New model version.
        version: u32,
        /// Training rows used.
        rows: usize,
        /// Residual standard deviation of the fit.
        residual_std: f64,
    },
    /// A counted listing's payload lines (`MODELS` / `METRICS` /
    /// `TRACE`).
    Listing(Vec<String>),
    /// `STATS` counters as `(key, value)` pairs.
    Fields(Vec<(String, String)>),
    /// A `STREAM OPEN` acknowledgement.
    StreamOpened {
        /// Stream id.
        id: String,
        /// Server-clamped sliding-ring capacity in windows.
        capacity: usize,
    },
    /// A `STREAM PUSH` acknowledgement.
    StreamPushed {
        /// The pushed window id, echoed by the server.
        window: u64,
        /// Whether the window was accepted (`false` for duplicates and
        /// too-old windows).
        accepted: bool,
    },
    /// A `STREAM POLL` status.
    StreamStatus(StreamStatus),
    /// A `STREAM CLOSE` acknowledgement.
    StreamClosed {
        /// Stream id.
        id: String,
        /// Windows accepted over the stream's life.
        accepted: u64,
        /// Windows retained in the ring at close.
        retained: usize,
    },
    /// Status rows for every open stream (`STREAM LIST`).
    StreamList(Vec<StreamStatus>),
    /// Model-health rows — calibration and additivity (`HEALTH`).
    Health(Vec<HealthRow>),
    /// Metrics time-series snapshot rows (`HISTORY`).
    History(Vec<HistoryRow>),
    /// The `QUIT` goodbye.
    Bye,
}

/// One connection to a serving endpoint.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7771"`).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply ping-pong: Nagle + delayed ACK would add tens of
        // milliseconds per round trip.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// The one I/O core every verb goes through: encode `request`, send
    /// it, read the verb's reply shape (one line, or an `OK count=<n>`
    /// header plus `n` listing lines), and parse it into a typed
    /// [`Response`].
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply or a reply that does not parse, [`ClientError::Io`]
    /// on socket failure.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let command = request.command();
        let reply = self.raw_line(&request.to_line())?;
        match command {
            Command::Estimate | Command::EstimateApp => {
                Ok(Response::Estimate(parse_estimate_reply(&reply)?))
            }
            Command::Train => {
                let fields = parse_ok_fields(&reply)?;
                let get = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            ProtocolError::MalformedReply(format!(
                                "missing {key} in TRAIN reply {reply:?}"
                            ))
                        })
                };
                fn number<T: std::str::FromStr>(
                    key: &str,
                    raw: &str,
                    reply: &str,
                ) -> Result<T, ClientError> {
                    raw.parse().map_err(|_| {
                        ClientError::Protocol(ProtocolError::MalformedReply(format!(
                            "bad {key} in TRAIN reply {reply:?}"
                        )))
                    })
                }
                Ok(Response::Trained {
                    platform: get("platform")?.to_string(),
                    family: get("family")?.to_string(),
                    version: number("version", get("version")?, &reply)?,
                    rows: number("rows", get("rows")?, &reply)?,
                    residual_std: number("residual-std", get("residual-std")?, &reply)?,
                })
            }
            Command::Models | Command::Metrics | Command::Trace => {
                Ok(Response::Listing(self.counted_rows(&reply, command)?))
            }
            Command::Stats => {
                let fields = parse_ok_fields(&reply)?;
                Ok(Response::Fields(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                ))
            }
            Command::StreamOpen => {
                let fields = parse_ok_fields(&reply)?;
                let field = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            ProtocolError::MalformedReply(format!(
                                "malformed STREAM OPEN reply {reply:?}"
                            ))
                        })
                };
                Ok(Response::StreamOpened {
                    id: field("stream")?.to_string(),
                    capacity: field("capacity")?.parse().map_err(|_| {
                        ProtocolError::MalformedReply(format!(
                            "malformed STREAM OPEN reply {reply:?}"
                        ))
                    })?,
                })
            }
            Command::StreamPush => {
                let fields = parse_ok_fields(&reply)?;
                let field = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            ProtocolError::MalformedReply(format!(
                                "malformed STREAM PUSH reply {reply:?}"
                            ))
                        })
                };
                Ok(Response::StreamPushed {
                    window: field("window")?.parse().map_err(|_| {
                        ProtocolError::MalformedReply(format!(
                            "malformed STREAM PUSH reply {reply:?}"
                        ))
                    })?,
                    accepted: field("accepted")? == "1",
                })
            }
            Command::StreamPoll => Ok(Response::StreamStatus(parse_stream_status(&reply)?)),
            Command::StreamClose => {
                let fields = parse_ok_fields(&reply)?;
                let field = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            ProtocolError::MalformedReply(format!(
                                "malformed STREAM CLOSE reply {reply:?}"
                            ))
                        })
                };
                fn number<T: std::str::FromStr>(raw: &str, reply: &str) -> Result<T, ClientError> {
                    raw.parse().map_err(|_| {
                        ClientError::Protocol(ProtocolError::MalformedReply(format!(
                            "malformed STREAM CLOSE reply {reply:?}"
                        )))
                    })
                }
                Ok(Response::StreamClosed {
                    id: field("stream")?.to_string(),
                    accepted: number(field("accepted")?, &reply)?,
                    retained: number(field("retained")?, &reply)?,
                })
            }
            Command::StreamList => {
                let rows = self.counted_rows(&reply, command)?;
                Ok(Response::StreamList(
                    rows.iter()
                        .map(|row| parse_stream_status(row).map_err(ClientError::from))
                        .collect::<Result<_, _>>()?,
                ))
            }
            Command::Health => {
                let rows = self.counted_rows(&reply, command)?;
                Ok(Response::Health(
                    rows.iter()
                        .map(|row| parse_health_row(row).map_err(ClientError::from))
                        .collect::<Result<_, _>>()?,
                ))
            }
            Command::History => {
                let rows = self.counted_rows(&reply, command)?;
                Ok(Response::History(
                    rows.iter()
                        .map(|row| parse_history_row(row).map_err(ClientError::from))
                        .collect::<Result<_, _>>()?,
                ))
            }
            Command::Quit => {
                parse_ok_fields(&reply)?;
                Ok(Response::Bye)
            }
        }
    }

    /// Send one raw request line and read one reply line.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on socket failure or a closed
    /// connection.
    pub fn raw_line(&mut self, line: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_reply_line()
    }

    /// Send several request lines back-to-back before reading any reply
    /// (pipelining), then read exactly one reply line per request. Cuts
    /// per-request round trips under load. Not valid for the counted
    /// listings (`MODELS`, `METRICS`, `TRACE`, `STREAM LIST`, `SHARDS`),
    /// whose replies span multiple lines.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on socket failure or a closed
    /// connection.
    pub fn raw_pipelined(&mut self, lines: &[String]) -> Result<Vec<String>, ClientError> {
        let mut buffer = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buffer.push_str(line);
            buffer.push('\n');
        }
        self.writer.write_all(buffer.as_bytes())?;
        self.writer.flush()?;
        (0..lines.len()).map(|_| self.read_reply_line()).collect()
    }

    fn read_reply_line(&mut self) -> Result<String, ClientError> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Read the rest of a counted listing whose `OK count=<n>` header is
    /// already in `header`.
    fn counted_rows(&mut self, header: &str, command: Command) -> Result<Vec<String>, ClientError> {
        let fields = parse_ok_fields(header)?;
        let count: usize = fields
            .iter()
            .find(|(k, _)| *k == "count")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| {
                ClientError::Protocol(ProtocolError::MalformedReply(format!(
                    "malformed {} reply {header:?}",
                    command.wire_name()
                )))
            })?;
        (0..count).map(|_| self.read_reply_line()).collect()
    }

    /// The reply did not match the request's expected [`Response`]
    /// shape — only reachable if [`Client::request`] maps a command to
    /// the wrong variant, so this is effectively an internal assertion.
    fn unexpected(response: &Response) -> ClientError {
        ClientError::Protocol(ProtocolError::MalformedReply(format!(
            "unexpected response {response:?}"
        )))
    }

    /// Estimate from named PMC counts.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn estimate(
        &mut self,
        platform: &str,
        counts: &[(String, f64)],
    ) -> Result<Estimate, ClientError> {
        self.estimate_tiered(platform, counts, Tier::F64)
    }

    /// [`estimate`](Client::estimate) on an explicit inference tier —
    /// [`Tier::Fixed`] asks the server for the fixed-point fast tier
    /// (`tier=fixed` on the wire); [`Tier::F64`] sends the exact bytes
    /// `estimate` sends.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn estimate_tiered(
        &mut self,
        platform: &str,
        counts: &[(String, f64)],
        tier: Tier,
    ) -> Result<Estimate, ClientError> {
        let request = Request::Estimate {
            platform: platform.to_string(),
            counts: counts.to_vec(),
            tier,
        };
        match self.request(&request)? {
            Response::Estimate(estimate) => Ok(estimate),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Estimate a whole application by workload spec.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn estimate_app(&mut self, platform: &str, app: &str) -> Result<Estimate, ClientError> {
        self.estimate_app_tiered(platform, app, Tier::F64)
    }

    /// [`estimate_app`](Client::estimate_app) on an explicit inference
    /// tier; [`Tier::F64`] sends the exact bytes `estimate_app` sends.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn estimate_app_tiered(
        &mut self,
        platform: &str,
        app: &str,
        tier: Tier,
    ) -> Result<Estimate, ClientError> {
        let request = Request::EstimateApp {
            platform: platform.to_string(),
            app: app.to_string(),
            tier,
        };
        match self.request(&request)? {
            Response::Estimate(estimate) => Ok(estimate),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Train an online model server-side; returns the new version.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn train(
        &mut self,
        platform: &str,
        pmcs: &[String],
        apps: &[String],
    ) -> Result<u32, ClientError> {
        let request = Request::Train {
            platform: platform.to_string(),
            pmcs: pmcs.to_vec(),
            apps: apps.to_vec(),
        };
        match self.request(&request)? {
            Response::Trained { version, .. } => Ok(version),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// List registered models (one line per version).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn models(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request(&Request::Models)? {
            Response::Listing(lines) => Ok(lines),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetch the server's metrics snapshot (one exposition line per
    /// instrument, Prometheus text style).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn metrics(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Listing(lines) => Ok(lines),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetch retained request traces as JSONL event lines. `limit` caps
    /// the number of traces (not lines); decode the result with
    /// `pmca_obs::trace::Trace::parse_dump`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn trace(
        &mut self,
        scope: TraceScope,
        limit: Option<usize>,
    ) -> Result<Vec<String>, ClientError> {
        match self.request(&Request::Trace { scope, limit })? {
            Response::Listing(lines) => Ok(lines),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Fetch service counters as `(key, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed reply.
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Fields(fields) => Ok(fields),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Model-health rows: per-platform calibration (accuracy, interval
    /// coverage, drift scores, state) and per-counter additivity
    /// violation rates.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn health(&mut self) -> Result<Vec<HealthRow>, ClientError> {
        match self.request(&Request::Health)? {
            Response::Health(rows) => Ok(rows),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Metrics time-series history: the newest `limit` snapshots (all
    /// retained snapshots when `None`), oldest first, one row per
    /// instrument per snapshot with its value and delta since the
    /// previous snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn history(&mut self, limit: Option<usize>) -> Result<Vec<HistoryRow>, ClientError> {
        match self.request(&Request::History { limit })? {
            Response::History(rows) => Ok(rows),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Open a telemetry stream; returns the server's clamped sliding-ring
    /// capacity in windows.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn stream_open(
        &mut self,
        id: &str,
        app: &str,
        platform: &str,
        window: usize,
    ) -> Result<usize, ClientError> {
        let request = Request::StreamOpen {
            id: id.to_string(),
            app: app.to_string(),
            platform: platform.to_string(),
            window,
        };
        match self.request(&request)? {
            Response::StreamOpened { capacity, .. } => Ok(capacity),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Push one window of PMC counts into an open stream; `joules`
    /// labels the window with a measured energy. Returns whether the
    /// window was accepted (`false` for duplicates and too-old windows).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn stream_push(
        &mut self,
        id: &str,
        window: u64,
        counts: [f64; STREAM_PUSH_COUNTS],
        joules: Option<f64>,
    ) -> Result<bool, ClientError> {
        let request = Request::StreamPush {
            id: id.to_string(),
            window,
            counts,
            joules,
        };
        match self.request(&request)? {
            Response::StreamPushed { accepted, .. } => Ok(accepted),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Current status and energy estimate for an open stream.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn stream_poll(&mut self, id: &str) -> Result<StreamStatus, ClientError> {
        let request = Request::StreamPoll { id: id.to_string() };
        match self.request(&request)? {
            Response::StreamStatus(status) => Ok(status),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Close a stream; returns the windows it accepted over its life.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] with the server's message on an
    /// `ERR` reply.
    pub fn stream_close(&mut self, id: &str) -> Result<u64, ClientError> {
        let request = Request::StreamClose { id: id.to_string() };
        match self.request(&request)? {
            Response::StreamClosed { accepted, .. } => Ok(accepted),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Status rows for every open stream, sorted by id.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Protocol`] on a malformed listing.
    pub fn stream_list(&mut self) -> Result<Vec<StreamStatus>, ClientError> {
        match self.request(&Request::StreamList)? {
            Response::StreamList(statuses) => Ok(statuses),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Politely close the connection.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] if the goodbye could not be exchanged.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.request(&Request::Quit)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::service::ServiceConfig;
    use pmca_mlkit::export::ModelParams;
    use std::sync::Arc;

    fn running_server() -> Server {
        let service = Arc::new(
            ServiceConfig::default()
                .cache_capacity(16)
                .seed(7)
                .build()
                .unwrap(),
        );
        service.register(
            "skylake",
            "online",
            vec!["A".to_string(), "B".to_string()],
            0.0,
            10,
            ModelParams::Linear {
                coefficients: vec![2.0, 3.0],
                intercept: 0.0,
            },
        );
        Server::start(service, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn typed_calls_round_trip() {
        let server = running_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let estimate = client
            .estimate(
                "skylake",
                &[("A".to_string(), 10.0), ("B".to_string(), 1.0)],
            )
            .unwrap();
        assert_eq!(estimate.joules, 23.0);
        assert_eq!(estimate.version, 1);

        let models = client.models().unwrap();
        assert_eq!(models.len(), 1);
        assert!(models[0].contains("skylake online v1"));

        let stats = client.stats().unwrap();
        assert!(stats.iter().any(|(k, v)| k == "served" && v == "1"));

        let metrics = client.metrics().unwrap();
        assert!(
            metrics
                .iter()
                .any(|line| line.starts_with("pmca_serve_command_seconds")),
            "no command histogram in {metrics:?}"
        );
        client.quit().unwrap();
    }

    #[test]
    fn request_core_returns_typed_responses() {
        let server = running_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let response = client
            .request(&Request::Estimate {
                platform: "skylake".to_string(),
                counts: vec![("A".to_string(), 10.0), ("B".to_string(), 1.0)],
                tier: Tier::F64,
            })
            .unwrap();
        assert!(
            matches!(response, Response::Estimate(ref e) if e.joules == 23.0),
            "{response:?}"
        );
        let response = client.request(&Request::Stats).unwrap();
        assert!(matches!(response, Response::Fields(_)), "{response:?}");
        let response = client.request(&Request::Models).unwrap();
        assert!(
            matches!(response, Response::Listing(ref l) if l.len() == 1),
            "{response:?}"
        );
        assert_eq!(client.request(&Request::Quit).unwrap(), Response::Bye);
    }

    #[test]
    fn health_and_history_round_trip() {
        let server = running_server();
        let mut client = Client::connect(server.addr()).unwrap();
        // The seed model was registered directly (no TRAIN holdout), so
        // health is empty — the verb must still answer cleanly.
        let rows = client.health().unwrap();
        assert!(rows.is_empty(), "{rows:?}");
        // Each HEALTH/HISTORY request records one snapshot; after two
        // requests the ring holds at least two.
        let rows = client.history(None).unwrap();
        assert!(!rows.is_empty(), "{rows:?}");
        let seqs: std::collections::BTreeSet<u64> = rows.iter().map(|r| r.seq).collect();
        assert!(seqs.len() >= 2, "{seqs:?}");
        // A limit of 1 keeps only the newest snapshot.
        let rows = client.history(Some(1)).unwrap();
        let seqs: std::collections::BTreeSet<u64> = rows.iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 1, "{seqs:?}");
        client.quit().unwrap();
    }

    #[test]
    fn server_errors_become_protocol_errors() {
        let server = running_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client
            .estimate("skylake", &[("X".to_string(), 1.0)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Protocol(ProtocolError::Server(ref m)) if m.contains("no model")
            ),
            "{err}"
        );
        let err = client
            .train(
                "skylake",
                &["NOT_AN_EVENT".to_string()],
                &["dgemm:9000".to_string()],
            )
            .unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }
}
