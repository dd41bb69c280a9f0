//! TCP front end for the energy service.
//!
//! `std::net` only, with two transports behind
//! [`crate::service::Transport`]:
//!
//! - **Threaded** — a listener thread accepts connections and hands each
//!   one to its own handler thread (the original model);
//! - **Evented** — the acceptor round-robins connections across a fixed
//!   set of nonblocking event-loop threads (the `evented` module), so
//!   mostly-idle fleets do not cost a thread per connection.
//!
//! Both speak the line protocol from [`crate::protocol`] through one
//! dispatcher over the process's one [`EnergyService`]. Binding to
//! port 0 picks an ephemeral port — [`Server::addr`] reports the bound
//! address, which is how tests and the loadgen find the server.

use crate::dispatch::Dispatcher;
use crate::protocol::MAX_LINE;
use crate::service::{EnergyService, Transport};
use pmca_obs::{log, trace, Gauge};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// RAII accounting for one live connection: bumps the
/// `pmca_serve_active_connections` gauge on creation and decrements it
/// on drop — *however* the handler exits (clean QUIT, client
/// disconnect, I/O error, or a panic unwinding the handler thread) —
/// and logs the connection lifecycle.
pub(crate) struct ConnectionGuard {
    gauge: Gauge,
    conn_id: u64,
    peer: String,
}

impl ConnectionGuard {
    pub(crate) fn open(service: &EnergyService, conn_id: u64, peer: String) -> ConnectionGuard {
        let gauge = service
            .metrics_registry()
            .gauge("pmca_serve_active_connections", &[]);
        gauge.add(1.0);
        log::debug(
            "serve",
            "connection open",
            &[("conn", &conn_id.to_string()), ("peer", &peer)],
        );
        ConnectionGuard {
            gauge,
            conn_id,
            peer,
        }
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.gauge.add(-1.0);
        log::debug(
            "serve",
            "connection closed",
            &[("conn", &self.conn_id.to_string()), ("peer", &self.peer)],
        );
    }
}

/// A running server. Dropping it stops the accept loop and joins the
/// event loops; handler threads for already-open threaded connections
/// run until their client disconnects.
pub struct Server {
    addr: SocketAddr,
    service: Arc<EnergyService>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
    loop_handles: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections against `service`. The service's
    /// [`Transport`] and event-loop count pick the connection model.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(service: Arc<EnergyService>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let transport = service.transport();
        log::info(
            "serve",
            "listening",
            &[
                ("addr", &local_addr.to_string()),
                ("transport", transport.as_str()),
            ],
        );
        let stop = Arc::new(AtomicBool::new(false));
        let mut loop_handles = Vec::new();
        let accept_handle = match transport {
            Transport::Threaded => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                thread::Builder::new()
                    .name("pmca-accept".to_string())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = stream else { continue };
                            let service = Arc::clone(&service);
                            let _ = thread::Builder::new()
                                .name("pmca-conn".to_string())
                                .spawn(move || handle_connection(stream, service));
                        }
                    })?
            }
            Transport::Evented => {
                let loops = service.event_loops();
                let mut senders = Vec::with_capacity(loops);
                for index in 0..loops {
                    let (tx, rx) = mpsc::channel::<TcpStream>();
                    senders.push(tx);
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    loop_handles.push(
                        thread::Builder::new()
                            .name(format!("pmca-loop-{index}"))
                            .spawn(move || {
                                crate::evented::run_event_loop(index, service, &rx, &stop);
                            })?,
                    );
                }
                let stop = Arc::clone(&stop);
                thread::Builder::new()
                    .name("pmca-accept".to_string())
                    .spawn(move || {
                        // Round-robin handoff: each accepted socket goes
                        // to the next loop, which owns it from then on.
                        let mut next = 0_usize;
                        for stream in listener.incoming() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = stream else { continue };
                            let _ = senders[next % senders.len()].send(stream);
                            next = next.wrapping_add(1);
                        }
                        // Dropping `senders` disconnects the loops'
                        // registration channels.
                    })?
            }
        };
        Ok(Server {
            addr: local_addr,
            service,
            stop,
            accept_handle: Some(accept_handle),
            loop_handles,
        })
    }

    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<EnergyService> {
        &self.service
    }

    /// Stop accepting connections, join the accept thread, and join the
    /// event loops (evented transport).
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.loop_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, service: Arc<EnergyService>) {
    // One reply per request line: without nodelay, Nagle + delayed ACK
    // stall every round trip by tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let conn_id = service.tracer().next_connection();
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let _guard = ConnectionGuard::open(&service, conn_id, peer);
    // Requests traced on this thread carry the connection id.
    let _conn_scope = trace::connection_scope(conn_id);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let dispatcher = Dispatcher::new(service);
    let mut line = String::new();
    let mut lines: Vec<String> = Vec::new();
    let mut out = String::new();
    loop {
        // Block for the first request, then drain every further complete
        // request a pipelining client already sent: the whole batch is
        // answered together (grouped inference, one flush). The drained
        // `lines` anchor the borrowed parses for the batch's lifetime.
        lines.clear();
        loop {
            line.clear();
            // One byte past the cap tells an over-long line from one
            // that ends exactly at it.
            match (&mut reader).take(MAX_LINE as u64 + 1).read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(n) if n > MAX_LINE && !line.ends_with('\n') => return,
                Ok(_) => {}
            }
            if !line.trim().is_empty() {
                lines.push(line.trim().to_string());
            }
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
        if lines.is_empty() {
            continue;
        }
        // One reply buffer per connection, written once per batch: warm
        // batches append into retained capacity instead of allocating a
        // `String` per reply.
        out.clear();
        let quit = dispatcher.respond_batch(&lines, &mut out);
        if writer.write_all(out.as_bytes()).is_err() {
            return;
        }
        if writer.flush().is_err() || quit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, Transport};
    use pmca_mlkit::export::ModelParams;

    fn service_with_model() -> Arc<EnergyService> {
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
        service
    }

    fn roundtrip(stream: &TcpStream, request: &str) -> String {
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "{request}").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn serves_estimates_over_tcp() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let reply = roundtrip(&stream, "ESTIMATE skylake A=10 B=1");
        assert_eq!(reply, "OK joules=23 ci=0 family=online version=1");
        let reply = roundtrip(&stream, "ESTIMATE skylake B=1 A=10");
        assert_eq!(
            reply, "OK joules=23 ci=0 family=online version=1",
            "order-insensitive"
        );
    }

    #[test]
    fn bad_requests_get_err_and_keep_the_connection() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        assert!(roundtrip(&stream, "NONSENSE").starts_with("ERR "));
        assert!(roundtrip(&stream, "ESTIMATE skylake A=1").starts_with("ERR "));
        // Still answers after errors.
        assert!(roundtrip(&stream, "STATS").starts_with("OK served="));
    }

    #[test]
    fn shards_verb_is_an_unknown_command_over_tcp() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        // SHARDS was retired with in-process sharding.
        assert_eq!(
            roundtrip(&stream, "SHARDS"),
            r#"ERR unknown command "SHARDS""#
        );
        // The connection stays usable.
        assert_eq!(
            roundtrip(&stream, "ESTIMATE skylake A=10 B=1"),
            "OK joules=23 ci=0 family=online version=1"
        );
    }

    #[test]
    fn models_reply_is_count_prefixed() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "MODELS").unwrap();
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        assert_eq!(header.trim_end(), "OK count=1");
        let mut listing = String::new();
        reader.read_line(&mut listing).unwrap();
        assert!(listing.contains("skylake online v1"), "{listing:?}");
    }

    #[test]
    fn metrics_reply_lists_command_histograms() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        // Serve one estimate first so its histogram has a sample.
        assert!(roundtrip(&stream, "ESTIMATE skylake A=10 B=1").starts_with("OK joules="));
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "METRICS").unwrap();
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let count: usize = header
            .trim_end()
            .strip_prefix("OK count=")
            .expect("count header")
            .parse()
            .unwrap();
        assert!(count > 0, "metrics exposition should not be empty");
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        assert!(
            lines.iter().any(|l| l.starts_with(
                "pmca_serve_command_seconds{command=\"estimate\",quantile=\"0.99\"} "
            )),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pmca_cache_hits_total ")),
            "{lines:?}"
        );
    }

    #[test]
    fn trace_reply_is_count_prefixed_jsonl() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        assert!(roundtrip(&stream, "ESTIMATE skylake A=10 B=1").starts_with("OK joules="));
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "TRACE SLOWEST").unwrap();
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let count: usize = header
            .trim_end()
            .strip_prefix("OK count=")
            .expect("count header")
            .parse()
            .unwrap();
        assert!(count > 0, "slowest trace should exist after one estimate");
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        let traces = crate::Trace::parse_dump(&lines).unwrap();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].connection > 0, "trace carries the connection id");
    }

    #[test]
    fn active_connections_gauge_returns_to_zero() {
        use pmca_obs::MetricsRegistry;
        use std::time::Duration;

        // A private registry: other tests' connections must not show up
        // in this gauge.
        let registry = Arc::new(MetricsRegistry::new());
        let service = Arc::new(
            ServiceConfig::default()
                .cache_capacity(8)
                .build_with_registry(Arc::clone(&registry))
                .unwrap(),
        );
        let server = Server::start(service, "127.0.0.1:0").unwrap();
        let gauge = registry.gauge("pmca_serve_active_connections", &[]);
        let wait_for = |expected: f64| {
            for _ in 0..500 {
                if (gauge.get() - expected).abs() < f64::EPSILON {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
            }
            panic!("gauge stuck at {} (wanted {expected})", gauge.get());
        };
        let streams: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // A round trip per stream proves every handler thread is live
        // (and has incremented the gauge).
        for stream in &streams {
            assert!(roundtrip(stream, "STATS").starts_with("OK served="));
        }
        assert_eq!(gauge.get(), 4.0);
        // Mixed exits: one clean QUIT, the rest abrupt disconnects (the
        // handler hits EOF / an I/O error) — the RAII guard must
        // decrement on every path.
        assert_eq!(roundtrip(&streams[0], "QUIT"), "OK bye=1");
        drop(streams);
        wait_for(0.0);
    }

    fn evented_service_with_model() -> Arc<EnergyService> {
        let service = Arc::new(
            ServiceConfig::default()
                .cache_capacity(16)
                .seed(7)
                .transport(Transport::Evented)
                .event_loops(2)
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
        service
    }

    #[test]
    fn evented_transport_serves_partial_lines_and_pipelines() {
        use std::time::Duration;

        let server = Server::start(evented_service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let reply = roundtrip(&stream, "ESTIMATE skylake A=10 B=1");
        assert_eq!(reply, "OK joules=23 ci=0 family=online version=1");

        // A request split across two writes with a pause between them:
        // the loop must buffer the partial line, not answer or drop it.
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"ESTIMATE sky").unwrap();
        writer.flush().unwrap();
        thread::sleep(Duration::from_millis(20));
        writer.write_all(b"lake A=10 B=1\n").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            reply.trim_end(),
            "OK joules=23 ci=0 family=online version=1"
        );

        // A pipelined burst answers in order, one reply per request.
        let mut burst = String::new();
        for _ in 0..8 {
            burst.push_str("ESTIMATE skylake A=10 B=1\n");
        }
        burst.push_str("STATS\n");
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();
        for _ in 0..8 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(
                reply.trim_end(),
                "OK joules=23 ci=0 family=online version=1"
            );
        }
        let mut stats = String::new();
        reader.read_line(&mut stats).unwrap();
        assert!(stats.starts_with("OK served="), "{stats:?}");

        // Errors keep the connection; QUIT closes it after the reply.
        assert!(roundtrip(&stream, "NONSENSE").starts_with("ERR "));
        assert_eq!(roundtrip(&stream, "QUIT"), "OK bye=1");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
    }

    #[test]
    fn evented_transport_reports_loop_metrics() {
        let server = Server::start(evented_service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        assert!(roundtrip(&stream, "ESTIMATE skylake A=10 B=1").starts_with("OK joules="));
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "METRICS").unwrap();
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let count: usize = header
            .trim_end()
            .strip_prefix("OK count=")
            .expect("count header")
            .parse()
            .unwrap();
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pmca_serve_event_loop_wakeups_total{loop=\"")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pmca_serve_event_loop_ready_events_total{loop=\"")),
            "{lines:?}"
        );
    }

    #[test]
    fn quit_closes_the_connection() {
        let server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(roundtrip(&stream, "QUIT"), "OK bye=1");
        let mut reader = BufReader::new(stream);
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "server closed the stream"
        );
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = Server::start(service_with_model(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        server.shutdown();
        // Existing sockets may still connect to the OS backlog, but the
        // accept thread is gone; a fresh request gets no reply.
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut writer = stream.try_clone().unwrap();
            let _ = writeln!(writer, "STATS");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            assert_eq!(reader.read_line(&mut reply).unwrap_or(0), 0);
        }
    }
}
