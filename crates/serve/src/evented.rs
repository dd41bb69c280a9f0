//! The evented transport: nonblocking sockets on a readiness sweep.
//!
//! `std`-only (the crate forbids `unsafe`, so no `epoll` binding): each
//! event loop thread owns a set of `TcpStream`s in nonblocking mode and
//! sweeps them — flush what the socket will take, read what it has,
//! answer every complete line through the shared [`Dispatcher`]. A
//! connection that stays quiet for a few sweeps is demoted to a *cold*
//! tier scanned only every [`COLD_SCAN_PERIOD`]th sweep, so tens of
//! thousands of mostly-idle connections cost a handful of syscalls per
//! scan period instead of a thread each. When a whole sweep finds
//! nothing ready the loop sleeps briefly instead of spinning.
//!
//! Partial lines pipeline naturally: bytes accumulate in a
//! per-connection read buffer, and only the complete-line prefix is
//! parsed (borrowed, not copied — the same zero-alloc
//! [`crate::protocol::RequestRef`] path the threaded transport uses).
//! Replies queue in a per-connection write buffer that drains as the
//! socket accepts them, so a slow reader never blocks the loop.
//!
//! Loop health is observable: `pmca_serve_event_loop_wakeups_total`
//! (sweeps), `pmca_serve_event_loop_ready_events_total` (connections
//! with activity), and `pmca_serve_event_loop_connections` (registered
//! connections), all labelled per loop.

use crate::dispatch::Dispatcher;
use crate::protocol::MAX_LINE;
use crate::server::ConnectionGuard;
use crate::service::EnergyService;
use pmca_obs::trace;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Sweeps without activity before a connection is demoted to the cold
/// tier.
const COLD_AFTER_SWEEPS: u32 = 8;

/// Cold connections are scanned every this-many sweeps.
const COLD_SCAN_PERIOD: u64 = 32;

/// How long the loop sleeps when a whole sweep found nothing ready.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Chunk size for nonblocking reads — large enough to take a full
/// pipelined batch in one syscall.
const READ_CHUNK: usize = 32 * 1024;

/// One registered connection.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// How much of `write_buf` has already reached the socket.
    write_pos: usize,
    conn_id: u64,
    _guard: ConnectionGuard,
    /// Consecutive scanned sweeps with no activity (cold-tier clock).
    idle_sweeps: u32,
    /// A QUIT was answered: close once the write buffer drains.
    quit: bool,
}

enum ConnState {
    /// Had readable bytes, writable backlog, or produced replies.
    Active,
    /// Nothing to do this sweep.
    Idle,
    /// Disconnected, errored, or finished a QUIT.
    Closed,
}

/// Run one event loop until `stop` is set: register connections handed
/// over by the acceptor, sweep them for readiness, dispatch complete
/// lines. The acceptor round-robins accepted sockets across loops, so
/// each loop owns a disjoint set.
pub(crate) fn run_event_loop(
    loop_index: usize,
    service: Arc<EnergyService>,
    rx: &mpsc::Receiver<TcpStream>,
    stop: &AtomicBool,
) {
    let registry = service.metrics_registry();
    let label = loop_index.to_string();
    let wakeups = registry.counter("pmca_serve_event_loop_wakeups_total", &[("loop", &label)]);
    let ready = registry.counter(
        "pmca_serve_event_loop_ready_events_total",
        &[("loop", &label)],
    );
    let connections = registry.gauge("pmca_serve_event_loop_connections", &[("loop", &label)]);
    let dispatcher = Dispatcher::new(Arc::clone(&service));
    let mut conns: Vec<Conn> = Vec::new();
    let mut tmp = vec![0_u8; READ_CHUNK];
    let mut out = String::new();
    let mut sweep: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        // Take ownership of newly accepted sockets. With nothing
        // registered, block briefly instead of spinning on an empty set.
        if conns.is_empty() {
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(stream) => {
                    if let Some(conn) = register(stream, &service) {
                        conns.push(conn);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(stream) = rx.try_recv() {
            if let Some(conn) = register(stream, &service) {
                conns.push(conn);
            }
        }
        wakeups.inc();
        let scan_cold = sweep.is_multiple_of(COLD_SCAN_PERIOD);
        let mut any_activity = false;
        conns.retain_mut(|conn| {
            if conn.idle_sweeps >= COLD_AFTER_SWEEPS && !scan_cold {
                return true;
            }
            match service_conn(conn, &dispatcher, &mut tmp, &mut out) {
                ConnState::Closed => false,
                ConnState::Active => {
                    ready.inc();
                    conn.idle_sweeps = 0;
                    any_activity = true;
                    true
                }
                ConnState::Idle => {
                    conn.idle_sweeps = conn.idle_sweeps.saturating_add(1);
                    true
                }
            }
        });
        connections.set(approx_f64(conns.len()));
        if !any_activity {
            thread::sleep(IDLE_SLEEP);
        }
        sweep = sweep.wrapping_add(1);
    }
    connections.set(0.0);
}

#[allow(clippy::cast_precision_loss)] // gauge display, not arithmetic
fn approx_f64(n: usize) -> f64 {
    n as f64
}

fn register(stream: TcpStream, service: &EnergyService) -> Option<Conn> {
    stream.set_nonblocking(true).ok()?;
    // One reply per request line: without nodelay, Nagle + delayed ACK
    // stall every round trip by tens of milliseconds.
    let _ = stream.set_nodelay(true);
    let conn_id = service.tracer().next_connection();
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let guard = ConnectionGuard::open(service, conn_id, peer);
    Some(Conn {
        stream,
        read_buf: Vec::new(),
        write_buf: Vec::new(),
        write_pos: 0,
        conn_id,
        _guard: guard,
        idle_sweeps: 0,
        quit: false,
    })
}

/// One sweep visit: drain pending writes, read what the socket has,
/// answer every complete line.
fn service_conn(
    conn: &mut Conn,
    dispatcher: &Dispatcher,
    tmp: &mut [u8],
    out: &mut String,
) -> ConnState {
    let mut active = false;
    if !flush_write(conn, &mut active) {
        return ConnState::Closed;
    }
    if conn.quit {
        return if write_drained(conn) {
            ConnState::Closed
        } else {
            ConnState::Active
        };
    }
    loop {
        match (&conn.stream).read(tmp) {
            Ok(0) => return ConnState::Closed,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&tmp[..n]);
                active = true;
                // A short read means the socket buffer is drained.
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ConnState::Closed,
        }
    }
    // Answer the complete-line prefix; the remainder (a partial line)
    // stays buffered for the next sweep.
    if let Some(last_newline) = conn.read_buf.iter().rposition(|&b| b == b'\n') {
        let Ok(text) = std::str::from_utf8(&conn.read_buf[..=last_newline]) else {
            return ConnState::Closed;
        };
        let lines: Vec<&str> = text
            .split('\n')
            .map(str::trim)
            .filter(|line| !line.is_empty())
            .collect();
        if !lines.is_empty() {
            out.clear();
            // Requests dispatched here carry this connection's id in
            // their traces, exactly like a handler thread would.
            let _scope = trace::connection_scope(conn.conn_id);
            conn.quit = dispatcher.respond_batch(&lines, out);
            conn.write_buf.extend_from_slice(out.as_bytes());
            active = true;
        }
        conn.read_buf.drain(..=last_newline);
    } else if conn.read_buf.len() > MAX_LINE {
        return ConnState::Closed;
    }
    if !flush_write(conn, &mut active) {
        return ConnState::Closed;
    }
    if conn.quit && write_drained(conn) {
        return ConnState::Closed;
    }
    if active {
        ConnState::Active
    } else {
        ConnState::Idle
    }
}

/// Push buffered reply bytes until the socket pushes back; returns
/// `false` on a fatal connection error.
fn flush_write(conn: &mut Conn, active: &mut bool) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.write_pos += n;
                *active = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if write_drained(conn) && !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    true
}

fn write_drained(conn: &Conn) -> bool {
    conn.write_pos == conn.write_buf.len()
}
