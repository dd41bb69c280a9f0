//! Process and socket plumbing: the server under test, its `/proc`
//! counters, and line-protocol connections.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// How long a reply may take before the run is declared stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// CPU seconds used by process `pid` (`"self"` for this one): user plus
/// system time of every thread, live or exited.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are at offsets 11 and 12.
    let rest = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or(format!("{path}: no command name"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or(format!("{path}: bad CPU time field"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Steal and total CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran other
/// guests while this one's CPUs had work.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let path = "/proc/stat";
    let stat = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if fields.len() < 8 {
        return Err(format!("{path}: no steal field"));
    }
    Ok((fields[7], fields[..8].iter().sum()))
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("{path}: no VmHWM line"))
}

/// `slope-pmc serve` running with its defaults on an ephemeral port.
/// Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    /// Drains the server's standard output so it never blocks on a full
    /// pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the server with `extra` arguments after `serve --addr`, and
    /// wait until it announces the address it is serving on.
    pub fn start(bin: &Path, extra: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        match announced_addr(stdout) {
            Ok((addr, reader)) => {
                let drain = std::thread::spawn(move || {
                    let mut reader = reader;
                    let _ = io::copy(&mut reader, &mut io::sink());
                });
                Ok(Server {
                    child,
                    addr,
                    drain: Some(drain),
                })
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds(&self.pid())
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Read the server's start-up lines until one names a socket address.
fn announced_addr(stdout: ChildStdout) -> Result<(SocketAddr, BufReader<ChildStdout>), String> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading server output: {e}"))?;
        if read == 0 {
            return Err("server exited before announcing its address".to_string());
        }
        let addr = line
            .split_whitespace()
            .find_map(|word| word.trim_end_matches([',', ';']).parse::<SocketAddr>().ok());
        if let Some(addr) = addr {
            return Ok((addr, reader));
        }
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    /// Write request bytes (one or more newline-terminated lines).
    pub fn send(&mut self, wire: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(wire)
            .map_err(|e| format!("sending: {e}"))
    }

    /// Append the next `n` reply lines to `out`.
    pub fn recv_lines(&mut self, n: usize, out: &mut String) -> Result<(), String> {
        for _ in 0..n {
            let read = self
                .reader
                .read_line(out)
                .map_err(|e| format!("reading a reply: {e}"))?;
            if read == 0 {
                return Err("server closed the connection".to_string());
            }
        }
        Ok(())
    }

    /// Send `wire` and read its `n` replies.
    pub fn exchange(&mut self, wire: &[u8], n: usize) -> Result<String, String> {
        self.send(wire)?;
        let mut out = String::new();
        self.recv_lines(n, &mut out)?;
        Ok(out)
    }

    /// One request line, one reply line (without its newline).
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let reply = self.exchange(format!("{line}\n").as_bytes(), 1)?;
        Ok(reply.trim_end().to_string())
    }

    /// The server's STATS counters.
    pub fn stats(&mut self) -> Result<HashMap<String, u64>, String> {
        let reply = self.request("STATS")?;
        let fields = pmca_serve::protocol::parse_ok_fields(&reply).map_err(|e| e.to_string())?;
        Ok(fields
            .into_iter()
            .filter_map(|(key, value)| Some((key.to_string(), value.parse().ok()?)))
            .collect())
    }
}

/// One STATS counter, 0 when absent.
pub fn counter(stats: &HashMap<String, u64>, key: &str) -> u64 {
    stats.get(key).copied().unwrap_or(0)
}
