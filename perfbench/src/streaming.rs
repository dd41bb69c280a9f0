//! `stream_ingest`: telemetry windows pushed into open streams over two
//! pipelined connections, with POLLs between the pushes.
//!
//! Each stream's producer sends its windows in order, except that a
//! seeded share swaps with the next window (arriving one late) or is
//! sent again (a retry). One window in four carries its measured
//! joules, and each connection sends one POLL per window round, as
//! loadgen's stream mode does. Nothing in the repository gives a share
//! of reordered or retried windows (loadgen sends neither), so the 5%
//! and 3% here are assumptions; each run records the shares the server
//! reported. The generator knows which pushes the server must accept,
//! and at what lag, so every PUSH reply, every POLL's accepted count and
//! every stream's final count are checked exactly.

use crate::spans::{self, Recorder};
use crate::stats::{derive, us, Rng};
use crate::sys::{self, Conn, Server};
use crate::{Args, Done, Mark, Outcome, Round};
use pmca_mlkit::{NeuralNet, RandomForest, RecursiveLeastSquares, Regressor};
use pmca_obs::{HealthConfig, HealthRegistry};
use pmca_serve::protocol::{parse_health_row, parse_ok_fields, parse_stream_status, HealthRow};
use pmca_serve::Request;
use pmca_stream::{
    synthetic_window, PushOutcome, StreamHub, StreamHubConfig, WindowSample, WindowState,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLATFORM: &str = "skylake";
const STREAMS: usize = 1000;
const CONNECTIONS: usize = 2;
/// Ring capacity each stream is opened with.
const RING: usize = 32;
/// Pushes pipelined per write.
const CHUNK: usize = 32;
/// loadgen's default `--label-every`.
const LABEL_EVERY: u64 = 4;
/// Assumed shares of windows that arrive after their successor, and of
/// pushes that are retries of the last window.
const P_REORDER: f64 = 0.05;
const P_DUPLICATE: f64 = 0.03;
/// The hub's default heavy-refit training buffer, in labelled windows.
const TRAIN_BUFFER: usize = 1024;

/// One stream's producer.
struct Producer {
    stream: usize,
    id: String,
    /// Which synthetic telemetry the stream carries.
    telemetry: u64,
    rng: Rng,
    next: u64,
    /// A window held back to arrive after its successor.
    held: Option<u64>,
    last: Option<u64>,
    /// Pushes the server must have accepted so far.
    accepted: u64,
}

/// One push as sent, and whether the server must accept it.
struct Push {
    stream: usize,
    window: u64,
    counts: [f64; 4],
    joules: Option<f64>,
    accept: bool,
    /// Windows above this one already accepted: 1 for a window that
    /// arrives after its successor, else 0.
    lag: u64,
}

impl Producer {
    fn new(seed: u64, stream: usize) -> Producer {
        let own = derive(seed, stream as u64);
        Producer {
            stream,
            id: format!("s{stream}"),
            telemetry: own % 1_000_000,
            rng: Rng::new(own),
            next: 1,
            held: None,
            last: None,
            accepted: 0,
        }
    }

    fn next_push(&mut self) -> Push {
        let (window, accept, lag) = if let Some(held) = self.held.take() {
            (held, true, 1)
        } else if let Some(last) = self.last.filter(|_| self.rng.chance(P_DUPLICATE)) {
            // The last accepted window is still in the ring: a duplicate.
            (last, false, 0)
        } else {
            let window = self.next;
            self.next += 1;
            if self.rng.chance(P_REORDER) {
                self.held = Some(window);
                self.next += 1;
                (window + 1, true, 0)
            } else {
                (window, true, 0)
            }
        };
        if accept {
            self.accepted += 1;
            self.last = Some(window);
        }
        let (counts, joules) = synthetic_window(self.telemetry, window);
        Push {
            stream: self.stream,
            window,
            counts,
            joules: (window % LABEL_EVERY == 0).then_some(joules),
            accept,
            lag,
        }
    }

    fn line(&self, push: &Push) -> String {
        Request::StreamPush {
            id: self.id.clone(),
            window: push.window,
            counts: push.counts,
            joules: push.joules,
        }
        .to_line()
    }
}

fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// How the server's PUSH replies said the windows arrived.
#[derive(Default)]
struct Arrivals {
    pushes: u64,
    /// Accepted with a lag above 0.
    reordered: u64,
    /// Refused as duplicates.
    duplicate: u64,
    /// Refused as older than the ring.
    late: u64,
}

impl Arrivals {
    /// Count one PUSH reply; returns whether it is the one `push` must get.
    fn check(&mut self, reply: &str, push: &Push) -> bool {
        let Ok(fields) = parse_ok_fields(reply) else {
            return false;
        };
        let number = |key: &str| field(&fields, key).and_then(|v| v.parse::<u64>().ok());
        let lag = number("lag");
        let reason = field(&fields, "reason");
        self.pushes += 1;
        self.reordered += u64::from(lag.is_some_and(|lag| lag > 0));
        self.duplicate += u64::from(reason == Some("duplicate"));
        self.late += u64::from(reason == Some("late"));
        number("window") == Some(push.window)
            && if push.accept {
                number("accepted") == Some(1) && lag == Some(push.lag)
            } else {
                number("accepted") == Some(0) && reason == Some("duplicate")
            }
    }

    /// Record the shares of pushes in each kind of arrival.
    fn note(&self, out: &mut Outcome) {
        let share = |n: u64| format!("{:.4}", n as f64 / self.pushes.max(1) as f64);
        out.note("observed_reordered_share", share(self.reordered));
        out.note("observed_duplicate_share", share(self.duplicate));
        out.note("observed_late_share", share(self.late));
    }
}

fn poll_ok(reply: &str, accepted: u64) -> bool {
    parse_stream_status(reply).is_ok_and(|status| {
        status.accepted == accepted
            && status.joules.is_finite()
            && status.watts.is_finite()
            && status.ci95.is_finite()
    })
}

/// One pipelined write of `CHUNK` pushes, round-robin over the lane's
/// streams; `pushes` holds what was sent. Returns the round trip, from
/// the first byte sent to the last reply read, and the wrong replies.
fn push_chunk(
    conn: &mut Conn,
    lane: &mut [Producer],
    cursor: &mut usize,
    pushes: &mut Vec<Push>,
    buf: &mut String,
    arrivals: &mut Arrivals,
) -> Result<(Duration, u64), String> {
    pushes.clear();
    buf.clear();
    for _ in 0..CHUNK {
        let producer = &mut lane[*cursor % lane.len()];
        *cursor += 1;
        let push = producer.next_push();
        buf.push_str(&producer.line(&push));
        buf.push('\n');
        pushes.push(push);
    }
    let sent = Instant::now();
    conn.send(buf.as_bytes())?;
    buf.clear();
    conn.recv_lines(CHUNK, buf)?;
    let rtt = sent.elapsed();
    let wrong = buf
        .lines()
        .zip(pushes.iter())
        .filter(|(reply, push)| !arrivals.check(reply, push))
        .count() as u64;
    Ok((rtt, wrong))
}

/// The index in `lane` of the stream to POLL now, if the connection's
/// pushes have just completed a window round (one window for each of its
/// streams): one POLL per round, streams visited in rotation, as loadgen
/// polls.
fn due_poll(cursor: usize, polled: &mut usize, lane: &[Producer]) -> Option<usize> {
    (cursor / lane.len() > *polled).then(|| {
        *polled += 1;
        (*polled - 1) % lane.len()
    })
}

/// One POLL on its own: its round trip and whether it was right.
fn poll(
    conn: &mut Conn,
    producer: &Producer,
    buf: &mut String,
) -> Result<(Duration, bool), String> {
    let line = format!("STREAM POLL {}\n", producer.id);
    buf.clear();
    let sent = Instant::now();
    conn.send(line.as_bytes())?;
    conn.recv_lines(1, buf)?;
    let rtt = sent.elapsed();
    Ok((rtt, poll_ok(buf.trim_end(), producer.accepted)))
}

/// A server with every stream open and its first window pushed.
struct Fleet {
    server: Server,
    conns: Vec<Conn>,
    lanes: Vec<Vec<Producer>>,
    /// The set-up pushes, for the traced run's in-process replay.
    warm: Vec<Push>,
}

fn start_fleet(args: &Args, arrivals: &mut Arrivals) -> Result<Fleet, String> {
    let server = Server::start(&args.server_bin, &[])?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut lanes: Vec<Vec<Producer>> = (0..CONNECTIONS)
        .map(|c| {
            (c..STREAMS)
                .step_by(CONNECTIONS)
                .map(|s| Producer::new(args.seed, s))
                .collect()
        })
        .collect();
    // Each connection's opens and first pushes go out in one write, and
    // both connections are in flight before any reply is read, so the
    // server's two connection threads set up their halves at once.
    let mut firsts: Vec<Vec<Push>> = Vec::with_capacity(CONNECTIONS);
    for (conn, lane) in conns.iter_mut().zip(&mut lanes) {
        let mut wire = String::new();
        for producer in lane.iter() {
            let open = Request::StreamOpen {
                id: producer.id.clone(),
                app: "synthetic".to_string(),
                platform: PLATFORM.to_string(),
                window: RING,
            };
            wire.push_str(&open.to_line());
            wire.push('\n');
        }
        let first: Vec<Push> = lane.iter_mut().map(Producer::next_push).collect();
        for push in &first {
            wire.push_str(&lane[push.stream / CONNECTIONS].line(push));
            wire.push('\n');
        }
        conn.send(wire.as_bytes())?;
        firsts.push(first);
    }
    let mut replies = String::new();
    for ((conn, lane), first) in conns.iter_mut().zip(&lanes).zip(&firsts) {
        replies.clear();
        conn.recv_lines(lane.len() + first.len(), &mut replies)?;
        let mut lines = replies.lines();
        if let Some(bad) = lines
            .by_ref()
            .take(lane.len())
            .find(|reply| !reply.starts_with("OK "))
        {
            return Err(format!("STREAM OPEN failed: {bad}"));
        }
        if lines
            .zip(first)
            .any(|(reply, push)| !arrivals.check(reply, push))
        {
            return Err("a set-up push was answered wrongly".to_string());
        }
    }
    let warm = firsts.into_iter().flatten().collect();
    Ok(Fleet {
        server,
        conns,
        lanes,
        warm,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let mut arrivals = Arrivals::default();
        let mut fleet = start_fleet(args, &mut arrivals)?;
        trace(args, &mut fleet, arrivals)
    } else {
        measure(args)
    }
}

/// A closed loop over the connections in turn: a pipelined chunk of
/// pushes on one, and after each window round one POLL on it, until
/// the deadline. One thread drives both connections, so a request never
/// queues behind the generator's own traffic on the other connection.
/// An op is a pushed window; the latency samples are the chunks' round
/// trips, each carrying `CHUNK` ops. POLLs are checked but not timed
/// here: a single POLL's round trip followed the shared host's load far
/// more than a chunk's did. The traced run times them (`e2e.poll`).
fn drive(
    fleet: &mut Fleet,
    deadline: Instant,
    out: &mut Outcome,
    arrivals: &mut Arrivals,
) -> Result<Vec<Done>, String> {
    let mut done: Vec<Done> = Vec::new();
    let (mut cursors, mut polled, mut chunks) =
        ([0usize; CONNECTIONS], [0usize; CONNECTIONS], 0usize);
    let mut pushes = Vec::with_capacity(CHUNK);
    let mut buf = String::with_capacity(CHUNK * 128);
    while Instant::now() < deadline {
        let c = chunks % CONNECTIONS;
        let (conn, lane) = (&mut fleet.conns[c], &mut fleet.lanes[c]);
        let (rtt, wrong) =
            push_chunk(conn, lane, &mut cursors[c], &mut pushes, &mut buf, arrivals)?;
        out.failed += wrong;
        out.attempted += CHUNK as u64;
        done.push(Done {
            latency_us: us(rtt),
            ops: CHUNK as u32,
        });
        chunks += 1;
        if let Some(stream) = due_poll(cursors[c], &mut polled[c], lane) {
            let (_, ok) = poll(conn, &lane[stream], &mut buf)?;
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }
    Ok(done)
}

/// Close every stream of a lane; returns how many final accepted counts
/// differ from what the producer sent.
fn close_all(conn: &mut Conn, lane: &[Producer]) -> Result<u64, String> {
    let wire: String = lane
        .iter()
        .map(|p| format!("STREAM CLOSE {}\n", p.id))
        .collect();
    let replies = conn.exchange(wire.as_bytes(), lane.len())?;
    Ok(replies
        .lines()
        .zip(lane)
        .filter(|(reply, producer)| {
            let accepted = parse_ok_fields(reply)
                .ok()
                .and_then(|f| field(&f, "accepted").and_then(|a| a.parse::<u64>().ok()));
            accepted != Some(producer.accepted)
        })
        .count() as u64)
}

/// The platform's calibration state in the server's `HEALTH` listing:
/// `ok`, `degraded` or `drifting`, or `none` before any labelled window.
/// Entering `drifting` forces a refit beside the every-256-labels ones;
/// the server counts both kinds of swap together.
fn health_state(conn: &mut Conn) -> Result<String, String> {
    let header = conn.request("HEALTH")?;
    let count = parse_ok_fields(&header)
        .ok()
        .and_then(|fields| field(&fields, "count")?.parse::<usize>().ok())
        .ok_or(format!("malformed HEALTH reply: {header}"))?;
    let mut rows = String::new();
    conn.recv_lines(count, &mut rows)?;
    Ok(rows
        .lines()
        .find_map(|line| match parse_health_row(line) {
            Ok(HealthRow::Calibration { snapshot, .. }) if snapshot.platform == PLATFORM => {
                Some(snapshot.state.as_str().to_string())
            }
            _ => None,
        })
        .unwrap_or_else(|| "none".to_string()))
}

/// The untraced run: each round on a server whose streams are opened
/// from scratch. The refit swaps each round completed, and the health
/// state it ended in, are recorded, so a slow round can be told apart
/// from one whose refit landed late, not at all, or was forced by drift.
fn measure(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        threads: 1,
        connections: CONNECTIONS,
        ..Outcome::default()
    };
    let (mut refits, mut states) = (Vec::new(), Vec::new());
    let mut arrivals = Arrivals::default();
    let rounds = crate::rounds(args.run, |length| {
        let (mut fleet, setup_s) = crate::set_up(|| start_fleet(args, &mut arrivals))?;
        let refits_before = sys::counter(&fleet.conns[0].stats()?, "stream-refits");
        let from = Mark::now(fleet.server.cpu_seconds()?)?;
        let done = drive(&mut fleet, from.at + length, &mut out, &mut arrivals)?;
        let to = Mark::now(fleet.server.cpu_seconds()?)?;
        let peak_rss_mb = fleet.server.peak_rss_mb()?;
        refits.push(
            sys::counter(&fleet.conns[0].stats()?, "stream-refits")
                .saturating_sub(refits_before)
                .to_string(),
        );
        states.push(health_state(&mut fleet.conns[0])?);
        for (conn, lane) in fleet.conns.iter_mut().zip(&fleet.lanes) {
            out.failed += close_all(conn, lane)?;
        }
        out.attempted += STREAMS as u64;
        Ok(Round {
            setup_s,
            done,
            from,
            to,
            peak_rss_mb,
        })
    })?;
    out.note("refit_swaps", refits.join(" "));
    out.note("health_states", states.join(" "));
    arrivals.note(&mut out);
    crate::report(&rounds, &mut out)?;
    Ok(out)
}

/// The traced run's in-process counterpart of the server's streaming
/// path: a hub built like the server's, and beside it the components a
/// push crosses, each fed the same windows.
struct Replay {
    hub: StreamHub,
    ids: Vec<String>,
    windows: Vec<WindowState>,
    rls: RecursiveLeastSquares,
    health: HealthRegistry,
    /// The most recent labelled windows: the heavy refit's training set.
    labelled: VecDeque<(Vec<f64>, f64)>,
}

impl Replay {
    fn new(fleet: &Fleet) -> Result<Replay, String> {
        // No swap callback: the hub's background refits publish nowhere
        // and fit nothing, so they stay out of the replay's timings.
        let hub = StreamHub::new(StreamHubConfig::default());
        hub.set_health(Arc::new(HealthRegistry::new(HealthConfig::default())));
        let mut ids = vec![String::new(); STREAMS];
        for producer in fleet.lanes.iter().flatten() {
            hub.open(&producer.id, "synthetic", PLATFORM, RING)
                .map_err(|e| e.to_string())?;
            ids[producer.stream] = producer.id.clone();
        }
        let mut replay = Replay {
            hub,
            ids,
            windows: (0..STREAMS).map(|_| WindowState::new(RING)).collect(),
            rls: RecursiveLeastSquares::paper_constrained(4),
            health: HealthRegistry::new(HealthConfig::default()),
            labelled: VecDeque::with_capacity(TRAIN_BUFFER),
        };
        let mut untraced = Recorder::new();
        untraced.begin_op(false);
        replay.run(&mut untraced, &fleet.warm, None);
        Ok(replay)
    }

    /// Replay one chunk of pushes, and the POLL after it, if any.
    fn run(&mut self, rec: &mut Recorder, pushes: &[Push], polled: Option<usize>) {
        let root = rec.open("replay.op");
        for push in pushes {
            let id = &self.ids[push.stream];
            let name = if push.joules.is_some() {
                "stream.hub.push_labelled"
            } else {
                "stream.hub.push"
            };
            let _ = rec.time(name, 1, || {
                self.hub.push(id, push.window, &push.counts, push.joules)
            });
            let window = &mut self.windows[push.stream];
            let sample = WindowSample {
                id: push.window,
                counts: push.counts.to_vec(),
                joules: push.joules,
            };
            let outcome = rec.time("stream.window.push", 1, || window.push(sample));
            let (Some(joules), PushOutcome::Accepted { .. }) = (push.joules, outcome) else {
                continue;
            };
            if let Some(snapshot) = self.hub.snapshot(PLATFORM) {
                let predicted = snapshot.predict(&push.counts);
                let half_width = snapshot.prediction_half_width();
                let health = &self.health;
                let _ = rec.time("obs.health.observe", 1, || {
                    health.observe(PLATFORM, snapshot.version, predicted, half_width, joules)
                });
            }
            let rls = &mut self.rls;
            let _ = rec.time("mlkit.rls.update", 1, || {
                rls.observe(&push.counts, joules);
                rls.refit()
            });
            if self.labelled.len() == TRAIN_BUFFER {
                self.labelled.pop_front();
            }
            self.labelled.push_back((push.counts.to_vec(), joules));
        }
        if let Some(stream) = polled {
            let _ = rec.time("stream.hub.poll", 1, || self.hub.poll(&self.ids[stream]));
            if let Some(snapshot) = self.hub.snapshot(PLATFORM) {
                let window = &self.windows[stream];
                let mut out = Vec::with_capacity(window.retained());
                rec.time("stream.snapshot.window", window.retained(), || {
                    snapshot.predict_windows_into(
                        window.samples().map(|w| w.counts.as_slice()),
                        &mut out,
                    );
                });
            }
        }
        rec.close(root, 1);
    }

    /// Time the heavy refit the server runs every 256 labelled windows:
    /// a default forest and network fitted on the training buffer.
    fn refit(&self, rec: &mut Recorder) {
        let x: Vec<Vec<f64>> = self.labelled.iter().map(|(row, _)| row.clone()).collect();
        let y: Vec<f64> = self.labelled.iter().map(|(_, joules)| *joules).collect();
        rec.time_once("mlkit.fit.refit", 1, || {
            let _ = RandomForest::with_seed(1).fit(&x, &y);
            let _ = NeuralNet::with_seed(1).fit(&x, &y);
        });
    }
}

/// The traced run: one thread alternating the two connections, each
/// chunk (and its POLL) sent to the server and then replayed in process.
fn trace(args: &Args, fleet: &mut Fleet, mut arrivals: Arrivals) -> Result<Outcome, String> {
    let mut replay = Replay::new(fleet)?;
    let refits_before = sys::counter(&fleet.conns[0].stats()?, "stream-refits");
    let mut out = Outcome {
        threads: 1,
        connections: CONNECTIONS,
        ..Outcome::default()
    };
    let (mut cursors, mut polled) = ([0usize; CONNECTIONS], [0usize; CONNECTIONS]);
    let mut pushes = Vec::with_capacity(CHUNK);
    let mut buf = String::new();
    let mut rec = spans::traced_loop(
        args.run,
        |i| (i / CONNECTIONS) % 2 == 1,
        |rec, i| {
            let c = i % CONNECTIONS;
            let started = Instant::now();
            let (conn, lane) = (&mut fleet.conns[c], &mut fleet.lanes[c]);
            let (_, wrong) = push_chunk(
                conn,
                lane,
                &mut cursors[c],
                &mut pushes,
                &mut buf,
                &mut arrivals,
            )?;
            out.failed += wrong;
            rec.record("e2e.push_batch", started, Instant::now());
            out.attempted += CHUNK as u64;
            let polled_stream = due_poll(cursors[c], &mut polled[c], lane);
            if let Some(stream) = polled_stream {
                let sent = Instant::now();
                let (rtt, ok) = poll(conn, &lane[stream], &mut buf)?;
                rec.record("e2e.poll", sent, sent + rtt);
                out.attempted += 1;
                out.failed += u64::from(!ok);
            }
            replay.run(rec, &pushes, polled_stream.map(|s| lane[s].stream));
            Ok(())
        },
    )?;
    let refits =
        sys::counter(&fleet.conns[0].stats()?, "stream-refits").saturating_sub(refits_before);
    replay.refit(&mut rec);
    for (conn, lane) in fleet.conns.iter_mut().zip(&fleet.lanes) {
        out.failed += close_all(conn, lane)?;
    }
    out.attempted += STREAMS as u64;
    arrivals.note(&mut out);
    rec.finish(
        args,
        &mut out,
        "e2e.push_batch",
        &["stream.hub.push", "stream.hub.push_labelled"],
        vec![("stream.refit.swaps", refits as f64)],
    )?;
    Ok(out)
}
