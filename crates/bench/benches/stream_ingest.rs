//! Streaming-ingestion microbenches for the `pmca-stream` hub (PR 6).
//!
//! Measures the hub itself, with the TCP layer peeled off, so the
//! numbers isolate the per-window state-machine cost:
//!
//! - `push_unlabelled` — the pure hot path: ring insert + estimate
//!   refresh against the current model snapshot, no learning;
//! - `push_labelled` — the same plus the recursive least-squares update
//!   on the online linear model: an O(k²) fold and an exact active-set
//!   NNLS re-solve (no publish hook is installed, so every 256th
//!   window's publication only bumps a counter);
//! - `poll` — status snapshot of a warm stream, the read the serving
//!   layer performs per `STREAM POLL`;
//! - `open_close` — stream lifecycle churn: shard insert, state
//!   allocation, and teardown.
//!
//! After the groups (in timing *and* `--test` smoke mode) a cost gate
//! asserts a labelled push costs at most 10× an unlabelled one, each
//! timed over 4 000 pushes, best of three, exiting nonzero otherwise —
//! the floor CI's bench smoke enforces so the online solve cannot rot
//! back to dominating the labelled path.

use criterion::{criterion_group, Criterion};
use pmca_stream::{synthetic_window, StreamHub, StreamHubConfig};
use std::hint::black_box;
use std::time::Instant;

fn hub() -> StreamHub {
    StreamHub::new(StreamHubConfig::default())
}

fn bench_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_push");
    let hub = hub();
    hub.open("bench-unlabelled", "dgemm:8000", "haswell", 64)
        .expect("open");
    hub.open("bench-labelled", "dgemm:8000", "haswell", 64)
        .expect("open");
    let mut unlabelled_window = 0u64;
    g.bench_function("push_unlabelled", |b| {
        b.iter(|| {
            let (counts, _) = synthetic_window(1, unlabelled_window);
            unlabelled_window += 1;
            black_box(
                hub.push("bench-unlabelled", unlabelled_window, &counts, None)
                    .expect("push"),
            )
        })
    });
    let mut labelled_window = 0u64;
    g.bench_function("push_labelled", |b| {
        b.iter(|| {
            let (counts, joules) = synthetic_window(2, labelled_window);
            labelled_window += 1;
            black_box(
                hub.push("bench-labelled", labelled_window, &counts, Some(joules))
                    .expect("push"),
            )
        })
    });
    g.finish();
}

fn bench_poll(c: &mut Criterion) {
    let hub = hub();
    hub.open("bench-poll", "dgemm:8000", "haswell", 64)
        .expect("open");
    for w in 0..64u64 {
        let (counts, joules) = synthetic_window(3, w);
        hub.push("bench-poll", w, &counts, Some(joules))
            .expect("push");
    }
    let mut g = c.benchmark_group("stream_poll");
    g.bench_function("poll_warm", |b| {
        b.iter(|| black_box(hub.poll("bench-poll").expect("poll")))
    });
    g.finish();
}

fn bench_open_close(c: &mut Criterion) {
    let hub = hub();
    let mut g = c.benchmark_group("stream_lifecycle");
    g.bench_function("open_close", |b| {
        b.iter(|| {
            hub.open("bench-churn", "dgemm:8000", "haswell", 32)
                .expect("open");
            black_box(hub.close("bench-churn").expect("close"))
        })
    });
    g.finish();
}

/// Pushes per timed pass of the gate.
const GATE_PUSHES: u64 = 4_000;

/// Best-of-three seconds for [`GATE_PUSHES`] pushes into a fresh stream
/// of a warm hub, labelled or not.
fn time_pushes(hub: &StreamHub, labelled: bool) -> f64 {
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let id = format!("gate-{labelled}-{pass}");
        hub.open(&id, "dgemm:8000", "haswell", 64).expect("open");
        let windows: Vec<([f64; 4], f64)> =
            (0..GATE_PUSHES).map(|w| synthetic_window(4, w)).collect();
        let start = Instant::now();
        for (w, (counts, joules)) in (1..).zip(&windows) {
            let label = labelled.then_some(*joules);
            black_box(hub.push(&id, w, counts, label).expect("push"));
        }
        best = best.min(start.elapsed().as_secs_f64());
        hub.close(&id).expect("close");
    }
    best
}

/// The CI cost floor: a labelled push (ring insert plus the online
/// model's update and exact re-solve) costs at most 10× an unlabelled
/// one.
fn gate() {
    let hub = hub();
    // Warm the platform's online model, so the gate times steady-state
    // updates rather than the first solves.
    time_pushes(&hub, true);
    let unlabelled = time_pushes(&hub, false);
    let labelled = time_pushes(&hub, true);
    let ratio = labelled / unlabelled;
    let per_push = |secs: f64| secs * 1e9 / GATE_PUSHES as f64;
    println!(
        "stream-gate: labelled {:.0} ns vs unlabelled {:.0} ns per push: {ratio:.2}x (ceiling 10.00x)",
        per_push(labelled),
        per_push(unlabelled)
    );
    if ratio > 10.0 {
        eprintln!("stream-gate: FAIL — a labelled push costs more than 10x an unlabelled one");
        std::process::exit(1);
    }
}

criterion_group!(push_benches, bench_push);
criterion_group!(poll_benches, bench_poll);
criterion_group!(lifecycle_benches, bench_open_close);

fn main() {
    push_benches();
    poll_benches();
    lifecycle_benches();
    gate();
}
