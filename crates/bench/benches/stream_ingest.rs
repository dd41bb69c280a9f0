//! Streaming-ingestion microbenches for the `pmca-stream` hub (PR 6).
//!
//! Measures the hub itself, with the TCP layer peeled off, so the
//! numbers isolate the per-window state-machine cost:
//!
//! - `push_unlabelled` — the pure hot path: ring insert + estimate
//!   refresh against the current model snapshot, no learning;
//! - `push_labelled` — the same plus the O(k²) recursive least-squares
//!   update on the online linear model (no publish hook is installed,
//!   so every 256th window's publication only bumps a counter);
//! - `poll` — status snapshot of a warm stream, the read the serving
//!   layer performs per `STREAM POLL`;
//! - `open_close` — stream lifecycle churn: shard insert, state
//!   allocation, and teardown.

use criterion::{criterion_group, criterion_main, Criterion};
use pmca_stream::{synthetic_window, StreamHub, StreamHubConfig};
use std::hint::black_box;

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

criterion_group!(push_benches, bench_push);
criterion_group!(poll_benches, bench_poll);
criterion_group!(lifecycle_benches, bench_open_close);
criterion_main!(push_benches, poll_benches, lifecycle_benches);
