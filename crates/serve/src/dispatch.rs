//! Request dispatch — the piece both transports share.
//!
//! A [`Dispatcher`] answers drained batches of request lines against the
//! process's one [`EnergyService`]. The threaded transport builds one
//! dispatcher per connection; the evented transport builds one per
//! event loop.

use crate::protocol::{
    err, health_row_fields, history_row_fields, ok_estimate_into, ok_stats, ok_stream_push_into,
    ok_stream_status, stream_status_fields, Command, HealthRow, HistoryRow, Request, RequestRef,
    Tier,
};
use crate::service::{BatchRequestRef, EnergyService};
use pmca_obs::{Histogram, Span};
use std::sync::Arc;
use std::time::Instant;

/// Per-command latency histograms, resolved once per dispatcher from
/// the service's metrics registry
/// (`pmca_serve_command_seconds{command=...}`).
struct CommandMetrics {
    estimate: Histogram,
    estimate_app: Histogram,
    train: Histogram,
    models: Histogram,
    stats: Histogram,
    metrics: Histogram,
    trace: Histogram,
    stream_open: Histogram,
    stream_push: Histogram,
    stream_poll: Histogram,
    stream_close: Histogram,
    stream_list: Histogram,
    health: Histogram,
    history: Histogram,
    /// Per-tier estimate latency (`pmca_serve_tier_seconds{tier=...}`),
    /// recorded alongside the per-command histograms so the two tiers'
    /// percentiles can be compared from one scrape.
    tier_f64: Histogram,
    tier_fixed: Histogram,
}

impl CommandMetrics {
    fn for_service(service: &EnergyService) -> Self {
        let registry = service.metrics_registry();
        let h = |command: &str| {
            registry.histogram("pmca_serve_command_seconds", &[("command", command)])
        };
        CommandMetrics {
            estimate: h("estimate"),
            estimate_app: h("estimate-app"),
            train: h("train"),
            models: h("models"),
            stats: h("stats"),
            metrics: h("metrics"),
            trace: h("trace"),
            stream_open: h("stream-open"),
            stream_push: h("stream-push"),
            stream_poll: h("stream-poll"),
            stream_close: h("stream-close"),
            stream_list: h("stream-list"),
            health: h("health"),
            history: h("history"),
            tier_f64: registry.histogram("pmca_serve_tier_seconds", &[("tier", "f64")]),
            tier_fixed: registry.histogram("pmca_serve_tier_seconds", &[("tier", "fixed")]),
        }
    }

    /// Histogram for one inference tier.
    fn of_tier(&self, tier: Tier) -> &Histogram {
        match tier {
            Tier::F64 => &self.tier_f64,
            Tier::Fixed => &self.tier_fixed,
        }
    }

    /// Histogram for one command (QUIT shares the stats bucket — it is
    /// a constant-time administrative reply either way).
    fn of(&self, command: Command) -> &Histogram {
        match command {
            Command::Estimate => &self.estimate,
            Command::EstimateApp => &self.estimate_app,
            Command::Train => &self.train,
            Command::Models => &self.models,
            Command::Metrics => &self.metrics,
            Command::Trace => &self.trace,
            Command::StreamOpen => &self.stream_open,
            Command::StreamPush => &self.stream_push,
            Command::StreamPoll => &self.stream_poll,
            Command::StreamClose => &self.stream_close,
            Command::StreamList => &self.stream_list,
            Command::Health => &self.health,
            Command::History => &self.history,
            Command::Stats | Command::Quit => &self.stats,
        }
    }
}

/// Answers request batches against the service. Cheap to build (a
/// handful of metric handle lookups), so each connection or event loop
/// carries its own.
pub(crate) struct Dispatcher {
    service: Arc<EnergyService>,
    metrics: CommandMetrics,
}

impl Dispatcher {
    pub(crate) fn new(service: Arc<EnergyService>) -> Dispatcher {
        let metrics = CommandMetrics::for_service(&service);
        Dispatcher { service, metrics }
    }

    /// Answer a drained batch of request lines in order, appending
    /// newline-terminated replies to `out`; returns whether the
    /// connection should close. Runs of ESTIMATE / ESTIMATE-APP
    /// requests go to one [`EnergyService::estimate_many_ref`] call
    /// with their names still borrowing the request lines; other
    /// commands flush the pending run first so observable order (e.g.
    /// STATS counters) is preserved.
    pub(crate) fn respond_batch(&self, lines: &[impl AsRef<str>], out: &mut String) -> bool {
        let mut pending: Vec<BatchRequestRef<'_>> = Vec::new();
        for line in lines {
            let request = match RequestRef::parse(line.as_ref()) {
                Ok(request) => request,
                Err(detail) => {
                    self.flush_pending(&mut pending, out);
                    push_line(out, &err(&detail.to_string()));
                    continue;
                }
            };
            match request {
                RequestRef::Estimate {
                    platform,
                    counts,
                    tier,
                } => pending.push(BatchRequestRef::Counts {
                    platform,
                    counts,
                    tier,
                }),
                RequestRef::EstimateApp {
                    platform,
                    app,
                    tier,
                } => pending.push(BatchRequestRef::App {
                    platform,
                    app,
                    tier,
                }),
                // Streaming hot path: answered inline from the hub, but
                // still ordered after any pending estimates so
                // interleaved clients see a consistent request order.
                RequestRef::StreamPush {
                    id,
                    window,
                    counts,
                    joules,
                } => {
                    self.flush_pending(&mut pending, out);
                    let _span = Span::enter(&self.metrics.stream_push);
                    match self.service.stream_push(id, window, &counts, joules) {
                        Ok(reply) => {
                            ok_stream_push_into(&reply, window, out);
                            out.push('\n');
                        }
                        Err(e) => push_line(out, &err(&e.to_string())),
                    }
                }
                RequestRef::StreamPoll { id } => {
                    self.flush_pending(&mut pending, out);
                    let _span = Span::enter(&self.metrics.stream_poll);
                    match self.service.stream_poll(id) {
                        Ok(status) => push_line(out, &ok_stream_status(&status)),
                        Err(e) => push_line(out, &err(&e.to_string())),
                    }
                }
                RequestRef::Owned(other) => {
                    self.flush_pending(&mut pending, out);
                    let (reply, quit) = self.respond(other);
                    push_line(out, &reply);
                    if quit {
                        return true;
                    }
                }
            }
        }
        self.flush_pending(&mut pending, out);
        false
    }

    /// Run the pending estimate batch as one submission, replies
    /// appended in request order.
    fn flush_pending(&self, pending: &mut Vec<BatchRequestRef<'_>>, out: &mut String) {
        if pending.is_empty() {
            return;
        }
        // Amortized per-request latency: the batch runs as one
        // submission, so each request is charged elapsed/n — the same
        // methodology the loadgen uses client-side, keeping server- and
        // client-side percentiles comparable under pipelining.
        let started = self.metrics.estimate.enabled().then(Instant::now);
        for result in self.service.estimate_many_ref(pending) {
            match result {
                Ok(estimate) => ok_estimate_into(&estimate, out),
                Err(e) => out.push_str(&err(&e.to_string())),
            }
            out.push('\n');
        }
        if let Some(started) = started {
            let share = started.elapsed() / u32::try_from(pending.len()).unwrap_or(u32::MAX);
            for request in pending.iter() {
                match request {
                    BatchRequestRef::Counts { .. } => self.metrics.estimate.record(share),
                    BatchRequestRef::App { .. } => self.metrics.estimate_app.record(share),
                }
                self.metrics.of_tier(request.tier()).record(share);
            }
        }
        pending.clear();
    }

    /// Answer one already-parsed cold request. Returns the full reply
    /// (possibly multi-line, for the counted listings) and whether the
    /// connection should close.
    fn respond(&self, request: Request) -> (String, bool) {
        let _span = Span::enter(self.metrics.of(request.command()));
        let service = &self.service;
        let reply = match request {
            // `RequestRef::parse` always borrows these verbs, so
            // `respond_batch` answers them before they could get here;
            // should one arrive owned, it takes the same borrowed path.
            request @ (Request::Estimate { .. }
            | Request::EstimateApp { .. }
            | Request::StreamPush { .. }
            | Request::StreamPoll { .. }) => {
                let mut reply = String::new();
                self.respond_batch(&[request.to_line()], &mut reply);
                reply.truncate(reply.trim_end().len());
                reply
            }
            Request::Train {
                platform,
                pmcs,
                apps,
            } => match service.train_online(&platform, &pmcs, &apps) {
                Ok(stored) => format!(
                    "OK platform={} family={} version={} rows={} residual-std={}",
                    stored.key.platform,
                    stored.key.family,
                    stored.version,
                    stored.training_rows,
                    stored.residual_std
                ),
                Err(e) => err(&e.to_string()),
            },
            Request::Models => counted(service.model_lines()),
            Request::Stats => ok_stats(&service.stats()),
            Request::Metrics => counted(service.metrics_lines()),
            Request::Trace { scope, limit } => counted(service.trace_lines(scope, limit)),
            Request::StreamOpen {
                id,
                app,
                platform,
                window,
            } => match service.stream_open(&id, &app, &platform, window) {
                Ok(capacity) => format!("OK stream={id} opened=1 capacity={capacity}"),
                Err(e) => err(&e.to_string()),
            },
            Request::StreamClose { id } => match service.stream_close(&id) {
                Ok(status) => format!(
                    "OK stream={id} closed=1 accepted={} retained={}",
                    status.accepted, status.retained
                ),
                Err(e) => err(&e.to_string()),
            },
            Request::StreamList => match service.stream_list() {
                Ok(statuses) => counted(statuses.iter().map(stream_status_fields).collect()),
                Err(e) => err(&e.to_string()),
            },
            Request::Health => {
                // Every HEALTH observation also advances the HISTORY
                // ring, so history cadence follows whoever is watching.
                service.record_history();
                let calibration = service
                    .health_calibration()
                    .into_iter()
                    .map(|snapshot| HealthRow::Calibration { snapshot });
                let additivity = service
                    .health_additivity()
                    .into_iter()
                    .map(|snapshot| HealthRow::Additivity { snapshot });
                counted(
                    calibration
                        .chain(additivity)
                        .map(|row| health_row_fields(&row))
                        .collect(),
                )
            }
            Request::History { limit } => {
                service.record_history();
                let mut lines = Vec::new();
                for snapshot in service.history_snapshots(limit.unwrap_or(usize::MAX)) {
                    for entry in snapshot.entries {
                        lines.push(history_row_fields(&HistoryRow {
                            seq: snapshot.seq,
                            metric: entry.metric,
                            value: entry.value,
                            delta: entry.delta,
                        }));
                    }
                }
                counted(lines)
            }
            Request::Quit => return ("OK bye=1".to_string(), true),
        };
        (reply, false)
    }
}

/// A counted listing reply: `OK count=<n>` followed by the lines.
fn counted(lines: Vec<String>) -> String {
    let mut reply = format!("OK count={}", lines.len());
    for line in lines {
        reply.push('\n');
        reply.push_str(&line);
    }
    reply
}

fn push_line(out: &mut String, reply: &str) {
    out.push_str(reply);
    out.push('\n');
}
