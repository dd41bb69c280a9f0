//! Shard-aware request dispatch — the piece both transports share.
//!
//! A [`Dispatcher`] answers drained batches of request lines against a
//! [`ShardRouter`]: estimate and train verbs route by platform, the
//! `STREAM` family routes by stream id, and the global verbs (`MODELS`,
//! `STATS`, `STREAM LIST`, `TRACE`, `SHARDS`, `HEALTH`, `HISTORY`)
//! aggregate across every shard in slot order — `HEALTH` prepends
//! merged `shard=all` rows before the per-shard rows when more than one
//! shard reports. The threaded transport builds one dispatcher per
//! connection; the evented transport builds one per event loop.
//!
//! Single-shard routing is a fast path: every request lands on slot 0
//! and the aggregations reduce to the pre-sharding single-service
//! behavior, byte for byte.

use crate::engine::Estimate;
use crate::protocol::{
    err, health_row_fields, history_row_fields, ok_estimate_into, ok_stats, ok_stream_push_into,
    ok_stream_status, stream_status_fields, Command, HealthRow, HistoryRow, Request, RequestRef,
    Tier,
};
use crate::service::{BatchRequestRef, EnergyService, ServiceError, ServiceStats};
use crate::shard::ShardRouter;
use pmca_obs::{trace, AdditivitySnapshot, CalibrationSnapshot, Counter, Histogram, Span};
use std::sync::Arc;
use std::time::Instant;

/// Per-command latency histograms, resolved once per dispatcher from
/// the primary shard's metrics registry
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
    shards: Histogram,
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
            shards: h("shards"),
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
            Command::Shards => &self.shards,
            Command::Health => &self.health,
            Command::History => &self.history,
            Command::Stats | Command::Quit => &self.stats,
        }
    }
}

/// Answers request batches against a shard router. Cheap to build (a
/// handful of metric handle lookups), so each connection or event loop
/// carries its own.
pub(crate) struct Dispatcher {
    router: Arc<ShardRouter>,
    metrics: CommandMetrics,
    /// `pmca_serve_shard_requests_total{shard=...}`, one per slot.
    shard_requests: Vec<Counter>,
}

impl Dispatcher {
    pub(crate) fn new(router: Arc<ShardRouter>) -> Dispatcher {
        let primary = router.primary();
        let metrics = CommandMetrics::for_service(&primary);
        let registry = primary.metrics_registry();
        let shard_requests = (0..router.shard_count())
            .map(|index| {
                registry.counter(
                    "pmca_serve_shard_requests_total",
                    &[("shard", &index.to_string())],
                )
            })
            .collect();
        Dispatcher {
            router,
            metrics,
            shard_requests,
        }
    }

    /// Answer a drained batch of request lines in order, appending
    /// newline-terminated replies to `out`; returns whether the
    /// connection should close. Runs of ESTIMATE / ESTIMATE-APP
    /// requests group into per-shard
    /// [`EnergyService::estimate_many_ref`] submissions with their
    /// names still borrowing the request lines; other commands flush
    /// the pending run first so observable order (e.g. STATS counters)
    /// is preserved.
    pub(crate) fn respond_batch(&self, lines: &[impl AsRef<str>], out: &mut String) -> bool {
        let mut pending: Vec<(usize, BatchRequestRef<'_>)> = Vec::new();
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
                } => {
                    let shard = self.router.route_index(platform);
                    pending.push((
                        shard,
                        BatchRequestRef::Counts {
                            platform,
                            counts,
                            tier,
                        },
                    ));
                }
                RequestRef::EstimateApp {
                    platform,
                    app,
                    tier,
                } => {
                    let shard = self.router.route_index(platform);
                    pending.push((
                        shard,
                        BatchRequestRef::App {
                            platform,
                            app,
                            tier,
                        },
                    ));
                }
                // Streaming hot path: answered inline from the routed
                // shard's hub without touching the inference engine, but
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
                    let shard = self.router.route_index(id);
                    self.shard_requests[shard].inc();
                    match self
                        .router
                        .shard(shard)
                        .stream_push(id, window, &counts, joules)
                    {
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
                    let shard = self.router.route_index(id);
                    self.shard_requests[shard].inc();
                    match self.router.shard(shard).stream_poll(id) {
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

    /// Run the pending estimate batch: per-shard grouped submissions,
    /// replies appended in original request order.
    fn flush_pending(&self, pending: &mut Vec<(usize, BatchRequestRef<'_>)>, out: &mut String) {
        if pending.is_empty() {
            return;
        }
        // Amortized per-request latency: the batch runs as grouped
        // submissions, so each request is charged elapsed/n — the same
        // methodology the loadgen uses client-side, keeping server- and
        // client-side percentiles comparable under pipelining.
        let started = self.metrics.estimate.enabled().then(Instant::now);
        let total = pending.len();
        let shard_count = self.router.shard_count();
        // Group by shard, remembering each request's original position.
        let mut group_requests: Vec<Vec<BatchRequestRef<'_>>> = Vec::new();
        let mut group_positions: Vec<Vec<usize>> = Vec::new();
        group_requests.resize_with(shard_count, Vec::new);
        group_positions.resize_with(shard_count, Vec::new);
        for (position, (shard, request)) in pending.drain(..).enumerate() {
            group_positions[shard].push(position);
            group_requests[shard].push(request);
        }
        let mut results: Vec<Option<Result<Estimate, ServiceError>>> = Vec::new();
        results.resize_with(total, || None);
        for shard in 0..shard_count {
            if group_requests[shard].is_empty() {
                continue;
            }
            self.shard_requests[shard].add(group_requests[shard].len() as u64);
            let service = self.router.shard(shard);
            // Traces started inside the batch carry shard=<i>.
            let _scope = trace::shard_scope(shard);
            for (position, result) in group_positions[shard]
                .iter()
                .zip(service.estimate_many_ref(&group_requests[shard]))
            {
                results[*position] = Some(result);
            }
        }
        for result in results {
            match result.expect("every pending request was grouped") {
                Ok(estimate) => ok_estimate_into(&estimate, out),
                Err(e) => out.push_str(&err(&e.to_string())),
            }
            out.push('\n');
        }
        if let Some(started) = started {
            let share = started.elapsed() / u32::try_from(total.max(1)).unwrap_or(u32::MAX);
            for requests in &group_requests {
                for request in requests {
                    match request {
                        BatchRequestRef::Counts { .. } => self.metrics.estimate.record(share),
                        BatchRequestRef::App { .. } => self.metrics.estimate_app.record(share),
                    }
                    self.metrics.of_tier(request.tier()).record(share);
                }
            }
        }
    }

    /// Answer one already-parsed cold request. Returns the full reply
    /// (possibly multi-line, for the counted listings) and whether the
    /// connection should close.
    fn respond(&self, request: Request) -> (String, bool) {
        let _span = Span::enter(self.metrics.of(request.command()));
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
            } => {
                let result = {
                    let (service, _scope) = self.routed(&platform);
                    service.train_online(&platform, &pmcs, &apps)
                };
                match result {
                    Ok(stored) => format!(
                        "OK platform={} family={} version={} rows={} residual-std={}",
                        stored.key.platform,
                        stored.key.family,
                        stored.version,
                        stored.training_rows,
                        stored.residual_std
                    ),
                    Err(e) => err(&e.to_string()),
                }
            }
            Request::Models => {
                let mut lines = Vec::new();
                for shard in 0..self.router.shard_count() {
                    lines.extend(self.router.shard(shard).model_lines());
                }
                counted(lines)
            }
            Request::Stats => {
                let mut total = ServiceStats::default();
                for shard in 0..self.router.shard_count() {
                    let stats = self.router.shard(shard).stats();
                    total.served += stats.served;
                    total.errors += stats.errors;
                    total.cache_hits += stats.cache_hits;
                    total.cache_misses += stats.cache_misses;
                    total.cache_evictions += stats.cache_evictions;
                    total.cache_entries += stats.cache_entries;
                    total.models += stats.models;
                    total.streams += stats.streams;
                    total.stream_refits += stats.stream_refits;
                    total.stream_drift_refits += stats.stream_drift_refits;
                }
                ok_stats(&total)
            }
            // One metrics registry is shared by every shard, so the
            // primary's exposition is already fleet-wide.
            Request::Metrics => counted(self.router.primary().metrics_lines()),
            Request::Trace { scope, limit } => {
                let mut lines = Vec::new();
                for shard in 0..self.router.shard_count() {
                    lines.extend(self.router.shard(shard).trace_lines(scope, limit));
                }
                counted(lines)
            }
            Request::StreamOpen {
                id,
                app,
                platform,
                window,
            } => {
                let result = {
                    let (service, _scope) = self.routed(&id);
                    service.stream_open(&id, &app, &platform, window)
                };
                match result {
                    Ok(capacity) => format!("OK stream={id} opened=1 capacity={capacity}"),
                    Err(e) => err(&e.to_string()),
                }
            }
            Request::StreamClose { id } => {
                let result = {
                    let (service, _scope) = self.routed(&id);
                    service.stream_close(&id)
                };
                match result {
                    Ok(status) => format!(
                        "OK stream={id} closed=1 accepted={} retained={}",
                        status.accepted, status.retained
                    ),
                    Err(e) => err(&e.to_string()),
                }
            }
            Request::StreamList => {
                let mut statuses = Vec::new();
                let mut failed = None;
                for shard in 0..self.router.shard_count() {
                    match self.router.shard(shard).stream_list() {
                        Ok(list) => statuses.extend(list),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                match failed {
                    Some(e) => err(&e.to_string()),
                    None => counted(statuses.iter().map(stream_status_fields).collect()),
                }
            }
            Request::Shards => counted(self.router.shard_lines()),
            Request::Health => {
                // Every HEALTH observation also advances the HISTORY
                // ring, so history cadence follows whoever is watching.
                self.router.primary().record_history();
                counted(self.health_lines())
            }
            Request::History { limit } => {
                let primary = self.router.primary();
                primary.record_history();
                let mut lines = Vec::new();
                for snapshot in primary.history_snapshots(limit.unwrap_or(usize::MAX)) {
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

    /// The HEALTH listing: per-shard calibration and additivity rows
    /// labelled `shard=<i>`, preceded by merged `shard=all` rows when
    /// more than one shard reports.
    fn health_lines(&self) -> Vec<String> {
        let shard_count = self.router.shard_count();
        let mut calibration: Vec<(usize, CalibrationSnapshot)> = Vec::new();
        let mut additivity: Vec<(usize, AdditivitySnapshot)> = Vec::new();
        for shard in 0..shard_count {
            let service = self.router.shard(shard);
            calibration.extend(
                service
                    .health_calibration()
                    .into_iter()
                    .map(|row| (shard, row)),
            );
            additivity.extend(
                service
                    .health_additivity()
                    .into_iter()
                    .map(|row| (shard, row)),
            );
        }
        let mut lines = Vec::new();
        if shard_count > 1 {
            for snapshot in merge_calibration(&calibration) {
                lines.push(health_row_fields(&HealthRow::Calibration {
                    shard: None,
                    snapshot,
                }));
            }
            for snapshot in merge_additivity(&additivity) {
                lines.push(health_row_fields(&HealthRow::Additivity {
                    shard: None,
                    snapshot,
                }));
            }
        }
        for (shard, snapshot) in calibration {
            lines.push(health_row_fields(&HealthRow::Calibration {
                shard: Some(shard),
                snapshot,
            }));
        }
        for (shard, snapshot) in additivity {
            lines.push(health_row_fields(&HealthRow::Additivity {
                shard: Some(shard),
                snapshot,
            }));
        }
        lines
    }

    /// The shard service for one routed request, with its request
    /// counter bumped and the trace shard scope held — any trace the
    /// service starts while the guard lives is attributed `shard=<i>`.
    fn routed(&self, key: &str) -> (Arc<EnergyService>, trace::ShardScope) {
        let shard = self.router.route_index(key);
        self.shard_requests[shard].inc();
        (self.router.shard(shard), trace::shard_scope(shard))
    }
}

/// Merge per-shard calibration rows into one `shard=all` row per
/// platform: samples-weighted MAE/MPE/coverage, the worst drift scores
/// and state, the newest version.
fn merge_calibration(rows: &[(usize, CalibrationSnapshot)]) -> Vec<CalibrationSnapshot> {
    let mut merged: Vec<CalibrationSnapshot> = Vec::new();
    for (_, row) in rows {
        match merged.iter_mut().find(|m| m.platform == row.platform) {
            Some(m) => {
                let (a, b) = (m.samples as f64, row.samples as f64);
                let total = (a + b).max(1.0);
                m.mae = (m.mae * a + row.mae * b) / total;
                m.mpe = (m.mpe * a + row.mpe * b) / total;
                let (ca, cb) = (m.covered_samples as f64, row.covered_samples as f64);
                let covered_total = ca + cb;
                m.coverage = if covered_total > 0.0 {
                    (m.coverage * ca + row.coverage * cb) / covered_total
                } else {
                    0.0
                };
                m.samples += row.samples;
                m.covered_samples += row.covered_samples;
                m.version = m.version.max(row.version);
                m.cusum = m.cusum.max(row.cusum);
                m.page_hinkley = m.page_hinkley.max(row.page_hinkley);
                // HealthState orders worst-last, so max is "any shard
                // drifting means the merged view drifts".
                m.state = m.state.max(row.state);
            }
            None => merged.push(row.clone()),
        }
    }
    merged
}

/// Merge per-shard additivity rows into one `shard=all` row per
/// `(platform, counter)`: checks and violations sum, the rate is
/// recomputed over the sums, the worst error wins.
fn merge_additivity(rows: &[(usize, AdditivitySnapshot)]) -> Vec<AdditivitySnapshot> {
    let mut merged: Vec<AdditivitySnapshot> = Vec::new();
    for (_, row) in rows {
        match merged
            .iter_mut()
            .find(|m| m.platform == row.platform && m.counter == row.counter)
        {
            Some(m) => {
                m.checks += row.checks;
                m.violations += row.violations;
                m.rate = if m.checks > 0 {
                    m.violations as f64 / m.checks as f64
                } else {
                    0.0
                };
                m.worst_error_pct = m.worst_error_pct.max(row.worst_error_pct);
            }
            None => merged.push(row.clone()),
        }
    }
    merged
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
