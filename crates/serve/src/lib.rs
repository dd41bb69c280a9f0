//! Online energy-estimation serving for the SLOPE-PMC reproduction.
//!
//! The paper's Class C result is a *deployable* model: ≤ 4 PMCs that fit
//! one run of the PMU, so dynamic energy can be estimated live. This
//! crate turns that into a serving subsystem:
//!
//! - [`registry`] — a versioned store of trained model artifacts keyed by
//!   (platform, PMC set, model family), persisted as plain text under
//!   `results/registry/`;
//! - [`engine`] — answers "PMC vector → dynamic energy (J) ± 95 %
//!   prediction interval" requests on the calling thread, on an f64 or a
//!   fixed-point tier;
//! - [`cache`] — a memo of simulator collection runs keyed by
//!   (application fingerprint, platform, seed, event set), with hit/miss
//!   counters;
//! - [`service`] — the façade combining the above with the simulated
//!   platforms (training, counter-level and app-level estimation);
//! - [`protocol`] / [`server`] / [`client`] — a line protocol over
//!   `std::net::TcpListener` (`ESTIMATE`, `ESTIMATE-APP`, `TRAIN`,
//!   `MODELS`, `STATS`, `METRICS`, `TRACE`, `HEALTH`, `HISTORY`, the
//!   `STREAM` family, `QUIT`) plus a blocking client;
//! - streaming ingestion from the sibling `pmca-stream` crate — clients
//!   `STREAM OPEN` a telemetry stream, `STREAM PUSH` one-second windows
//!   of PMC counts (optionally labelled with measured joules), and
//!   `STREAM POLL` live energy/power estimates with 95 % prediction
//!   intervals; labelled windows refit the online linear model via
//!   recursive least squares, which the hub publishes into the
//!   versioned registry every 256 labels and on entering drifting, so
//!   `ESTIMATE` answers from the stream-learned coefficients.
//!
//! Everything is `std`-only — threads and channels, no external runtime.
//! Observability comes from the sibling `pmca-obs` crate: aggregate
//! metrics (latency histograms, hit/miss/error counters) exposed via the
//! `METRICS` command, and per-request traces — registry lookup, cache
//! lookup, model compute, and substrate simulation attributed to each
//! request — retained in a flight recorder and dumped as JSONL via the
//! `TRACE` command. Build with
//! [`ServiceConfig::metrics(false)`](service::ServiceConfig::metrics) /
//! [`ServiceConfig::tracing(false)`](service::ServiceConfig::tracing)
//! to run with inert instruments.
//!
//! # Examples
//!
//! ```
//! use pmca_serve::{ServiceConfig, Server, Client};
//! use std::sync::Arc;
//!
//! let service = Arc::new(
//!     ServiceConfig::default()
//!         .cache_capacity(64)
//!         .seed(42)
//!         .build()
//!         .unwrap(),
//! );
//! let pmcs: Vec<String> = ["UOPS_EXECUTED_CORE", "FP_ARITH_INST_RETIRED_DOUBLE"]
//!     .iter().map(|s| s.to_string()).collect();
//! let apps: Vec<String> =
//!     (0..8).map(|i| format!("dgemm:{}", 8_000 + 2_000 * i)).collect();
//! service.train_online("skylake", &pmcs, &apps).unwrap();
//!
//! let server = Server::start(service, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let estimate = client.estimate_app("skylake", "dgemm:11000").unwrap();
//! assert!(estimate.joules > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod dispatch;
pub mod engine;
mod evented;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;
mod shard;
pub mod store;

pub use cache::{RunCache, RunKey};
pub use client::{Client, ClientError, Response};
pub use engine::{EngineError, Estimate, InferenceEngine};
pub use pmca_obs::{AdditivitySnapshot, CalibrationSnapshot, HealthState, HistorySnapshot, Trace};
pub use pmca_stream::{ModelSnapshot, PushReply, StreamHub, StreamHubConfig, StreamStatus};
pub use protocol::{
    Command, HealthRow, HistoryRow, ProtocolError, Request, RequestRef, Tier, TraceScope,
    STREAM_PUSH_COUNTS,
};
pub use registry::{ModelKey, Registry, RegistryError, StoredModel};
pub use server::Server;
pub use service::{
    BatchRequestRef, EnergyService, ServiceConfig, ServiceError, ServiceStats, Transport,
};
pub use shard::ShardRouter;
pub use store::{FileStore, MemoryStore, ModelStore, RegistrySnapshot};
