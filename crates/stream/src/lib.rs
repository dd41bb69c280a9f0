//! Streaming telemetry ingestion with online model updates.
//!
//! A fleet node that deployed one of the paper's single-run online models
//! does not stop producing data after deployment: its monitoring agent
//! keeps emitting windowed PMC counts, and nodes that sit next to a power
//! meter also emit the measured dynamic energy of each window. This crate
//! is the ingestion side of that loop:
//!
//! * [`WindowState`] — the per-stream sliding-window state machine. Each
//!   pushed window carries a producer-assigned id; the state machine keeps
//!   the most recent `capacity` windows sorted by id, absorbing
//!   out-of-order arrivals, rejecting duplicates, and dropping windows
//!   older than everything the full ring retains.
//! * [`StreamHub`] — the shared registry of open streams the TCP server
//!   talks to. Streams are sharded across mutexes so pushes on different
//!   streams do not contend; estimates are served from an immutable
//!   [`ModelSnapshot`] behind an `RwLock`, so a poll never waits on a
//!   model update.
//! * The online-update layer: every *labelled* window (one that carries
//!   measured joules) feeds a [`pmca_mlkit::RecursiveLeastSquares`] model
//!   whose refreshed coefficients are published as a new snapshot
//!   immediately. Every [`PUBLISH_EVERY`]-th labelled window, and whenever
//!   the health plane moves the platform into drifting (which first refits
//!   the model from the windows labelled since it left `ok`), the snapshot
//!   also goes to the serving registry through an installed
//!   [`PublishFn`], so `ESTIMATE` answers from the stream-learned model.
//!
//! Windows are one-second telemetry intervals by convention, so a
//! predicted joules-per-window is numerically a power in watts; the hub's
//! [`StreamStatus`] reports both, plus a 95% prediction half-width from
//! the same Student-t interval the serving engine uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hub;
pub mod window;

pub use hub::{
    ModelSnapshot, PublishFn, PushReply, StreamError, StreamHub, StreamHubConfig, StreamStatus,
    PUBLISH_EVERY,
};
pub use window::{synthetic_window, PushOutcome, WindowSample, WindowState, SYNTH_COEFFICIENTS};
