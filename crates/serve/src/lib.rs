//! A persistent diagnosis daemon on a reusable session/service core.
//!
//! `netanom serve` turns the one-shot diagnosis pipeline into a
//! long-running engine behind a newline-framed request/response
//! protocol — the UCI/TEI pattern from chess and theorem-proving
//! engines: a client opens named *sessions* (each a full engine
//! configuration: method × refit strategy × window × cadence), feeds
//! interleaved measurement rows, and receives `alarm` events as they
//! fire, with `checkpoint`/`restore` for crash recovery and a `stats`
//! verb for observability.
//!
//! The crate is layered so every piece is testable without a socket:
//!
//! - [`protocol`] — the line grammar ([`protocol::parse_line`]), the
//!   typed error codes ([`protocol::ErrorCode`]), and the alarm CSV
//!   payload shared byte-for-byte with `netanom stream`.
//! - [`session`] — one tenant's lifecycle: bounded ingest queue with
//!   backpressure, training-to-streaming phase machine, and bitwise
//!   checkpoint/restore.
//! - [`service`] — the transport-independent dispatcher mapping request
//!   lines onto sessions.
//! - [`checkpoint`] — the `NASC` on-disk session image.
//! - [`transport`] — stdio and TCP line pumps around the same
//!   [`Service`].
//!
//! # Protocol sketch
//!
//! ```text
//! > open s1 dim=4 train-bins=64 method=subspace refit=incremental refit-every=32
//! < ok open s1 phase=training queue=4096
//! > obs s1 12.0,9.5,3.2,7.7
//! < ok obs s1 queued=0 phase=training
//! …64 rows later…
//! < fit s1 method=subspace normal-dim=2 threshold=1.234567e2
//! > obs s1 900.0,880.5,3.1,7.6
//! < alarm s1 65,2.5e3,1.2e2,0,9.1e2,0.9713
//! < ok obs s1 queued=0 phase=streaming
//! > stats
//! < stat s1 phase=streaming arrivals=65 arrivals-per-sec=15302.1 …
//! < ok stats sessions=1
//! ```
//!
//! Single-session replays are byte-identical to `netanom stream` on the
//! same rows — the daemon is the same engine behind a different door.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod protocol;
pub mod service;
pub mod session;
pub mod transport;

pub use checkpoint::SessionCheckpoint;
pub use protocol::{alarm_csv_row, parse_line, ErrorCode, Request, ServeError};
pub use service::{Response, Service};
pub use session::{DrainOutcome, Event, Session, SessionConfig, DEFAULT_QUEUE_CAPACITY};
pub use transport::{serve_lines, serve_tcp, TcpServeOptions};
