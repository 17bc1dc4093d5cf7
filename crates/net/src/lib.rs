//! Distributed tracker/worker diagnosis over TCP — the multi-PoP
//! deployment of the paper's network-wide subspace method, bitwise
//! identical to the in-process
//! [`ShardedEngine`](netanom_core::ShardedEngine) by construction.
//!
//! # Architecture
//!
//! One **tracker** owns the fitted model and the link partition; `K`
//! **workers** each own one shard, read their measurement stream
//! locally, and ship only `O(rows × r)` projection partials:
//!
//! ```text
//!   worker 0 ──┐ phase-A partials (u64-length-prefixed frames)
//!   worker 1 ──┼──► tracker: merge in shard order ── refit on cadence
//!   worker K-1 ┘ ◄── merged coefficients / model broadcasts
//! ```
//!
//! Determinism is structural, not statistical: workers run the same
//! [`SubspaceShard`](netanom_core::SubspaceShard) phase A/B the
//! in-process engine runs, the tracker merges with the same
//! [`merge_coeff_partials`](netanom_core::merge_coeff_partials) in the
//! same shard order, finalizes through the same
//! [`finalize_block`](netanom_core::finalize_block), and cuts rounds
//! and times refits with the same [`Cadence`](netanom_core::Cadence) —
//! so detections,
//! identifications, and refits match the in-process engine bit for
//! bit (pinned by `tests/distributed_parity.rs`).
//!
//! Failure handling is first-class: severed connections are
//! *classified* ([`FailureKind`] — clean EOF vs mid-frame cut vs
//! oversized frame vs timeout), failed workers get bounded
//! escalating rejoin windows, and a worker checkpoint
//! ([`Checkpoint`]) lets a killed process rejoin mid-stream without
//! warmup — still bitwise identical, because completed rounds replay
//! cached replies instead of recomputing
//! (`tests/fault_injection.rs`).
//!
//! # Example
//!
//! A two-worker loopback run, workers on threads:
//!
//! ```
//! use std::io::Cursor;
//! use std::thread;
//! use netanom_core::{DiagnoserConfig, RefitStrategy, SeparationPolicy, StreamConfig, SubspaceBackend};
//! use netanom_linalg::Matrix;
//! use netanom_net::{run_worker, Tracker, TrackerConfig, WorkerConfig};
//! use netanom_topology::{builtin, LinkPartition};
//! use netanom_traffic::io::{link_series_to_csv_string, CsvChunks};
//! use netanom_traffic::LinkSeries;
//!
//! let net = builtin::line(3);
//! let rm = &net.routing_matrix;
//! let m = rm.num_links();
//! let data = Matrix::from_fn(200, m, |t, l| {
//!     2e6 + 2e5 * (t as f64 * 0.04).sin() * ((l % 3) as f64 + 1.0)
//!         + ((t * m + l) % 97) as f64
//! });
//! let train_bins = 160;
//! let training = data.row_block(0, train_bins).unwrap();
//! let config = DiagnoserConfig {
//!     separation: SeparationPolicy::FixedCount(2),
//!     ..DiagnoserConfig::default()
//! };
//! let partition = LinkPartition::round_robin(m, 2).unwrap();
//! let backend =
//!     SubspaceBackend::fit_sharded(&training, rm, config, RefitStrategy::Incremental).unwrap();
//! let stream = StreamConfig::new(train_bins).strategy(RefitStrategy::Incremental);
//! let mut tracker = Tracker::bind(
//!     "127.0.0.1:0",
//!     backend,
//!     &partition,
//!     TrackerConfig::new(train_bins, stream),
//! )
//! .unwrap();
//! let addr = tracker.local_addr().unwrap().to_string();
//!
//! // Each worker reads its own copy of the measurement CSV.
//! let csv = link_series_to_csv_string(&LinkSeries::new(data), None);
//! let handles: Vec<_> = (0..2)
//!     .map(|shard| {
//!         let addr = addr.clone();
//!         let links = partition.group(shard).to_vec();
//!         let rows = CsvChunks::new(Cursor::new(csv.clone().into_bytes()), 36).unwrap();
//!         thread::spawn(move || {
//!             run_worker(&addr, rows, &links, &WorkerConfig::new(shard, 2, train_bins))
//!         })
//!     })
//!     .collect();
//!
//! let mut reports = Vec::new();
//! let summary = tracker.run(|block| reports.extend_from_slice(block)).unwrap();
//! for h in handles {
//!     h.join().unwrap().unwrap();
//! }
//! assert_eq!(summary.arrivals, 200 - train_bins);
//! assert_eq!(reports.len(), 200 - train_bins);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod frame;
pub mod tracker;
pub mod wire;
pub mod worker;

pub use checkpoint::{Checkpoint, RoundCache};
pub use error::{FailureKind, NetError, Result};
pub use frame::{read_frame, write_frame, FramedConn, DEFAULT_MAX_FRAME};
pub use tracker::{RejoinEvent, Tracker, TrackerConfig, TrackerSummary};
pub use wire::Message;
pub use worker::{run_worker, InjectedFault, WorkerConfig, WorkerSummary};

/// The measurement-row conversion under the worker's `CsvChunks` feed,
/// re-exported for the serve daemon's `obs` lines: `netanom-serve`
/// depends on `netanom-traffic` only for its tests, since a direct
/// dependency would change the ledger harness's `benchmark/Cargo.lock`.
pub use netanom_traffic::io::convert_fields;
