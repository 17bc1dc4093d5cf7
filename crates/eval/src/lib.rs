//! Validation metrics, injection sweeps, and the drivers that regenerate
//! every table and figure of the paper's evaluation (Section 6).
//!
//! * [`metrics`] — the paper's four success measures: detection rate,
//!   false-alarm rate, identification rate, and mean absolute relative
//!   quantification error.
//! * [`injection`] — the Section 6.3 harness: inject a spike of a given
//!   size into every OD flow at every timestep of a day, diagnose each
//!   injection, and aggregate rates per flow and per time (parallelized
//!   with scoped threads).
//! * [`report`] — ASCII tables/charts and CSV output.
//! * [`experiments`] — one module per table/figure (see DESIGN.md's
//!   experiment index). Each produces an [`experiments::ExperimentOutput`]
//!   with a printable rendering and CSV files.
//! * [`lab`] — the shared experiment context (the three canned datasets,
//!   loaded once).
//! * [`streaming`] — the streaming-deployment scenario: detection
//!   latency and arrivals/sec of the streaming engine across refit
//!   cadences and refit strategies.
//! * [`sharded`] — the sharded-deployment scenario: merge overhead and
//!   arrivals/sec of the link-partitioned engine across shard counts
//!   `K ∈ {1, 2, 4, 8}` (experiment id `sharded`).
//! * [`methods`] — the pluggable-backends head-to-head: every
//!   registered detection method (subspace + the per-link temporal
//!   comparators) through the same streaming engine over the same
//!   contaminated stream, reporting detection quality vs. the staged
//!   ground truth and arrivals/sec per backend (experiment id
//!   `methods`).
//! * [`scale`] — the large-topology scenario: synthetic networks at
//!   several link counts, streamed under dense vs truncated
//!   refits — throughput, refit latency, and ground-truth detection
//!   quality vs `m` (experiment id `scale`, JSONL report for CI).
//!
//! The CLI is the one front end to the registry: `netanom eval all`
//! runs everything and writes results under `target/paper/`, and
//! `netanom eval --list` enumerates the ids.
//!
//! # Example
//!
//! Every experiment id dispatches through one registry, so drivers can
//! be enumerated and rendered uniformly:
//!
//! ```
//! use netanom_eval::{experiments::EXPERIMENT_IDS, report};
//!
//! assert!(EXPERIMENT_IDS.contains(&"streaming"));
//! assert!(EXPERIMENT_IDS.contains(&"sharded"));
//! let table = report::ascii_table(
//!     &["id"],
//!     &EXPERIMENT_IDS[..2]
//!         .iter()
//!         .map(|id| vec![id.to_string()])
//!         .collect::<Vec<_>>(),
//! );
//! assert!(table.contains("table1"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod injection;
pub mod lab;
pub mod methods;
pub mod metrics;
pub mod report;
pub mod scale;
mod scenario;
pub mod serve;
pub mod sharded;
pub mod streaming;
