//! # netanom — network-wide traffic anomaly diagnosis
//!
//! A Rust implementation of the PCA **subspace method** from
//! *Lakhina, Crovella, Diot — "Diagnosing Network-Wide Traffic Anomalies"
//! (SIGCOMM 2004)*, together with every substrate needed to reproduce the
//! paper end to end: topologies and routing matrices, synthetic OD-flow
//! traffic with exact ground truth, temporal baseline detectors, and the
//! full evaluation harness.
//!
//! The method treats a week of per-link byte counts as points in `R^m`,
//! splits `R^m` into a low-dimensional **normal subspace** (the diurnal
//! and weekly structure shared by all links) and a residual **anomalous
//! subspace**, and then:
//!
//! 1. **detects** volume anomalies by thresholding the squared prediction
//!    error `‖ỹ‖²` with the Jackson–Mudholkar Q-statistic;
//! 2. **identifies** the responsible origin–destination flow as the one
//!    whose routing footprint best explains the residual;
//! 3. **quantifies** the anomalous bytes in that flow.
//!
//! # Quickstart
//!
//! ```
//! use netanom::core::{Diagnoser, DiagnoserConfig};
//! use netanom::traffic::datasets;
//!
//! // A canned dataset: network, link measurements, exact ground truth.
//! let ds = datasets::mini(7);
//!
//! // Fit the subspace model on the link matrix (the only input the
//! // method sees) and diagnose the whole week.
//! let diagnoser = Diagnoser::fit(
//!     ds.links.matrix(),
//!     &ds.network.routing_matrix,
//!     DiagnoserConfig::default(),
//! ).unwrap();
//!
//! for report in diagnoser.diagnose_anomalies(ds.links.matrix()).unwrap() {
//!     let id = report.identification.unwrap();
//!     println!(
//!         "bin {:>4}: flow {:>3} anomalous by {:+.2e} bytes",
//!         report.time, id.flow, report.estimated_bytes.unwrap(),
//!     );
//! }
//! ```
//!
//! # Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the subspace method: [`core::Pca`], [`core::SubspaceModel`], [`core::Diagnoser`], the [`core::stream`] ingestion engine, the [`core::shard`] link-partitioned engine, multi-flow extension, detectability bounds |
//! | [`topology`] | PoP graphs, shortest-path routing, routing matrices, link partitions ([`topology::LinkPartition`]); [`topology::builtin::abilene`] and friends |
//! | [`traffic`] | synthetic OD-flow generation, packet-sampling simulation, anomaly injection, the canned paper datasets |
//! | [`baselines`] | EWMA / Fourier / Holt-Winters / wavelet comparators and ground-truth extraction |
//! | [`serve`] | the persistent-daemon service core: the [`serve::Service`] session protocol, bounded ingest queues, and bitwise session checkpoints behind `netanom serve` |
//! | [`eval`] | metrics, injection sweeps, and drivers regenerating every table and figure of the paper |
//! | [`linalg`] | the dependency-free dense linear algebra underneath it all |
//!
//! See `DESIGN.md` for the full system inventory.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use netanom_baselines as baselines;
pub use netanom_core as core;
pub use netanom_eval as eval;
pub use netanom_linalg as linalg;
pub use netanom_serve as serve;
pub use netanom_topology as topology;
pub use netanom_traffic as traffic;
