//! The PCA subspace method for diagnosing network-wide traffic anomalies.
//!
//! This crate implements the contribution of *Lakhina, Crovella, Diot —
//! "Diagnosing Network-Wide Traffic Anomalies" (SIGCOMM 2004)*: treat the
//! ensemble of link measurements as points in `R^m`, split `R^m` into a
//! **normal subspace** `S` (spanned by the top principal components, which
//! capture the diurnal/weekly structure shared by all links) and an
//! **anomalous subspace** `S̃`, and diagnose volume anomalies in three
//! steps:
//!
//! 1. **Detection** ([`Detector`]) — project each measurement vector onto
//!    `S̃`; flag timesteps whose squared prediction error
//!    `SPE = ‖ỹ‖²` exceeds the Jackson–Mudholkar Q-statistic threshold
//!    [`qstat::q_threshold`] at a chosen confidence level.
//! 2. **Identification** ([`Identifier`]) — find the OD flow whose routing
//!    direction best explains the residual: minimize `‖C̃(y − θᵢ f̂ᵢ)‖`
//!    over candidate flows `i` (paper Equation 1).
//! 3. **Quantification** ([`quantify`]) — convert the per-link anomalous
//!    traffic back to flow bytes with the unit-sum routing weights `Āᵢ`.
//!
//! [`Diagnoser`] bundles the three steps. The online path is the
//! [`stream`] module: [`StreamingEngine`] diagnoses each arrival against
//! a frozen model in `O(m·r)` (Section 7.1) from a flat ring-buffer
//! window, refitting periodically either with a full fit or from the
//! [`incremental`] sufficient statistics (`O(m²)` per arrival plus one
//! dense symmetric eigen-solve per refit, independent of the window length).
//! The detection method itself is a pluggable
//! backend ([`method`]): the streaming engine is generic over a
//! [`DetectionBackend`] (default: the [`SubspaceBackend`] reference
//! implementation, bitwise the historical behavior), so the temporal
//! comparators in `netanom-baselines` stream through the identical
//! machinery. The [`shard`] module scales the subspace method — the one
//! method whose state spans every link — across link partitions:
//! [`ShardedEngine`] runs one ingestion worker per shard and merges the
//! per-shard sufficient statistics ([`incremental::CovarianceShard`])
//! back into the global model, bitwise. [`multiflow`]
//! implements the Section 7.2
//! extension to anomalies spanning several OD flows; [`timescale`]
//! implements the Section 7.3 multi-timescale extension; and
//! [`detectability`] computes the Section 5.4 per-flow detectability
//! floor.
//!
//! # Example
//!
//! ```
//! use netanom_core::{Diagnoser, DiagnoserConfig};
//! use netanom_traffic::datasets;
//!
//! let ds = datasets::mini(42);
//! let diagnoser = Diagnoser::fit(
//!     ds.links.matrix(),
//!     &ds.network.routing_matrix,
//!     DiagnoserConfig::default(),
//! ).unwrap();
//! let reports = diagnoser.diagnose_series(ds.links.matrix()).unwrap();
//! let detected = reports.iter().filter(|r| r.detected).count();
//! assert!(detected < reports.len()); // most bins are normal
//! ```

#![deny(missing_docs)]
// Indexed loops in numerical kernels mirror the published algorithms;
// iterator chains would obscure the math without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

// The test oracles under `tests/support/` name this crate by its package
// name, also when this crate's own unit tests compile them.
#[cfg(test)]
extern crate self as netanom_core;

pub mod cadence;
pub mod codec;
pub mod detectability;
mod diagnose;
mod error;
mod identify;
pub mod incremental;
pub mod method;
pub mod multiflow;
mod pca;
pub mod qstat;
mod separation;
pub mod service;
pub mod shard;
pub mod stream;
mod subspace;
pub mod timescale;

pub use cadence::Cadence;
pub use diagnose::{quantify, Diagnoser, DiagnoserConfig, DiagnosisReport};
pub use error::CoreError;
pub use identify::{Identification, Identifier};
pub use method::{
    merge_coeff_partials, subspace_model_from_state, DetectionBackend, MethodState, ShardScores,
    SubspaceBackend, SubspacePartial, SubspaceShard,
};
pub use pca::{Pca, PcaMethod};
pub use separation::SeparationPolicy;
pub use service::{EngineConfig, PartitionSpec};
pub use shard::{assemble_columns, finalize_block, ShardedEngine};
pub use stream::{RefitStrategy, RingWindow, StreamConfig, StreamingEngine};
pub use subspace::{Detection, Detector, SubspaceModel};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
