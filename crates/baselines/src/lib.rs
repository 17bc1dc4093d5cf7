//! Temporal baseline detectors and ground-truth extraction.
//!
//! The paper validates the subspace method against "true" anomalies
//! extracted from OD-flow data by two *temporal* methods — exponentially
//! weighted moving averages ([`Ewma`]) and an eight-period Fourier model
//! ([`FourierModel`]) — and contrasts the subspace method against the same
//! temporal filters applied per link (Figure 10). This crate implements
//! those methods, plus two related-work comparators used in the methods
//! head-to-head ([`HoltWinters`] and a causal Haar-pyramid predictor, the
//! `wavelet` method).
//!
//! Contents:
//!
//! * [`Ewma`] — exponential smoothing with the paper's bidirectional
//!   minimum-spike estimator (footnote 4) and multi-grid α search.
//! * [`FourierModel`] — least-squares fit on the paper's basis periods
//!   (7 d, 5 d, 3 d, 24 h, 12 h, 6 h, 3 h, 1.5 h).
//! * [`HoltWinters`] — additive seasonal forecasting (referenced via
//!   Brutlag \[5\]).
//! * [`ground_truth`] — the Section 6.2 procedure: run a temporal method
//!   over every OD flow, rank spike sizes, find the knee, emit the set of
//!   "true" anomalies.
//! * [`link_residual`] — per-link temporal filtering of the measurement
//!   matrix for the Figure 10 comparison.
//! * [`methods`] — every temporal comparator as a pluggable
//!   [`DetectionBackend`](netanom_core::DetectionBackend) (streaming
//!   `step` ports per link, residual-energy scoring; the `wavelet`
//!   method is a causal Haar pyramid in the spirit of Barford et al.
//!   \[2\]), plus the by-name registry and the
//!   [`MethodBackend`](methods::MethodBackend) enum that runs any
//!   registered method through the streaming engine.
//!
//! # Example
//!
//! The EWMA forecaster with the paper's bidirectional spike estimator
//! (footnote 4): a spike's size is recovered, and the bin after it is
//! not marked as a second spike.
//!
//! ```
//! use netanom_baselines::Ewma;
//!
//! let mut series = vec![100.0; 32];
//! series[16] += 50.0; // a one-bin spike
//! let sizes = Ewma::new(0.25).bidirectional_spike_sizes(&series);
//! assert!(sizes[16] > 40.0);           // the spike is seen...
//! assert!(sizes[17] < sizes[16] / 4.0); // ...and not echoed after
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod ewma;
mod fourier;
pub mod ground_truth;
mod holt_winters;
pub mod knee;
pub mod link_residual;
pub mod methods;

pub use ewma::{Ewma, EwmaStream};
pub use fourier::{FourierModel, FourierStream};
pub use ground_truth::{extract_true_anomalies, ExtractedAnomaly, TruthMethod};
pub use holt_winters::{HoltWinters, HoltWintersStream};
