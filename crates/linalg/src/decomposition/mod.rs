//! Matrix decompositions.
//!
//! Four decompositions cover everything the subspace method and its
//! baselines need:
//!
//! * [`SymmetricEigen`] — eigendecomposition of a symmetric matrix by
//!   Householder tridiagonalisation and the implicit-shift QL iteration. The paper computes principal components by "solving the
//!   symmetric eigenvalue problem for the covariance matrix"; this is that
//!   solver.
//! * [`Qr`] — Householder QR with a least-squares solver, used to fit the
//!   Fourier baseline's basis functions.
//! * [`Cholesky`] — SPD factorization used by the multi-flow identification
//!   extension (Section 7.2) for its small normal-equation solves.
//! * [`TruncatedEigen`] — the top-k eigenpairs only, by blocked subspace
//!   iteration with deflation: the `O(m²k)`-per-sweep refit route the
//!   streaming engines use at large link counts, where a full dense
//!   solve is wasteful (the subspace method keeps `k ≈ 4` axes of `m`).
//!
//! The one-sided Jacobi SVD — the alternative PCA route the paper
//! mentions ("the standard procedure for this relies on computing the
//! SVD") — is a test oracle, not part of the library: it lives in
//! `tests/support/svd.rs` beside the cyclic Jacobi eigen-solver oracle.

mod cholesky;
mod jacobi;
mod qr;
mod tridiagonal;
mod truncated;

// The SVD oracle's unit tests run with this crate's own.
#[cfg(test)]
#[path = "../../tests/support/svd_tests.rs"]
mod svd;

pub use cholesky::Cholesky;
pub use jacobi::{LeadingEigen, SymmetricEigen};
pub use qr::Qr;
pub use truncated::{power_traces, TruncatedEigen};
