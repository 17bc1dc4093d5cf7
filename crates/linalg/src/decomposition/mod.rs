//! Matrix decompositions.
//!
//! Five decompositions cover everything the subspace method and its
//! baselines need:
//!
//! * [`SymmetricEigen`] — eigendecomposition of a symmetric matrix by
//!   Householder tridiagonalisation and the implicit-shift QL iteration. The paper computes principal components by "solving the
//!   symmetric eigenvalue problem for the covariance matrix"; this is that
//!   solver.
//! * [`Svd`] — thin singular value decomposition via one-sided Jacobi
//!   (Hestenes) rotations, the alternative PCA route the paper mentions
//!   ("the standard procedure for this relies on computing the SVD").
//! * [`Qr`] — Householder QR with a least-squares solver, used to fit the
//!   Fourier baseline's basis functions.
//! * [`Cholesky`] — SPD factorization used by the multi-flow identification
//!   extension (Section 7.2) for its small normal-equation solves.
//! * [`TruncatedEigen`] — the top-k eigenpairs only, by blocked subspace
//!   iteration with deflation: the `O(m²k)`-per-sweep refit route the
//!   streaming engines use at large link counts, where a full dense
//!   solve is wasteful (the subspace method keeps `k ≈ 4` axes of `m`).

mod cholesky;
mod jacobi;
mod qr;
mod svd;
mod tridiagonal;
mod truncated;

pub use cholesky::Cholesky;
pub use jacobi::SymmetricEigen;
pub use qr::{least_squares, Qr};
pub use svd::Svd;
pub use truncated::{power_traces, TruncatedEigen};
