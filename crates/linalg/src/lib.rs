//! Dense linear algebra and statistics substrate for the `netanom` workspace.
//!
//! The PCA subspace method of Lakhina et al. operates on small dense
//! matrices: a week of 10-minute link measurements is a 1008 × 49 matrix at
//! most, and every decomposition the method needs (symmetric
//! eigendecomposition of the covariance, least squares for the Fourier
//! baseline) is comfortably in the regime where
//! the textbook dense algorithms are both simple and numerically excellent.
//!
//! This crate is dependency-free and provides:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the operations the
//!   workspace needs (products, transposes, column statistics,
//!   mean-centering, norms).
//! * [`kernel`] — the packed, cache-blocked GEMM layer every matrix
//!   product routes through: panel packing, a register-blocked
//!   micro-kernel, and naive reference kernels the packed path is pinned
//!   against (bitwise — see the module docs for the accumulation-order
//!   contract).
//! * [`vector`] — free functions over `&[f64]` slices (dot products, norms,
//!   elementwise arithmetic) so that callers can stay allocation-light.
//! * [`decomposition`] — tridiagonal-QL symmetric eigendecomposition,
//!   truncated top-k eigenpairs, Householder QR with least-squares
//!   solving, and Cholesky factorization.
//! * [`stats`] — descriptive statistics, histograms, and the standard normal
//!   CDF / inverse CDF needed by the Jackson–Mudholkar Q-statistic.
//!
//! # Conventions
//!
//! * Matrices are row-major; `a[(i, j)]` is row `i`, column `j`.
//! * All decompositions return results ordered by decreasing
//!   eigen/singular value.
//! * Fallible operations return [`LinalgError`] rather than panicking,
//!   except for indexing (which panics like slice indexing does).
//!
//! # Example
//!
//! ```
//! use netanom_linalg::{Matrix, decomposition::SymmetricEigen};
//!
//! // Covariance-style PCA on a tiny data matrix.
//! let data = Matrix::from_rows(&[
//!     vec![2.0, 0.1],
//!     vec![-2.0, -0.1],
//!     vec![1.9, 0.0],
//!     vec![-1.9, 0.0],
//! ]);
//! let centered = data.mean_centered_columns().0;
//! let cov = centered.gram().scaled(1.0 / (data.rows() as f64 - 1.0));
//! let eig = SymmetricEigen::new(&cov).unwrap();
//! assert!(eig.eigenvalues[0] > eig.eigenvalues[1]);
//! ```

#![deny(missing_docs)]
// Indexed loops in numerical kernels mirror the published algorithms;
// iterator chains would obscure the math without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
// Library code answers a typed error instead of panicking; the few
// `expect`s left each name the invariant that makes them unreachable.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

// The test oracles under `tests/support/` name this crate by its package
// name, also when this crate's own unit tests compile them.
#[cfg(test)]
extern crate self as netanom_linalg;

pub mod decomposition;
mod error;
pub mod kernel;
pub mod matrix;
pub mod parallel;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use matrix::{BlockPlacement, Matrix};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
