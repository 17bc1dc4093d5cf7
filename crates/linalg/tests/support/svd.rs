//! Thin SVD via one-sided Jacobi (Hestenes) rotations: the second PCA
//! route the workspace shipped until the covariance route became the
//! only one, kept as the high-relative-accuracy oracle that route is
//! tested against. It forms no `AᵀA`, so it does not square the
//! condition number the Gram route does — agreement between the two is
//! evidence about the Gram route where it is weakest.
//!
//! Test-only by construction: it is compiled into the suites that name
//! it by `#[path]` (`netanom-linalg`'s unit tests through
//! `svd_tests.rs` and its `tests/proptests.rs`; `netanom-core`'s route
//! suites through `tests/support/svd_route.rs`) and into no library.

// Each including suite uses only part of it.
#![allow(dead_code)]

use netanom_linalg::{vector, LinalgError, Matrix, Result};

/// Maximum number of full sweeps over all column pairs.
const MAX_SWEEPS: usize = 64;

/// Thin singular value decomposition `A = U Σ Vᵀ` of a tall (or square)
/// matrix with `rows ≥ cols`.
///
/// * `u` is `rows × cols` with orthonormal columns,
/// * `sigma` holds the `cols` singular values in decreasing order,
/// * `v` is `cols × cols` orthogonal.
///
/// # Algorithm
///
/// One-sided Jacobi (Hestenes): repeatedly apply plane rotations on the
/// *right* of a working copy `W` of `A`, chosen to orthogonalize pairs of
/// columns of `W`. At convergence the columns of `W` are orthogonal; their
/// norms are the singular values, the normalized columns form `U`, and the
/// accumulated rotations form `V`. The method is simple, backward-stable and
/// computes small singular values to high *relative* accuracy.
///
/// For a mean-centered data matrix `Y`, the right singular vectors are the
/// principal components and `σₖ²/(t−1)` are the variances captured along
/// them, which is exactly the quantity the subspace method thresholds.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns (`rows × cols`).
    pub u: Matrix,
    /// Singular values, decreasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors as columns (`cols × cols`).
    pub v: Matrix,
}

impl Svd {
    /// Compute the thin SVD of `a`.
    ///
    /// Requires `rows ≥ cols` (the data-matrix orientation used throughout
    /// the workspace: timesteps × links). Returns
    /// [`LinalgError::DimensionMismatch`] otherwise and
    /// [`LinalgError::Empty`] for empty input.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty { op: "svd" });
        }
        if a.rows() < a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "svd (requires rows >= cols)",
                lhs: a.shape(),
                rhs: (a.cols(), a.rows()),
            });
        }
        let n = a.cols();
        // Work column-wise: w[j] is the j-th column of the working matrix.
        let mut w: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
        let mut v = Matrix::identity(n);

        let frob = a.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-15 * frob * frob;

        let mut sweeps = 0;
        loop {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let alpha = vector::dot(&w[p], &w[p]);
                    let beta = vector::dot(&w[q], &w[q]);
                    let gamma = vector::dot(&w[p], &w[q]);
                    // Columns already orthogonal (relative to their sizes)?
                    if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                        continue;
                    }
                    rotated = true;
                    // Rotation that zeroes the (p,q) entry of WᵀW.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = if zeta >= 0.0 {
                        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                    } else {
                        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    for i in 0..w[p].len() {
                        let wip = w[p][i];
                        let wiq = w[q][i];
                        w[p][i] = c * wip - s * wiq;
                        w[q][i] = s * wip + c * wiq;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
            sweeps += 1;
            if !rotated {
                break;
            }
            if sweeps >= MAX_SWEEPS {
                return Err(LinalgError::NonConvergence {
                    algorithm: "one-sided Jacobi SVD",
                    iterations: sweeps,
                });
            }
        }

        // Column norms are the singular values.
        let mut sigma: Vec<f64> = w.iter().map(|col| vector::norm(col)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            sigma[j]
                .partial_cmp(&sigma[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut u = Matrix::zeros(a.rows(), n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = Vec::with_capacity(n);
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = sigma[old_j];
            sigma_sorted.push(s);
            if s > 0.0 {
                let unit: Vec<f64> = w[old_j].iter().map(|x| x / s).collect();
                u.set_col(new_j, &unit);
            } else {
                // Null direction: leave the U column zero. Callers that need
                // a full orthonormal U can complete the basis, but the
                // subspace method never uses null columns of U.
                u.set_col(new_j, &vec![0.0; a.rows()]);
            }
            for k in 0..n {
                v_sorted[(k, new_j)] = v[(k, old_j)];
            }
        }
        sigma = sigma_sorted;

        Ok(Svd {
            u,
            sigma,
            v: v_sorted,
        })
    }

    /// Numerical rank: the number of singular values above
    /// `rtol * sigma_max`.
    pub fn rank(&self, rtol: f64) -> usize {
        match self.sigma.first() {
            None | Some(&0.0) => 0,
            Some(&smax) => self.sigma.iter().take_while(|&&s| s > rtol * smax).count(),
        }
    }

    /// Reconstruct `U Σ Vᵀ`; useful for accuracy checks.
    pub fn reconstruct(&self) -> Matrix {
        let us = Matrix::from_fn(self.u.rows(), self.u.cols(), |i, j| {
            self.u[(i, j)] * self.sigma[j]
        });
        us.matmul(&self.v.transpose())
            .expect("shapes are consistent by construction")
    }
}
