//! [`SymmetricEigen`]: the dense symmetric eigendecomposition every
//! refit runs through.
//!
//! This module is the type and its input contract; the algorithm is in
//! [`super::tridiagonal`]. (The file is named for the cyclic Jacobi
//! solver it held first, which survives as the test oracle in
//! `tests/support/jacobi.rs`.)

use super::tridiagonal::{self, RotationLog, Tridiagonal};
use crate::{vector, LinalgError, Matrix, Result};

/// Relative tolerance on the asymmetry check in [`SymmetricEigen::new`].
const SYMMETRY_RTOL: f64 = 1e-8;

/// Eigendecomposition `A = V Λ Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are returned in **decreasing** order, matching the PCA
/// convention where the first principal component captures the most
/// variance. `eigenvectors` holds the corresponding unit eigenvectors as
/// **columns**: all `n` of them, or only the leading `r` from
/// [`LeadingEigen::into_leading`].
///
/// # Algorithm
///
/// Householder reflections reduce `A` to a tridiagonal `T = QᵀAQ`
/// (`4n³/3` flops), and the implicit-shift QL iteration diagonalizes `T`
/// in under two iterations per eigenvalue on average — Golub & Van Loan
/// §8.3, EISPACK `tred2`/`tql2`. The full solve applies the QL plane
/// rotations to `Q` as they are generated (`≈ 3n³` flops); the leading
/// solve logs them and replays them on `r` vectors only (`O(r·n²)`).
/// Both are backward stable: eigenvalues are accurate to a few ulps of
/// `‖A‖`, eigenvectors orthonormal to the same order however the
/// spectrum clusters. They are serial and use no GEMM kernel, so the
/// result is a pure function of the input bits — the same on every
/// thread count.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::SymmetricEigen};
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = SymmetricEigen::new(&a).unwrap();
/// assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in decreasing order.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvectors as columns, `eigenvectors.col(k)` pairing with
    /// `eigenvalues[k]`.
    pub eigenvectors: Matrix,
}

/// The input contract shared by [`SymmetricEigen::new`] and
/// [`super::TruncatedEigen::top_k`]: every entry finite
/// ([`LinalgError::DomainError`] carrying the first that is not) and the
/// asymmetry within a small relative tolerance
/// ([`LinalgError::NotSymmetric`] at the worst pair). A NaN or an
/// infinity would otherwise slip through every comparison below it and
/// come back as an `Ok` spectrum.
pub(super) fn ensure_finite_symmetric(a: &Matrix, op: &'static str) -> Result<()> {
    if let Some(&value) = a.as_slice().iter().find(|v| !v.is_finite()) {
        return Err(LinalgError::DomainError { op, value });
    }
    let mut worst = (0usize, 0usize, 0.0f64);
    for i in 0..a.rows() {
        for j in (i + 1)..a.cols() {
            let d = (a[(i, j)] - a[(j, i)]).abs();
            if d > worst.2 {
                worst = (i, j, d);
            }
        }
    }
    if worst.2 > SYMMETRY_RTOL * a.max_abs().max(1.0) {
        return Err(LinalgError::NotSymmetric {
            at: (worst.0, worst.1),
        });
    }
    Ok(())
}

/// The error operation name every route of [`SymmetricEigen`] reports.
const OP: &str = "symmetric eigendecomposition";

/// The shared prologue of every [`SymmetricEigen`] route: the input
/// contract, then the reduction of a symmetrized copy (so tiny
/// asymmetries cannot bias it).
fn reduced(a: &Matrix) -> Result<Tridiagonal> {
    if a.is_empty() {
        return Err(LinalgError::Empty { op: OP });
    }
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: OP,
            lhs: a.shape(),
            rhs: (a.cols(), a.rows()),
        });
    }
    ensure_finite_symmetric(a, OP)?;
    let n = a.rows();
    Ok(Tridiagonal::reduce(Matrix::from_fn(n, n, |i, j| {
        0.5 * (a[(i, j)] + a[(j, i)])
    })))
}

/// The indices of the diagonalized `d` by decreasing value, refusing a
/// non-finite one (the solve overflowed).
fn descending(d: &[f64]) -> Result<Vec<usize>> {
    if let Some(&value) = d.iter().find(|l| !l.is_finite()) {
        return Err(LinalgError::DomainError { op: OP, value });
    }
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    Ok(order)
}

/// Zero the eigenvalues that cancellation drove slightly negative.
fn clamp_negative(eigenvalues: &mut [f64]) {
    for l in eigenvalues {
        if *l < 0.0 {
            *l = 0.0;
        }
    }
}

impl SymmetricEigen {
    /// Decompose a symmetric matrix.
    ///
    /// Returns [`LinalgError::Empty`] for a `0 × 0` input,
    /// [`LinalgError::DimensionMismatch`] for a non-square one,
    /// [`LinalgError::DomainError`] if an entry is NaN or infinite (or
    /// so large that the solve overflows), [`LinalgError::NotSymmetric`]
    /// if the asymmetry exceeds a small relative tolerance, and
    /// [`LinalgError::NonConvergence`] if the QL iteration spends its
    /// per-eigenvalue budget.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut t = reduced(a)?;
        let mut zt = t.q_transposed();
        tridiagonal::implicit_ql(&mut t.d, &mut t.e, |i, c, s| {
            let (zi, zi1) = zt.row_pair_mut(i, i + 1);
            vector::rotate_pair(c, s, zi, zi1);
        })?;
        let order = descending(&t.d)?;
        let eigenvalues: Vec<f64> = order.iter().map(|&i| t.d[i]).collect();
        // Transpose back while applying the sort order: column k of the
        // result is row order[k] of the transposed accumulator.
        let n = order.len();
        let eigenvectors = Matrix::from_fn(n, n, |i, k| zt[(order[k], i)]);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Decompose a covariance matrix for a model refit: solve, then clamp
    /// eigenvalues that cancellation drove slightly
    /// negative back to zero.
    ///
    /// This is the refit entry point for streaming model maintenance:
    /// covariances assembled from incremental sufficient statistics
    /// (`(Σyyᵀ − n·μμᵀ)/(n−1)`) are symmetric by construction but only
    /// positive semi-definite up to roundoff, so the smallest eigenvalues
    /// can come out at `−ε`. A subspace model's residual variance must be
    /// non-negative, hence the clamp.
    pub fn of_covariance(cov: &Matrix) -> Result<Self> {
        let mut eig = Self::new(cov)?;
        clamp_negative(&mut eig.eigenvalues);
        Ok(eig)
    }

    /// Reconstruct `V Λ Vᵀ`; useful for accuracy checks. After
    /// [`LeadingEigen::into_leading`] this is the rank-`r` part over the
    /// vectors it kept.
    #[allow(clippy::expect_used)] // `V` is m × r and `Λ` r × r by construction
    pub fn reconstruct(&self) -> Matrix {
        let lambda = Matrix::from_diag(&self.eigenvalues[..self.eigenvectors.cols()]);
        // `(VΛ)·Vᵀ` via the N·T kernel: no transposed copy, and entry
        // (i, j) accumulates the same ascending-k terms the explicit
        // transpose route would.
        self.eigenvectors
            .matmul(&lambda)
            .and_then(|vl| vl.matmul_nt(&self.eigenvectors))
            .expect("shapes are consistent by construction")
    }
}

/// A covariance eigen-solve whose eigenvectors are built on request:
/// every eigenvalue up front, bitwise
/// [`SymmetricEigen::of_covariance`]'s (clamped, decreasing), and
/// eigenvector `k` only when [`vector`](Self::vector) asks for it.
///
/// The QL rotations are logged instead of applied; a request replays
/// the log backwards on the unit vectors not built yet, followed by the
/// Householder reflections — `O(n²)` per vector where the full solve
/// spends `≈ 3n³` on an accumulator that is never allocated. Rotations
/// and reflections act on each vector alone, so a vector is the same
/// bits whether it is built alone or beside others, and equal to the
/// full solve's column to roundoff with the same sign. The vectors
/// built are kept, so a caller that walks the axes in order until some
/// test stops it (the subspace method's 3σ rule) builds exactly the
/// vectors it looked at.
#[derive(Debug)]
pub struct LeadingEigen {
    eigenvalues: Vec<f64>,
    reduced: Tridiagonal,
    log: RotationLog,
    /// `order[k]`: the diagonal entry of `T` that holds `eigenvalues[k]`.
    order: Vec<usize>,
    /// The vectors built so far, vector `k` as row `k` of `n` entries.
    built: Vec<f64>,
}

impl LeadingEigen {
    /// Reduce, diagonalize and log: every eigenvalue, no vector yet. Same
    /// input contract and errors as [`SymmetricEigen::of_covariance`].
    pub fn of_covariance(cov: &Matrix) -> Result<Self> {
        let mut reduced = reduced(cov)?;
        let mut log = RotationLog::default();
        tridiagonal::implicit_ql(&mut reduced.d, &mut reduced.e, |i, c, s| log.push(i, c, s))?;
        let order = descending(&reduced.d)?;
        let mut eigenvalues: Vec<f64> = order.iter().map(|&i| reduced.d[i]).collect();
        clamp_negative(&mut eigenvalues);
        Ok(LeadingEigen {
            eigenvalues,
            reduced,
            log,
            order,
            built: Vec::new(),
        })
    }

    /// Every eigenvalue, decreasing.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The unit eigenvector for `eigenvalues()[k]`, building it and every
    /// vector before it that is not built yet (in one replay).
    ///
    /// # Panics
    /// Panics if `k ≥ n`.
    pub fn vector(&mut self, k: usize) -> &[f64] {
        self.build(k + 1);
        let n = self.order.len();
        &self.built[k * n..(k + 1) * n]
    }

    /// Build the first `count` vectors.
    fn build(&mut self, count: usize) {
        let n = self.order.len();
        let have = self.built.len() / n;
        if count > have {
            let rows = self
                .reduced
                .leading_rows(&self.log, &self.order[have..count]);
            self.built.extend_from_slice(rows.as_slice());
        }
    }

    /// The spectrum and the first `r` eigenvectors as columns (`n × r`;
    /// a value above `n` means `n`), building those not built yet in one
    /// replay: [`SymmetricEigen::of_covariance`]'s eigenvalue bits and
    /// its leading columns to roundoff, with the same signs.
    pub fn into_leading(mut self, r: usize) -> SymmetricEigen {
        let n = self.order.len();
        let r = r.min(n);
        self.build(r);
        let built = &self.built;
        SymmetricEigen {
            eigenvectors: Matrix::from_fn(n, r, |i, k| built[k * n + i]),
            eigenvalues: self.eigenvalues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_close(e.eigenvalues[0], 3.0, 1e-12);
        assert_close(e.eigenvalues[1], 1.0, 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, -1.0, 2.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 2.0, -1.0]);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 }
        });
        let e = SymmetricEigen::new(&a).unwrap();
        let vtv = e.eigenvectors.gram();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-10));
    }

    #[test]
    fn reconstruction_accuracy() {
        let n = 15;
        let a = Matrix::from_fn(n, n, |i, j| ((i * j) as f64).sin() + ((j * i) as f64).sin());
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = SymmetricEigen::new(&sym).unwrap();
        assert!(e.reconstruct().approx_eq(&sym, 1e-9));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let n = 9;
        let a = Matrix::from_fn(n, n, |i, j| ((i + j) as f64).cos());
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = SymmetricEigen::new(&sym).unwrap();
        let trace: f64 = (0..n).map(|i| sym[(i, i)]).sum();
        assert_close(e.eigenvalues.iter().sum::<f64>(), trace, 1e-10);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            SymmetricEigen::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::identity(121);
            a[(3, 70)] = bad;
            a[(70, 3)] = bad;
            match SymmetricEigen::new(&a) {
                Err(LinalgError::DomainError { value, .. }) => {
                    assert!(value == bad || (value.is_nan() && bad.is_nan()))
                }
                other => panic!("{bad} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn overflowing_entries_are_an_error_not_a_nan_spectrum() {
        // Finite input the arithmetic cannot hold: the symmetrized copy
        // of the first is already infinite on its diagonal, the second
        // overflows inside the reduction.
        let diagonal = Matrix::from_diag(&[f64::MAX, 1.0]);
        assert!(matches!(
            SymmetricEigen::new(&diagonal),
            Err(LinalgError::DomainError { .. })
        ));
        let dense = Matrix::from_fn(6, 6, |i, j| f64::MAX / (1 + i + j) as f64);
        assert!(matches!(
            SymmetricEigen::new(&dense),
            Err(LinalgError::NonConvergence { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let e = SymmetricEigen::new(&Matrix::from_rows(&[vec![-4.0]])).unwrap();
        assert_eq!(e.eigenvalues, vec![-4.0]);
        assert_eq!(e.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn leading_one_by_one_is_the_full_solve() {
        let a = Matrix::from_rows(&[vec![-4.0]]);
        let full = SymmetricEigen::of_covariance(&a).unwrap();
        let lead = LeadingEigen::of_covariance(&a).unwrap().into_leading(1);
        assert_eq!(lead.eigenvalues, vec![0.0]);
        assert_eq!(lead.eigenvalues, full.eigenvalues);
        assert_eq!(lead.eigenvectors, full.eigenvectors);
    }

    #[test]
    fn leading_zero_vectors_keeps_the_whole_spectrum() {
        let a = Matrix::from_fn(6, 6, |i, j| 1.0 / (1 + i + j) as f64);
        let full = SymmetricEigen::of_covariance(&a).unwrap();
        let lead = LeadingEigen::of_covariance(&a).unwrap().into_leading(0);
        assert_eq!(lead.eigenvalues, full.eigenvalues);
        assert_eq!(lead.eigenvectors.shape(), (6, 0));
        assert!(lead.reconstruct().approx_eq(&Matrix::zeros(6, 6), 0.0));
        // A count past `n` means `n`.
        let all = LeadingEigen::of_covariance(&a).unwrap().into_leading(99);
        assert_eq!(all.eigenvectors.shape(), (6, 6));
        assert!(all.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn leading_refuses_exactly_what_the_full_solve_refuses() {
        let mut non_finite = Matrix::identity(5);
        non_finite[(1, 3)] = f64::NAN;
        non_finite[(3, 1)] = f64::NAN;
        for bad in [
            Matrix::zeros(0, 0),
            Matrix::zeros(2, 3),
            non_finite,
            Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]),
            Matrix::from_diag(&[f64::MAX, 1.0]),
            Matrix::from_fn(6, 6, |i, j| f64::MAX / (1 + i + j) as f64),
        ] {
            let want = SymmetricEigen::new(&bad).unwrap_err();
            let got = LeadingEigen::of_covariance(&bad).unwrap_err();
            // NaN payloads defeat `==`; the debug text names them.
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let data = Matrix::from_fn(20, 6, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let g = data.gram();
        let e = SymmetricEigen::new(&g).unwrap();
        for &l in &e.eigenvalues {
            assert!(l >= -1e-9, "negative eigenvalue {l} for PSD matrix");
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // 3*I has a triple eigenvalue; the basis must still be orthonormal.
        let a = Matrix::identity(3).scaled(3.0);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![3.0, 3.0, 3.0]);
        assert!(e.eigenvectors.gram().approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn eigen_pairs_satisfy_definition() {
        let n = 7;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64)); // Hilbert, symmetric
        let e = SymmetricEigen::new(&a).unwrap();
        for k in 0..n {
            let v = e.eigenvectors.col(k);
            let av = a.matvec(&v).unwrap();
            let lv: Vec<f64> = v.iter().map(|x| x * e.eigenvalues[k]).collect();
            assert!(
                crate::vector::approx_eq(&av, &lv, 1e-9),
                "eigenpair {k} violates A v = λ v"
            );
        }
    }
}
