//! Householder QR factorization and least-squares solving.

use crate::{LinalgError, Matrix, Result};

/// QR factorization `A = Q R` of a tall (or square) matrix, computed with
/// Householder reflections.
///
/// The factorization is stored in compact form (the reflectors and the upper
/// triangle) and exposes the two operations the workspace needs:
///
/// * [`Qr::solve_least_squares`] — minimize `‖A x − b‖₂`, used by the
///   Fourier baseline to fit its 17-column basis (8 periods × sin/cos + DC)
///   to each OD-flow timeseries, and
/// * [`Qr::r`] / [`Qr::q`] — explicit factors for testing.
///
/// Householder QR is backward-stable, so it handles the mildly
/// ill-conditioned Gram structure of non-harmonic Fourier bases (periods
/// that don't divide the window length) far better than normal equations.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Compact storage: reflectors below the diagonal, R on and above it.
    qr: Matrix,
    /// Scalar factors of the Householder reflectors.
    tau: Vec<f64>,
}

impl Qr {
    /// Factor `a` (requires `rows ≥ cols`).
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for wide matrices and
    /// [`LinalgError::Empty`] for empty input.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty { op: "qr" });
        }
        if a.rows() < a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "qr (requires rows >= cols)",
                lhs: a.shape(),
                rhs: (a.cols(), a.rows()),
            });
        }
        let (m, n) = a.shape();
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];

        for k in 0..n {
            // Build the Householder reflector for column k below row k.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, stored in place (v[0] implicit as 1 after
            // normalization).
            let v0 = qr[(k, k)] - alpha;
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;

            // Apply the reflector to the remaining columns:
            // A := (I - tau v vᵀ) A.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    /// Apply `Qᵀ` to a vector of length `rows`.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = self.qr.shape();
        let mut y = b.to_vec();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = y[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * y[i];
            }
            s *= self.tau[k];
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.qr[(i, k)];
            }
        }
        y
    }

    /// Solve the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// Returns [`LinalgError::Singular`] if `R` has a (near-)zero diagonal
    /// entry, i.e. the columns of `A` are numerically dependent, and
    /// [`LinalgError::DimensionMismatch`] if `b.len() != rows`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let y = self.apply_qt(b);
        // Back-substitute R x = y[..n].
        let mut x = vec![0.0; n];
        let rmax = (0..n).fold(0.0_f64, |acc, i| acc.max(self.qr[(i, i)].abs()));
        for k in (0..n).rev() {
            let rkk = self.qr[(k, k)];
            if rkk.abs() <= 1e-13 * rmax.max(1.0) {
                return Err(LinalgError::Singular { op: "qr solve" });
            }
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= self.qr[(k, j)] * x[j];
            }
            x[k] = s / rkk;
        }
        Ok(x)
    }

    /// Explicit upper-triangular factor `R` (`cols × cols`).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Explicit thin `Q` factor (`rows × cols`, orthonormal columns).
    pub fn q(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            // Q e_j = apply reflectors in reverse to the unit vector.
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            for k in (0..n).rev() {
                if self.tau[k] == 0.0 {
                    continue;
                }
                let mut s = e[k];
                for i in (k + 1)..m {
                    s += self.qr[(i, k)] * e[i];
                }
                s *= self.tau[k];
                e[k] -= s;
                for i in (k + 1)..m {
                    e[i] -= s * self.qr[(i, k)];
                }
            }
            q.set_col(j, &e);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&[5.0, 10.0]).unwrap();
        // 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
        assert!(vector::approx_eq(&x, &[1.0, 3.0], 1e-12));
    }

    #[test]
    fn overdetermined_consistent_system() {
        // b lies exactly in the column space.
        let a = Matrix::from_fn(10, 3, |i, j| ((i + 1) as f64).powi(j as i32));
        let x_true = [2.0, -1.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn least_squares_residual_orthogonal_to_columns() {
        let a = Matrix::from_fn(20, 4, |i, j| ((i * (j + 1)) as f64 * 0.1).sin());
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).cos()).collect();
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let r = vector::sub(&b, &a.matvec(&x).unwrap());
        // Normal equations: Aᵀ r = 0.
        let at_r = a.matvec_t(&r).unwrap();
        assert!(vector::norm_inf(&at_r) < 1e-9 * a.frobenius_norm());
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = Matrix::from_fn(12, 5, |i, j| ((i * 5 + j) as f64 * 0.21).cos());
        let qr = Qr::new(&a).unwrap();
        let recon = qr.q().matmul(&qr.r()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::from_fn(15, 6, |i, j| ((i + 2 * j) as f64).sqrt());
        let q = Qr::new(&a).unwrap().q();
        assert!(q.gram().approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_fn(8, 4, |i, j| ((i + j) as f64).exp() / 100.0);
        let r = Qr::new(&a).unwrap().r();
        for i in 0..4 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn singular_detection() {
        // Duplicate columns.
        let a = Matrix::from_fn(6, 2, |i, _| (i + 1) as f64);
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0; 6]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_wide() {
        assert!(Qr::new(&Matrix::zeros(2, 4)).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(Qr::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn rhs_length_validated() {
        let a = Matrix::identity(3);
        let qr = Qr::new(&a).unwrap();
        assert!(qr.solve_least_squares(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fourier_like_basis_is_solvable() {
        // The actual use case: a DC column plus sin/cos pairs at
        // non-harmonic periods over a 1008-sample window.
        let t = 1008usize;
        let periods = [1008.0, 720.0, 432.0, 144.0, 72.0, 36.0, 18.0, 9.0];
        let mut cols: Vec<Vec<f64>> = vec![vec![1.0; t]];
        for &p in &periods {
            let w = 2.0 * std::f64::consts::PI / p;
            cols.push((0..t).map(|i| (w * i as f64).sin()).collect());
            cols.push((0..t).map(|i| (w * i as f64).cos()).collect());
        }
        let a = Matrix::from_columns(&cols);
        // A signal synthesized from the basis must be fit exactly.
        let coef: Vec<f64> = (0..17).map(|k| ((k as f64) * 0.3).sin()).collect();
        let b = a.matvec(&coef).unwrap();
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!(vector::approx_eq(&x, &coef, 1e-8));
    }
}
