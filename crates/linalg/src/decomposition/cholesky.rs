//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with solvers.
///
/// The multi-flow identification extension (paper Section 7.2) estimates
/// the per-flow anomaly intensities `f̂ = (Θ̃ᵀΘ̃)⁻¹ Θ̃ᵀ ỹ`; `Θ̃ᵀΘ̃` is a
/// small SPD Gram matrix, which is exactly Cholesky's home turf.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::Cholesky};
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let ch = Cholesky::new(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// // 4x + 2y = 8, 2x + 3y = 7  ->  x = 1.25, y = 1.5
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor.
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] (with the failing pivot
    /// index) when a diagonal pivot is non-positive, which also covers
    /// symmetric-but-indefinite input. Mild asymmetry is tolerated by
    /// reading only the lower triangle.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty { op: "cholesky" });
        }
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: (a.cols(), a.rows()),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b`.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn factor_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![25.0, 15.0, -5.0],
            vec![15.0, 18.0, 0.0],
            vec![-5.0, 0.0, 11.0],
        ]);
        let ch = Cholesky::new(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn known_factor() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((ch.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-10));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_zero_matrix() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 2)),
            Err(LinalgError::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
        assert!(Cholesky::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn solve_validates_rhs_length() {
        let ch = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn gram_of_random_full_rank_matrix_is_spd() {
        let a = Matrix::from_fn(12, 4, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let g = a.gram().add(&Matrix::identity(4).scaled(1e-9)).unwrap();
        assert!(Cholesky::new(&g).is_ok());
    }
}
