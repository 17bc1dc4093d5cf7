//! Unit tests of the one-sided Jacobi SVD oracle (`svd.rs` beside this
//! file). `netanom-linalg` compiles this file as its
//! `decomposition::svd` test module, so the oracle is checked with the
//! crate's own unit tests while no library build contains it.

#[path = "svd.rs"]
mod oracle;

mod tests {
    use super::oracle::Svd;
    use netanom_linalg::decomposition::SymmetricEigen;
    use netanom_linalg::{LinalgError, Matrix};

    #[test]
    fn diagonal_known_values() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 4.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_fn(30, 8, |i, j| {
            ((i * 3 + j * 5) as f64).sin() * (j as f64 + 1.0)
        });
        let svd = Svd::new(&a).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-9 * a.frobenius_norm()));
    }

    #[test]
    fn u_and_v_orthonormal() {
        // Hash-style fill gives a generic full-rank matrix.
        let a = Matrix::from_fn(25, 6, |i, j| {
            let h = (i * 6 + j).wrapping_mul(2654435761) % 1000;
            h as f64 / 500.0 - 1.0
        });
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 6, "test matrix must be full rank");
        assert!(svd.u.gram().approx_eq(&Matrix::identity(6), 1e-10));
        assert!(svd.v.gram().approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn singular_values_decreasing_and_nonnegative() {
        let a = Matrix::from_fn(40, 10, |i, j| ((i * j + 1) as f64).ln());
        let svd = Svd::new(&a).unwrap();
        for pair in svd.sigma.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn rank_deficient_matrix() {
        // Two identical columns -> rank 1.
        let a = Matrix::from_fn(10, 2, |i, _| (i as f64) + 1.0);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        assert!(svd.sigma[1] < 1e-10 * svd.sigma[0]);
    }

    #[test]
    fn zero_matrix() {
        let svd = Svd::new(&Matrix::zeros(5, 3)).unwrap();
        assert_eq!(svd.sigma, vec![0.0, 0.0, 0.0]);
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn rejects_wide_matrix() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(2, 5)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn agrees_with_eigendecomposition_of_gram() {
        let a = Matrix::from_fn(50, 7, |i, j| {
            ((i as f64) * 0.1).sin() * (j as f64 + 1.0) + ((i * j) as f64 * 0.01).cos()
        });
        let svd = Svd::new(&a).unwrap();
        let eig = SymmetricEigen::new(&a.gram()).unwrap();
        for k in 0..7 {
            let from_eig = eig.eigenvalues[k].max(0.0).sqrt();
            assert!(
                (svd.sigma[k] - from_eig).abs() <= 1e-8 * svd.sigma[0].max(1.0),
                "sigma[{k}]: svd={} eig={}",
                svd.sigma[k],
                from_eig
            );
        }
    }

    #[test]
    fn square_orthogonal_input() {
        // A rotation matrix has all singular values equal to 1.
        let th = 0.7_f64;
        let a = Matrix::from_rows(&[vec![th.cos(), -th.sin()], vec![th.sin(), th.cos()]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 1.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_fn(4, 1, |i, _| (i + 1) as f64);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-12);
        assert_eq!(svd.v[(0, 0)].abs(), 1.0);
    }
}
