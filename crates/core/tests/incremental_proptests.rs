//! Property tests pinning [`IncrementalCovariance`] add/remove against
//! the direct two-pass covariance to 1e-9 relative accuracy, including
//! full window-wrap cycles through a ring-buffered window.
//!
//! Entries are bounded (|y| ≤ 50) so the `(Σyyᵀ − n·μμᵀ)` cancellation
//! stays far from the accumulator scale and 1e-9 relative is a sound
//! contract; the production numerics note for large-offset data lives on
//! [`IncrementalCovariance`] and in DESIGN.md.

use netanom_core::incremental::{CovarianceShard, IncrementalCovariance};
use netanom_core::stream::RingWindow;
use netanom_core::{CoreError, PcaMethod, SeparationPolicy, SubspaceModel};
use netanom_linalg::{vector, Matrix};
use proptest::prelude::*;

#[path = "../../linalg/tests/support/jacobi.rs"]
mod jacobi;
#[path = "support/svd_route.rs"]
mod svd_route;

/// Strategy: a `rows × cols` matrix with entries in [-50, 50].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-50.0..50.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: (window length, dimension, number of slides) with enough
/// slides to wrap the window at least twice.
fn window_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (3usize..24, 1usize..7).prop_flat_map(|(w, m)| (Just(w), Just(m), (2 * w + 1)..(3 * w + 1)))
}

/// Direct two-pass covariance of a `t × m` matrix.
fn two_pass_covariance(y: &Matrix) -> Matrix {
    let (centered, _) = y.mean_centered_columns();
    centered.gram().scaled(1.0 / (y.rows() as f64 - 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_matrix_matches_two_pass_to_1e9(
        y in (4usize..40, 1usize..7).prop_flat_map(|(t, m)| matrix(t, m))
    ) {
        let inc = IncrementalCovariance::from_matrix(&y);
        let direct = two_pass_covariance(&y);
        let cov = inc.covariance().unwrap();
        let tol = 1e-9 * direct.max_abs().max(1.0);
        prop_assert!(
            cov.approx_eq(&direct, tol),
            "incremental covariance diverged beyond {tol:.2e}"
        );
        let (_, mean) = y.mean_centered_columns();
        prop_assert!(vector::approx_eq(&inc.mean().unwrap(), &mean, 1e-9));
    }

    #[test]
    fn sliding_add_remove_matches_two_pass_after_full_wraps(
        (w, m, slides) in window_shape(),
        seed_rows in (0usize..1, 0usize..1).prop_flat_map(|_| matrix(96, 6))
    ) {
        // Carve the stream out of one generated pool so every case sees
        // varied data: first `w` rows seed the window, the next `slides`
        // rows arrive one by one (wrapping the window ≥ 2 times).
        let need = w + slides;
        prop_assert!(need <= seed_rows.rows());
        let stream: Vec<&[f64]> = (0..need).map(|t| &seed_rows.row(t)[..m]).collect();

        let mut window = RingWindow::new(w, m);
        let mut inc = IncrementalCovariance::new(m);
        for row in stream.iter().take(w) {
            window.push(row);
            inc.add(row).unwrap();
        }
        for row in stream.iter().skip(w) {
            let old = window.oldest().expect("window is full").to_vec();
            inc.slide(&old, row).unwrap();
            window.push(row);
        }
        prop_assert_eq!(inc.count(), w);

        // The surviving window is exactly the last `w` stream rows.
        let direct_rows: Vec<Vec<f64>> =
            stream[slides..].iter().map(|r| r.to_vec()).collect();
        let direct_matrix = Matrix::from_rows(&direct_rows);
        for i in 0..w {
            prop_assert_eq!(window.row(i), direct_matrix.row(i));
        }

        let direct = two_pass_covariance(&direct_matrix);
        let cov = inc.covariance().unwrap();
        let tol = 1e-9 * direct.max_abs().max(1.0);
        prop_assert!(
            cov.approx_eq(&direct, tol),
            "wrapped-window covariance diverged beyond {tol:.2e} after {slides} slides"
        );
        let (_, mean) = direct_matrix.mean_centered_columns();
        prop_assert!(vector::approx_eq(&inc.mean().unwrap(), &mean, 1e-9));
    }

    #[test]
    fn k_way_merge_matches_two_pass_with_uneven_shards_and_wraps(
        (w, m, slides) in window_shape(),
        pool in (0usize..1, 0usize..1).prop_flat_map(|_| matrix(96, 6)),
        cuts in proptest::collection::vec(0usize..6, 0..4)
    ) {
        let need = w + slides;
        prop_assert!(need <= pool.rows());
        let stream: Vec<&[f64]> = (0..need).map(|t| &pool.row(t)[..m]).collect();

        // Uneven contiguous partition from random cut points (dedup'd,
        // clamped into 1..m), K between 1 and m.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| 1 + c % m).collect();
        bounds.push(0);
        bounds.push(m);
        bounds.sort_unstable();
        bounds.dedup();
        let groups: Vec<Vec<usize>> = bounds
            .windows(2)
            .map(|p| (p[0]..p[1]).collect())
            .collect();

        let mut shards: Vec<CovarianceShard> = groups
            .iter()
            .map(|g| CovarianceShard::new(m, g).unwrap())
            .collect();
        let mut global = IncrementalCovariance::new(m);
        let mut window = RingWindow::new(w, m);
        for row in stream.iter().take(w) {
            window.push(row);
            global.add(row).unwrap();
            for s in &mut shards {
                s.add(row).unwrap();
            }
        }
        for row in stream.iter().skip(w) {
            let old = window.oldest().expect("window is full").to_vec();
            global.slide(&old, row).unwrap();
            for s in &mut shards {
                s.slide(&old, row).unwrap();
            }
            window.push(row);
        }

        let merged = IncrementalCovariance::merge(&shards).unwrap();
        prop_assert_eq!(merged.count(), w);

        // Bitwise against the single global accumulator.
        let gcov = global.covariance().unwrap();
        let mcov = merged.covariance().unwrap();
        prop_assert!(
            mcov.approx_eq(&gcov, 0.0),
            "merged covariance must be bitwise the global accumulator's"
        );
        prop_assert_eq!(merged.mean().unwrap(), global.mean().unwrap());

        // 1e-9 relative against the direct two-pass covariance of the
        // surviving window.
        let surviving: Vec<Vec<f64>> = stream[slides..].iter().map(|r| r.to_vec()).collect();
        let direct = two_pass_covariance(&Matrix::from_rows(&surviving));
        let tol = 1e-9 * direct.max_abs().max(1.0);
        prop_assert!(
            mcov.approx_eq(&direct, tol),
            "K={}-way merged covariance diverged beyond {tol:.2e} after {} slides",
            shards.len(),
            slides
        );
    }

    #[test]
    fn add_remove_roundtrip_is_exact_on_count_and_tight_on_covariance(
        y in (6usize..30, 1usize..6).prop_flat_map(|(t, m)| matrix(t, m)),
        probe in proptest::collection::vec(-50.0..50.0f64, 1usize..6)
    ) {
        let m = y.cols().min(probe.len());
        let y = Matrix::from_fn(y.rows(), m, |i, j| y[(i, j)]);
        let probe = &probe[..m];
        let mut inc = IncrementalCovariance::from_matrix(&y);
        let before = inc.covariance().unwrap();
        inc.add(probe).unwrap();
        inc.remove(probe).unwrap();
        prop_assert_eq!(inc.count(), y.rows());
        let after = inc.covariance().unwrap();
        prop_assert!(after.approx_eq(&before, 1e-9 * before.max_abs().max(1.0)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The truncated refit route must reproduce the dense refit from the same statistics: matching top eigenvalues and a
    /// matching Q-statistic threshold — the moments route is exact, not
    /// an approximation — on arbitrary window matrices.
    #[test]
    fn truncated_model_matches_dense_model(
        y in (12usize..40, 4usize..9).prop_flat_map(|(t, m)| matrix(t, m)),
        r in 1usize..3,
    ) {
        let inc = IncrementalCovariance::from_matrix(&y);
        let policy = netanom_core::SeparationPolicy::FixedCount(r);
        let dense = inc.to_model(policy);
        let truncated = inc.to_model_truncated(policy, r + 2, 1e-12);
        // Both routes must agree on fit-ability (degenerate residuals
        // are rejected identically).
        prop_assert_eq!(dense.is_ok(), truncated.is_ok());
        if let (Ok(dense), Ok(truncated)) = (dense, truncated) {
            let scale = dense.eigenvalues()[0].max(1.0);
            for (i, (a, b)) in dense
                .eigenvalues()
                .iter()
                .zip(truncated.eigenvalues())
                .enumerate()
            {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "eigenvalue {} differs: {} vs {}", i, a, b
                );
            }
            prop_assert_eq!(dense.normal_dim(), truncated.normal_dim());
            let qa = dense.q_threshold(0.999);
            let qb = truncated.q_threshold(0.999);
            prop_assert_eq!(qa.is_ok(), qb.is_ok());
            if let (Ok(qa), Ok(qb)) = (qa, qb) {
                prop_assert!(
                    (qa.delta_sq - qb.delta_sq).abs() <= 1e-8 * qa.delta_sq.abs().max(1.0),
                    "threshold differs: {} vs {}", qa.delta_sq, qb.delta_sq
                );
            }
        }
    }
}

/// The model a refit should produce, computed without the incremental
/// statistics or the tridiagonal solver: the two-pass SVD route
/// (`support/svd_route.rs`) where it applies, and — the SVD route's
/// `Pca::fit` refuses `t < m` — the Jacobi
/// oracle on the file's `two_pass_covariance` otherwise, with `r` the
/// smallest count whose eigenvalues reach `fraction` of the total.
fn reference_model(y: &Matrix, fraction: f64) -> netanom_core::Result<SubspaceModel> {
    if y.rows() >= y.cols() {
        let policy = SeparationPolicy::VarianceFraction(fraction);
        return svd_route::fit_model(y, policy);
    }
    let (values, vectors) = jacobi::jacobi_eigen(&two_pass_covariance(y));
    let values: Vec<f64> = values.into_iter().map(|l| l.max(0.0)).collect();
    let target = fraction * values.iter().sum::<f64>();
    let mut acc = 0.0;
    let r = values
        .iter()
        .position(|l| {
            acc += l;
            acc >= target
        })
        .map_or(values.len(), |i| i + 1);
    let (_, mean) = y.mean_centered_columns();
    SubspaceModel::from_eigen(mean, &vectors, values, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `to_model` against [`reference_model`] on the windows that make a
    /// covariance hard to decompose: a constant link (a zero row and
    /// column), a duplicated link (an exact zero eigenvalue), fewer rows
    /// than links (rank `t − 1 < m`), and a rank-two signal over noise
    /// `10^-decade` of its size, so the residual moments run from
    /// ordinary down to nothing. Either route may find the residual
    /// empty and say so with `DegenerateResidual`; otherwise the two must
    /// agree on `r`, on the threshold to 1e-9 relative — plus the
    /// `1e-13·λ₁` below which no route through a covariance resolves an
    /// eigenvalue — and, where `λ_r` is set apart from `λ_{r+1}`, on the
    /// normal projector `PPᵀ` to 1e-8.
    #[test]
    fn to_model_matches_two_pass_reference_on_hard_windows(
        pool in matrix(40, 8),
        t in 12usize..=40,
        m in 3usize..=8,
        kind in 0usize..4,
        decade in 0u32..10,
        fraction in 0.5..0.95f64,
    ) {
        let y = match kind {
            0 => Matrix::from_fn(t, m, |i, j| if j == 1 { 7.5 } else { pool[(i, j)] }),
            1 => Matrix::from_fn(t, m, |i, j| pool[(i, if j == 2 { 0 } else { j })]),
            2 => Matrix::from_fn(2 + t % (m - 2), m, |i, j| pool[(i, j)]),
            _ => Matrix::from_fn(t, m, |i, j| {
                pool[(i, 0)] * pool[(0, j)]
                    + pool[(i, 1)] * pool[(1, j)]
                    + 0.1f64.powi(decade as i32) * pool[(i, j)]
            }),
        };
        let policy = SeparationPolicy::VarianceFraction(fraction);
        let refit = IncrementalCovariance::from_matrix(&y).to_model(policy);
        assert_matches_reference(refit, reference_model(&y, fraction));
    }

    /// `SubspaceModel::fit` on fewer rows than links — a covariance of
    /// rank at most `t − 1 < m` — against [`reference_model`]'s Jacobi
    /// branch, under the contract of
    /// `to_model_matches_two_pass_reference_on_hard_windows`: plain
    /// windows, and a rank-two signal over noise `10^-decade` of its size.
    #[test]
    fn fit_matches_jacobi_reference_below_m_rows(
        pool in matrix(40, 12),
        m in 3usize..=12,
        t in 2usize..=11,
        kind in 0usize..2,
        decade in 0u32..10,
        fraction in 0.5..0.95f64,
    ) {
        let t = 2 + (t - 2) % (m - 2);
        let y = Matrix::from_fn(t, m, |i, j| {
            if kind == 1 {
                pool[(i, 0)] * pool[(0, j)]
                    + pool[(i, 1)] * pool[(1, j)]
                    + 0.1f64.powi(decade as i32) * pool[(i, j)]
            } else {
                pool[(i, j)]
            }
        });
        prop_assert!(y.rows() < y.cols());
        let policy = SeparationPolicy::VarianceFraction(fraction);
        let fit = SubspaceModel::fit(&y, policy, PcaMethod::Covariance);
        assert_matches_reference(fit, reference_model(&y, fraction));
    }
}

/// Hold a model to [`reference_model`]'s: either may find the residual
/// empty and say so with `DegenerateResidual`; otherwise the same `r`,
/// the threshold to 1e-9 relative plus `1e-13·λ₁`, and, where `λ_r` is
/// set apart from `λ_{r+1}`, the normal projector `PPᵀ` to 1e-8.
fn assert_matches_reference(
    got: netanom_core::Result<SubspaceModel>,
    want: netanom_core::Result<SubspaceModel>,
) {
    match (got, want) {
        (Err(CoreError::DegenerateResidual { .. }), _)
        | (_, Err(CoreError::DegenerateResidual { .. })) => {}
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(got.normal_dim(), want.normal_dim());
            let lambda1 = want.eigenvalues()[0];
            match (got.q_threshold(0.999), want.q_threshold(0.999)) {
                (Err(CoreError::DegenerateResidual { .. }), _)
                | (_, Err(CoreError::DegenerateResidual { .. })) => {}
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.delta_sq - b.delta_sq).abs() <= 1e-9 * b.delta_sq + 1e-13 * lambda1,
                    "threshold {} vs reference {}",
                    a.delta_sq,
                    b.delta_sq
                ),
                other => panic!("untyped threshold failure: {other:?}"),
            }
            let r = want.normal_dim();
            if r > 0 && want.eigenvalues()[r - 1] - want.eigenvalues()[r] > 1e-6 * lambda1 {
                let projector = |model: &SubspaceModel| {
                    let p = model.normal_basis();
                    p.matmul_nt(p).unwrap()
                };
                let diff = projector(&got).sub(&projector(&want)).unwrap().max_abs();
                prop_assert!(diff <= 1e-8, "normal projectors differ by {diff:e}");
            }
        }
        other => panic!("untyped model failure: {other:?}"),
    }
}

#[test]
fn truncated_variance_fraction_beyond_block_errors() {
    // A variance target the computed block cannot reach must refuse
    // (raise k) rather than silently shrink the subspace away from
    // `to_model`'s choice.
    let data = Matrix::from_fn(40, 10, |i, j| {
        ((i * 10 + j).wrapping_mul(2654435761) % 997) as f64
    });
    let inc = IncrementalCovariance::from_matrix(&data);
    let policy = netanom_core::SeparationPolicy::VarianceFraction(0.999_999);
    let err = inc.to_model_truncated(policy, 2, 1e-10).unwrap_err();
    assert!(matches!(
        err,
        netanom_core::CoreError::TruncatedBlockTooSmall { k: 2 }
    ));
    // With a reachable target and a block spanning enough of the
    // spectrum, it succeeds and matches the dense route's choice.
    let policy = netanom_core::SeparationPolicy::VarianceFraction(0.9);
    let dense = inc.to_model(policy).unwrap();
    let truncated = inc.to_model_truncated(policy, 9, 1e-10).unwrap();
    assert_eq!(dense.normal_dim(), truncated.normal_dim());
}
