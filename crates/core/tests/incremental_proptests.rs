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

/// A `rows × m` stream in [-50, 50], hashed from `seed`, with special
/// values injected at `(row, column, kind)` (both taken modulo the
/// shape): `±0.0`, `NaN`, `±∞`, or a zero with an infinity right of it.
fn special_stream(rows: usize, m: usize, seed: u64, specials: &[(usize, usize, u8)]) -> Matrix {
    let mut y = Matrix::from_fn(rows, m, |i, j| {
        let h = (seed ^ (i * m + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        h as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
    });
    for &(r, c, kind) in specials {
        let (r, c) = (r % rows, c % m);
        match kind % 6 {
            5 => {
                y[(r, c)] = 0.0;
                y[(r, (c + 1) % m)] = f64::INFINITY;
            }
            k => y[(r, c)] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k as usize],
        }
    }
    y
}

/// Feed `y` through a `window`-row window in `blocks` of rows, once
/// block by block ([`CovarianceShard::observe_block`]) and once row by
/// row ([`CovarianceShard::observe`]), over `shards` round-robin link
/// sets and over all links; the first place the bytes differ, if any.
fn block_vs_row_mismatch(
    y: &Matrix,
    window: usize,
    blocks: &[usize],
    shards: usize,
) -> Option<String> {
    let m = y.cols();
    let k = shards.min(m);
    let groups: Vec<Vec<usize>> = (0..k).map(|s| (s..m).step_by(k).collect()).collect();
    let fresh = || -> Vec<CovarianceShard> {
        groups
            .iter()
            .map(|g| CovarianceShard::new(m, g).unwrap())
            .collect()
    };
    let (mut by_row, mut by_block) = (fresh(), fresh());
    let mut global = IncrementalCovariance::new(m);
    let mut window_rows = RingWindow::new(window, m);
    let mut window_blocks = RingWindow::new(window, m);
    let mut next = 0;
    for &len in blocks {
        for t in next..next + len {
            let evicted = window_rows.oldest();
            for s in &mut by_row {
                s.observe(evicted, y.row(t)).unwrap();
            }
            window_rows.push(y.row(t));
        }
        let block = y.row_block(next, len).unwrap();
        let evicted = window_blocks.evictions(&block);
        for s in &mut by_block {
            s.observe_block(&evicted, &block).unwrap();
        }
        global.observe_block(&evicted, &block).unwrap();
        for t in 0..len {
            window_blocks.push(block.row(t));
        }
        next += len;
        for (got, want) in by_block.iter().zip(&by_row) {
            if got.to_bytes() != want.to_bytes() {
                return Some(format!("links {:?}, {next} rows", got.links()));
            }
        }
        let merged = IncrementalCovariance::merge(&by_row).unwrap();
        if global.to_bytes() != merged.to_bytes() {
            return Some(format!("all links, {next} rows"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `observe_block` leaves the bytes the per-row `observe` loop
    /// leaves, whatever the block lengths (one row, past the window,
    /// past the tile's `KC` depth), over all links and round-robin link
    /// sets, with signed zeros and non-finite values among the rows.
    #[test]
    fn observe_block_is_bitwise_the_row_loop(
        m in 2usize..72,
        window in 1usize..48,
        blocks in proptest::collection::vec(1usize..160, 1..5),
        shards in 1usize..4,
        seed in 0u64..u64::MAX,
        specials in proptest::collection::vec((0usize..1000, 0usize..72, 0u8..6), 0..5),
    ) {
        let rows: usize = blocks.iter().sum();
        let y = special_stream(rows, m, seed, &specials);
        prop_assert_eq!(block_vs_row_mismatch(&y, window, &blocks, shards), None);
    }
}

/// A NaN one block leaves in `Σ y yᵀ`, met in a later block by the NaN
/// `∞·0` makes: row 3 of the first block holds a NaN at link 5, which
/// every row's entry at column 5 keeps; row 2 of the second block holds
/// an infinity at link 1 and a zero at link 5, so entry (1, 5) takes
/// `NaN + ∞·0`. At 64 links, 40-row blocks are past the packing
/// crossover for all links and for each of two round-robin shards, and
/// the window outlasts both, so the second block holds no NaN.
#[test]
fn observe_block_keeps_a_stored_nan_from_meeting_a_made_one() {
    let mut y = special_stream(80, 64, 11, &[]);
    y[(3, 5)] = f64::NAN;
    y[(40 + 2, 1)] = f64::INFINITY;
    y[(40 + 2, 5)] = 0.0;
    for shards in 1..3 {
        assert_eq!(block_vs_row_mismatch(&y, 128, &[40, 40], shards), None);
    }
}

/// Blocks whose update fans out across workers (more than twice the
/// kernel's per-worker floor of multiply-adds), at a width the block
/// update packs and at one it runs unpacked, over all links and
/// round-robin link sets: the bytes are the row loop's whatever the
/// worker count, which CI runs at one and at eight threads.
#[test]
fn observe_block_fanned_out_is_bitwise_the_row_loop() {
    for (m, window, blocks) in [(200, 300, [400, 40]), (100, 600, [1000, 40])] {
        let y = special_stream(1440, m, 5, &[]);
        for shards in [1, 2] {
            assert_eq!(
                block_vs_row_mismatch(&y, window, &blocks, shards),
                None,
                "m = {m}"
            );
        }
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
