//! Property-based tests for the linear-algebra substrate.
//!
//! Matrices are generated with bounded entries so that tolerance choices
//! scale predictably; shapes are kept in the workspace's realistic range.

use netanom_linalg::decomposition::{
    power_traces, Cholesky, LeadingEigen, Qr, SymmetricEigen, TruncatedEigen,
};
use netanom_linalg::{stats, vector, Matrix};
use proptest::prelude::*;

#[path = "support/jacobi.rs"]
mod jacobi;
#[path = "support/svd.rs"]
mod svd;
use svd::Svd;

/// Strategy: matrix with given shape and entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: arbitrary small shape (tall or square).
fn tall_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..12, 1usize..12).prop_map(|(a, b)| {
        let rows = a.max(b);
        let cols = a.min(b);
        (rows, cols)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in tall_shape().prop_flat_map(|(r, c)| matrix(r, c))) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_associates_with_identity(m in tall_shape().prop_flat_map(|(r, c)| matrix(r, c))) {
        let left = Matrix::identity(m.rows()).matmul(&m).unwrap();
        let right = m.matmul(&Matrix::identity(m.cols())).unwrap();
        prop_assert!(left.approx_eq(&m, 1e-12));
        prop_assert!(right.approx_eq(&m, 1e-12));
    }

    #[test]
    fn gram_equals_explicit_transpose_product(
        m in tall_shape().prop_flat_map(|(r, c)| matrix(r, c))
    ) {
        let explicit = m.transpose().matmul(&m).unwrap();
        prop_assert!(m.gram().approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn mean_centering_zeroes_column_means(
        m in (2usize..20, 1usize..8).prop_flat_map(|(r, c)| matrix(r, c))
    ) {
        let (centered, _) = m.mean_centered_columns();
        for mean in centered.column_means() {
            prop_assert!(mean.abs() < 1e-10);
        }
    }

    #[test]
    fn svd_reconstructs(shape in tall_shape(), seed in 0u64..1000) {
        let (r, c) = shape;
        let m = Matrix::from_fn(r, c, |i, j| {
            let h = (i * 31 + j * 17 + seed as usize).wrapping_mul(2654435761) % 2048;
            h as f64 / 1024.0 - 1.0
        });
        let svd = Svd::new(&m).unwrap();
        let tol = 1e-9 * m.frobenius_norm().max(1.0);
        prop_assert!(svd.reconstruct().approx_eq(&m, tol));
    }

    #[test]
    fn svd_values_match_gram_eigenvalues(shape in tall_shape(), seed in 0u64..1000) {
        let (r, c) = shape;
        let m = Matrix::from_fn(r, c, |i, j| {
            let h = (i * 13 + j * 7 + seed as usize).wrapping_mul(0x9E3779B9) % 4096;
            h as f64 / 2048.0 - 1.0
        });
        let svd = Svd::new(&m).unwrap();
        let eig = SymmetricEigen::new(&m.gram()).unwrap();
        for k in 0..c {
            let expected = eig.eigenvalues[k].max(0.0).sqrt();
            prop_assert!(
                (svd.sigma[k] - expected).abs() < 1e-7 * svd.sigma[0].max(1.0),
                "sigma[{}]={} vs sqrt(lambda)={}", k, svd.sigma[k], expected
            );
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric(n in 1usize..10, seed in 0u64..1000) {
        let base = Matrix::from_fn(n, n, |i, j| {
            let h = (i * 23 + j * 41 + seed as usize).wrapping_mul(2654435761) % 1024;
            h as f64 / 512.0 - 1.0
        });
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (base[(i, j)] + base[(j, i)]));
        let eig = SymmetricEigen::new(&sym).unwrap();
        let tol = 1e-9 * sym.frobenius_norm().max(1.0);
        prop_assert!(eig.reconstruct().approx_eq(&sym, tol));
        // Eigenvalues sorted decreasing.
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn eigenvector_matrix_is_orthogonal(n in 1usize..10, seed in 0u64..500) {
        let base = Matrix::from_fn(n, n, |i, j| {
            ((i * 7 + j * 3 + seed as usize) as f64 * 0.7).sin()
        });
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (base[(i, j)] + base[(j, i)]));
        let eig = SymmetricEigen::new(&sym).unwrap();
        prop_assert!(eig.eigenvectors.gram().approx_eq(&Matrix::identity(n), 1e-9));
    }

    #[test]
    fn qr_least_squares_residual_is_orthogonal(
        shape in tall_shape(), seed in 0u64..500
    ) {
        let (r, c) = shape;
        // Full-rank-ish random matrix plus diagonal boost for conditioning.
        let m = Matrix::from_fn(r, c, |i, j| {
            let h = (i * 19 + j * 29 + seed as usize).wrapping_mul(0x85EBCA6B) % 2048;
            let v = h as f64 / 1024.0 - 1.0;
            if i == j { v + 3.0 } else { v }
        });
        let b: Vec<f64> = (0..r).map(|i| ((i + seed as usize) as f64 * 0.37).cos()).collect();
        if let Ok(x) = Qr::new(&m).unwrap().solve_least_squares(&b) {
            let resid = vector::sub(&b, &m.matvec(&x).unwrap());
            let at_r = m.matvec_t(&resid).unwrap();
            prop_assert!(vector::norm_inf(&at_r) < 1e-7 * m.frobenius_norm().max(1.0));
        }
    }

    #[test]
    fn cholesky_solve_inverts(n in 1usize..8, seed in 0u64..500) {
        // Build an SPD matrix as G = B Bᵀ + I.
        let b = Matrix::from_fn(n, n + 2, |i, j| {
            let h = (i * 11 + j * 5 + seed as usize).wrapping_mul(2654435761) % 512;
            h as f64 / 256.0 - 1.0
        });
        let spd = b.matmul(&b.transpose()).unwrap()
            .add(&Matrix::identity(n)).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let rhs = spd.matvec(&x_true).unwrap();
        let x = Cholesky::new(&spd).unwrap().solve(&rhs).unwrap();
        prop_assert!(vector::approx_eq(&x, &x_true, 1e-8));
    }

    #[test]
    fn quantile_within_range(xs in proptest::collection::vec(-100.0..100.0f64, 1..50),
                             q in 0.0..=1.0f64) {
        let v = stats::quantile(&xs, q).unwrap();
        let (lo, hi) = stats::min_max(&xs).unwrap();
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn normal_cdf_quantile_roundtrip(p in 0.0001..0.9999f64) {
        let x = stats::inverse_normal_cdf(p).unwrap();
        prop_assert!((stats::normal_cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn histogram_total_counts_everything(
        xs in proptest::collection::vec(-2.0..2.0f64, 0..100)
    ) {
        let mut h = stats::Histogram::new(0.0, 1.0, 10).unwrap();
        let counted = h.add_all(&xs);
        prop_assert_eq!(counted, xs.len());
        prop_assert_eq!(h.total(), xs.len());
    }

    #[test]
    fn vector_norm_triangle_inequality(
        a in proptest::collection::vec(-10.0..10.0f64, 1..20),
        b in proptest::collection::vec(-10.0..10.0f64, 1..20)
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let sum = vector::add(a, b);
        prop_assert!(vector::norm(&sum) <= vector::norm(a) + vector::norm(b) + 1e-9);
    }

    #[test]
    fn projector_from_svd_is_idempotent(seed in 0u64..200) {
        // Build P = V_r V_rᵀ from the top singular directions and verify
        // the residual projector (I − P) is idempotent — the core algebraic
        // fact behind the subspace method.
        let m = Matrix::from_fn(20, 6, |i, j| {
            let h = (i * 3 + j * 37 + seed as usize).wrapping_mul(2654435761) % 1024;
            h as f64 / 512.0 - 1.0
        });
        let svd = Svd::new(&m).unwrap();
        let vr = svd.v.select_columns(&[0, 1]);
        let p = vr.matmul(&vr.transpose()).unwrap();
        let c_tilde = Matrix::identity(6).sub(&p).unwrap();
        let c2 = c_tilde.matmul(&c_tilde).unwrap();
        prop_assert!(c2.approx_eq(&c_tilde, 1e-10));
    }
}

/// Deterministic pseudo-random value in `[-1, 1)` for spectral fixtures.
fn hash_unit(i: usize) -> f64 {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A symmetric matrix with a prescribed spectrum: `A = V Λ Vᵀ` over a
/// hash-seeded orthonormal basis (modified Gram–Schmidt, two passes).
fn spectral_matrix(lambdas: &[f64], seed: u64) -> Matrix {
    let m = lambdas.len();
    let mut v = Matrix::from_fn(m, m, |i, j| hash_unit(seed as usize * m * m + i * m + j));
    for j in 0..m {
        for _pass in 0..2 {
            for prev in 0..j {
                let mut dot = 0.0;
                for i in 0..m {
                    dot += v[(i, prev)] * v[(i, j)];
                }
                for i in 0..m {
                    let sub = dot * v[(i, prev)];
                    v[(i, j)] -= sub;
                }
            }
        }
        let norm: f64 = (0..m).map(|i| v[(i, j)] * v[(i, j)]).sum::<f64>().sqrt();
        for i in 0..m {
            v[(i, j)] /= norm;
        }
    }
    let mut a = Matrix::zeros(m, m);
    for (j, &l) in lambdas.iter().enumerate() {
        for r in 0..m {
            for c in 0..m {
                a[(r, c)] += l * v[(r, j)] * v[(c, j)];
            }
        }
    }
    Matrix::from_fn(m, m, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Well-separated spectra: the truncated solver must reproduce the
    /// full Jacobi solve's top-k eigenpairs — values and sign-fixed
    /// vectors — to 1e-9 of the leading eigenvalue.
    #[test]
    fn truncated_matches_jacobi_on_separated_spectra(
        seed in 0u64..500,
        m in 18usize..40,
        k in 1usize..5,
        ratio in 0.25..0.75f64,
    ) {
        let lambdas: Vec<f64> = (0..m).map(|i| 1e8 * ratio.powi(i as i32)).collect();
        let a = spectral_matrix(&lambdas, seed);
        let full = SymmetricEigen::new(&a).unwrap();
        let top = TruncatedEigen::top_k(&a, k, 1e-12).unwrap();
        let scale = full.eigenvalues[0];
        for i in 0..k {
            prop_assert!(
                (top.eigenvalues[i] - full.eigenvalues[i]).abs() <= 1e-9 * scale,
                "eigenvalue {} differs: {} vs {}", i, top.eigenvalues[i], full.eigenvalues[i]
            );
            let tv = top.eigenvectors.col(i);
            let fv = full.eigenvectors.col(i);
            let dot: f64 = tv.iter().zip(&fv).map(|(x, y)| x * y).sum();
            let sign = if dot >= 0.0 { 1.0 } else { -1.0 };
            for (x, y) in tv.iter().zip(&fv) {
                prop_assert!((x - sign * y).abs() <= 1e-9, "eigenvector {} differs", i);
            }
        }
    }

    /// Near-degenerate spectra: clustered eigenvalues make individual
    /// eigenvectors ill-defined, but the computed *values* must still
    /// match Jacobi to 1e-9, every returned pair must satisfy the
    /// eigen-equation to the requested residual, and the basis must be
    /// orthonormal.
    #[test]
    fn truncated_survives_near_degenerate_spectra(
        seed in 0u64..300,
        m in 16usize..32,
        gap in 1e-12..1e-6f64,
    ) {
        let mut lambdas: Vec<f64> = (0..m).map(|i| 1e8 * 0.5f64.powi(i as i32)).collect();
        // Collapse λ₂ onto λ₁ and λ₄ onto λ₃ to within `gap` relative.
        lambdas[1] = lambdas[0] * (1.0 - gap);
        lambdas[3] = lambdas[2] * (1.0 - gap);
        let a = spectral_matrix(&lambdas, seed);
        let full = SymmetricEigen::new(&a).unwrap();
        let k = 5;
        let tol = 1e-11;
        let top = TruncatedEigen::top_k(&a, k, tol).unwrap();
        let scale = full.eigenvalues[0];
        for i in 0..k {
            prop_assert!(
                (top.eigenvalues[i] - full.eigenvalues[i]).abs() <= 1e-9 * scale,
                "clustered eigenvalue {} differs", i
            );
            let v = top.eigenvectors.col(i);
            let av = a.matvec(&v).unwrap();
            let mut res = 0.0f64;
            for (x, y) in av.iter().zip(&v) {
                let d = x - top.eigenvalues[i] * y;
                res += d * d;
            }
            // Rayleigh-quotient residual honored (room for the lock
            // threshold plus roundoff of this recomputation).
            prop_assert!(res.sqrt() <= 10.0 * tol * scale, "pair {} residual {:e}", i, res.sqrt());
        }
        let g = top.eigenvectors.gram();
        prop_assert!(g.approx_eq(&Matrix::identity(k), 1e-9));
    }

    /// Locking `pairs ≤ k` pairs is the `k`-pair solve stopped early:
    /// the same block, start and sweeps until pair `pairs` locks, so
    /// its values and vectors are the `k`-pair solve's first `pairs`,
    /// bit for bit.
    #[test]
    fn top_pairs_are_the_prefix_of_the_k_pair_solve(
        seed in 0u64..300,
        m in 24usize..48,
        k in 1usize..9,
        pairs_frac in 0.0..1.0f64,
        ratio in 0.3..0.8f64,
    ) {
        let pairs = 1 + ((k as f64 * pairs_frac) as usize).min(k - 1);
        let lambdas: Vec<f64> = (0..m).map(|i| 1e6 * ratio.powi(i as i32)).collect();
        let a = spectral_matrix(&lambdas, seed);
        let all = TruncatedEigen::top_k(&a, k, 1e-10).unwrap();
        let some = TruncatedEigen::top_pairs(&a, k, pairs, 1e-10).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&some.eigenvalues), bits(&all.eigenvalues[..pairs]));
        let idx: Vec<usize> = (0..pairs).collect();
        prop_assert_eq!(
            bits(some.eigenvectors.as_slice()),
            bits(all.eigenvectors.select_columns(&idx).as_slice())
        );
        prop_assert!(some.sweeps <= all.sweeps);
    }

    /// The power traces equal the spectrum's power sums — the identity
    /// the truncated refit's exact threshold rests on.
    #[test]
    fn power_traces_equal_spectrum_power_sums(seed in 0u64..300, m in 4usize..24) {
        let lambdas: Vec<f64> = (0..m)
            .map(|i| 1e6 * (1.0 + hash_unit(seed as usize * 31 + i)).max(1e-3))
            .collect();
        let a = spectral_matrix(&lambdas, seed);
        let (t1, t2, t3) = power_traces(&a).unwrap();
        let s1: f64 = lambdas.iter().sum();
        let s2: f64 = lambdas.iter().map(|l| l * l).sum();
        let s3: f64 = lambdas.iter().map(|l| l * l * l).sum();
        prop_assert!((t1 - s1).abs() <= 1e-9 * s1.abs().max(1.0));
        prop_assert!((t2 - s2).abs() <= 1e-9 * s2.abs().max(1.0));
        prop_assert!((t3 - s3).abs() <= 1e-8 * s3.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------
// `SymmetricEigen` (Householder tridiagonalisation + implicit QL) against
// the cyclic-Jacobi oracle in `support/jacobi.rs`.
// ---------------------------------------------------------------------

/// Hold `SymmetricEigen::new(a)` to its accuracy contract, with the
/// oracle's spectrum as the reference and `λ₁` the spectral radius:
/// descending order; trace preserved; every eigenvalue within
/// `1e-10·λ₁` of the oracle's; `max |AV − VΛ| ≤ 1e-10·λ₁`;
/// `max |VᵀV − I| ≤ 1e-10`; and for every run of eigenvalues set apart
/// from its neighbours by more than `1e-6·λ₁`, the same spanned
/// projector `PPᵀ` as the oracle's — single vectors are sign-ambiguous,
/// and arbitrary inside a cluster, so they are not compared. The
/// projector tolerance is the Davis–Kahan bound for two solves that are
/// each backward stable to `4·n·ε·λ₁`: that error over the gap (observed
/// differences stay under a fifth of it).
fn assert_matches_oracle(a: &Matrix) {
    let n = a.rows();
    let eig = SymmetricEigen::new(a).unwrap();
    let (want, want_vecs) = jacobi::jacobi_eigen(a);
    let radius = want[0].abs().max(want[n - 1].abs());
    let tol = 1e-10 * radius;

    assert_eq!(eig.eigenvalues.len(), n);
    assert_eq!(eig.eigenvectors.shape(), (n, n));
    for w in eig.eigenvalues.windows(2) {
        assert!(w[0] >= w[1], "not descending: {} then {}", w[0], w[1]);
    }
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    let sum: f64 = eig.eigenvalues.iter().sum();
    assert!((sum - trace).abs() <= tol, "trace {trace} vs Σλ {sum}");
    for (k, (got, want)) in eig.eigenvalues.iter().zip(&want).enumerate() {
        assert!((got - want).abs() <= tol, "λ[{k}]: {got} vs oracle {want}");
    }

    let v = &eig.eigenvectors;
    let av = a.matmul(v).unwrap();
    let vl = v.matmul(&Matrix::from_diag(&eig.eigenvalues)).unwrap();
    let residual = av.sub(&vl).unwrap().max_abs();
    assert!(
        residual <= tol,
        "max|AV − VΛ| = {residual:e}, λ₁ = {radius:e}"
    );
    let orth = v.gram().sub(&Matrix::identity(n)).unwrap().max_abs();
    assert!(orth <= 1e-10, "max|VᵀV − I| = {orth:e}");

    // Runs of oracle eigenvalues with no internal gap above 1e-6·λ₁.
    let gap_after = |k: usize| want[k] - want[k + 1];
    let mut start = 0;
    for end in 1..=n {
        if end < n && gap_after(end - 1) <= 1e-6 * radius {
            continue;
        }
        let mut gap = f64::INFINITY;
        if start > 0 {
            gap = gap.min(gap_after(start - 1));
        }
        if end < n {
            gap = gap.min(gap_after(end - 1));
        }
        if gap.is_finite() {
            let run: Vec<usize> = (start..end).collect();
            let projector = |vecs: &Matrix| {
                let p = vecs.select_columns(&run);
                p.matmul_nt(&p).unwrap()
            };
            let diff = projector(v).sub(&projector(&want_vecs)).unwrap().max_abs();
            let bound = 8.0 * n as f64 * f64::EPSILON * radius / gap;
            assert!(
                diff <= bound,
                "projector of λ[{start}..{end}] differs by {diff:e} (gap {gap:e}, bound {bound:e})"
            );
        }
        start = end;
    }
    assert_leading_matches_full(a, &eig, tol);
}

/// Hold [`LeadingEigen`] to the full solve for `r ∈ {0, 1, ⌈n/2⌉, n}`:
/// its spectrum is exactly `of_covariance`'s eigenvalue bits; every
/// vector entry of `into_leading(r)` is within `1e-12` of the full
/// solve's column, signs not fixed; the vectors keep the residual bound
/// `tol` (against `full`'s unclamped eigenvalues) and orthonormality to
/// `1e-10`; and vectors asked for one at a time are the batch's columns
/// bitwise.
fn assert_leading_matches_full(a: &Matrix, full: &SymmetricEigen, tol: f64) {
    let n = a.rows();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want = bits(&SymmetricEigen::of_covariance(a).unwrap().eigenvalues);
    for r in [0, 1, n.div_ceil(2), n] {
        let solve = LeadingEigen::of_covariance(a).unwrap();
        assert_eq!(bits(solve.eigenvalues()), want, "spectrum at r = {r}");
        let lead = solve.into_leading(r);
        assert_eq!(bits(&lead.eigenvalues), want, "eigenvalue bits at r = {r}");
        assert_eq!(lead.eigenvectors.shape(), (n, r));
        let v = &lead.eigenvectors;
        for k in 0..r {
            for i in 0..n {
                let (got, want) = (v[(i, k)], full.eigenvectors[(i, k)]);
                assert!(
                    (got - want).abs() <= 1e-12,
                    "vector {k} entry {i}: {got:e} vs full {want:e} (r = {r})"
                );
            }
            let av = a.matvec(&v.col(k)).unwrap();
            for i in 0..n {
                let res = (av[i] - full.eigenvalues[k] * v[(i, k)]).abs();
                assert!(res <= tol, "|Av − λv| = {res:e} on vector {k} (r = {r})");
            }
        }
        let orth = v.gram().sub(&Matrix::identity(r)).unwrap().max_abs();
        assert!(orth <= 1e-10, "max|VᵀV − I| = {orth:e} at r = {r}");

        // Built on request, one replay per vector, each is the batch's
        // column bit for bit.
        let mut on_demand = LeadingEigen::of_covariance(a).unwrap();
        for k in 0..r {
            assert_eq!(
                bits(on_demand.vector(k)),
                bits(&v.col(k)),
                "on-demand vector {k} (r = {r})"
            );
        }
        assert_eq!(on_demand.into_leading(r).eigenvectors, lead.eigenvectors);
    }
}

/// Hashed `t × n` data whose columns differ in mean and scale, like link
/// byte counts; `dup` maps a column to the one it copies, `None` to a
/// constant (a link that never varies).
fn link_data(t: usize, n: usize, seed: u64, dup: impl Fn(usize) -> Option<usize>) -> Matrix {
    Matrix::from_fn(t, n, |i, j| match dup(j) {
        None => 7.0,
        Some(j) => {
            let scale = 10f64.powi((j % 4) as i32);
            scale * (3.0 + hash_unit(seed as usize * 7919 + i * n + j))
        }
    })
}

/// Sample covariance of the rows of `data`.
fn covariance(data: &Matrix) -> Matrix {
    let (centered, _) = data.mean_centered_columns();
    centered
        .gram()
        .scaled(1.0 / (data.rows() as f64 - 1.0).max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eigen_matches_oracle_on_dense_symmetric(n in 1usize..=64, seed in 0u64..1000) {
        let a = Matrix::from_fn(n, n, |i, j| {
            10.0 * hash_unit(seed as usize * 4099 + i.min(j) * n + i.max(j))
        });
        assert_matches_oracle(&a);
    }

    #[test]
    fn eigen_matches_oracle_on_covariances(n in 1usize..=64, extra in 1usize..100, seed in 0u64..1000) {
        assert_matches_oracle(&covariance(&link_data(n + extra, n, seed, Some)));
    }

    /// `c·I` exactly, and spectra made of a few values each repeated
    /// across a block.
    #[test]
    fn eigen_matches_oracle_on_repeated_eigenvalues(
        n in 1usize..=64, block in 1usize..9, c in -50.0..50.0f64, seed in 0u64..1000
    ) {
        assert_matches_oracle(&Matrix::identity(n).scaled(c));
        let lambdas: Vec<f64> = (0..n).map(|i| c + 10.0 * (i / block) as f64).collect();
        assert_matches_oracle(&spectral_matrix(&lambdas, seed));
    }

    /// Pairs `λ, λ(1 + 1e-12)`: closer than any solver resolves.
    #[test]
    fn eigen_matches_oracle_on_clustered_eigenvalues(n in 2usize..=64, seed in 0u64..1000) {
        let lambdas: Vec<f64> = (0..n)
            .map(|i| 1e6 * 0.7f64.powi((i / 2) as i32) * (1.0 + 1e-12 * (i % 2) as f64))
            .collect();
        assert_matches_oracle(&spectral_matrix(&lambdas, seed));
    }

    /// Fifteen decades, `1e15 … 1`: the small end is below the roundoff
    /// of the large one.
    #[test]
    fn eigen_matches_oracle_on_graded_spectra(n in 2usize..=64, seed in 0u64..1000) {
        let lambdas: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(15.0 * (1.0 - i as f64 / (n - 1) as f64)))
            .collect();
        assert_matches_oracle(&spectral_matrix(&lambdas, seed));
    }

    /// Gram matrices of data with duplicated columns and, half the time,
    /// fewer rows than columns.
    #[test]
    fn eigen_matches_oracle_on_rank_deficient_gram(
        n in 2usize..=64, t in 2usize..100, seed in 0u64..1000
    ) {
        assert_matches_oracle(&link_data(t, n, seed, |j| Some(j - j % 2)).gram());
    }

    /// Constant links: whole rows and columns of the covariance are
    /// exactly zero.
    #[test]
    fn eigen_matches_oracle_with_zero_rows_and_columns(
        n in 2usize..=64, extra in 1usize..50, seed in 0u64..1000
    ) {
        let cov = covariance(&link_data(n + extra, n, seed, |j| (j % 3 != 1).then_some(j)));
        prop_assert!((0..n).all(|k| cov[(1, k)] == 0.0 && cov[(k, 1)] == 0.0));
        assert_matches_oracle(&cov);
    }

    #[test]
    fn eigen_matches_oracle_on_one_by_one_and_two_by_two(
        a in -1e6..1e6f64, b in -1e6..1e6f64, d in -1e6..1e6f64
    ) {
        assert_matches_oracle(&Matrix::from_rows(&[vec![a]]));
        for off in [b, 0.0, 1e-300, a] {
            assert_matches_oracle(&Matrix::from_rows(&[vec![a, off], vec![off, d]]));
            assert_matches_oracle(&Matrix::from_rows(&[vec![a, off], vec![off, a]]));
        }
    }
}

fn hashed_symmetric(n: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
        let mut h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lo.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .wrapping_add(hi.wrapping_mul(0x27d4_eb2f_1656_67c5));
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % 2000) as f64 / 100.0 - 10.0
    })
}

/// The oracle's contiguous row-pair rotations are a memory-layout change
/// over the textbook strided loops, nothing else: every output bit is
/// the same. Sizes large enough for many sweeps and for rotation skips
/// to fire.
#[test]
fn restructured_sweep_is_bitwise_original() {
    for (n, seed) in [(3usize, 1u64), (8, 2), (17, 3), (33, 4)] {
        let a = hashed_symmetric(n, seed);
        let (vals, vecs) = jacobi::jacobi_eigen(&a);
        let (ref_vals, ref_vecs) = jacobi::jacobi_eigen_scalar(&a);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals), bits(&ref_vals), "eigenvalue drift at n={n}");
        assert_eq!(
            bits(vecs.as_slice()),
            bits(ref_vecs.as_slice()),
            "eigenvector drift at n={n}"
        );
    }
}

/// The solve is serial scalar arithmetic with no GEMM kernel, so its
/// output bits are one fixed function of the input: pinned here, and
/// rerun by CI under `RAYON_NUM_THREADS` 1 and 8, where any dependence
/// would move the digest.
#[test]
fn eigen_bits_are_independent_of_threads_and_kernel_tier() {
    let eig = SymmetricEigen::new(&hashed_symmetric(48, 5)).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for x in eig.eigenvalues.iter().chain(eig.eigenvectors.as_slice()) {
        for byte in x.to_bits().to_le_bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        digest, 0x0730_727d_4fe7_5856,
        "FNV-1a of eigenvalues then eigenvectors"
    );
}

/// FNV-1a over the eigenvalues' then the eigenvectors' bits.
fn eigen_digest(values: &[f64], vectors: &Matrix) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for x in values.iter().chain(vectors.as_slice()) {
        for byte in x.to_bits().to_le_bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// A covariance-like spectrum: six steep principal axes, then a slowly
/// decaying noise floor — where the block's trailing pairs converge.
fn knee_spectrum(m: usize) -> Vec<f64> {
    (0..m)
        .map(|i| {
            if i < 6 {
                1e8 * 0.5f64.powi(i as i32)
            } else {
                1e5 * 0.97f64.powi(i as i32)
            }
        })
        .collect()
}

/// The truncated solver's output bits at `k = 8` on the refit widths,
/// pinned: a rewrite of the sweep (the Gram–Schmidt layout, the lock
/// count) must leave every bit where it was. The `A·Q` products run on
/// the fused product tile; CI reruns this under `RAYON_NUM_THREADS` 1
/// and 8.
#[test]
fn truncated_bits_are_pinned() {
    for (m, seed, want) in [
        (121usize, 11u64, 0x0f14_503c_6819_2112u64),
        (256, 12, 0x3380_747d_59a7_dcae),
    ] {
        let a = spectral_matrix(&knee_spectrum(m), seed);
        let top = TruncatedEigen::top_k(&a, 8, 1e-10).unwrap();
        assert!(top.sweeps > 0, "m = {m}: expected the iterative path");
        let digest = eigen_digest(&top.eigenvalues, &top.eigenvectors);
        assert_eq!(digest, want, "m = {m}: FNV-1a of the top-8 eigenpairs");
    }
}
