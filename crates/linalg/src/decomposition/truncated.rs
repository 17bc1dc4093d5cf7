//! Truncated symmetric eigendecomposition: the top-k eigenpairs by
//! blocked subspace iteration with deflation.
//!
//! The subspace method only ever consumes the leading `k ≈ 4` principal
//! axes of the link-traffic covariance, yet the dense solve pays
//! `O(m³)` for all `m` of them. [`TruncatedEigen`] computes
//! just the top of the spectrum:
//!
//! * **Blocked subspace iteration.** An `m × b` orthonormal block
//!   (`b = k` plus oversampling) is repeatedly multiplied by `A` — one
//!   GEMM, `O(m²·b)` per sweep — and re-orthonormalized.
//! * **Rayleigh–Ritz extraction.** Each sweep diagonalizes the small
//!   `b × b` projection `QᵀAQ` (a cheap [`SymmetricEigen`] solve) and rotates the
//!   block onto the Ritz vectors, so eigenvalue estimates converge
//!   quadratically in the subspace angle.
//! * **Rayleigh-quotient residual stopping rule.** A Ritz pair
//!   `(θ, v)` is accepted when `‖Av − θv‖ ≤ tol · θ₁` — the
//!   backward-error criterion; for a symmetric matrix it bounds the
//!   eigenvalue error by the residual itself (and quadratically via the
//!   spectral gap).
//! * **Deflation.** Accepted pairs are locked: later sweeps
//!   orthogonalize the active block against them and iterate only the
//!   still-unconverged directions, shrinking the per-sweep cost as
//!   pairs converge. The solve stops once the pairs asked for are
//!   locked ([`TruncatedEigen::top_pairs`] asks for fewer than the
//!   block is sized for).
//!
//! Convergence per sweep is geometric in `λ_{b+1}/λ_i`, so the
//! oversampled block converges in a few dozen sweeps on covariance
//! spectra with a knee — the regime the subspace method selects `k`
//! in. A flat, gap-free spectrum at the block boundary converges slowly
//! (the iteration cannot tell near-equal eigendirections apart); the
//! sweep budget bounds that case and surfaces it as
//! [`LinalgError::NonConvergence`].

use super::jacobi::ensure_finite_symmetric;
use crate::decomposition::SymmetricEigen;
use crate::{LinalgError, Matrix, Result};

/// Sweep budget; each sweep costs one `m × m × b` GEMM. Spectra with a
/// relative gap `λ_{b+1}/λ_k ≤ 0.9` converge in well under 300 sweeps
/// at `tol = 1e-12`.
const MAX_SWEEPS: usize = 600;

/// Effective floor on the convergence tolerance: residuals cannot be
/// driven below the roundoff of the `A·Q` product.
const TOL_FLOOR: f64 = 1e-14;

/// Extra block columns beyond `k`: oversampling pushes the convergence
/// ratio down to `λ_{b+1}/λ_i` at linear extra cost per sweep.
fn oversampled_block(k: usize, m: usize) -> usize {
    (k + 4 + k / 2).min(m)
}

/// The top-k eigenpairs `A vᵢ = λᵢ vᵢ` of a symmetric matrix,
/// eigenvalues decreasing.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::TruncatedEigen};
/// let a = Matrix::from_diag(&[9.0, 4.0, 1.0, 0.25]);
/// let top = TruncatedEigen::top_k(&a, 2, 1e-12).unwrap();
/// assert!((top.eigenvalues[0] - 9.0).abs() < 1e-9);
/// assert!((top.eigenvalues[1] - 4.0).abs() < 1e-9);
/// assert_eq!(top.eigenvectors.shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct TruncatedEigen {
    /// The largest eigenvalues, decreasing: `k` of them from
    /// [`TruncatedEigen::top_k`], `pairs` from
    /// [`TruncatedEigen::top_pairs`].
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvectors as columns (`m × len`), pairing with
    /// [`TruncatedEigen::eigenvalues`].
    pub eigenvectors: Matrix,
    /// Subspace-iteration sweeps spent (0 when the dense fallback ran).
    pub sweeps: usize,
}

impl TruncatedEigen {
    /// Compute the top-k eigenpairs of a symmetric matrix.
    ///
    /// `tol` is the relative Rayleigh-quotient residual bound: a Ritz
    /// pair is accepted once `‖Av − θv‖ ≤ tol · θ₁` (with `θ₁` the
    /// current largest Ritz value). Eigenvalue accuracy is at worst the
    /// residual and quadratically better across a spectral gap.
    ///
    /// Falls back to the dense [`SymmetricEigen`] solve when the
    /// oversampled block would span (nearly) the whole space — tiny
    /// matrices or `k` close to `m` — where iteration saves nothing.
    ///
    /// Errors: [`LinalgError::Empty`] / [`LinalgError::DimensionMismatch`]
    /// / [`LinalgError::NotSymmetric`] on malformed input (including
    /// `k == 0`, `k > m`, or a non-finite/non-positive `tol`),
    /// [`LinalgError::DomainError`] on a NaN or infinite entry, and
    /// [`LinalgError::NonConvergence`] when the sweep budget is spent —
    /// a gap-free spectrum at the block boundary.
    pub fn top_k(a: &Matrix, k: usize, tol: f64) -> Result<Self> {
        Self::top_pairs(a, k, k, tol)
    }

    /// The leading `pairs ≤ k` eigenpairs, iterated in the block
    /// [`TruncatedEigen::top_k`] sizes for `k`: the solve stops as soon
    /// as `pairs` pairs are locked.
    ///
    /// The block, the start and every sweep are `top_k(a, k, tol)`'s
    /// until then, and pairs lock in order, so the result is **bitwise**
    /// the first `pairs` values and vectors of the `k`-pair solve — at
    /// the cost of the sweeps it takes to lock `pairs`, not `k`. The
    /// block stays sized from `k` because a narrow block converges
    /// slowly where the spectrum clusters past the pairs wanted.
    ///
    /// Errors as [`TruncatedEigen::top_k`], plus
    /// [`LinalgError::DimensionMismatch`] when `pairs == 0` or
    /// `pairs > k`.
    pub fn top_pairs(a: &Matrix, k: usize, pairs: usize, tol: f64) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty {
                op: "truncated eigendecomposition",
            });
        }
        if !a.is_square() || k == 0 || k > a.rows() {
            return Err(LinalgError::DimensionMismatch {
                op: "truncated eigendecomposition (needs square A, 1 <= k <= m)",
                lhs: a.shape(),
                rhs: (k, k),
            });
        }
        if pairs == 0 || pairs > k {
            return Err(LinalgError::DimensionMismatch {
                op: "truncated eigendecomposition (needs 1 <= pairs <= k)",
                lhs: a.shape(),
                rhs: (pairs, k),
            });
        }
        if !(tol.is_finite() && tol > 0.0) {
            return Err(LinalgError::DimensionMismatch {
                op: "truncated eigendecomposition (tol must be positive and finite)",
                lhs: a.shape(),
                rhs: (k, k),
            });
        }
        ensure_finite_symmetric(a, "truncated eigendecomposition")?;

        let m = a.rows();
        let block = oversampled_block(k, m);
        // Dense fallback: iteration cannot beat one exact solve when the
        // block spans (nearly) everything.
        if block + 2 >= m {
            let full = SymmetricEigen::new(a)?;
            let idx: Vec<usize> = (0..pairs).collect();
            return Ok(TruncatedEigen {
                eigenvalues: full.eigenvalues[..pairs].to_vec(),
                eigenvectors: full.eigenvectors.select_columns(&idx),
                sweeps: 0,
            });
        }

        let tol = tol.max(TOL_FLOOR);
        // Deterministic quasi-random start block (no RNG dependency; the
        // same inputs always produce the same factorization).
        let mut q = Matrix::from_fn(m, block, |i, j| hash_unit(i * block + j));
        let mut locked_vecs: Vec<Vec<f64>> = Vec::with_capacity(pairs);
        let mut locked_vals: Vec<f64> = Vec::with_capacity(pairs);
        orthonormalize(&mut q, &locked_vecs);

        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS {
            sweeps += 1;
            // One GEMM: Z = A·Q, the O(m²·b) step.
            let z = a.matmul(&q)?;
            // Rayleigh–Ritz on the active block: S = QᵀAQ (symmetrized
            // against roundoff), small dense solve, rotate onto the
            // Ritz basis. `matmul_tn` skips the transposed copy of Q.
            let s_raw = q.matmul_tn(&z)?;
            let b_active = q.cols();
            let s = Matrix::from_fn(b_active, b_active, |i, j| {
                0.5 * (s_raw[(i, j)] + s_raw[(j, i)])
            });
            let small = SymmetricEigen::new(&s)?;
            let ritz_vecs = q.matmul(&small.eigenvectors)?;
            let az = z.matmul(&small.eigenvectors)?;

            // Residual check on the leading active pairs: lock the
            // converged prefix (deflation).
            let theta1 = locked_vals
                .first()
                .copied()
                .unwrap_or(small.eigenvalues[0])
                .abs()
                .max(small.eigenvalues[0].abs())
                .max(f64::MIN_POSITIVE);
            // Residual norms for every active Ritz pair in one
            // row-major pass: walking `az` and `ritz_vecs` a row at a
            // time touches memory contiguously, where the textbook
            // per-column loop strides by `b_active` on every step.
            // Each column's sum still accumulates in ascending-row
            // order into its own accumulator, so the values are
            // bitwise what the column-at-a-time loop produced.
            let mut res_sq = vec![0.0f64; b_active];
            for row in 0..m {
                let az_row = az.row(row);
                let rv_row = ritz_vecs.row(row);
                for i in 0..b_active {
                    let r = az_row[i] - small.eigenvalues[i] * rv_row[i];
                    res_sq[i] += r * r;
                }
            }
            let mut newly_locked = 0;
            for i in 0..b_active {
                if locked_vals.len() >= pairs {
                    break;
                }
                if res_sq[i].sqrt() <= tol * theta1 {
                    locked_vals.push(small.eigenvalues[i]);
                    locked_vecs.push(ritz_vecs.col(i));
                    newly_locked += 1;
                } else {
                    break; // lock only a prefix, preserving order
                }
            }
            if locked_vals.len() >= pairs {
                let vectors = Matrix::from_fn(m, pairs, |i, j| locked_vecs[j][i]);
                return Ok(TruncatedEigen {
                    eigenvalues: locked_vals,
                    eigenvectors: vectors,
                    sweeps,
                });
            }

            // Next iterate: the *multiplied* block rotated onto the Ritz
            // basis (`Z·W` spans `range(A·Q)` — this is the power step
            // that advances the subspace), minus the newly locked
            // columns, deflated against everything locked so far.
            let remaining: Vec<usize> = (newly_locked..b_active).collect();
            q = az.select_columns(&remaining);
            orthonormalize(&mut q, &locked_vecs);
        }
        Err(LinalgError::NonConvergence {
            algorithm: "blocked subspace iteration",
            iterations: sweeps,
        })
    }

    /// Top-k eigenpairs of a covariance matrix for a model refit:
    /// eigenvalues that cancellation drove slightly negative are clamped
    /// to zero, mirroring
    /// [`SymmetricEigen::of_covariance`].
    pub fn of_covariance(cov: &Matrix, k: usize, tol: f64) -> Result<Self> {
        Self::covariance_pairs(cov, k, k, tol)
    }

    /// [`TruncatedEigen::top_pairs`] for a covariance refit, with
    /// [`TruncatedEigen::of_covariance`]'s clamp: the leading `pairs`
    /// of the `k`-pair solve, bit for bit.
    pub fn covariance_pairs(cov: &Matrix, k: usize, pairs: usize, tol: f64) -> Result<Self> {
        let mut eig = Self::top_pairs(cov, k, pairs, tol)?;
        for l in &mut eig.eigenvalues {
            if *l < 0.0 {
                *l = 0.0;
            }
        }
        Ok(eig)
    }

    /// Number of computed eigenpairs.
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// `true` when no eigenpairs were requested (never constructed; kept
    /// for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }
}

/// The first three power-sum traces of a symmetric matrix:
/// `(tr A, tr A², tr A³)` — exactly the spectrum's `Σλ`, `Σλ²`, `Σλ³`
/// without computing the spectrum.
///
/// `tr A` is `O(m)`, `tr A² = ‖A‖²_F` is `O(m²)`, and `tr A³ = ⟨A², A⟩`
/// costs one `m × m` Gram product (`m³/2` multiply-adds, but a single
/// cache-friendly, row-parallel pass — nothing like an iterative
/// eigensolve's constant). These are what lets a truncated refit keep
/// the Jackson–Mudholkar Q-statistic *exact*: the residual moments are
/// the traces minus the computed leading eigenvalues' contributions.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::power_traces};
/// let a = Matrix::from_diag(&[3.0, 2.0, 1.0]);
/// let (t1, t2, t3) = power_traces(&a).unwrap();
/// assert_eq!(t1, 6.0);
/// assert_eq!(t2, 14.0);
/// assert_eq!(t3, 36.0);
/// ```
pub fn power_traces(a: &Matrix) -> Result<(f64, f64, f64)> {
    if a.is_empty() {
        return Err(LinalgError::Empty { op: "power traces" });
    }
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "power traces",
            lhs: a.shape(),
            rhs: (a.cols(), a.rows()),
        });
    }
    let m = a.rows();
    let mut t1 = 0.0;
    for i in 0..m {
        t1 += a[(i, i)];
    }
    let mut t2 = 0.0;
    for v in a.as_slice() {
        t2 += v * v;
    }
    // AᵀA = A² for symmetric A; ⟨A², A⟩_F = tr A³. The Gram product
    // computes only the upper triangle, half the multiply-adds of A·Aᵀ,
    // and on an exactly symmetric A each entry is the same terms in the
    // same order, so the same bits.
    let a2 = a.gram();
    let mut t3 = 0.0;
    for (x, y) in a2.as_slice().iter().zip(a.as_slice()) {
        t3 += x * y;
    }
    Ok((t1, t2, t3))
}

/// Deterministic pseudo-random value in `[-1, 1)` (splitmix64 finalizer).
fn hash_unit(i: usize) -> f64 {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// In-place modified Gram–Schmidt (two passes for stability) against the
/// locked vectors and the preceding columns. Columns that lose (nearly)
/// all their norm — rank deficiency in the iterate — are replaced by
/// fresh deterministic directions and re-orthogonalized. "Nearly all" is
/// relative to the norm the column came in with: an iterate column is
/// `A·v`, on the scale of `A`'s eigenvalues, and a spectrum that is small
/// in absolute terms (traffic counted in a large unit) is not deficient.
///
/// The sweep runs on `Qᵀ`, whose rows are `Q`'s columns, so every dot
/// and update walks contiguous memory where indexing the row-major
/// `m × b` block by column strides by `b`. The operations and their
/// order are the column-wise loop's — the same dots in ascending row
/// order, the same updates — so the result is bitwise the same.
fn orthonormalize(q: &mut Matrix, locked: &[Vec<f64>]) {
    let m = q.rows();
    let b = q.cols();
    let mut qt = q.transpose();
    let columns = qt.data_mut();
    let mut col = vec![0.0; m];
    for j in 0..b {
        let (done, rest) = columns.split_at_mut(j * m);
        let out = &mut rest[..m];
        for attempt in 0..3 {
            col.copy_from_slice(out);
            let incoming = col.iter().map(|v| v * v).sum::<f64>().sqrt();
            for _pass in 0..2 {
                for basis in locked.iter() {
                    project_out(&mut col, basis);
                }
                for prev in done.chunks_exact(m) {
                    project_out(&mut col, prev);
                }
            }
            let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 1e-12 * incoming {
                for (o, v) in out.iter_mut().zip(&col) {
                    *o = v / norm;
                }
                break;
            }
            // Degenerate column: reseed deterministically and retry.
            for (i, v) in col.iter_mut().enumerate() {
                *v = hash_unit((attempt + 2) * (m * b + 1) + i * b + j);
            }
            out.copy_from_slice(&col);
        }
    }
    *q = qt.transpose();
}

fn project_out(col: &mut [f64], basis: &[f64]) {
    let mut dot = 0.0;
    for (c, b) in col.iter().zip(basis) {
        dot += c * b;
    }
    for (c, b) in col.iter_mut().zip(basis) {
        *c -= dot * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic symmetric matrix with a decaying spectrum:
    /// `A = Σ λ_j v_j v_jᵀ` over a hash-seeded orthonormal basis.
    fn spectral_matrix(m: usize, lambdas: &[f64], seed: usize) -> Matrix {
        let mut v = Matrix::from_fn(m, m, |i, j| hash_unit(seed * m * m + i * m + j));
        orthonormalize(&mut v, &[]);
        let mut a = Matrix::zeros(m, m);
        for (j, &l) in lambdas.iter().enumerate() {
            let col = v.col(j);
            for r in 0..m {
                for c in 0..m {
                    a[(r, c)] += l * col[r] * col[c];
                }
            }
        }
        // Exact symmetry despite accumulation order.
        Matrix::from_fn(m, m, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
    }

    fn geometric_spectrum(m: usize, ratio: f64) -> Vec<f64> {
        (0..m).map(|i| 1e6 * ratio.powi(i as i32)).collect()
    }

    #[test]
    fn matches_jacobi_on_decaying_spectrum() {
        let m = 40;
        let a = spectral_matrix(m, &geometric_spectrum(m, 0.6), 1);
        let full = SymmetricEigen::new(&a).unwrap();
        let k = 5;
        let top = TruncatedEigen::top_k(&a, k, 1e-12).unwrap();
        assert_eq!(top.len(), k);
        assert!(!top.is_empty());
        assert!(top.sweeps > 0, "expected the iterative path");
        for i in 0..k {
            let rel = (top.eigenvalues[i] - full.eigenvalues[i]).abs() / full.eigenvalues[0];
            assert!(rel < 1e-9, "eigenvalue {i}: rel err {rel:.2e}");
            // Sign-fixed eigenvector parity.
            let tv = top.eigenvectors.col(i);
            let fv = full.eigenvectors.col(i);
            let dot: f64 = tv.iter().zip(&fv).map(|(a, b)| a * b).sum();
            let sign = if dot >= 0.0 { 1.0 } else { -1.0 };
            for (x, y) in tv.iter().zip(&fv) {
                assert!((x - sign * y).abs() < 1e-8, "eigenvector {i} differs");
            }
        }
    }

    #[test]
    fn ritz_pairs_satisfy_definition() {
        let m = 30;
        let a = spectral_matrix(m, &geometric_spectrum(m, 0.5), 2);
        let top = TruncatedEigen::top_k(&a, 4, 1e-12).unwrap();
        for i in 0..4 {
            let v = top.eigenvectors.col(i);
            let av = a.matvec(&v).unwrap();
            for (x, y) in av.iter().zip(&v) {
                assert!(
                    (x - top.eigenvalues[i] * y).abs() <= 1e-7 * top.eigenvalues[0],
                    "pair {i} violates A v = λ v"
                );
            }
        }
        // The returned vectors are orthonormal.
        let g = top.eigenvectors.gram();
        assert!(g.approx_eq(&Matrix::identity(4), 1e-9));
    }

    #[test]
    fn dense_fallback_on_tiny_or_wide_requests() {
        let a = spectral_matrix(6, &[5.0, 4.0, 3.0, 2.0, 1.0, 0.5], 3);
        let top = TruncatedEigen::top_k(&a, 5, 1e-12).unwrap();
        assert_eq!(top.sweeps, 0, "should use the dense fallback");
        let full = SymmetricEigen::new(&a).unwrap();
        for i in 0..5 {
            assert!((top.eigenvalues[i] - full.eigenvalues[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn near_degenerate_cluster_converges_on_values() {
        // λ₁ ≈ λ₂ (1e-7 apart): individual vectors may rotate within the
        // cluster, but the values and the invariant subspace must hold.
        let m = 35;
        let mut lambdas = geometric_spectrum(m, 0.4);
        lambdas[1] = lambdas[0] * (1.0 - 1e-7);
        let a = spectral_matrix(m, &lambdas, 4);
        let full = SymmetricEigen::new(&a).unwrap();
        let top = TruncatedEigen::top_k(&a, 3, 1e-11).unwrap();
        for i in 0..3 {
            let rel = (top.eigenvalues[i] - full.eigenvalues[i]).abs() / full.eigenvalues[0];
            assert!(rel < 1e-9, "clustered eigenvalue {i}: rel err {rel:.2e}");
        }
    }

    #[test]
    fn convergence_does_not_depend_on_the_unit() {
        // The same steep spectrum in three units. An iterate column is on
        // the scale of its eigenvalue, so a deficiency test with an
        // absolute cut-off throws away every pair below it sweep after
        // sweep and ends in `NonConvergence` at the small scale.
        let m = 40;
        let a = spectral_matrix(m, &[1.0, 1e-2, 1e-4, 1e-6, 1e-8], 6);
        let want = TruncatedEigen::top_k(&a, 5, 1e-9).unwrap();
        for scale in [1e-9, 1e9] {
            let got = TruncatedEigen::top_k(&a.scaled(scale), 5, 1e-9)
                .unwrap_or_else(|e| panic!("scale {scale:e}: {e}"));
            for (g, w) in got.eigenvalues.iter().zip(&want.eigenvalues) {
                assert!(
                    (g / scale - w).abs() <= 1e-9,
                    "scale {scale:e}: {g:e} vs {w:e}"
                );
            }
        }
    }

    #[test]
    fn of_covariance_clamps_negative_ritz_values() {
        // A PSD-up-to-roundoff matrix whose smallest computed value can
        // dip below zero: use a rank-deficient spectrum.
        let m = 20;
        let mut lambdas = vec![0.0; m];
        lambdas[0] = 1e8;
        lambdas[1] = 1e7;
        let a = spectral_matrix(m, &lambdas, 5);
        let top = TruncatedEigen::of_covariance(&a, 4, 1e-10).unwrap();
        for &l in &top.eigenvalues {
            assert!(l >= 0.0);
        }
        assert!((top.eigenvalues[0] - 1e8).abs() < 1.0);
    }

    #[test]
    fn rejects_malformed_input() {
        let a = spectral_matrix(10, &geometric_spectrum(10, 0.5), 6);
        assert!(matches!(
            TruncatedEigen::top_k(&Matrix::zeros(0, 0), 1, 1e-10),
            Err(LinalgError::Empty { .. })
        ));
        assert!(TruncatedEigen::top_k(&Matrix::zeros(3, 4), 1, 1e-10).is_err());
        assert!(TruncatedEigen::top_k(&a, 0, 1e-10).is_err());
        assert!(TruncatedEigen::top_k(&a, 11, 1e-10).is_err());
        assert!(TruncatedEigen::top_k(&a, 2, 0.0).is_err());
        assert!(TruncatedEigen::top_k(&a, 2, f64::NAN).is_err());
        let asym = Matrix::from_fn(10, 10, |i, j| if i < j { 5.0 } else { 0.0 });
        assert!(matches!(
            TruncatedEigen::top_k(&asym, 2, 1e-10),
            Err(LinalgError::NotSymmetric { .. })
        ));
        // Non-finite entries, on the dense-fallback and the iterative
        // route alike.
        for (m, bad) in [(8, f64::NAN), (121, f64::NAN), (121, f64::INFINITY)] {
            let mut a = Matrix::identity(m);
            a[(1, 5)] = bad;
            a[(5, 1)] = bad;
            assert!(matches!(
                TruncatedEigen::top_k(&a, 2, 1e-10),
                Err(LinalgError::DomainError { .. })
            ));
        }
    }

    /// The textbook column-at-a-time sweep, indexing the row-major
    /// block by column: the reference [`orthonormalize`] must match
    /// bit for bit.
    fn orthonormalize_strided(q: &mut Matrix, locked: &[Vec<f64>]) {
        let m = q.rows();
        let b = q.cols();
        let mut col = vec![0.0; m];
        for j in 0..b {
            for attempt in 0..3 {
                for (i, v) in col.iter_mut().enumerate() {
                    *v = q[(i, j)];
                }
                let incoming = col.iter().map(|v| v * v).sum::<f64>().sqrt();
                for _pass in 0..2 {
                    for basis in locked.iter() {
                        project_out(&mut col, basis);
                    }
                    for prev in 0..j {
                        let mut dot = 0.0;
                        for i in 0..m {
                            dot += q[(i, prev)] * col[i];
                        }
                        for (i, v) in col.iter_mut().enumerate() {
                            *v -= dot * q[(i, prev)];
                        }
                    }
                }
                let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 1e-12 * incoming {
                    for (i, v) in col.iter().enumerate() {
                        q[(i, j)] = v / norm;
                    }
                    break;
                }
                for (i, v) in col.iter_mut().enumerate() {
                    *v = hash_unit((attempt + 2) * (m * b + 1) + i * b + j);
                }
                for (i, v) in col.iter().enumerate() {
                    q[(i, j)] = *v;
                }
            }
        }
    }

    #[test]
    fn contiguous_sweep_is_bitwise_the_strided_one() {
        // Locked vectors, a column repeating an earlier one and a column
        // inside the locked span (both reseeded), on shapes around the
        // refit block.
        for (m, b, nlocked) in [
            (12usize, 3usize, 0usize),
            (40, 9, 2),
            (121, 16, 6),
            (256, 16, 6),
        ] {
            let mut basis =
                Matrix::from_fn(m, nlocked + b, |i, j| hash_unit(7 * m + i * (b + 9) + j));
            orthonormalize(&mut basis, &[]);
            let locked: Vec<Vec<f64>> = (0..nlocked).map(|j| basis.col(j)).collect();
            let mut q = Matrix::from_fn(m, b, |i, j| hash_unit(3 * m * b + i * b + j));
            if b > 2 {
                let first = q.col(0);
                q.set_col(2, &first);
            }
            if let Some(l) = locked.first() {
                q.set_col(1, l);
            }
            let mut want = q.clone();
            orthonormalize_strided(&mut want, &locked);
            orthonormalize(&mut q, &locked);
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q), bits(&want), "m = {m}, b = {b}, {nlocked} locked");
        }
    }

    #[test]
    fn top_pairs_is_the_prefix_of_top_k() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The iterative route and the dense fallback.
        for (m, k) in [(40usize, 6usize), (12, 6)] {
            let a = spectral_matrix(m, &geometric_spectrum(m, 0.6), 8);
            let all = TruncatedEigen::top_k(&a, k, 1e-12).unwrap();
            for pairs in 1..=k {
                let some = TruncatedEigen::top_pairs(&a, k, pairs, 1e-12).unwrap();
                assert_eq!(some.len(), pairs);
                assert!(some.sweeps <= all.sweeps);
                assert_eq!(bits(&some.eigenvalues), bits(&all.eigenvalues[..pairs]));
                let idx: Vec<usize> = (0..pairs).collect();
                assert_eq!(
                    bits(some.eigenvectors.as_slice()),
                    bits(all.eigenvectors.select_columns(&idx).as_slice())
                );
            }
        }
        let a = spectral_matrix(10, &geometric_spectrum(10, 0.5), 9);
        assert!(TruncatedEigen::top_pairs(&a, 3, 0, 1e-10).is_err());
        assert!(TruncatedEigen::top_pairs(&a, 3, 4, 1e-10).is_err());
    }

    #[test]
    fn power_traces_match_spectrum_sums() {
        let m = 25;
        let lambdas = geometric_spectrum(m, 0.7);
        let a = spectral_matrix(m, &lambdas, 7);
        let (t1, t2, t3) = power_traces(&a).unwrap();
        let s1: f64 = lambdas.iter().sum();
        let s2: f64 = lambdas.iter().map(|l| l * l).sum();
        let s3: f64 = lambdas.iter().map(|l| l * l * l).sum();
        assert!((t1 - s1).abs() < 1e-9 * s1);
        assert!((t2 - s2).abs() < 1e-9 * s2);
        assert!((t3 - s3).abs() < 1e-9 * s3);
        assert!(power_traces(&Matrix::zeros(2, 3)).is_err());
        assert!(power_traces(&Matrix::zeros(0, 0)).is_err());
    }
}
