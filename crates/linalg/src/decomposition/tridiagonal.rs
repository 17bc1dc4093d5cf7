//! The two numerical kernels under [`super::SymmetricEigen`]:
//! Householder reduction to tridiagonal form and the implicit-shift QL
//! iteration on the result (the EISPACK `tred2`/`tql2` pair, Wilkinson &
//! Reinsch II/2 and II/3).
//!
//! Both are written on contiguous rows. The reduction reads and updates
//! only the lower triangle, whose row `j` is the slice `a[j][..=j]`; the
//! Householder vectors live in those rows too; and the accumulated
//! transformation is kept **transposed** (`zt` row `k` is the `k`-th
//! eigenvector candidate), so a QL plane rotation is one
//! [`vector::rotate_pair`] over two adjacent rows instead of a walk down
//! two strided columns.
//!
//! Everything here is serial scalar code over [`vector::dot`],
//! [`vector::axpy`] and [`vector::rotate_pair`] — no thread pool, no
//! dispatched micro-kernel, no fused multiply-add — so the output is a
//! pure function of the input bits. The streaming, sharded, distributed
//! and served engines all refit by calling this on a bitwise-equal
//! covariance, and stay bitwise equal to each other because of it.

use crate::{vector, LinalgError, Matrix, Result};

/// QL iterations allowed per eigenvalue. Wilkinson's shift converges
/// cubically and the average is under two; EISPACK gives up at 30.
/// Spending the budget therefore means the iteration met a NaN (overflow
/// on entries near `f64::MAX`), never a slow spectrum.
const MAX_QL_ITERATIONS: usize = 60;

/// Reduce the symmetric matrix held in the lower triangle of `a` to
/// tridiagonal form `T = Qᵀ A Q` by `n − 2` Householder reflections.
///
/// On return `d` is the diagonal of `T`, `e[i]` (for `i ≥ 1`) the
/// subdiagonal entry coupling `i − 1` and `i`, `e[0]` is zero, and the
/// result is `Qᵀ`. `a` is left holding the reflection vectors.
pub(super) fn tridiagonalize(a: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Matrix {
    let n = a.rows();
    // Reflection `i` zeroes row `i` left of its subdiagonal entry and
    // touches only the leading `i × i` block, so rows `i + 1..` are
    // final when it runs. Until the accumulation below, `d[i]` holds
    // the reflection's divisor `h = uᵀu / 2` (zero: no reflection).
    for i in (1..n).rev() {
        let (block, rest) = a.data_mut().split_at_mut(i * n);
        let u = &mut rest[..i];
        // Scaling keeps `uᵀu` clear of overflow and underflow.
        let scale = vector::norm_l1(u);
        if i == 1 || scale == 0.0 {
            e[i] = u[i - 1];
            d[i] = 0.0;
            continue;
        }
        vector::scale_in_place(u, 1.0 / scale);
        let mut h = vector::norm_sq(u);
        let f = u[i - 1];
        let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        u[i - 1] = f - g;
        let u = &*u;

        // p = B·u / h over the stored triangle of the leading block B:
        // row j contributes its dot with u to p[j] and, as a column, an
        // axpy into p[..j]. `e[..i]` is free until reflection i − 1.
        let p = &mut e[..i];
        p.fill(0.0);
        for j in 0..i {
            let row = &block[j * n..j * n + j];
            p[j] += vector::dot(row, &u[..j]) + block[j * n + j] * u[j];
            vector::axpy(u[j], row, &mut p[..j]);
        }
        vector::scale_in_place(p, 1.0 / h);
        // q = p − (uᵀp / 2h)·u, then B ← B − u·qᵀ − q·uᵀ.
        let half = vector::dot(p, u) / (h + h);
        vector::axpy(-half, u, p);
        for j in 0..i {
            let row = &mut block[j * n..=j * n + j];
            vector::axpy(-u[j], &p[..=j], row);
            vector::axpy(-p[j], &u[..=j], row);
        }
        d[i] = h;
    }
    e[0] = 0.0;

    // Qᵀ = H₁·H₂·…·H_{n−1}, built left to right: the partial product is
    // the identity outside its leading i × i block when Hᵢ multiplies
    // it, so each row update is a dot and an axpy of length i.
    let mut zt = Matrix::identity(n);
    for i in 1..n {
        let h = d[i];
        if h != 0.0 {
            let u = &a.row(i)[..i];
            for r in 0..i {
                let z = &mut zt.row_mut(r)[..i];
                let g = vector::dot(z, u);
                vector::axpy(-g / h, u, z);
            }
        }
    }
    for i in 0..n {
        d[i] = a[(i, i)];
    }
    zt
}

/// Diagonalize the symmetric tridiagonal matrix (`d`, `e` as
/// [`tridiagonalize`] leaves them) by the implicit-shift QL iteration,
/// applying every plane rotation to the rows of `zt`.
///
/// On return `d` holds the eigenvalues, unordered, and row `k` of `zt`
/// the unit eigenvector for `d[k]`. Convergence is judged against the
/// running norm `max |dᵢ| + |eᵢ|`, so eigenvalues are accurate to a few
/// ulps of the largest, not of themselves.
pub(super) fn implicit_ql(d: &mut [f64], e: &mut [f64], zt: &mut Matrix) -> Result<()> {
    let n = d.len();
    // From here `e[i]` couples i and i + 1; the trailing zero ends
    // every search for a negligible entry.
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut shift = 0.0;
    let mut norm = 0.0_f64;
    for l in 0..n {
        norm = norm.max(d[l].abs() + e[l].abs());
        // A NaN is never negligible.
        let negligible = |x: f64| x.abs() <= f64::EPSILON * norm;
        // The unreduced block starting at l ends at the first
        // negligible subdiagonal.
        let mut m = l;
        while m + 1 < n && !negligible(e[m]) {
            m += 1;
        }
        let mut iterations = 0;
        while m > l && !negligible(e[l]) {
            if iterations == MAX_QL_ITERATIONS {
                return Err(LinalgError::NonConvergence {
                    algorithm: "implicit QL",
                    iterations,
                });
            }
            iterations += 1;

            // Wilkinson shift from the leading 2 × 2 of the block,
            // applied to the rest of the diagonal and remembered.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 {
                -hypot(p, 1.0)
            } else {
                hypot(p, 1.0)
            };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            shift += h;

            // One QL sweep: chase the bulge from m up to l.
            let el1 = e[l + 1];
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = hypot(p, e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (zi, zi1) = zt.row_pair_mut(i, i + 1);
                vector::rotate_pair(c, s, zi, zi1);
            }
            // `e[l] / dl1 = 1 / (p + r)` is at most one; taking it first
            // keeps the product of two subdiagonals from overflowing.
            let p = -s * s2 * c3 * el1 * (e[l] / dl1);
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

/// `√(a² + b²)` without overflow or underflow in the squares, from
/// IEEE-exact operations only (the platform `hypot` is not correctly
/// rounded, so its bits vary by libm).
fn hypot(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (big, small) = if a > b { (a, b) } else { (b, a) };
    if big == 0.0 {
        return 0.0;
    }
    let ratio = small / big;
    big * (1.0 + ratio * ratio).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spent_ql_budget_is_a_typed_error() {
        // A NaN subdiagonal is never negligible, so the first block
        // iterates until the budget stops it.
        let mut d = [1.0, 2.0, 3.0];
        let mut e = [0.0, f64::NAN, 1.0];
        assert_eq!(
            implicit_ql(&mut d, &mut e, &mut Matrix::identity(3)),
            Err(LinalgError::NonConvergence {
                algorithm: "implicit QL",
                iterations: MAX_QL_ITERATIONS,
            })
        );
    }

    #[test]
    fn tridiagonal_form_is_similar_to_the_input() {
        let n = 9;
        let a = Matrix::from_fn(n, n, |i, j| ((1 + i.min(j)) * (3 + i.max(j))) as f64 % 7.0);
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        let zt = tridiagonalize(&mut a.clone(), &mut d, &mut e);
        assert!(zt
            .matmul_nt(&zt)
            .unwrap()
            .approx_eq(&Matrix::identity(n), 1e-14));
        // Qᵀ·A·Q is the tridiagonal (d, e).
        let t = zt.matmul(&a).unwrap().matmul_nt(&zt).unwrap();
        let want = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => d[i],
            1 => e[i.max(j)],
            _ => 0.0,
        });
        assert!(t.approx_eq(&want, 1e-12 * a.max_abs()));
    }
}
