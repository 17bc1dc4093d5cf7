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
//! The QL loop hands its rotations to a sink. The full solve applies
//! each to `zt` as it comes; the leading-vectors solve logs them
//! ([`RotationLog`]) and replays the log backwards on only the unit
//! vectors it needs ([`Tridiagonal::leading_rows`]), never forming
//! `zt`. The eigenvalues are the same bits either way.
//!
//! Everything here is serial scalar code over [`vector::dot`],
//! [`vector::axpy`] and [`vector::rotate_pair`] — no thread pool, no
//! GEMM micro-kernel, no fused multiply-add — so the output is a
//! pure function of the input bits. The streaming, sharded, distributed
//! and served engines all refit by calling this on a bitwise-equal
//! covariance, and stay bitwise equal to each other because of it.

use crate::{vector, LinalgError, Matrix, Result};

/// QL iterations allowed per eigenvalue. Wilkinson's shift converges
/// cubically and the average is under two; EISPACK gives up at 30.
/// Spending the budget therefore means the iteration met a NaN (overflow
/// on entries near `f64::MAX`), never a slow spectrum.
const MAX_QL_ITERATIONS: usize = 60;

/// A symmetric matrix reduced to tridiagonal form `T = Qᵀ A Q` by
/// `n − 2` Householder reflections, with the reflections kept so that
/// `Q` can be applied afterwards — in full ([`Self::q_transposed`]) or to
/// a few vectors only ([`Self::leading_rows`]).
#[derive(Debug)]
pub(super) struct Tridiagonal {
    /// Row `i` holds reflection `i`'s vector `u` in its first `i`
    /// entries (the rest of the lower triangle is spent).
    reflectors: Matrix,
    /// Reflection `i`'s divisor `h = uᵀu / 2` (zero: no reflection).
    divisors: Vec<f64>,
    /// The diagonal of `T`.
    pub(super) d: Vec<f64>,
    /// `e[i]` (for `i ≥ 1`) couples `i − 1` and `i`; `e[0]` is zero.
    pub(super) e: Vec<f64>,
}

impl Tridiagonal {
    /// Reduce the symmetric matrix held in the lower triangle of `a`.
    pub(super) fn reduce(mut a: Matrix) -> Self {
        let n = a.rows();
        let (mut d, mut e, mut divisors) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        // Reflection `i` zeroes row `i` left of its subdiagonal entry and
        // touches only the leading `i × i` block, so rows `i + 1..` are
        // final when it runs.
        for i in (1..n).rev() {
            let (block, rest) = a.data_mut().split_at_mut(i * n);
            let u = &mut rest[..i];
            // Scaling keeps `uᵀu` clear of overflow and underflow.
            let scale = vector::norm_l1(u);
            if i == 1 || scale == 0.0 {
                e[i] = u[i - 1];
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
            divisors[i] = h;
        }
        e[0] = 0.0;
        for (i, di) in d.iter_mut().enumerate() {
            *di = a[(i, i)];
        }
        Tridiagonal {
            reflectors: a,
            divisors,
            d,
            e,
        }
    }

    /// The reflections' `(u, h)` pairs in the order `Qᵀ = H₁·H₂·…·H_{n−1}`
    /// multiplies them, identities skipped.
    fn reflections(&self) -> impl Iterator<Item = (&[f64], f64)> {
        (1..self.d.len())
            .filter(|&i| self.divisors[i] != 0.0)
            .map(|i| (&self.reflectors.row(i)[..i], self.divisors[i]))
    }

    /// `Qᵀ`, built left to right: the partial product is the identity
    /// outside its leading `i × i` block when `Hᵢ` multiplies it, so only
    /// rows `..i` change.
    pub(super) fn q_transposed(&self) -> Matrix {
        let mut zt = Matrix::identity(self.d.len());
        for (u, h) in self.reflections() {
            for row in 0..u.len() {
                reflect(u, h, zt.row_mut(row));
            }
        }
        zt
    }

    /// The eigenvectors for the diagonalized `T`'s entries `rows`, in
    /// that order, as the **rows** of a `rows.len() × n` matrix, without
    /// ever forming `Qᵀ`.
    ///
    /// The full route's row `k` ends as `e_kᵀ·G_N⋯G_1·H₁⋯H_{n−1}`, with
    /// `G_j` the QL rotations in generation order. Here each `e_kᵀ` takes
    /// the logged rotations backwards, `O(1)` per rotation, then the
    /// reflections, `O(n²)`: the same orthogonal product associated the
    /// other way, so the vectors equal the full route's to roundoff —
    /// signs included, and inside eigenvalue clusters too. Every
    /// operation acts on each vector alone, so a vector comes out as the
    /// same bits whichever other `rows` are built beside it.
    pub(super) fn leading_rows(&self, log: &RotationLog, rows: &[usize]) -> Matrix {
        let n = self.d.len();
        if rows.is_empty() {
            return Matrix::zeros(0, n);
        }
        // Column j is vector j while the rotations run: each then moves
        // two contiguous rows, one independent chain per vector.
        let mut x = Matrix::zeros(n, rows.len());
        for (j, &k) in rows.iter().enumerate() {
            x[(k, j)] = 1.0;
        }
        // `(xᵢ, xᵢ₊₁) ← (xᵢ, xᵢ₊₁)·G`: the transposed rotation.
        log.replay_backwards(|i, c, s| {
            let (xi, xi1) = x.row_pair_mut(i, i + 1);
            vector::rotate_pair(c, -s, xi, xi1);
        });
        // Row j is vector j for the reflections, which then run exactly
        // as they build `Qᵀ`'s rows.
        let mut xt = x.transpose();
        for (u, h) in self.reflections() {
            for j in 0..rows.len() {
                reflect(u, h, xt.row_mut(j));
            }
        }
        xt
    }
}

/// `z ← z·H` for the reflection `H = I − u·uᵀ/h` on `z`'s leading
/// `u.len()` entries: a dot and an axpy.
fn reflect(u: &[f64], h: f64, z: &mut [f64]) {
    let z = &mut z[..u.len()];
    let g = vector::dot(z, u);
    vector::axpy(-g / h, u, z);
}

/// The plane rotations of an [`implicit_ql`] run, in generation order,
/// for [`Tridiagonal::leading_rows`] to replay.
///
/// A QL sweep rotates planes `m − 1, m − 2, …, l`, so the plane index is
/// implicit in a run of consecutive descending planes: the log keeps
/// one `(first plane, length)` per run and only `(c, s)` per rotation.
#[derive(Debug, Default)]
pub(super) struct RotationLog {
    rotations: Vec<(f64, f64)>,
    runs: Vec<(usize, usize)>,
}

impl RotationLog {
    /// Record the rotation of plane `(i, i + 1)` by `(c, s)`.
    pub(super) fn push(&mut self, i: usize, c: f64, s: f64) {
        match self.runs.last_mut() {
            Some((first, len)) if i + *len == *first => *len += 1,
            _ => self.runs.push((i, 1)),
        }
        self.rotations.push((c, s));
    }

    /// Hand every rotation to `rotate` as `(i, c, s)`, last first.
    fn replay_backwards(&self, mut rotate: impl FnMut(usize, f64, f64)) {
        let mut end = self.rotations.len();
        for &(first, len) in self.runs.iter().rev() {
            let run = &self.rotations[end - len..end];
            for (j, &(c, s)) in run.iter().enumerate().rev() {
                rotate(first - j, c, s);
            }
            end -= len;
        }
    }
}

/// Diagonalize the symmetric tridiagonal matrix (`d`, `e` as
/// [`Tridiagonal::reduce`] leaves them) by the implicit-shift QL
/// iteration, handing every plane rotation of rows `(i, i + 1)` to
/// `rotate` as `(i, c, s)` — in the order [`vector::rotate_pair`] must
/// apply them to the rows of `Qᵀ` to turn row `k` into the unit
/// eigenvector for `d[k]`.
///
/// The `d`/`e` arithmetic never depends on `rotate`, so the eigenvalues
/// are the same bits whatever it does. On return `d` holds them,
/// unordered. Convergence is judged against the
/// running norm `max |dᵢ| + |eᵢ|`, so eigenvalues are accurate to a few
/// ulps of the largest, not of themselves.
pub(super) fn implicit_ql(
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<()> {
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
                rotate(i, c, s);
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
            implicit_ql(&mut d, &mut e, |_, _, _| {}),
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
        let t = Tridiagonal::reduce(a.clone());
        let zt = t.q_transposed();
        let (d, e) = (&t.d, &t.e);
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
