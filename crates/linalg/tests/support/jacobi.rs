//! Cyclic two-sided Jacobi: the symmetric eigen-solver the workspace
//! shipped until the tridiagonal-QL solver replaced it, kept as the
//! independent oracle the replacement is tested against. It shares no
//! arithmetic with `SymmetricEigen` — no reflections, no shifts, no
//! deflation — so agreement between the two is evidence about both.
//!
//! Test-only by construction: it is compiled into the suites that name
//! it by `#[path]` (`netanom-linalg`'s `tests/proptests.rs`,
//! `netanom-core`'s `tests/incremental_proptests.rs`) and into no
//! library.

// Each including suite uses only its half.
#![allow(dead_code)]

use netanom_linalg::{vector, Matrix};

/// Sweep budget. Finite symmetric input converges in `≈ 8 + log₂(n/64)`
/// sweeps (8 at `n = 64`, 10 at `n = 512`); 64 is out of reach.
const MAX_SWEEPS: usize = 64;

/// The stable tangent, cosine and sine of the rotation that annihilates
/// `apq` (Golub & Van Loan §8.5).
fn rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, t * c)
}

/// Root of the sum of squares above the diagonal.
fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += m[(i, j)] * m[(i, j)];
        }
    }
    s.sqrt()
}

/// Eigenvalues in decreasing order paired with the columns of the
/// returned matrix, by cyclic Jacobi sweeps to an off-diagonal norm of
/// `1e-14·‖A‖_F`.
///
/// `rotate` applies one rotation `(p, q, c, s)` to the working matrix
/// and the eigenvector accumulator; the two callers differ only in the
/// memory layout they do that in.
///
/// # Panics
/// If the sweep budget runs out, which finite symmetric input cannot
/// cause.
fn sweep_to_convergence<V>(
    a: &Matrix,
    mut v: V,
    mut rotate: impl FnMut(&mut Matrix, &mut V, usize, usize, f64, f64),
) -> (Matrix, V) {
    let n = a.rows();
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let tol = 1e-14 * m.frobenius_norm().max(f64::MIN_POSITIVE);
    for _ in 0..MAX_SWEEPS {
        if off_diagonal_norm(&m) <= tol {
            return (m, v);
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let (c, s) = rotation(m[(p, p)], m[(q, q)], apq);
                rotate(&mut m, &mut v, p, q, c, s);
            }
        }
    }
    assert!(
        off_diagonal_norm(&m) <= tol,
        "cyclic Jacobi: {MAX_SWEEPS} sweeps spent on a {n} x {n} input"
    );
    (m, v)
}

/// The diagonal of `m` in decreasing order, and the permutation that
/// sorts it.
fn descending_diagonal(m: &Matrix) -> (Vec<f64>, Vec<usize>) {
    let mut order: Vec<usize> = (0..m.rows()).collect();
    order.sort_by(|&i, &j| {
        m[(j, j)]
            .partial_cmp(&m[(i, i)])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    (order.iter().map(|&i| m[(i, i)]).collect(), order)
}

/// The oracle: `(eigenvalues, eigenvectors)` of a finite symmetric
/// matrix, eigenvalues decreasing, unit eigenvectors as columns.
///
/// The accumulated rotations are stored transposed so each update is a
/// contiguous row pair ([`vector::rotate_pair`]); per element it is the
/// arithmetic of [`jacobi_eigen_scalar`], which the linalg suite pins
/// bitwise.
pub fn jacobi_eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    let (m, vt) = sweep_to_convergence(a, Matrix::identity(n), |m, vt, p, q, c, s| {
        // Columns p and q of m, one row at a time; ascending k and
        // columns before rows, as in the textbook loop.
        for k in 0..n {
            let row = m.row_mut(k);
            let (mkp, mkq) = (row[p], row[q]);
            row[p] = c * mkp - s * mkq;
            row[q] = s * mkp + c * mkq;
        }
        let (rp, rq) = m.row_pair_mut(p, q);
        vector::rotate_pair(c, s, rp, rq);
        let (vp, vq) = vt.row_pair_mut(p, q);
        vector::rotate_pair(c, s, vp, vq);
    });
    let (eigenvalues, order) = descending_diagonal(&m);
    (eigenvalues, Matrix::from_fn(n, n, |i, k| vt[(order[k], i)]))
}

/// [`jacobi_eigen`] as it was first written: three strided scalar
/// passes per rotation and a column-major eigenvector accumulator. The
/// row-pair form must match it bitwise — the restructure was a
/// memory-layout change only.
pub fn jacobi_eigen_scalar(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    let (m, v) = sweep_to_convergence(a, Matrix::identity(n), |m, v, p, q, c, s| {
        for k in 0..n {
            let (mkp, mkq) = (m[(k, p)], m[(k, q)]);
            m[(k, p)] = c * mkp - s * mkq;
            m[(k, q)] = s * mkp + c * mkq;
        }
        for k in 0..n {
            let (mpk, mqk) = (m[(p, k)], m[(q, k)]);
            m[(p, k)] = c * mpk - s * mqk;
            m[(q, k)] = s * mpk + c * mqk;
        }
        for k in 0..n {
            let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
            v[(k, p)] = c * vkp - s * vkq;
            v[(k, q)] = s * vkp + c * vkq;
        }
    });
    let (eigenvalues, order) = descending_diagonal(&m);
    (eigenvalues, v.select_columns(&order))
}
