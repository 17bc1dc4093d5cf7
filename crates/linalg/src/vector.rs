//! Free functions over `&[f64]` slices.
//!
//! The workspace passes measurement vectors around as plain slices; these
//! helpers keep that code allocation-light and readable. All functions panic
//! on length mismatch (the calling code treats mismatched lengths as
//! programming errors, the same way slice indexing does) — matrix-level
//! operations with runtime-dependent shapes return [`crate::LinalgError`]
//! instead.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (ℓ²) norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm. This is the paper's SPE statistic when applied to
/// a residual vector.
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// ℓ¹ norm (sum of absolute values).
pub fn norm_l1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Maximum absolute entry (ℓ∞ norm); `0.0` for empty input.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Elementwise sum `a + b` into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise difference `a - b` into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scale a slice by a constant into a new vector.
pub fn scaled(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// In-place `y += alpha * x` (the BLAS `axpy` operation).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place plane (Givens) rotation of a vector pair:
/// `(xᵢ, yᵢ) ← (c·xᵢ − s·yᵢ, s·xᵢ + c·yᵢ)`.
///
/// Each lane is independent — the loop autovectorizes across `i` with
/// no reassociation, so every element computes exactly the scalar
/// mul-then-sub/add expressions written here. The symmetric eigen-solver
/// keeps its eigenvector accumulator transposed so that each QL rotation
/// is this call on two adjacent matrix *rows*, touching memory
/// sequentially where the textbook column-pair update would stride by
/// the row width.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rotate_pair(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "rotate_pair: length mismatch");
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xi, *yi);
        *xi = c * a - s * b;
        *yi = s * a + c * b;
    }
}

/// In-place scaling `x *= s`.
pub fn scale_in_place(x: &mut [f64], s: f64) {
    for xi in x.iter_mut() {
        *xi *= s;
    }
}

/// Normalize a vector to unit Euclidean norm, returning the original norm.
///
/// If the vector has (near-)zero norm it is left untouched and `0.0` is
/// returned, so callers can detect the degenerate case.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 && n.is_finite() {
        scale_in_place(x, 1.0 / n);
        n
    } else {
        0.0
    }
}

/// Sum of all entries.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Index and value of the maximum entry; `None` for empty input.
///
/// NaN entries are never selected as the maximum unless all entries are NaN,
/// in which case `None` is returned.
pub fn argmax(a: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `true` if all pairwise entries differ by at most `tol`.
///
/// Slices of different lengths are never approximately equal.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let v = [3.0, 4.0];
        assert_eq!(norm(&v), 5.0);
        assert_eq!(norm_sq(&v), 25.0);
        assert_eq!(norm_l1(&v), 7.0);
        assert_eq!(norm_inf(&v), 4.0);
        assert_eq!(norm_inf(&[-9.0, 1.0]), 9.0);
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scaled(&[1.0, -2.0], -2.0), vec![-2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!(approx_eq(&v, &[0.0, 0.6, 0.8], 1e-15));
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0];
        assert_eq!(normalize(&mut v), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_and_sum() {
        assert_eq!(crate::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(crate::stats::mean(&[]), 0.0);
        assert_eq!(sum(&[1.0, 2.0]), 3.0);
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 0.0]), Some((1, 5.0)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 2.0, 1.0]), Some((1, 2.0)));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn dist_sq_basic() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn approx_eq_length_sensitive() {
        assert!(!approx_eq(&[1.0], &[1.0, 1.0], 1.0));
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-10));
    }
}
