//! Descriptive statistics, histograms and the standard normal distribution.
//!
//! The Q-statistic threshold of Jackson & Mudholkar needs the `1 − α`
//! percentile of the standard normal ([`inverse_normal_cdf`]); the subspace
//! separation rule needs per-series means and standard deviations; the
//! evaluation harness needs quantiles and histograms. All of it lives here,
//! dependency-free.

mod gaussian;
mod histogram;

pub use gaussian::{inverse_normal_cdf, normal_cdf};
pub use histogram::Histogram;

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample variance (denominator `n − 1`); `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Empirical quantile with linear interpolation between order statistics.
///
/// `q` must be in `[0, 1]`; `q = 0` gives the minimum, `q = 1` the maximum.
/// Returns `None` for empty input or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Minimum and maximum; `None` for empty input. NaNs are skipped.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let mut it = xs.iter().filter(|x| !x.is_nan());
    let first = *it.next()?;
    let mut lo = first;
    let mut hi = first;
    for &x in it {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Some((lo, hi))
}

/// Pearson correlation coefficient between two equal-length series.
///
/// Returns `None` for series shorter than 2 or with zero variance.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    if xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Mean absolute relative error `mean(|est − truth| / |truth|)` over pairs
/// where `truth` is nonzero; `None` if no valid pairs exist.
///
/// This is the paper's quantification-accuracy metric (Section 6.1).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mean_abs_relative_error(estimates: &[f64], truths: &[f64]) -> Option<f64> {
    assert_eq!(estimates.len(), truths.len(), "mare: length mismatch");
    let mut total = 0.0;
    let mut count = 0usize;
    for (&e, &t) in estimates.iter().zip(truths) {
        if t != 0.0 {
            total += ((e - t) / t).abs();
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&xs, 1.5), None);
    }

    #[test]
    fn min_max_skips_nan() {
        assert_eq!(min_max(&[f64::NAN, 2.0, -1.0]), Some((-1.0, 2.0)));
        assert_eq!(min_max(&[f64::NAN]), None);
        assert_eq!(min_max(&[]), None);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let yneg = [-2.0, -4.0, -6.0];
        assert!((pearson(&xs, &yneg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
    }

    #[test]
    fn mare_matches_hand_computation() {
        let est = [110.0, 90.0];
        let truth = [100.0, 100.0];
        assert!((mean_abs_relative_error(&est, &truth).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mare_skips_zero_truth() {
        assert_eq!(mean_abs_relative_error(&[1.0], &[0.0]), None);
        let v = mean_abs_relative_error(&[1.0, 150.0], &[0.0, 100.0]).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
    }
}
