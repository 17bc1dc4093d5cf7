//! Fixed-bin histograms.

use crate::{LinalgError, Result};

/// A histogram over `[lo, hi)` with equal-width bins.
///
/// Used by the evaluation crate for Figure 7 (the distribution of per-flow
/// detection rates under synthetic injections). Values below `lo` are
/// clamped into the first bin and values at or above `hi` into the last, so
/// a histogram over `[0, 1)` of rates that can legitimately reach `1.0`
/// still counts everything.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// Returns [`LinalgError::DomainError`] if `bins == 0`, `lo >= hi`, or
    /// either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(LinalgError::DomainError {
                op: "histogram bins",
                value: 0.0,
            });
        }
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less)
            || !lo.is_finite()
            || !hi.is_finite()
        {
            return Err(LinalgError::DomainError {
                op: "histogram range",
                value: lo,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        })
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Add one observation. NaNs are ignored and reported as `false`.
    pub fn add(&mut self, x: f64) -> bool {
        if x.is_nan() {
            return false;
        }
        let idx = ((x - self.lo) / self.bin_width()).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        true
    }

    /// Add every observation in a slice, returning how many were counted.
    pub fn add_all(&mut self, xs: &[f64]) -> usize {
        xs.iter().filter(|&&x| self.add(x)).count()
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of counted observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin {i} out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// `(bin_center, count)` pairs, handy for rendering.
    pub fn series(&self) -> Vec<(f64, usize)> {
        (0..self.counts.len())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.add_all(&[0.1, 0.3, 0.6, 0.9, 0.26]);
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-5.0);
        h.add(5.0);
        h.add(1.0); // exactly hi clamps into the last bin
        assert_eq!(h.counts(), &[1, 2]);
    }

    #[test]
    fn nan_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert!(!h.add(f64::NAN));
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
        assert_eq!(h.series().len(), 4);
    }

    #[test]
    fn invalid_construction() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 0.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
    }
}
