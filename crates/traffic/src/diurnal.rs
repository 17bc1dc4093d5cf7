//! Diurnal and weekly traffic profiles.
//!
//! Backbone traffic is dominated by a small number of strong periodic
//! patterns shared across the whole network (the paper's Figure 4(a):
//! the first principal components of link traffic are clean diurnal
//! curves). The profile here is a multiplicative factor
//!
//! ```text
//! s(t) = base(t) · weekend(t)
//! base(t) = 1 + a₁·cos(2π(h(t) − φ)/24) + a₂·cos(4π(h(t) − φ)/24) + a₃·cos(6π(h(t) − φ)/24)
//! ```
//!
//! with `h(t)` the hour of day, `φ` the peak hour, and a damping factor on
//! weekend days. Flows share a common peak phase (traffic peaks in
//! business/evening hours everywhere) with small per-flow jitter; that
//! shared structure is what concentrates variance in the first few
//! principal components.

use crate::series::BINS_PER_DAY;

/// A periodic daily/weekly modulation profile for one flow.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// Amplitude of the 24-hour harmonic (0 disables).
    pub amp_24h: f64,
    /// Amplitude of the 12-hour harmonic.
    pub amp_12h: f64,
    /// Amplitude of the 8-hour harmonic.
    pub amp_8h: f64,
    /// Hour of day (0–24) at which the 24-hour component peaks.
    pub peak_hour: f64,
    /// Multiplicative damping applied on Saturday and Sunday
    /// (1.0 = no weekend effect; the datasets use ≈ 0.7).
    pub weekend_factor: f64,
}

impl DiurnalProfile {
    /// A flat profile (no seasonality).
    pub fn flat() -> Self {
        DiurnalProfile {
            amp_24h: 0.0,
            amp_12h: 0.0,
            amp_8h: 0.0,
            peak_hour: 0.0,
            weekend_factor: 1.0,
        }
    }

    /// Evaluate the multiplicative factor at 10-minute bin `t` of a week
    /// that starts on Monday 00:00.
    ///
    /// The result is clamped to be non-negative (amplitude combinations
    /// summing past 1 would otherwise produce negative traffic).
    pub fn factor(&self, t: usize) -> f64 {
        let bin_of_day = (t % BINS_PER_DAY) as f64;
        let hour = bin_of_day * 24.0 / BINS_PER_DAY as f64;
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let base = 1.0
            + self.amp_24h * phase.cos()
            + self.amp_12h * (2.0 * phase).cos()
            + self.amp_8h * (3.0 * phase).cos();

        let day = (t / BINS_PER_DAY) % 7; // 0 = Monday
        let weekend = if day >= 5 { self.weekend_factor } else { 1.0 };
        (base * weekend).max(0.0)
    }

    /// Evaluate the factor for every bin in `0..bins`.
    pub fn series(&self, bins: usize) -> Vec<f64> {
        (0..bins).map(|t| self.factor(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::BINS_PER_WEEK;

    fn typical() -> DiurnalProfile {
        DiurnalProfile {
            amp_24h: 0.4,
            amp_12h: 0.15,
            amp_8h: 0.05,
            peak_hour: 20.0,
            weekend_factor: 0.7,
        }
    }

    #[test]
    fn flat_profile_is_one_everywhere() {
        let p = DiurnalProfile::flat();
        for t in [0, 100, 500, 1007] {
            assert_eq!(p.factor(t), 1.0);
        }
    }

    #[test]
    fn profile_is_daily_periodic_within_weekdays() {
        let p = typical();
        // Monday and Tuesday have the same shape.
        for b in 0..BINS_PER_DAY {
            assert!((p.factor(b) - p.factor(b + BINS_PER_DAY)).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_lands_at_peak_hour() {
        let p = typical();
        let day: Vec<f64> = (0..BINS_PER_DAY).map(|t| p.factor(t)).collect();
        let (argmax, _) = netanom_linalg::vector::argmax(&day).unwrap();
        let peak_hour = argmax as f64 * 24.0 / BINS_PER_DAY as f64;
        assert!(
            (peak_hour - 20.0).abs() < 1.0,
            "peak at hour {peak_hour}, expected ~20"
        );
    }

    #[test]
    fn weekend_is_damped() {
        let p = typical();
        // Same time of day, Wednesday vs Saturday.
        let wed = p.factor(2 * BINS_PER_DAY + 72);
        let sat = p.factor(5 * BINS_PER_DAY + 72);
        assert!((sat / wed - 0.7).abs() < 1e-12);
    }

    #[test]
    fn factor_never_negative_even_for_large_amplitudes() {
        let p = DiurnalProfile {
            amp_24h: 0.9,
            amp_12h: 0.9,
            amp_8h: 0.9,
            peak_hour: 12.0,
            weekend_factor: 1.0,
        };
        for t in 0..BINS_PER_WEEK {
            assert!(p.factor(t) >= 0.0);
        }
    }

    #[test]
    fn series_matches_pointwise_eval() {
        let p = typical();
        let s = p.series(300);
        assert_eq!(s.len(), 300);
        for (t, &v) in s.iter().enumerate() {
            assert_eq!(v, p.factor(t));
        }
    }

    #[test]
    fn weekly_mean_is_near_one_for_moderate_amplitudes() {
        // The multiplicative profile should roughly preserve the mean
        // (within the weekend damping).
        let p = typical();
        let s = p.series(BINS_PER_WEEK);
        let mean = netanom_linalg::stats::mean(&s);
        assert!(
            (0.85..=1.05).contains(&mean),
            "weekly mean factor {mean} too far from 1"
        );
    }
}
