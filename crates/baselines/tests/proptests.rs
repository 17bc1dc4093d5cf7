//! Property-based tests of the temporal baselines.

use netanom_baselines::{Ewma, EwmaStream, FourierModel, HoltWinters};
use proptest::prelude::*;

fn series(len: usize, seed: u64, level: f64, amp: f64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let h = (i + seed as usize).wrapping_mul(2654435761) % 4096;
            level
                + amp * (i as f64 * std::f64::consts::TAU / 144.0).sin()
                + (h as f64 - 2048.0) * 0.01
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EWMA forecasts are bounded by the range of the data seen so far —
    /// exponential smoothing is a convex combination of past values.
    #[test]
    fn ewma_forecasts_stay_in_convex_hull(
        alpha in 0.0..=1.0f64,
        seed in 0u64..500,
        len in 2usize..200,
    ) {
        let s = series(len, seed, 1000.0, 50.0);
        let lo = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for f in Ewma::new(alpha).forecasts(&s) {
            prop_assert!(f >= lo - 1e-9 && f <= hi + 1e-9);
        }
    }

    /// Adding a constant to the series adds the same constant to EWMA
    /// forecasts (shift equivariance).
    #[test]
    fn ewma_is_shift_equivariant(alpha in 0.0..=1.0f64, shift in -1e5..1e5f64, seed in 0u64..200) {
        let s = series(100, seed, 500.0, 30.0);
        let shifted: Vec<f64> = s.iter().map(|v| v + shift).collect();
        let f1 = Ewma::new(alpha).forecasts(&s);
        let f2 = Ewma::new(alpha).forecasts(&shifted);
        for (a, b) in f1.iter().zip(&f2) {
            prop_assert!((b - a - shift).abs() < 1e-6);
        }
    }

    /// The bidirectional spike estimate never exceeds either directional
    /// residual (it is their pointwise minimum in magnitude).
    #[test]
    fn ewma_bidirectional_is_a_lower_envelope(alpha in 0.05..0.95f64, seed in 0u64..200) {
        let mut s = series(150, seed, 1000.0, 40.0);
        s[75] += 5000.0;
        let e = Ewma::new(alpha);
        let fwd = e.residuals(&s);
        let both = e.bidirectional_spike_sizes(&s);
        for (b, f) in both.iter().zip(&fwd) {
            prop_assert!(*b <= f.abs() + 1e-9);
        }
    }

    /// The Fourier fit's residuals are orthogonal to the DC column: they
    /// sum to ~zero (least squares with an intercept).
    #[test]
    fn fourier_residuals_are_centered(seed in 0u64..300, len in 200usize..600) {
        let s = series(len, seed, 2000.0, 100.0);
        let m = FourierModel::fit_paper_basis(&s);
        let resid_sum: f64 = m.residuals(&s).iter().sum();
        prop_assert!(resid_sum.abs() < 1e-6 * len as f64);
    }

    /// Fitting never increases energy: ‖residual‖² ≤ ‖centered series‖²
    /// (the projection property of least squares).
    #[test]
    fn fourier_fit_reduces_energy(seed in 0u64..300) {
        let s = series(432, seed, 1500.0, 80.0);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let centered_energy: f64 = s.iter().map(|v| (v - mean) * (v - mean)).sum();
        let m = FourierModel::fit_paper_basis(&s);
        let resid_energy: f64 = m.residuals(&s).iter().map(|r| r * r).sum();
        prop_assert!(resid_energy <= centered_energy * (1.0 + 1e-9));
    }

    /// Holt-Winters residuals on a noise-free seasonal+linear signal decay
    /// after burn-in regardless of (reasonable) smoothing constants.
    #[test]
    fn holt_winters_converges_on_clean_signal(
        alpha in 0.1..0.5f64,
        gamma in 0.05..0.4f64,
    ) {
        let period = 24;
        let s: Vec<f64> = (0..20 * period)
            .map(|i| {
                200.0 + 0.5 * i as f64
                    + 30.0 * (std::f64::consts::TAU * (i % period) as f64 / period as f64).sin()
            })
            .collect();
        let hw = HoltWinters { alpha, beta: 0.05, gamma, period };
        let resid = hw.residuals(&s);
        let tail = &resid[15 * period..];
        let rms = (tail.iter().map(|r| r * r).sum::<f64>() / tail.len() as f64).sqrt();
        prop_assert!(rms < 5.0, "rms {rms} after burn-in (alpha={alpha}, gamma={gamma})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming EWMA state, stepped over a whole series, reproduces
    /// the batch forecasts within 1e-12 (in fact bitwise: the update is
    /// the identical expression).
    #[test]
    fn ewma_stream_matches_batch_forecasts(
        alpha in 0.0..=1.0f64,
        seed in 0u64..300,
        len in 2usize..250,
    ) {
        let s = series(len, seed, 1000.0, 60.0);
        let batch = Ewma::new(alpha).forecasts(&s);
        let mut stream = Ewma::new(alpha).stream();
        for (t, &z) in s.iter().enumerate() {
            let f = stream.step(z);
            prop_assert!(
                (f - batch[t]).abs() <= 1e-12 * batch[t].abs().max(1.0),
                "bin {t}: stream {f} vs batch {}", batch[t]
            );
            prop_assert_eq!(f, batch[t], "bin {}: not bitwise", t);
        }
    }

    /// Restart-mid-series: resuming a fresh EWMA stream from the prefix
    /// continues bitwise where the batch forecasts are.
    #[test]
    fn ewma_stream_restart_mid_series_is_bitwise(
        alpha in 0.05..0.95f64,
        seed in 0u64..300,
        len in 10usize..250,
        cut_ppm in 0usize..1_000_000,
    ) {
        let s = series(len, seed, 800.0, 40.0);
        let cut = 1 + cut_ppm * (len - 2) / 1_000_000; // 1..len-1
        let batch = Ewma::new(alpha).forecasts(&s);
        let mut resumed = EwmaStream::resume(alpha, &s[..cut]);
        for (t, &z) in s.iter().enumerate().skip(cut) {
            prop_assert_eq!(resumed.step(z), batch[t], "bin {} after restart at {}", t, cut);
        }
    }

    /// The streaming Holt-Winters state, initialized from a training
    /// prefix, continues the batch forecasts within 1e-12 (bitwise, in
    /// fact) — including restarts at arbitrary points past the two
    /// initialization seasons.
    #[test]
    fn holt_winters_stream_restart_mid_series_matches_batch(
        alpha in 0.05..0.6f64,
        beta in 0.0..0.2f64,
        gamma in 0.05..0.5f64,
        seed in 0u64..200,
        cut_ppm in 0usize..1_000_000,
    ) {
        let period = 24;
        let len = 10 * period;
        let s = series(len, seed, 1200.0, 80.0);
        let hw = HoltWinters { alpha, beta, gamma, period };
        let batch = hw.forecasts(&s);
        // Restart anywhere in [2*period, len-1].
        let cut = 2 * period + cut_ppm * (len - 1 - 2 * period) / 1_000_000;
        let mut stream = hw.stream(&s[..cut]);
        prop_assert_eq!(stream.observed(), cut);
        for (t, &z) in s.iter().enumerate().skip(cut) {
            let f = stream.step(z);
            prop_assert!(
                (f - batch[t]).abs() <= 1e-12 * batch[t].abs().max(1.0),
                "bin {t}: stream {f} vs batch {}", batch[t]
            );
            prop_assert_eq!(f, batch[t], "bin {}: not bitwise after restart at {}", t, cut);
        }
    }
}
