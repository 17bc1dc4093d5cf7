//! Haar-wavelet multiscale residual.
//!
//! Barford et al. [2] detect anomalies by removing the low-frequency part
//! of a signal with a wavelet decomposition and flagging deviations in
//! what remains. This module implements the simplest member of that
//! family — a Haar approximation at a configurable depth — as an ablation
//! comparator; a production wavelet detector would use longer filters,
//! but the Haar pyramid already captures the methodological contrast with
//! the subspace approach (temporal vs. spatial correlation).

/// Haar multiscale filter: the signal's `levels`-deep pairwise-average
/// approximation is treated as "normal"; the residual is the candidate
/// anomaly signal.
#[derive(Debug, Clone, Copy)]
pub struct HaarWavelet {
    /// Decomposition depth. Each level halves the time resolution, so the
    /// approximation at level `L` is piecewise-constant on windows of
    /// `2^L` bins (level 5 ≈ 5.3 hours at 10-minute bins).
    pub levels: usize,
}

impl HaarWavelet {
    /// Create a filter with the given depth.
    ///
    /// # Panics
    /// Panics if `levels == 0` (that would make the residual identically
    /// zero).
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0, "need at least one decomposition level");
        HaarWavelet { levels }
    }

    /// The low-frequency approximation of the signal (same length).
    ///
    /// Implementation: recursive pairwise averaging; an odd-length tail
    /// at any level keeps its last element; the coarse signal is then
    /// upsampled back by duplication. This is the Haar scaling-function
    /// pyramid without the detail coefficients.
    pub fn approximation(&self, series: &[f64]) -> Vec<f64> {
        if series.is_empty() {
            return Vec::new();
        }
        // Downsample `levels` times, remembering each level's length.
        let mut lengths = Vec::with_capacity(self.levels);
        let mut cur = series.to_vec();
        for _ in 0..self.levels {
            if cur.len() == 1 {
                break;
            }
            lengths.push(cur.len());
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < cur.len() {
                next.push(0.5 * (cur[i] + cur[i + 1]));
                i += 2;
            }
            if i < cur.len() {
                next.push(cur[i]);
            }
            cur = next;
        }
        // Upsample back by duplication: coarse element k covers fine
        // positions 2k and 2k+1 (the odd tail element covers only itself).
        for &len in lengths.iter().rev() {
            let mut up = Vec::with_capacity(len);
            for (k, &v) in cur.iter().enumerate() {
                up.push(v);
                if 2 * k + 1 < len {
                    up.push(v);
                }
            }
            debug_assert_eq!(up.len(), len);
            cur = up;
        }
        cur
    }

    /// Residual `z − approximation(z)`: the high-frequency content where
    /// spikes live.
    pub fn residuals(&self, series: &[f64]) -> Vec<f64> {
        self.approximation(series)
            .iter()
            .zip(series)
            .map(|(a, z)| z - a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_has_zero_residual() {
        let w = HaarWavelet::new(4);
        let s = vec![42.0; 64];
        let resid = w.residuals(&s);
        assert!(resid.iter().all(|&r| r.abs() < 1e-12));
    }

    #[test]
    fn approximation_preserves_mean_on_dyadic_length() {
        let w = HaarWavelet::new(3);
        let s: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() * 5.0 + 10.0)
            .collect();
        let a = w.approximation(&s);
        let mean_s = s.iter().sum::<f64>() / 64.0;
        let mean_a = a.iter().sum::<f64>() / 64.0;
        assert!((mean_s - mean_a).abs() < 1e-9);
    }

    #[test]
    fn spike_survives_in_residual() {
        let w = HaarWavelet::new(5);
        let mut s: Vec<f64> = (0..256)
            .map(|i| 100.0 + 30.0 * (i as f64 * std::f64::consts::TAU / 128.0).sin())
            .collect();
        s[100] += 500.0;
        let resid = w.residuals(&s);
        // The spike spreads over the 2^5-wide window but keeps most of
        // its amplitude at the spike bin.
        assert!(resid[100] > 350.0, "spike residual {}", resid[100]);
    }

    #[test]
    fn slow_trend_is_absorbed_by_the_approximation() {
        let w = HaarWavelet::new(5);
        let s: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let resid = w.residuals(&s);
        let max = resid.iter().cloned().fold(0.0_f64, |a, b| a.max(b.abs()));
        // Linear trend error of a 32-wide piecewise-constant fit ≤ 32.
        assert!(max <= 32.0, "trend leak {max}");
    }

    #[test]
    fn non_dyadic_lengths_are_handled() {
        let w = HaarWavelet::new(3);
        for len in [1usize, 2, 3, 7, 100, 1008] {
            let s: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let a = w.approximation(&s);
            assert_eq!(a.len(), len, "length {len}");
            let r = w.residuals(&s);
            assert_eq!(r.len(), len);
        }
    }

    #[test]
    fn empty_input() {
        let w = HaarWavelet::new(2);
        assert!(w.approximation(&[]).is_empty());
        assert!(w.residuals(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_levels_rejected() {
        HaarWavelet::new(0);
    }
}
