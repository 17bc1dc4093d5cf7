//! Separation of the principal axes into normal and anomalous sets.

use netanom_linalg::stats;

use crate::pca::Pca;
use crate::{CoreError, Result};

/// Policy deciding the dimension `r` of the normal subspace.
///
/// The paper uses the **3σ rule** (Section 4.3): walk the principal axes in
/// order; the first axis whose temporal projection `uᵢ` contains a value
/// more than three standard deviations from its mean — i.e. whose common
/// temporal pattern contains a spike rather than a smooth trend — starts
/// the anomalous subspace, and all subsequent axes join it. On the paper's
/// data this consistently selected `r = 4`.
///
/// The two alternative policies exist for the ablation experiments: a fixed
/// `r`, and the classical cumulative-variance criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeparationPolicy {
    /// The paper's rule with a configurable σ multiplier (paper: 3.0).
    ThreeSigma {
        /// Threshold in standard deviations.
        sigma: f64,
    },
    /// Always use the first `r` axes as the normal subspace.
    FixedCount(
        /// The normal-subspace dimension.
        usize,
    ),
    /// Smallest `r` capturing at least this fraction of total variance.
    VarianceFraction(
        /// Fraction in `(0, 1]`.
        f64,
    ),
}

impl Default for SeparationPolicy {
    fn default() -> Self {
        SeparationPolicy::ThreeSigma { sigma: 3.0 }
    }
}

impl SeparationPolicy {
    /// Select the normal-subspace dimension `r ∈ [0, m]` for a fitted PCA
    /// ([`normal_dim_of`](Self::normal_dim_of) on its spectrum and
    /// temporal projections).
    ///
    /// `r = 0` means everything is anomalous (no axis passed the test);
    /// `r = m` means no residual remains (callers building a detector
    /// treat that as an error).
    pub fn normal_dim(&self, pca: &Pca) -> usize {
        self.normal_dim_of(pca.eigenvalues(), |i| pca.temporal_projection(i))
    }

    /// The one rank rule: the normal dimension `r ∈ [0, m]` on a
    /// descending spectrum of all `m` eigenvalues.
    ///
    /// `projection(i)` is axis `i`'s normalized temporal projection
    /// `uᵢ = Yvᵢ/‖Yvᵢ‖`. Only the 3σ walk asks for it, in axis order,
    /// and it stops at the first spike, so it asks at most `r + 1` times.
    /// The walk also stops at an axis with no variance: its projection
    /// carries no information and it belongs to the residual.
    pub fn normal_dim_of(
        &self,
        eigenvalues: &[f64],
        mut projection: impl FnMut(usize) -> Vec<f64>,
    ) -> usize {
        let m = eigenvalues.len();
        let SeparationPolicy::ThreeSigma { sigma } = *self else {
            return self
                .spectral_dim(eigenvalues, eigenvalues.iter().sum(), m)
                .unwrap_or(m);
        };
        for (i, &l) in eigenvalues.iter().enumerate() {
            if l <= 0.0 {
                return i;
            }
            let u = projection(i);
            let mean = stats::mean(&u);
            let sd = stats::std_dev(&u);
            if sd == 0.0 || u.iter().any(|&x| (x - mean).abs() > sigma * sd) {
                return i;
            }
        }
        m
    }

    /// The normal dimension [`FixedCount`](Self::FixedCount) and
    /// [`VarianceFraction`](Self::VarianceFraction) pick from `leading`,
    /// the leading block of a descending spectrum of `dim` eigenvalues
    /// summing to `total`: the smallest `r` whose running sum `Σλᵢ`
    /// reaches `f·total`, and `0` when `total ≤ 0`.
    ///
    /// `None` means the variance target lies beyond the block — and, for
    /// the 3σ policy, that the rule needs the projections of
    /// [`normal_dim_of`](Self::normal_dim_of).
    pub(crate) fn spectral_dim(&self, leading: &[f64], total: f64, dim: usize) -> Option<usize> {
        match *self {
            SeparationPolicy::FixedCount(r) => Some(r.min(dim)),
            SeparationPolicy::VarianceFraction(_) if total <= 0.0 => Some(0),
            SeparationPolicy::VarianceFraction(f) => {
                let target = f.clamp(0.0, 1.0) * total;
                let mut acc = 0.0;
                leading
                    .iter()
                    .position(|&l| {
                        acc += l;
                        acc >= target
                    })
                    .map(|i| i + 1)
            }
            SeparationPolicy::ThreeSigma { .. } => None,
        }
    }

    /// Refuse the 3σ policy where no temporal projection exists (a model
    /// built from sufficient statistics alone), with
    /// `DegenerateResidual { r: usize::MAX }`.
    pub(crate) fn refuse_without_projections(&self) -> Result<()> {
        match self {
            SeparationPolicy::ThreeSigma { .. } => {
                Err(CoreError::DegenerateResidual { r: usize::MAX })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_linalg::Matrix;

    /// Data with two smooth strong directions and a third direction
    /// containing a single huge spike.
    fn smooth_plus_spike(t: usize) -> Matrix {
        Matrix::from_fn(t, 6, |i, j| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = match j {
                0 | 1 => 1e4 * phase.sin(),
                2 | 3 => 5e3 * phase.cos(),
                _ => 0.0,
            };
            // A one-bin spike confined to links 4 and 5.
            let spike = if i == t / 2 && j >= 4 { 2.0e3 } else { 0.0 };
            let noise = ((i * 6 + j).wrapping_mul(2654435761) % 997) as f64 * 0.05;
            1e5 + smooth + spike + noise
        })
    }

    #[test]
    fn three_sigma_keeps_smooth_axes_normal() {
        let y = smooth_plus_spike(432);
        let pca = Pca::fit(&y).unwrap();
        let r = SeparationPolicy::default().normal_dim(&pca);
        // The two sinusoidal directions must be normal; the spike axis
        // must not be.
        assert!((2..=3).contains(&r), "r = {r}");
    }

    #[test]
    fn fixed_count_is_clamped() {
        let y = smooth_plus_spike(300);
        let pca = Pca::fit(&y).unwrap();
        assert_eq!(SeparationPolicy::FixedCount(4).normal_dim(&pca), 4);
        assert_eq!(SeparationPolicy::FixedCount(100).normal_dim(&pca), 6);
        assert_eq!(SeparationPolicy::FixedCount(0).normal_dim(&pca), 0);
    }

    #[test]
    fn variance_fraction_policy() {
        let y = smooth_plus_spike(300);
        let pca = Pca::fit(&y).unwrap();
        let r_small = SeparationPolicy::VarianceFraction(0.5).normal_dim(&pca);
        let r_large = SeparationPolicy::VarianceFraction(0.9999).normal_dim(&pca);
        assert!(r_small <= r_large);
        assert!(r_small >= 1);
    }

    #[test]
    fn lower_sigma_is_stricter() {
        let y = smooth_plus_spike(432);
        let pca = Pca::fit(&y).unwrap();
        let r3 = SeparationPolicy::ThreeSigma { sigma: 3.0 }.normal_dim(&pca);
        let r1 = SeparationPolicy::ThreeSigma { sigma: 1.0 }.normal_dim(&pca);
        assert!(r1 <= r3, "sigma=1 ({r1}) should not exceed sigma=3 ({r3})");
        // With sigma = 1 even a sine exceeds the band, so nothing is
        // normal.
        assert_eq!(r1, 0);
    }

    #[test]
    fn pure_gaussian_noise_eventually_spikes() {
        // Max of ~400 standard normals exceeds 3σ with probability ≈ 0.66;
        // use hash noise which is uniform — bounded, so it never exceeds
        // 3σ of itself. Uniform noise on all axes → all axes normal.
        let y = Matrix::from_fn(400, 4, |i, j| {
            ((i * 4 + j).wrapping_mul(2654435761) % 4096) as f64
        });
        let pca = Pca::fit(&y).unwrap();
        let r = SeparationPolicy::default().normal_dim(&pca);
        // Uniform noise has max/σ ≈ √3 < 3, so every axis passes.
        assert_eq!(r, 4);
    }

    /// A spectrum on which summing fractions `λᵢ/total` and comparing
    /// `Σλᵢ` with `f·total` disagree at `f = 18/Σλ`: the rule is the
    /// second, for a fit and a refit alike.
    #[test]
    fn variance_fraction_compares_running_sums_with_the_target() {
        let spectrum = [
            8.0,
            6.0,
            3.0,
            1.0,
            0.703382088603836,
            7.705231398308005e-4,
            5.18678283523002e-4,
            3.836896328900399e-4,
            3.6712383142708805e-4,
            2.3217612806301457e-4,
            8.646758972824831e-5,
        ];
        let total: f64 = spectrum.iter().sum();
        let policy = SeparationPolicy::VarianceFraction(18.0 / total);
        let mut acc = 0.0;
        let by_fractions = 1 + spectrum
            .iter()
            .position(|&l| {
                acc += l / total;
                acc >= 18.0 / total
            })
            .unwrap();
        assert_eq!(by_fractions, 5, "the fractions rule this replaces");
        assert_eq!(policy.normal_dim_of(&spectrum, |_| unreachable!()), 4);
        assert_eq!(policy.spectral_dim(&spectrum, total, 11), Some(4));
    }

    #[test]
    fn variance_fraction_of_no_variance_is_zero() {
        let policy = SeparationPolicy::VarianceFraction(0.9);
        assert_eq!(policy.normal_dim_of(&[0.0; 4], |_| unreachable!()), 0);
        assert_eq!(policy.spectral_dim(&[], -1e-300, 4), Some(0));
    }

    #[test]
    fn variance_target_past_the_block_is_none() {
        let policy = SeparationPolicy::VarianceFraction(0.9);
        // The block [5, 3] of a spectrum summing to 10 reaches 80 %.
        assert_eq!(policy.spectral_dim(&[5.0, 3.0], 10.0, 6), None);
        assert_eq!(policy.spectral_dim(&[5.0, 3.0, 1.0], 10.0, 6), Some(3));
        assert_eq!(
            SeparationPolicy::FixedCount(9).spectral_dim(&[5.0], 10.0, 6),
            Some(6)
        );
    }

    #[test]
    fn rank_deficient_tail_goes_to_residual() {
        // Rank-2 data in 5 dims: axes 3..5 have zero variance and must be
        // residual under the 3σ rule.
        let y = Matrix::from_fn(200, 5, |i, j| match j {
            0 => (i as f64 * 0.1).sin() * 100.0,
            1 => (i as f64 * 0.1).cos() * 90.0,
            _ => 0.0,
        });
        let pca = Pca::fit(&y).unwrap();
        let r = SeparationPolicy::default().normal_dim(&pca);
        assert!(r <= 2, "zero-variance axes must be anomalous, r = {r}");
    }
}
