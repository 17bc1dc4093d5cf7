//! The Jackson–Mudholkar Q-statistic threshold.
//!
//! With residual eigenvalues `λ_{r+1} … λ_m` (variances of the data along
//! the anomalous axes), define `φᵢ = Σⱼ λⱼᶦ` and
//! `h₀ = 1 − 2φ₁φ₃ / (3φ₂²)`. Then under the null (multivariate Gaussian
//! residual), `SPE ≤ δ²_α` holds with probability `1 − α`, where
//!
//! ```text
//! δ²_α = φ₁ · [ c_α·√(2φ₂h₀²)/φ₁ + 1 + φ₂h₀(h₀−1)/φ₁² ]^(1/h₀)
//! ```
//!
//! and `c_α` is the `1 − α` standard-normal percentile. The result holds
//! regardless of how many components are kept in the normal subspace, and
//! Jensen & Solomon showed it is robust to non-Gaussian data — both facts
//! the paper leans on.

use netanom_linalg::stats;

use crate::{CoreError, Result};

/// A computed Q-statistic threshold.
#[derive(Debug, Clone, Copy)]
pub struct QStatistic {
    /// The SPE threshold `δ²_α`.
    pub delta_sq: f64,
    /// The confidence level `1 − α` it was computed for.
    pub confidence: f64,
    /// `φ₁ = Σ λⱼ` over residual axes (the expected SPE under the null).
    pub phi1: f64,
    /// `φ₂ = Σ λⱼ²`.
    pub phi2: f64,
    /// `φ₃ = Σ λⱼ³`.
    pub phi3: f64,
    /// The `h₀` exponent parameter.
    pub h0: f64,
}

/// How many multiples of `m·ε·λ₁` the residual variance `φ₁` must clear.
///
/// Every model in this crate is (or will, at its first refit, be) built
/// from a covariance matrix, and forming one squares the condition
/// number: an eigenvalue that is zero in exact arithmetic comes back as
/// roundoff of order `ε·λ₁`, so a residual made only of such eigenvalues
/// sums to a multiple of `m·ε·λ₁` — measured ≈ 0.1 on the two-pass
/// route for `m` from 8 to 512, ≈ 4 from sliding sufficient statistics
/// at a mean-to-deviation ratio `μ/σ ≈ 5` and growing as `(μ/σ)²` (see
/// the numerical note on `IncrementalCovariance`). The factor covers
/// statistics refits up to `μ/σ ≈ 80` and still sits nine orders below
/// the residual of a traffic matrix (`φ₁ ≈ 0.05–0.13·λ₁` on the canned
/// datasets).
const NOISE_FLOOR_FACTOR: f64 = 1024.0;

/// The one degenerate-residual guard: `Err(DegenerateResidual { r })`
/// unless the residual moments `(φ₁, φ₂, φ₃)` of an `m`-link model are
/// finite and `φ₁` is above the noise floor `1024·m·ε·λ₁` of a
/// covariance-route spectrum. Below it the "residual variance" is
/// roundoff, the SPE of every bin exceeds any threshold computed from
/// it, and no finite threshold separates normal from anomalous. The
/// floor is relative to `λ₁` and nothing else, so the answer does not
/// depend on the unit the links are measured in; a `λ₁` that is negative
/// or not a number is refused, and `λ₁ = 0` (an all-zero spectrum, or a
/// truncated model that stores none) leaves the floor at zero.
pub(crate) fn ensure_residual(
    (phi1, phi2, phi3): (f64, f64, f64),
    lambda1: f64,
    m: usize,
    r: usize,
) -> Result<()> {
    let floor = NOISE_FLOOR_FACTOR * m as f64 * f64::EPSILON * lambda1;
    let finite = phi1.is_finite() && phi2.is_finite() && phi3.is_finite();
    if !(finite && lambda1 >= 0.0 && phi1 > floor) {
        return Err(CoreError::DegenerateResidual { r });
    }
    Ok(())
}

/// The residual moments `(φ₁, φ₂, φ₃)` of a full descending spectrum
/// split at `r`, or `DegenerateResidual { r }` when the split leaves no
/// residual (`r ≥ m`) or [`ensure_residual`] refuses what it leaves —
/// the guard of every dense model constructor and of [`q_threshold`].
pub(crate) fn dense_residual(eigenvalues: &[f64], r: usize) -> Result<(f64, f64, f64)> {
    if r >= eigenvalues.len() {
        return Err(CoreError::DegenerateResidual { r });
    }
    let residual = &eigenvalues[r..];
    let moments = (
        residual.iter().sum(),
        residual.iter().map(|l| l * l).sum(),
        residual.iter().map(|l| l * l * l).sum(),
    );
    ensure_residual(moments, eigenvalues[0], eigenvalues.len(), r)?;
    Ok(moments)
}

/// Compute the Q-statistic threshold for a spectrum split at `r`.
///
/// * `eigenvalues` — all `m` captured variances, decreasing, on the
///   covariance scale (`‖Yvⱼ‖²/(t−1)`);
/// * `r` — normal-subspace dimension; residual axes are `r..m`;
/// * `confidence` — e.g. `0.999` for the paper's 99.9% level.
///
/// Returns [`CoreError::DegenerateResidual`] when the residual spectrum is
/// empty or carries (numerically) zero variance — in that situation the
/// residual is identically zero under the model and no finite threshold
/// separates normal from anomalous.
pub fn q_threshold(eigenvalues: &[f64], r: usize, confidence: f64) -> Result<QStatistic> {
    ensure_confidence(confidence)?;
    jackson_mudholkar(dense_residual(eigenvalues, r)?, confidence)
}

/// Compute the Q-statistic threshold directly from the residual power
/// sums `φ₁ = Σλⱼ`, `φ₂ = Σλⱼ²`, `φ₃ = Σλⱼ³` (over the residual axes
/// only).
///
/// This is the entry point for truncated refits: the engines compute
/// the moments *exactly* from matrix traces (`tr Σ`, `‖Σ‖²_F`, `tr Σ³`
/// minus the leading eigenvalues' contributions — see
/// [`power_traces`](netanom_linalg::decomposition::power_traces))
/// without ever materializing the residual spectrum, so the threshold
/// agrees with a full eigendecomposition's to roundoff. `lambda1` (the
/// largest eigenvalue) and `dim` (the link count `m`) set the noise
/// floor `φ₁` must clear: a covariance-route spectrum resolves nothing
/// below about `m·ε·λ₁`.
pub fn q_threshold_from_moments(
    moments: (f64, f64, f64),
    lambda1: f64,
    dim: usize,
    confidence: f64,
) -> Result<QStatistic> {
    ensure_confidence(confidence)?;
    ensure_residual(moments, lambda1, dim, usize::MAX)?;
    jackson_mudholkar(moments, confidence)
}

fn ensure_confidence(confidence: f64) -> Result<()> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(CoreError::InvalidConfidence { value: confidence });
    }
    Ok(())
}

/// The formula in the module docs, on a confidence and moments the two
/// callers above have already checked.
fn jackson_mudholkar((phi1, phi2, phi3): (f64, f64, f64), confidence: f64) -> Result<QStatistic> {
    let c_alpha = stats::inverse_normal_cdf(confidence)?;
    let h0 = 1.0 - 2.0 * phi1 * phi3 / (3.0 * phi2 * phi2);

    // With a single dominant residual eigenvalue h0 can approach 1/3 from
    // above; it is always in (0, 1] for real spectra. Guard against
    // pathological roundoff anyway.
    let h0 = if h0.is_finite() { h0.max(1e-4) } else { 1.0 };

    let base = c_alpha * (2.0 * phi2 * h0 * h0).sqrt() / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / (phi1 * phi1);
    // The bracket is positive for every real spectrum at the confidence
    // levels used in practice; clamp to keep powf well-defined under
    // extreme synthetic inputs.
    let base = base.max(f64::MIN_POSITIVE);
    let delta_sq = phi1 * base.powf(1.0 / h0);

    Ok(QStatistic {
        delta_sq,
        confidence,
        phi1,
        phi2,
        phi3,
        h0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typical backbone-like spectrum: steep head, flat noisy tail.
    fn spectrum() -> Vec<f64> {
        let mut v: Vec<f64> = vec![1e16, 3e15, 8e14, 2e14];
        v.extend(std::iter::repeat_n(4.0e12, 45));
        v
    }

    #[test]
    fn threshold_grows_with_confidence() {
        let eig = spectrum();
        let q995 = q_threshold(&eig, 4, 0.995).unwrap();
        let q999 = q_threshold(&eig, 4, 0.999).unwrap();
        assert!(q999.delta_sq > q995.delta_sq);
        assert_eq!(q999.confidence, 0.999);
    }

    #[test]
    fn threshold_exceeds_expected_spe() {
        // δ² must sit above the mean residual energy φ₁.
        let eig = spectrum();
        let q = q_threshold(&eig, 4, 0.999).unwrap();
        assert!(q.delta_sq > q.phi1);
        // …but not absurdly so for a flat tail (χ²-like concentration).
        assert!(q.delta_sq < 3.0 * q.phi1);
    }

    #[test]
    fn equal_eigenvalues_match_chi_square() {
        // With k equal residual eigenvalues λ, SPE/λ ~ χ²_k. For k = 50,
        // λ = 1: the 99.9% point of χ²_50 is ≈ 86.7.
        let eig = vec![1.0; 50];
        let q = q_threshold(&eig, 0, 0.999).unwrap();
        assert!(
            (q.delta_sq - 86.7).abs() < 2.0,
            "δ² = {} vs χ²_50(0.999) ≈ 86.7",
            q.delta_sq
        );
    }

    #[test]
    fn chi_square_single_dof() {
        // k = 1: SPE ~ λ·χ²_1; 99% point of χ²_1 ≈ 6.635. The JM
        // approximation is a Wilson–Hilferty-style transform, accurate to
        // a few percent even at k = 1.
        let eig = vec![2.0];
        let q = q_threshold(&eig, 0, 0.99).unwrap();
        assert!(
            (q.delta_sq / 2.0 - 6.635).abs() < 0.5,
            "δ²/λ = {} vs 6.635",
            q.delta_sq / 2.0
        );
    }

    #[test]
    fn scale_equivariance() {
        // δ²(s·λ) = s·δ²(λ): the threshold lives on the same scale as the
        // eigenvalues.
        let eig = spectrum();
        let q1 = q_threshold(&eig, 4, 0.999).unwrap();
        let scaled: Vec<f64> = eig.iter().map(|l| l * 1e3).collect();
        let q2 = q_threshold(&scaled, 4, 0.999).unwrap();
        assert!(
            (q2.delta_sq / q1.delta_sq / 1e3 - 1.0).abs() < 1e-9,
            "not scale-equivariant"
        );
    }

    #[test]
    fn r_equal_m_is_degenerate() {
        let eig = vec![1.0, 2.0];
        assert!(matches!(
            q_threshold(&eig, 2, 0.999),
            Err(CoreError::DegenerateResidual { r: 2 })
        ));
    }

    #[test]
    fn zero_residual_variance_is_degenerate() {
        let eig = vec![5.0, 0.0, 0.0];
        assert!(matches!(
            q_threshold(&eig, 1, 0.999),
            Err(CoreError::DegenerateResidual { .. })
        ));
    }

    #[test]
    fn invalid_confidence_rejected() {
        let eig = spectrum();
        for c in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                q_threshold(&eig, 4, c),
                Err(CoreError::InvalidConfidence { .. })
            ));
        }
        // …and first, whatever the residual, on both entry points.
        assert!(matches!(
            q_threshold(&[5.0, 0.0], 1, 1.5),
            Err(CoreError::InvalidConfidence { .. })
        ));
        assert!(matches!(
            q_threshold_from_moments((0.0, 0.0, 0.0), 5.0, 2, 1.5),
            Err(CoreError::InvalidConfidence { .. })
        ));
    }

    #[test]
    fn degeneracy_does_not_depend_on_the_unit() {
        // `m·ε·λ₁` is the only yardstick: a healthy split stays healthy
        // and a roundoff tail stays refused however small or large `λ₁`.
        for scale in [1e-30, 1.0, 1e30] {
            let healthy: Vec<f64> = spectrum().iter().map(|l| l * 1e-16 * scale).collect();
            assert!(q_threshold(&healthy, 4, 0.999).is_ok(), "scale {scale:e}");
            let mut roundoff = vec![scale; 4];
            roundoff.extend(std::iter::repeat_n(1e-15 * scale, 45));
            assert!(
                matches!(
                    q_threshold(&roundoff, 4, 0.999),
                    Err(CoreError::DegenerateResidual { r: 4 })
                ),
                "scale {scale:e}"
            );
        }
    }

    #[test]
    fn false_alarm_rate_matches_confidence_on_gaussian_data() {
        // Empirical check of the JM limit: simulate SPE = Σ λⱼ zⱼ² with
        // hash-based "Gaussian-ish" z via CLT (sum of 12 uniforms − 6).
        let lambdas = [3.0, 2.0, 1.0, 0.5, 0.25];
        let q = q_threshold(&lambdas, 0, 0.995).unwrap();
        let mut exceed = 0usize;
        let trials = 20_000usize;
        let mut state = 0x12345678u64;
        let mut next = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..trials {
            let mut spe = 0.0;
            for &l in &lambdas {
                let z: f64 = (0..12).map(|_| next()).sum::<f64>() - 6.0;
                spe += l * z * z;
            }
            if spe > q.delta_sq {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        // Expected 0.005; allow generous Monte-Carlo + CLT-tail slack.
        assert!(
            rate < 0.012,
            "false alarm rate {rate} far above nominal 0.005"
        );
        assert!(rate > 0.0005, "threshold absurdly conservative ({rate})");
    }
}
