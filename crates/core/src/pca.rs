//! Principal component analysis of the link measurement matrix.

use netanom_linalg::decomposition::SymmetricEigen;
use netanom_linalg::{vector, Matrix};

use crate::separation::SeparationPolicy;
use crate::{CoreError, Result};

/// How to compute the principal components: one route, the paper's
/// ("solving the symmetric eigenvalue problem for the covariance matrix,
/// YᵀY").
///
/// Every model the product builds takes it through
/// [`SubspaceModel::from_covariance`](crate::SubspaceModel::from_covariance):
/// two-pass centring and one [`Matrix::gram`] on the fused product tile
/// for a fit ([`SubspaceModel::fit`](crate::SubspaceModel::fit)), the
/// running sufficient statistics for a refit, then one tridiagonal-QL
/// solve that builds every eigenvalue and only the eigenvectors the
/// model keeps. A model therefore does not change numerical route at its
/// first refit.
///
/// Forming `YᵀY` squares the condition number: an eigenvalue is known
/// only to about `m·ε·λ₁`, so a zero eigenvalue comes back as roundoff
/// of that order instead of the `≈ 1e-29·λ₁` a one-sided Jacobi SVD of
/// the centred data would give. The model is indifferent — the residual
/// moments `φ₁..φ₃` are sums dominated by eigenvalues many orders above
/// that floor — and the degenerate-residual guard
/// ([`CoreError::DegenerateResidual`]) is scaled to it, so a residual
/// made of nothing but roundoff is refused. `tests/pca_route_proptests.rs`
/// holds this route to that SVD, kept as a test oracle.
///
/// A one-variant enum because
/// [`DiagnoserConfig::pca_method`](crate::DiagnoserConfig::pca_method)
/// and [`SubspaceModel::fit`](crate::SubspaceModel::fit) carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcaMethod {
    /// Symmetric eigendecomposition (tridiagonal QL) of the sample
    /// covariance `YᵀY/(t−1)`.
    #[default]
    Covariance,
}

/// The centred data, the per-link means and the sample covariance
/// `YᵀY/(t−1)` of a `t × m` measurement matrix: two-pass centring and
/// one [`Matrix::gram`]. Requires `t ≥ 2`.
pub(crate) fn sample_covariance(links: &Matrix) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let t = links.rows();
    if t < 2 {
        return Err(CoreError::TooFewSamples { got: t, need: 2 });
    }
    let (centered, mean) = links.mean_centered_columns();
    let mut cov = centered.gram();
    cov.scale_in_place(1.0 / (t - 1) as f64);
    Ok((centered, mean, cov))
}

/// The normalized temporal projection `Yv / ‖Yv‖` of axis `v` through
/// the centred data `Y` (the zero vector when `Yv` is).
pub(crate) fn temporal_projection(centered: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut u = centered
        .matvec(v)
        .expect("axis length matches column count");
    vector::normalize(&mut u);
    u
}

/// The full PCA of a `t × m` link measurement matrix: every principal
/// axis, for the evaluation figures that plot them (the scree of
/// Figure 3, the temporal projections of Figure 4) and as the reference
/// the tests hold models to. Models are built by
/// [`SubspaceModel::from_covariance`](crate::SubspaceModel::from_covariance),
/// which never forms the axes it does not keep.
///
/// * `components` — the principal axes `vᵢ` as columns (`m × m`),
///   ordered by decreasing captured variance;
/// * `eigenvalues` — `λᵢ = ‖Yvᵢ‖²/(t−1)`, the **sample variance** captured
///   by axis `i`. The paper writes `‖Yvᵢ‖²`; the `1/(t−1)` normalization
///   puts the values on the same scale as the per-timestep SPE so the
///   Jackson–Mudholkar threshold is calibrated correctly (see DESIGN.md);
/// * `mean` — the per-link means removed before the decomposition.
#[derive(Debug, Clone)]
pub struct Pca {
    components: Matrix,
    eigenvalues: Vec<f64>,
    mean: Vec<f64>,
    num_samples: usize,
    /// Centered data matrix (kept for temporal projections `uᵢ`).
    centered: Matrix,
}

impl Pca {
    /// Fit a PCA to the raw (uncentered) measurement matrix.
    ///
    /// Requires at least two timesteps and `t ≥ m` (one week of 10-minute
    /// bins against ≤ 49 links leaves a huge margin). The models the
    /// product builds need only `t ≥ 2`
    /// ([`SubspaceModel::fit`](crate::SubspaceModel::fit)).
    pub fn fit(links: &Matrix) -> Result<Self> {
        let (t, m) = links.shape();
        if t >= 2 && t < m {
            return Err(CoreError::TooFewSamples { got: t, need: m });
        }
        let (centered, mean, cov) = sample_covariance(links)?;
        // Clamps tiny negative values from roundoff, exactly as the
        // models' solve does.
        let eig = SymmetricEigen::of_covariance(&cov)?;

        Ok(Pca {
            components: eig.eigenvectors,
            eigenvalues: eig.eigenvalues,
            mean,
            num_samples: t,
            centered,
        })
    }

    /// Number of timesteps the model was fit on.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// The principal axes as columns of an `m × m` orthogonal matrix.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Captured sample variances `λᵢ`, decreasing.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Per-link means removed before the decomposition.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Fraction of total variance captured by each axis — the data behind
    /// the paper's Figure 3 scree plot.
    pub fn variance_fractions(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&l| l / total).collect()
    }

    /// Smallest number of leading axes capturing at least `fraction` of
    /// the total variance ([`SeparationPolicy::VarianceFraction`]'s rule).
    pub fn effective_dimension(&self, fraction: f64) -> usize {
        SeparationPolicy::VarianceFraction(fraction).normal_dim(self)
    }

    /// The normalized temporal projection `uᵢ = Yvᵢ / ‖Yvᵢ‖` (length `t`).
    ///
    /// `u₁, u₂` show the clean diurnal trends of the paper's Figure 4(a);
    /// higher-order projections carry spikes (Figure 4(b)). When the
    /// centred data has no component along the axis at all (constant
    /// traffic) the projection is the zero vector; an axis whose variance
    /// is only roundoff projects to normalized roundoff.
    ///
    /// # Panics
    /// Panics if `i ≥ m`.
    pub fn temporal_projection(&self, i: usize) -> Vec<f64> {
        temporal_projection(&self.centered, &self.components.col(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random data matrix with two strong directions.
    fn structured_data(t: usize, m: usize) -> Matrix {
        Matrix::from_fn(t, m, |i, j| {
            let daily = (i as f64 * std::f64::consts::TAU / 144.0).sin();
            let trend = (j as f64 + 1.0) * daily * 100.0;
            let noise = ((i * m + j).wrapping_mul(2654435761) % 1000) as f64 / 100.0;
            1000.0 + trend + noise
        })
    }

    #[test]
    fn eigenvalues_match_projected_variance() {
        let y = structured_data(300, 5);
        let pca = Pca::fit(&y).unwrap();
        let (centered, _) = y.mean_centered_columns();
        for k in 0..5 {
            let proj = centered.matvec(&pca.components().col(k)).unwrap();
            let var = vector::norm_sq(&proj) / (y.rows() as f64 - 1.0);
            assert!(
                (var - pca.eigenvalues()[k]).abs() <= 1e-8 * pca.eigenvalues()[0].max(1.0),
                "eigenvalue {k}"
            );
        }
    }

    #[test]
    fn variance_fractions_sum_to_one() {
        let y = structured_data(100, 7);
        let pca = Pca::fit(&y).unwrap();
        let sum: f64 = pca.variance_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strong_structure_concentrates_variance() {
        // One dominant direction -> first axis captures nearly everything.
        let y = structured_data(400, 10);
        let pca = Pca::fit(&y).unwrap();
        assert!(pca.variance_fractions()[0] > 0.9);
        assert_eq!(pca.effective_dimension(0.9), 1);
        assert!(pca.effective_dimension(0.99999) <= 10);
    }

    #[test]
    fn temporal_projection_is_unit_norm_and_tracks_signal() {
        let y = structured_data(288, 6);
        let pca = Pca::fit(&y).unwrap();
        let u1 = pca.temporal_projection(0);
        assert_eq!(u1.len(), 288);
        assert!((vector::norm(&u1) - 1.0).abs() < 1e-9);
        // The first projection should correlate almost perfectly with the
        // daily sine that generated the data.
        let daily: Vec<f64> = (0..288)
            .map(|i| (i as f64 * std::f64::consts::TAU / 144.0).sin())
            .collect();
        let corr = netanom_linalg::stats::pearson(&u1, &daily).unwrap().abs();
        assert!(corr > 0.99, "correlation {corr}");
    }

    #[test]
    fn rejects_too_few_samples() {
        let y = Matrix::zeros(1, 5);
        assert!(matches!(Pca::fit(&y), Err(CoreError::TooFewSamples { .. })));
        let wide = Matrix::zeros(4, 10);
        assert!(matches!(
            Pca::fit(&wide),
            Err(CoreError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn constant_traffic_has_zero_spectrum() {
        let y = Matrix::from_fn(60, 4, |_, j| 100.0 * (j + 1) as f64);
        let pca = Pca::fit(&y).unwrap();
        assert!(pca.eigenvalues().iter().all(|&l| l < 1e-18));
        assert_eq!(pca.variance_fractions(), vec![0.0; 4]);
    }

    #[test]
    fn mean_is_removed() {
        let y = structured_data(120, 4);
        let pca = Pca::fit(&y).unwrap();
        let means = y.column_means();
        assert!(vector::approx_eq(pca.mean(), &means, 1e-9));
    }
}
