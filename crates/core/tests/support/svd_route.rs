//! The PCA route the library retired, rebuilt over the one-sided Jacobi
//! SVD oracle (`netanom-linalg`'s `tests/support/svd.rs`) for the suites
//! that hold the covariance route to it: `pca_route_proptests`,
//! `robustness`, `proptests` and `incremental_proptests` include this
//! file by `#[path]`.
//!
//! [`SvdPca`] is `Pca::fit` with the SVD of the centred data in place of
//! the covariance eigen-solve — `σₖ²/(t−1)` for the spectrum, `V` for the
//! axes. Its rank rule ([`normal_dim_of`]) is written here apart from
//! the library's, so the suites compare two implementations of the rule
//! as well as two decompositions.

// Each including suite uses only part of it.
#![allow(dead_code)]

#[path = "../../../linalg/tests/support/svd.rs"]
mod svd;

use netanom_core::{CoreError, Result, SeparationPolicy, SubspaceModel};
use netanom_linalg::{stats, vector, Matrix};

/// The SVD route's PCA of a `t × m` measurement matrix.
pub struct SvdPca {
    mean: Vec<f64>,
    centered: Matrix,
    /// The right singular vectors `V`: the principal axes as columns.
    components: Matrix,
    /// `σₖ²/(t−1)`, decreasing.
    eigenvalues: Vec<f64>,
}

impl SvdPca {
    /// The fit, with `Pca::fit`'s refusals (`t < 2`, `t < m`).
    pub fn fit(links: &Matrix) -> Result<Self> {
        let (t, m) = links.shape();
        if t < 2 {
            return Err(CoreError::TooFewSamples { got: t, need: 2 });
        }
        if t < m {
            return Err(CoreError::TooFewSamples { got: t, need: m });
        }
        let (centered, mean) = links.mean_centered_columns();
        let denom = (t - 1) as f64;
        let svd = svd::Svd::new(&centered)?;
        let eigenvalues = svd.sigma.iter().map(|s| s * s / denom).collect();
        Ok(SvdPca {
            mean,
            centered,
            components: svd.v,
            eigenvalues,
        })
    }

    /// Captured sample variances `λᵢ`, decreasing.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The principal axes as columns.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Fraction of total variance captured by each axis.
    pub fn variance_fractions(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&l| l / total).collect()
    }

    /// Smallest number of leading axes capturing at least `fraction` of
    /// the total variance.
    pub fn effective_dimension(&self, fraction: f64) -> usize {
        variance_rank(&self.eigenvalues, fraction)
    }

    /// The normalized temporal projection `uᵢ = Yvᵢ / ‖Yvᵢ‖`.
    pub fn temporal_projection(&self, i: usize) -> Vec<f64> {
        let v = self.components.col(i);
        let mut u = self
            .centered
            .matvec(&v)
            .expect("component length matches column count");
        vector::normalize(&mut u);
        u
    }

    /// The normal dimension `policy` selects on this spectrum.
    pub fn normal_dim(&self, policy: SeparationPolicy) -> usize {
        normal_dim_of(policy, &self.eigenvalues, |i| self.temporal_projection(i))
    }

    /// The subspace model with the leading `r` axes normal.
    pub fn model(&self, r: usize) -> Result<SubspaceModel> {
        SubspaceModel::from_eigen(
            self.mean.clone(),
            &self.components,
            self.eigenvalues.clone(),
            r,
        )
    }
}

/// The normal dimension `policy` selects on a descending spectrum, where
/// `projection(i)` is axis `i`'s normalized temporal projection: the 3σ
/// walk (stopping at the first axis with no variance or a spike), a
/// clamped fixed count, or [`variance_rank`].
pub fn normal_dim_of(
    policy: SeparationPolicy,
    eigenvalues: &[f64],
    projection: impl Fn(usize) -> Vec<f64>,
) -> usize {
    let m = eigenvalues.len();
    match policy {
        SeparationPolicy::FixedCount(r) => r.min(m),
        SeparationPolicy::VarianceFraction(f) => variance_rank(eigenvalues, f.clamp(0.0, 1.0)),
        SeparationPolicy::ThreeSigma { sigma } => {
            for (i, &l) in eigenvalues.iter().enumerate() {
                if l <= 0.0 {
                    return i;
                }
                let u = projection(i);
                let mean = stats::mean(&u);
                let sd = stats::std_dev(&u);
                if sd == 0.0 {
                    return i;
                }
                if u.iter().any(|&x| (x - mean).abs() > sigma * sd) {
                    return i;
                }
            }
            m
        }
    }
}

/// The smallest `r` whose running sum `Σλᵢ` reaches `fraction·Σλ`
/// (all `m` if roundoff keeps it short), and 0 when `Σλ ≤ 0`.
pub fn variance_rank(eigenvalues: &[f64], fraction: f64) -> usize {
    let total: f64 = eigenvalues.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let target = fraction * total;
    let mut acc = 0.0;
    for (i, l) in eigenvalues.iter().enumerate() {
        acc += l;
        if acc >= target {
            return i + 1;
        }
    }
    eigenvalues.len()
}

/// `SubspaceModel::fit` on the SVD route.
pub fn fit_model(links: &Matrix, policy: SeparationPolicy) -> Result<SubspaceModel> {
    let pca = SvdPca::fit(links)?;
    pca.model(pca.normal_dim(policy))
}
