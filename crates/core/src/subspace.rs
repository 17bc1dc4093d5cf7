//! The fitted subspace model and the detection step.

use netanom_linalg::decomposition::LeadingEigen;
use netanom_linalg::{kernel, vector, Matrix};

use crate::pca::{sample_covariance, temporal_projection, PcaMethod};
use crate::qstat::{
    dense_residual, ensure_residual, q_threshold, q_threshold_from_moments, QStatistic,
};
use crate::separation::SeparationPolicy;
use crate::{CoreError, Result};

/// A fitted subspace model: the separation `R^m = S ⊕ S̃` plus everything
/// needed to project new measurements onto the two subspaces.
///
/// The projector onto the normal subspace is `C = PPᵀ` with `P` the
/// `m × r` matrix of leading principal axes; the residual projector is
/// `C̃ = I − PPᵀ`. Projection is implemented as `ỹ = z − P(Pᵀz)` which is
/// `O(m·r)` per vector — the per-arrival cost quoted in the paper's
/// Section 7.1 deployment discussion.
#[derive(Debug, Clone)]
pub struct SubspaceModel {
    mean: Vec<f64>,
    /// Normal basis: `m × r`, orthonormal columns.
    p: Matrix,
    /// Captured spectrum (covariance scale), decreasing. Full `m`
    /// entries for dense fits; only the leading `k` computed entries for
    /// truncated refits (see [`SubspaceModel::from_truncated`]).
    eigenvalues: Vec<f64>,
    r: usize,
    /// Exact residual power sums `(φ₁, φ₂, φ₃)` over axes `r..m`,
    /// carried when the model was built without the full spectrum
    /// (truncated refits). When present, [`SubspaceModel::q_threshold`]
    /// uses them instead of summing `eigenvalues[r..]`.
    residual_moments: Option<(f64, f64, f64)>,
}

/// The largest eigenvalue of a descending spectrum (`0` when empty).
fn leading(eigenvalues: &[f64]) -> f64 {
    eigenvalues.first().copied().unwrap_or(0.0)
}

impl SubspaceModel {
    /// Fit a model to a `t × m` measurement matrix: the sample covariance
    /// by the one [`PcaMethod`] (two-pass centring and one
    /// [`Matrix::gram`]), then [`from_covariance`](Self::from_covariance)
    /// with the centred data for the 3σ walk's temporal projections.
    ///
    /// Needs `t ≥ 2` rows; fewer rows than links is fine (the covariance
    /// then has rank at most `t − 1`, and a split that leaves only its
    /// roundoff in the residual is refused like any other).
    ///
    /// Returns [`CoreError::DegenerateResidual`] if the policy assigns
    /// every axis to the normal subspace or the residual carries no
    /// variance (in either case there is nothing to detect with).
    pub fn fit(links: &Matrix, policy: SeparationPolicy, _method: PcaMethod) -> Result<Self> {
        let (centered, mean, cov) = sample_covariance(links)?;
        Self::from_covariance(mean, &cov, policy, Some(&centered))
    }

    /// Build a model from a mean and a covariance: the route every model
    /// the product builds takes — the first fit, `--refit full`, and the
    /// dense statistics refits
    /// ([`IncrementalCovariance::to_model`](crate::incremental::IncrementalCovariance::to_model)).
    ///
    /// One leading solve ([`LeadingEigen`]) gives every eigenvalue, and
    /// `policy`'s rank rule ([`SeparationPolicy::normal_dim_of`]) picks
    /// `r`. The 3σ walk asks for one eigenvector at a time and projects
    /// it through `centered`, the `t × m` centred data whose covariance
    /// `cov` is; it stops at the first spike, so at most `r + 1` vectors
    /// are built. The spectral policies build exactly `r`. Without
    /// `centered`, the 3σ policy is refused with
    /// `DegenerateResidual { r: usize::MAX }`: a covariance holds no
    /// temporal projection. A `mean` or `centered` whose link count is not
    /// `cov`'s is refused with [`CoreError::DimensionMismatch`] before the
    /// solve.
    ///
    /// The spectrum and threshold are bitwise those of a full
    /// [`SymmetricEigen::of_covariance`] solve, and the basis equals its
    /// leading columns to roundoff.
    ///
    /// [`SymmetricEigen::of_covariance`]:
    /// netanom_linalg::decomposition::SymmetricEigen::of_covariance
    pub fn from_covariance(
        mean: Vec<f64>,
        cov: &Matrix,
        policy: SeparationPolicy,
        centered: Option<&Matrix>,
    ) -> Result<Self> {
        let m = cov.rows();
        for got in [mean.len(), centered.map_or(m, Matrix::cols)] {
            if got != m {
                return Err(CoreError::DimensionMismatch { expected: m, got });
            }
        }
        if centered.is_none() {
            policy.refuse_without_projections()?;
        }
        let mut solve = LeadingEigen::of_covariance(cov)?;
        let spectrum = solve.eigenvalues().to_vec();
        let r = policy.normal_dim_of(&spectrum, |i| {
            let centered = centered.expect("the 3σ walk is refused without centred data");
            temporal_projection(centered, solve.vector(i))
        });
        // A split with no residual is refused before its vectors are built.
        if r >= m {
            return Err(CoreError::DegenerateResidual { r });
        }
        let eig = solve.into_leading(r);
        Self::from_parts(mean, eig.eigenvectors, eig.eigenvalues, r)
    }

    /// Build a model directly from a mean vector and a covariance
    /// eigendecomposition (components as columns, eigenvalues decreasing,
    /// covariance scale).
    ///
    /// For a decomposition made elsewhere — e.g. the full
    /// [`SymmetricEigen::of_covariance`] solve of a [`Pca`](crate::Pca)
    /// that evaluation or a test holds a model to.
    ///
    /// [`SymmetricEigen::of_covariance`]:
    /// netanom_linalg::decomposition::SymmetricEigen::of_covariance
    pub fn from_eigen(
        mean: Vec<f64>,
        components: &Matrix,
        eigenvalues: Vec<f64>,
        r: usize,
    ) -> Result<Self> {
        let m = mean.len();
        if components.shape() != (m, m) || eigenvalues.len() != m {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: components.rows(),
            });
        }
        dense_residual(&eigenvalues, r)?;
        let indices: Vec<usize> = (0..r).collect();
        Ok(SubspaceModel {
            mean,
            p: components.select_columns(&indices),
            eigenvalues,
            r,
            residual_moments: None,
        })
    }

    /// Reassemble a model from its exported parts: the mean, the `m × r`
    /// normal basis (already column-selected), the full spectrum, and
    /// `r`. Used by [`crate::method::MethodState`] import, where the full
    /// eigenvector matrix is not available.
    pub(crate) fn from_parts(
        mean: Vec<f64>,
        p: Matrix,
        eigenvalues: Vec<f64>,
        r: usize,
    ) -> Result<Self> {
        let m = mean.len();
        if p.rows() != m || p.cols() != r || eigenvalues.len() != m {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: p.rows(),
            });
        }
        dense_residual(&eigenvalues, r)?;
        Ok(SubspaceModel {
            mean,
            p,
            eigenvalues,
            r,
            residual_moments: None,
        })
    }

    /// Build a model from a *truncated* covariance eigendecomposition
    /// ([`TruncatedEigen`]) plus the covariance's exact power traces
    /// `(tr Σ, tr Σ², tr Σ³)` — the large-`m` refit entry point, where
    /// only the top `k` eigenpairs are ever computed.
    ///
    /// The residual moments the Q-statistic threshold needs are formed
    /// exactly as the traces minus the leading eigenvalues'
    /// contributions, so the threshold matches a full
    /// eigendecomposition's to roundoff — truncation changes the refit
    /// *cost*, not its detection semantics. Requires `r ≤ k < m`; the
    /// stored spectrum is the `k` computed entries
    /// (see [`SubspaceModel::eigenvalues`]).
    ///
    /// [`TruncatedEigen`]: netanom_linalg::decomposition::TruncatedEigen
    pub fn from_truncated(
        mean: Vec<f64>,
        eig: &netanom_linalg::decomposition::TruncatedEigen,
        r: usize,
        traces: (f64, f64, f64),
    ) -> Result<Self> {
        let m = mean.len();
        let k = eig.len();
        if eig.eigenvectors.shape() != (m, k) {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: eig.eigenvectors.rows(),
            });
        }
        if r > k {
            return Err(CoreError::DimensionMismatch {
                expected: r,
                got: k,
            });
        }
        let (t1, t2, t3) = traces;
        let head = &eig.eigenvalues[..r];
        // Clamp against cancellation: the head sums approach the traces
        // when the residual variance is (numerically) zero.
        let phi1 = (t1 - head.iter().sum::<f64>()).max(0.0);
        let phi2 = (t2 - head.iter().map(|l| l * l).sum::<f64>()).max(0.0);
        let phi3 = (t3 - head.iter().map(|l| l * l * l).sum::<f64>()).max(0.0);
        let indices: Vec<usize> = (0..r).collect();
        Self::finish_truncated(
            mean,
            eig.eigenvectors.select_columns(&indices),
            eig.eigenvalues.clone(),
            r,
            (phi1, phi2, phi3),
        )
    }

    /// Reassemble a truncated-refit model from its exported parts (the
    /// [`crate::method::MethodState`] import path): mean, `m × r` basis,
    /// the `k ≥ r` computed eigenvalues, and the already-derived
    /// residual moments `(φ₁, φ₂, φ₃)`.
    pub(crate) fn from_parts_truncated(
        mean: Vec<f64>,
        p: Matrix,
        eigenvalues: Vec<f64>,
        r: usize,
        moments: (f64, f64, f64),
    ) -> Result<Self> {
        let m = mean.len();
        if p.rows() != m || p.cols() != r || eigenvalues.len() < r {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: p.rows(),
            });
        }
        Self::finish_truncated(mean, p, eigenvalues, r, moments)
    }

    /// Shared tail of the truncated constructors: validate the residual
    /// moments and degeneracy the same way the dense constructors do.
    fn finish_truncated(
        mean: Vec<f64>,
        p: Matrix,
        eigenvalues: Vec<f64>,
        r: usize,
        moments: (f64, f64, f64),
    ) -> Result<Self> {
        let m = mean.len();
        if r >= m {
            return Err(CoreError::DegenerateResidual { r });
        }
        ensure_residual(moments, leading(&eigenvalues), m, r)?;
        Ok(SubspaceModel {
            mean,
            p,
            eigenvalues,
            r,
            residual_moments: Some(moments),
        })
    }

    /// The exact residual power sums `(φ₁, φ₂, φ₃)` carried by a
    /// truncated-refit model, or `None` for models holding the full
    /// spectrum (where the moments are recomputed from it on demand).
    pub fn residual_moments(&self) -> Option<(f64, f64, f64)> {
        self.residual_moments
    }

    /// Number of links `m`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Dimension `r` of the normal subspace.
    pub fn normal_dim(&self) -> usize {
        self.r
    }

    /// The per-link training means subtracted before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The `m × r` normal basis `P`.
    pub fn normal_basis(&self) -> &Matrix {
        &self.p
    }

    /// The captured eigenvalue spectrum (covariance scale), decreasing:
    /// all `m` values for dense fits, the leading computed values for
    /// truncated refits ([`SubspaceModel::from_truncated`]) — `r` of
    /// them when the refit froze `FixedCount(r)`.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    fn check_dim(&self, y: &[f64]) -> Result<()> {
        if y.len() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: y.len(),
            });
        }
        Ok(())
    }

    /// Split a measurement into modeled and residual parts:
    /// `y − μ = ŷ + ỹ` with `ŷ ∈ S`, `ỹ ∈ S̃`.
    ///
    /// Rejects non-finite measurements (a NaN would otherwise poison the
    /// SPE and silently disable detection — `NaN > δ²` is `false`).
    pub fn decompose(&self, y: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        self.check_dim(y)?;
        if let Some(link) = y.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteMeasurement { link });
        }
        let z = vector::sub(y, &self.mean);
        let coeffs = self.p.matvec_t(&z).expect("dim checked");
        let modeled = self.p.matvec(&coeffs).expect("dim checked");
        let residual = vector::sub(&z, &modeled);
        Ok((modeled, residual))
    }

    /// The residual (anomalous-subspace) part `ỹ = C̃(y − μ)`.
    pub fn residual(&self, y: &[f64]) -> Result<Vec<f64>> {
        Ok(self.decompose(y)?.1)
    }

    /// Project an arbitrary *direction* (not a measurement — no mean
    /// subtraction) onto the anomalous subspace: `C̃ v`.
    ///
    /// `θ̃ᵢ = C̃θᵢ` for one flow direction.
    pub fn residual_direction(&self, v: &[f64]) -> Result<Vec<f64>> {
        self.check_dim(v)?;
        let coeffs = self.p.matvec_t(v).expect("dim checked");
        let modeled = self.p.matvec(&coeffs).expect("dim checked");
        Ok(vector::sub(v, &modeled))
    }

    /// The squared prediction error `SPE = ‖ỹ‖²` of a measurement.
    pub fn spe(&self, y: &[f64]) -> Result<f64> {
        Ok(vector::norm_sq(&self.residual(y)?))
    }

    /// Validate a `t × m` measurement matrix the way the per-vector path
    /// does: matching dimension, all entries finite (first offending
    /// link reported).
    fn validate_matrix(&self, links: &Matrix) -> Result<()> {
        if links.cols() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: links.cols(),
            });
        }
        for t in 0..links.rows() {
            if let Some(link) = links.row(t).iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteMeasurement { link });
            }
        }
        Ok(())
    }

    /// Center every row of a validated `t × m` measurement matrix.
    fn center_matrix(&self, links: &Matrix) -> Result<Matrix> {
        self.validate_matrix(links)?;
        let mut data = Vec::with_capacity(links.rows() * links.cols());
        for t in 0..links.rows() {
            data.extend(links.row(t).iter().zip(&self.mean).map(|(y, mu)| y - mu));
        }
        Ok(Matrix::from_vec(links.rows(), links.cols(), data).expect("sized to shape"))
    }

    /// Batched [`SubspaceModel::decompose`]: split every row of a `t × m`
    /// measurement matrix into modeled and residual parts in two GEMMs.
    ///
    /// Row `t` of the results is bitwise identical to
    /// `self.decompose(links.row(t))` — the batch kernels preserve the
    /// per-row operation order (see `netanom_linalg::parallel`) — while
    /// running an order of magnitude faster on week-scale matrices: one
    /// pass of cache-friendly, thread-parallel matrix products instead of
    /// `t` matvec pairs with four heap allocations each.
    pub fn decompose_matrix(&self, links: &Matrix) -> Result<(Matrix, Matrix)> {
        let z = self.center_matrix(links)?;
        Ok(z.project_rows_split(&self.p).expect("dims checked"))
    }

    /// The SPE `‖ỹ‖²` of every row. Batched form of
    /// [`SubspaceModel::spe`].
    ///
    /// Runs the fused single-pass kernel
    /// (`Matrix::centered_residual_norms_sq`): centering, projection and
    /// the norm reduction never materialize per-row vectors, which makes
    /// this several times faster than the per-vector loop even on one
    /// core, and row-parallel beyond that. The kernel keeps the exact
    /// per-vector operation order, so every SPE is bitwise identical to
    /// [`SubspaceModel::spe`].
    pub fn spe_all(&self, links: &Matrix) -> Result<Vec<f64>> {
        if links.cols() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: links.cols(),
            });
        }
        let spes = links
            .centered_residual_norms_sq(&self.mean, &self.p)
            .expect("dims checked");
        // A non-finite measurement always poisons its SPE, so the happy
        // path needs no validation scan; only when some SPE is
        // non-finite do we look for the offending input (a non-finite
        // SPE can also arise legitimately, from overflow of finite
        // inputs — the per-vector path accepts that, so we do too).
        if spes.iter().any(|s| !s.is_finite()) {
            self.validate_matrix(links)?;
        }
        Ok(spes)
    }

    /// Project every *column* of `dirs` (`m × k`) onto the anomalous
    /// subspace: `C̃ · dirs`. Batched form of
    /// [`SubspaceModel::residual_direction`] (no mean subtraction);
    /// column `i` is bitwise identical to the per-vector result.
    ///
    /// Used to compute the `θ̃ᵢ = C̃θᵢ` of a multi-flow hypothesis at
    /// once (and by the dense identification oracle in the tests). An
    /// identification kernel, so — like the batched SPE and decompose
    /// paths — its products run the kernel's unfused scoring tile:
    /// per-vector equivalence is plain mul-then-add arithmetic.
    pub fn residual_directions(&self, dirs: &Matrix) -> Result<Matrix> {
        if dirs.rows() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: dirs.rows(),
            });
        }
        // coeffs = Pᵀ·dirs accumulates over the link axis in the same
        // order as the per-vector matvec_t; modeled = P·coeffs likewise.
        let coeffs = kernel::matmul_tn::<false>(&self.p, dirs).expect("dims checked");
        let modeled = kernel::matmul::<false>(&self.p, &coeffs).expect("dims checked");
        dirs.sub(&modeled)
            .map_err(|_| CoreError::DimensionMismatch {
                expected: self.dim(),
                got: dirs.rows(),
            })
    }

    /// The Q-statistic threshold `δ²_α` at the given confidence level.
    ///
    /// Models built by a truncated refit carry their residual moments
    /// exactly ([`SubspaceModel::residual_moments`]) and evaluate the
    /// threshold from them; dense models sum the stored residual
    /// spectrum. Both routes compute the same Jackson–Mudholkar formula.
    pub fn q_threshold(&self, confidence: f64) -> Result<QStatistic> {
        match self.residual_moments {
            Some(moments) => q_threshold_from_moments(
                moments,
                leading(&self.eigenvalues),
                self.dim(),
                confidence,
            ),
            None => q_threshold(&self.eigenvalues, self.r, confidence),
        }
    }
}

/// Result of the detection step at one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Timestep index within the diagnosed series.
    pub time: usize,
    /// The squared prediction error `‖ỹ‖²`.
    pub spe: f64,
    /// The threshold `δ²_α` it was compared against.
    pub threshold: f64,
    /// `spe > threshold`.
    pub anomalous: bool,
}

/// The detection step: SPE vs. the Q-statistic threshold.
#[derive(Debug, Clone)]
pub struct Detector {
    model: SubspaceModel,
    q: QStatistic,
}

impl Detector {
    /// Build a detector from a fitted model at a confidence level
    /// (the paper evaluates 0.995 and 0.999).
    pub fn new(model: SubspaceModel, confidence: f64) -> Result<Self> {
        let q = model.q_threshold(confidence)?;
        Ok(Detector { model, q })
    }

    /// The underlying model.
    pub fn model(&self) -> &SubspaceModel {
        &self.model
    }

    /// The active threshold.
    pub fn threshold(&self) -> &QStatistic {
        &self.q
    }

    /// Test a single measurement vector (timestep recorded as 0).
    pub fn detect_vector(&self, y: &[f64]) -> Result<Detection> {
        let spe = self.model.spe(y)?;
        Ok(Detection {
            time: 0,
            spe,
            threshold: self.q.delta_sq,
            anomalous: spe > self.q.delta_sq,
        })
    }

    /// Test every row of a `t × m` measurement matrix with one fused
    /// batch pass ([`SubspaceModel::spe_all`]) instead of a per-vector
    /// loop — several times faster on one core, row-parallel beyond.
    ///
    /// Every detection is bitwise the one [`Detector::detect_vector`]
    /// returns for its row, SPE included.
    pub fn detect_matrix(&self, links: &Matrix) -> Result<Vec<Detection>> {
        let spes = self.model.spe_all(links)?;
        Ok(spes
            .into_iter()
            .enumerate()
            .map(|(time, spe)| Detection {
                time,
                spe,
                threshold: self.q.delta_sq,
                anomalous: spe > self.q.delta_sq,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300 bins, 6 links: strong sinusoid on links 0–3, noise everywhere.
    fn training_data() -> Matrix {
        Matrix::from_fn(300, 6, |i, j| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = if j < 4 {
                1e4 * ((j + 1) as f64) * phase.sin()
            } else {
                0.0
            };
            let noise = (((i * 6 + j).wrapping_mul(2654435761)) % 2048) as f64 - 1024.0;
            1e5 + smooth + noise
        })
    }

    fn model() -> SubspaceModel {
        SubspaceModel::fit(
            &training_data(),
            SeparationPolicy::FixedCount(2),
            PcaMethod::Covariance,
        )
        .unwrap()
    }

    #[test]
    fn from_covariance_refuses_mismatched_inputs() {
        let (centered, mean, cov) = sample_covariance(&training_data()).unwrap();
        let policy = SeparationPolicy::default();
        let short = centered.select_columns(&[0, 1, 2, 3, 4]);
        for (mean, centered) in [(mean[..5].to_vec(), Some(&centered)), (mean, Some(&short))] {
            assert!(matches!(
                SubspaceModel::from_covariance(mean, &cov, policy, centered),
                Err(CoreError::DimensionMismatch {
                    expected: 6,
                    got: 5
                })
            ));
        }
    }

    #[test]
    fn from_covariance_refuses_a_split_with_no_residual() {
        let (_, mean, cov) = sample_covariance(&training_data()).unwrap();
        let policy = SeparationPolicy::FixedCount(6);
        assert!(matches!(
            SubspaceModel::from_covariance(mean, &cov, policy, None),
            Err(CoreError::DegenerateResidual { r: 6 })
        ));
    }

    #[test]
    fn decompose_reconstructs_centered_vector() {
        let m = model();
        let y: Vec<f64> = (0..6).map(|j| 1e5 + 100.0 * j as f64).collect();
        let (modeled, residual) = m.decompose(&y).unwrap();
        let z = vector::sub(&y, m.mean());
        let back = vector::add(&modeled, &residual);
        assert!(vector::approx_eq(&back, &z, 1e-9));
    }

    #[test]
    fn modeled_and_residual_are_orthogonal() {
        let m = model();
        let y: Vec<f64> = (0..6).map(|j| 9e4 + 500.0 * (j as f64).powi(2)).collect();
        let (modeled, residual) = m.decompose(&y).unwrap();
        assert!(vector::dot(&modeled, &residual).abs() < 1e-6 * vector::norm(&modeled).max(1.0));
    }

    #[test]
    fn residual_projector_is_idempotent() {
        let m = model();
        let v: Vec<f64> = (0..6).map(|j| (j as f64 + 1.0).sin()).collect();
        let once = m.residual_direction(&v).unwrap();
        let twice = m.residual_direction(&once).unwrap();
        assert!(vector::approx_eq(&once, &twice, 1e-10));
    }

    #[test]
    fn residual_kills_normal_basis_vectors() {
        let m = model();
        for k in 0..m.normal_dim() {
            let v = m.normal_basis().col(k);
            let r = m.residual_direction(&v).unwrap();
            assert!(vector::norm(&r) < 1e-9, "basis vector {k} leaks");
        }
    }

    #[test]
    fn spe_is_residual_norm_sq() {
        let m = model();
        let y: Vec<f64> = (0..6).map(|j| 1.1e5 - 30.0 * j as f64).collect();
        let r = m.residual(&y).unwrap();
        assert!((m.spe(&y).unwrap() - vector::norm_sq(&r)).abs() < 1e-9);
    }

    #[test]
    fn training_rows_rarely_exceed_999_threshold() {
        let y = training_data();
        let det = Detector::new(model(), 0.999).unwrap();
        let detections = det.detect_matrix(&y).unwrap();
        let alarms = detections.iter().filter(|d| d.anomalous).count();
        // Nominal rate 0.1% of 300 ≈ 0.3; the noise here is uniform
        // (lighter-tailed than Gaussian), so a handful at most.
        assert!(alarms <= 3, "{alarms} alarms on clean training data");
    }

    #[test]
    fn obvious_spike_is_detected() {
        let det = Detector::new(model(), 0.999).unwrap();
        // Take a typical row and slam links 4 and 5 (residual-aligned).
        let y = training_data();
        let mut v = y.row(10).to_vec();
        v[4] += 1e5;
        v[5] += 1e5;
        let d = det.detect_vector(&v).unwrap();
        assert!(d.anomalous, "spe {} vs threshold {}", d.spe, d.threshold);
    }

    #[test]
    fn perturbation_inside_normal_subspace_is_invisible() {
        let m = model();
        let y = training_data();
        let base = y.row(20).to_vec();
        let spe0 = m.spe(&base).unwrap();
        // Move along the first normal axis — SPE must not change.
        let v1 = m.normal_basis().col(0);
        let moved = vector::add(&base, &vector::scaled(&v1, 1e6));
        let spe1 = m.spe(&moved).unwrap();
        assert!(
            (spe0 - spe1).abs() < 1e-6 * spe0.max(1.0),
            "SPE moved from {spe0} to {spe1}"
        );
    }

    #[test]
    fn dimension_mismatch_detected() {
        let m = model();
        assert!(matches!(
            m.spe(&[1.0, 2.0]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        let det = Detector::new(m, 0.999).unwrap();
        assert!(det.detect_matrix(&Matrix::zeros(5, 3)).is_err());
    }

    #[test]
    fn degenerate_separation_rejected() {
        let y = training_data();
        // r = m leaves no residual.
        assert!(matches!(
            SubspaceModel::fit(&y, SeparationPolicy::FixedCount(6), PcaMethod::Covariance),
            Err(CoreError::DegenerateResidual { .. })
        ));
        // Constant data has no variance anywhere.
        let flat = Matrix::from_fn(50, 4, |_, _| 7.0);
        assert!(matches!(
            SubspaceModel::fit(
                &flat,
                SeparationPolicy::FixedCount(1),
                PcaMethod::Covariance
            ),
            Err(CoreError::DegenerateResidual { .. })
        ));
    }

    #[test]
    fn detect_series_indexes_time() {
        let det = Detector::new(model(), 0.995).unwrap();
        let y = training_data();
        let ds = det.detect_matrix(&y).unwrap();
        assert_eq!(ds.len(), 300);
        for (t, d) in ds.iter().enumerate() {
            assert_eq!(d.time, t);
        }
    }

    #[test]
    fn batch_decompose_matches_per_vector_exactly() {
        let m = model();
        let y = training_data();
        let (modeled, residual) = m.decompose_matrix(&y).unwrap();
        assert_eq!(modeled.shape(), y.shape());
        for t in 0..y.rows() {
            let (mv, rv) = m.decompose(y.row(t)).unwrap();
            assert_eq!(modeled.row(t), &mv[..], "modeled row {t}");
            assert_eq!(residual.row(t), &rv[..], "residual row {t}");
        }
    }

    #[test]
    fn spe_all_matches_per_vector_within_contract() {
        let m = model();
        let y = training_data();
        let spes = m.spe_all(&y).unwrap();
        for t in 0..y.rows() {
            let exact = m.spe(y.row(t)).unwrap();
            assert_eq!(
                spes[t].to_bits(),
                exact.to_bits(),
                "spe at {t}: batch {} vs exact {exact}",
                spes[t]
            );
        }
        // And the exact route (residual matrix row norms) is bitwise.
        let exact_batch = m.decompose_matrix(&y).unwrap().1.row_norms_sq();
        for t in 0..y.rows() {
            assert_eq!(exact_batch[t], m.spe(y.row(t)).unwrap(), "exact spe at {t}");
        }
    }

    #[test]
    fn residual_directions_match_per_vector_exactly() {
        let m = model();
        let dirs = Matrix::from_fn(6, 5, |i, j| ((i * 5 + j) as f64 * 0.37).sin());
        let batch = m.residual_directions(&dirs).unwrap();
        for c in 0..dirs.cols() {
            let single = m.residual_direction(&dirs.col(c)).unwrap();
            assert_eq!(batch.col(c), single, "column {c}");
        }
        assert!(m.residual_directions(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn detect_matrix_matches_detect_vector() {
        let det = Detector::new(model(), 0.999).unwrap();
        let y = training_data();
        let batch = det.detect_matrix(&y).unwrap();
        assert_eq!(batch.len(), y.rows());
        for (t, d) in batch.iter().enumerate() {
            let single = det.detect_vector(y.row(t)).unwrap();
            assert_eq!(d.time, t);
            assert_eq!(d.spe.to_bits(), single.spe.to_bits(), "spe at {t}");
            assert_eq!(d.anomalous, single.anomalous, "detection at {t}");
            assert_eq!(d.threshold, single.threshold);
        }
    }

    #[test]
    fn batch_rejects_non_finite_rows_like_per_vector() {
        let m = model();
        let mut y = training_data();
        y[(42, 3)] = f64::NAN;
        assert!(matches!(
            m.spe_all(&y),
            Err(CoreError::NonFiniteMeasurement { link: 3 })
        ));
        assert!(matches!(
            m.decompose_matrix(&Matrix::zeros(5, 3)),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn threshold_ordering_matches_confidence() {
        let m = model();
        let lo = m.q_threshold(0.995).unwrap().delta_sq;
        let hi = m.q_threshold(0.999).unwrap().delta_sq;
        assert!(hi > lo);
    }
}
