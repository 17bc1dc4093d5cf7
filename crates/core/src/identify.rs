//! The identification step: which OD flow best explains the residual?
//!
//! For a hypothesized single-flow anomaly `Fᵢ` with unit direction
//! `θᵢ = Aᵢ/‖Aᵢ‖`, the best estimate of the anomaly magnitude is the least
//! squares fit in the residual subspace,
//! `f̂ᵢ = (θ̃ᵢᵀθ̃ᵢ)⁻¹ θ̃ᵢᵀ ỹ` with `θ̃ᵢ = C̃θᵢ`, and the paper (Eq. 1)
//! picks the hypothesis minimizing the unexplained residual
//! `‖C̃(y − θᵢ f̂ᵢ)‖`.
//!
//! Expanding the norm shows
//! `‖ỹ − θ̃ᵢ f̂ᵢ‖² = ‖ỹ‖² − (θ̃ᵢᵀỹ)²/‖θ̃ᵢ‖²`,
//! so the minimizer is simply the flow maximizing the *explained* energy
//! `(θ̃ᵢᵀỹ)²/‖θ̃ᵢ‖²`. Two facts make that cheap on a path-incidence `A`
//! with `nnz(A)` ones:
//!
//! * `C̃ = I − PPᵀ` is symmetric and idempotent, so for a residual
//!   `ỹ = C̃(y − μ)`, `θ̃ᵢᵀỹ = θᵢᵀC̃ỹ = θᵢᵀỹ` — the sum of `ỹ` over flow
//!   `i`'s `kᵢ` links, times `1/√kᵢ`. Identification is `O(nnz(A))`
//!   and allocates nothing.
//! * `‖θ̃ᵢ‖² = ‖θᵢ‖² − ‖Pᵀθᵢ‖²`, and `Pᵀθᵢ` sums `kᵢ` rows of the
//!   `m × r` basis `P`. [`Identifier::new`] is `O(r·nnz(A))`, so a
//!   streaming refit rebuilds it for `n` short norms; it shares the
//!   routing matrix's paths instead of copying them.
//!
//! No `m × n` matrix is formed. The dense route — `Θ̃ = Θ − P(PᵀΘ)` and
//! the literal Equation-1 evaluation — is the test oracle in
//! `tests/support/dense_identify.rs`.

use std::sync::Arc;

use netanom_linalg::{vector, Matrix};
use netanom_topology::{FlowPaths, RoutingMatrix};

use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// Smallest `‖θ̃ᵢ‖²` (squared norm of a unit flow direction's residual
/// part) at which flow `i` counts as visible. At or below it the flow
/// lies inside the normal subspace up to rounding: identification never
/// names it, pair search never pairs it, and its detectability bound is
/// infinite — one floor, always compared against the *squared* norm.
pub(crate) const VISIBILITY_FLOOR: f64 = 1e-12;

/// Below this `‖θ̃ᵢ‖²` the identifier takes the norm from the flow's own
/// residual column `θᵢ − P·Pᵀθᵢ` instead of the difference
/// `‖θᵢ‖² − ‖Pᵀθᵢ‖²`.
///
/// The difference cancels two terms of size `≈ 1`, so its error is
/// absolute: the few ulps each term is rounded to, plus `P`'s departure
/// from orthonormality (`cᵀ(PᵀP − I)c`, which the column does not
/// carry). Against the dense route on fitted models up to `m = 64` and
/// the canned datasets it measured `a ≤ 5e-15 ≈ 22ε`. The relative error
/// `a/‖θ̃ᵢ‖²` stays inside the `1e-12` the dense route is held to only
/// while `‖θ̃ᵢ‖² ≥ a/1e-12 = 5e-3`; the cutoff takes a factor of two
/// over that. Below it — the few flows lying close to the normal
/// subspace, down to the `1e-24` the detectability tests resolve — the
/// column costs `O(m·r)` and is the dense route's own arithmetic: each
/// entry `Σⱼ P_lj·cⱼ` in ascending `j` with no fused multiply-add, then
/// a left-to-right sum of squares, so those norms are bitwise the
/// dense route's.
const COLUMN_NORM_CUTOFF: f64 = 1e-2;

/// Result of identifying one anomaly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Identification {
    /// Index of the selected OD flow (routing-matrix column).
    pub flow: usize,
    /// Estimated anomaly magnitude `f̂` along `θ_flow` (may be negative
    /// for traffic drops).
    pub f_hat: f64,
    /// Residual energy `‖ỹ‖²` before removing the hypothesized anomaly.
    pub residual_energy: f64,
    /// Residual energy remaining after removing it
    /// (`‖C̃(y − θ f̂)‖²`).
    pub remaining_energy: f64,
}

impl Identification {
    /// Fraction of residual energy explained by the chosen hypothesis.
    pub fn explained_fraction(&self) -> f64 {
        if self.residual_energy <= 0.0 {
            0.0
        } else {
            1.0 - self.remaining_energy / self.residual_energy
        }
    }
}

/// Single-flow identification over every OD flow of a routing matrix,
/// prepared against one fitted model: per flow, its path (shared with
/// the routing matrix), `1/√kᵢ` and `‖θ̃ᵢ‖²`.
#[derive(Debug, Clone)]
pub struct Identifier {
    /// Every flow's links, ascending.
    paths: Arc<FlowPaths>,
    /// `1/√kᵢ`: the value of `θᵢ` on each of flow `i`'s `kᵢ` links.
    theta_value: Vec<f64>,
    /// `‖θ̃ᵢ‖²` per flow.
    theta_tilde_norm_sq: Vec<f64>,
    /// Number of links `m`.
    dim: usize,
}

impl Identifier {
    /// Build the identifier for all OD flows of a routing matrix under a
    /// fitted model, in `O(r·nnz(A))`.
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the routing matrix and
    /// model disagree on the number of links, and
    /// [`CoreError::NoCandidates`] for an empty flow set.
    pub fn new(model: &SubspaceModel, rm: &RoutingMatrix) -> Result<Self> {
        if rm.num_links() != model.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: model.dim(),
                got: rm.num_links(),
            });
        }
        let n = rm.num_flows();
        if n == 0 {
            return Err(CoreError::NoCandidates);
        }
        let p = model.normal_basis();
        let paths = Arc::clone(rm.paths());
        let mut coeffs = vec![0.0; p.cols()];
        let mut theta_value = Vec::with_capacity(n);
        let mut theta_tilde_norm_sq = Vec::with_capacity(n);
        for i in 0..n {
            let path = paths.path(i);
            let s = 1.0 / (path.len() as f64).sqrt();
            // cᵢ = Pᵀθᵢ over the path in ascending link order: the dense
            // PᵀΘ's per-entry order and rounding, whose off-path
            // products are zeros that add nothing.
            coeffs.fill(0.0);
            for &l in path {
                vector::axpy(s, p.row(l), &mut coeffs);
            }
            let mut norm_sq = path.len() as f64 * (s * s) - vector::norm_sq(&coeffs);
            if norm_sq < COLUMN_NORM_CUTOFF {
                norm_sq = column_norm_sq(p, path, s, &coeffs);
            }
            theta_value.push(s);
            theta_tilde_norm_sq.push(norm_sq);
        }
        Ok(Identifier {
            paths,
            theta_value,
            theta_tilde_norm_sq,
            dim: model.dim(),
        })
    }

    /// Number of candidate flows.
    pub fn num_candidates(&self) -> usize {
        self.theta_tilde_norm_sq.len()
    }

    /// `‖θ̃ᵢ‖²` for flow `i` — how visible flow `i`'s anomalies are in the
    /// residual subspace (the quantity in the Section 5.4 detectability
    /// bound).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn residual_visibility(&self, i: usize) -> f64 {
        self.theta_tilde_norm_sq[i]
    }

    /// Identify the best single-flow hypothesis for a residual vector
    /// `ỹ`, in `O(nnz(A))` without allocating.
    ///
    /// `residual` must be a residual `ỹ = C̃(y − μ)` of the model the
    /// identifier was built against — what [`SubspaceModel::residual`]
    /// returns, or a difference of such vectors — because the score
    /// uses `θ̃ᵢᵀỹ = θᵢᵀỹ`, which holds only inside the residual
    /// subspace. Flows whose direction is (numerically) invisible in the
    /// residual subspace are skipped — they cannot explain any residual
    /// energy. Of equally good flows, the lowest index wins.
    pub fn identify(&self, residual: &[f64]) -> Result<Identification> {
        if residual.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: residual.len(),
            });
        }
        let energy = vector::norm_sq(residual);
        // (flow, θᵢᵀỹ, explained energy) of the best flow so far.
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, (&nsq, &s)) in self
            .theta_tilde_norm_sq
            .iter()
            .zip(&self.theta_value)
            .enumerate()
        {
            if nsq <= VISIBILITY_FLOOR {
                continue;
            }
            let inner = s * self.paths.path(i).iter().map(|&l| residual[l]).sum::<f64>();
            let explained = inner * inner / nsq;
            match best {
                Some((_, _, b)) if b >= explained => {}
                _ => best = Some((i, inner, explained)),
            }
        }
        let (flow, inner, explained) = best.ok_or(CoreError::NoCandidates)?;
        Ok(Identification {
            flow,
            f_hat: inner / self.theta_tilde_norm_sq[flow],
            residual_energy: energy,
            remaining_energy: (energy - explained).max(0.0),
        })
    }
}

/// `‖θᵢ − P·cᵢ‖²` from the whole `m`-entry column, in the dense route's
/// order (see [`COLUMN_NORM_CUTOFF`]); `θᵢ` is `s` on `path`, else 0.
fn column_norm_sq(p: &Matrix, path: &[usize], s: f64, coeffs: &[f64]) -> f64 {
    let mut on_path = path.iter().copied().peekable();
    let mut norm_sq = 0.0;
    for l in 0..p.rows() {
        let modeled = p
            .row(l)
            .iter()
            .zip(coeffs)
            .fold(0.0, |acc, (pl, c)| acc + pl * c);
        let theta = if on_path.next_if_eq(&l).is_some() {
            s
        } else {
            0.0
        };
        let entry = theta - modeled;
        norm_sq += entry * entry;
    }
    norm_sq
}

// The dense oracle (`tests/support/dense_identify.rs`) runs with this
// module's unit tests as well as the integration suites.
#[cfg(test)]
#[path = "../tests/support/dense_identify.rs"]
mod dense_identify;

#[cfg(test)]
mod tests {
    use super::dense_identify::DenseIdentifier;
    use super::*;
    use crate::pca::PcaMethod;
    use crate::separation::SeparationPolicy;
    use netanom_topology::builtin;

    /// Build a model + identifier on the line(4) network with smooth
    /// diurnal traffic.
    fn setup() -> (SubspaceModel, Identifier, netanom_topology::Network, Matrix) {
        let net = builtin::line(4);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let links = Matrix::from_fn(400, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 1e5 * phase.sin() * ((l % 3) as f64 + 1.0);
            let noise = (((i * m + l).wrapping_mul(0x9E3779B9)) % 4096) as f64 - 2048.0;
            1e6 + smooth + noise
        });
        let model = SubspaceModel::fit(
            &links,
            SeparationPolicy::FixedCount(2),
            PcaMethod::Covariance,
        )
        .unwrap();
        let ident = Identifier::new(&model, rm).unwrap();
        (model, ident, net.clone(), links)
    }

    #[test]
    fn clean_injection_is_identified() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        // Inject 1e6 bytes into a multi-hop flow at a clean timestep.
        let flow = rm
            .flow_id((netanom_topology::PopId(0), netanom_topology::PopId(3)))
            .0;
        let mut y = links.row(100).to_vec();
        vector::axpy(1e6, &rm.column(flow), &mut y);
        let id = ident.identify(&model.residual(&y).unwrap()).unwrap();
        assert_eq!(id.flow, flow, "picked flow {} instead", id.flow);
        // f̂ scales with ‖A‖: injecting b bytes gives f̂ ≈ b·‖A‖.
        let expected_f = 1e6 * (rm.path_len(flow) as f64).sqrt();
        assert!(
            (id.f_hat / expected_f - 1.0).abs() < 0.2,
            "f_hat {} vs expected {expected_f}",
            id.f_hat
        );
        assert!(id.explained_fraction() > 0.8);
    }

    #[test]
    fn negative_anomaly_gets_negative_f_hat() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        let flow = rm
            .flow_id((netanom_topology::PopId(3), netanom_topology::PopId(0)))
            .0;
        let mut y = links.row(50).to_vec();
        vector::axpy(-8e5, &rm.column(flow), &mut y);
        let id = ident.identify(&model.residual(&y).unwrap()).unwrap();
        assert_eq!(id.flow, flow);
        assert!(id.f_hat < 0.0);
    }

    #[test]
    fn fast_and_naive_agree() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        let oracle = DenseIdentifier::new(&model, rm).unwrap();
        for (t, flow, size) in [(30usize, 2usize, 7e5), (60, 9, 1.2e6), (90, 14, 9e5)] {
            let mut y = links.row(t).to_vec();
            vector::axpy(size, &rm.column(flow), &mut y);
            let fast = ident.identify(&model.residual(&y).unwrap()).unwrap();
            let naive = oracle.identify_naive(&model, &y).unwrap();
            assert_eq!(fast.flow, naive.flow, "flow mismatch at t={t}");
            assert!((fast.f_hat - naive.f_hat).abs() < 1e-6 * fast.f_hat.abs().max(1.0));
            assert!(
                (fast.remaining_energy - naive.remaining_energy).abs()
                    < 1e-6 * fast.residual_energy.max(1.0)
            );
        }
    }

    #[test]
    fn identification_reduces_residual_energy() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        let mut y = links.row(150).to_vec();
        vector::axpy(2e6, &rm.column(5), &mut y);
        let id = ident.identify(&model.residual(&y).unwrap()).unwrap();
        assert!(id.remaining_energy < id.residual_energy);
    }

    #[test]
    fn dimension_mismatch_and_empty_candidates() {
        let (model, ident, _, _) = setup();
        assert!(matches!(
            ident.identify(&[1.0, 2.0]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        // Mismatched routing matrix.
        let other = builtin::ring(5);
        assert!(matches!(
            Identifier::new(&model, &other.routing_matrix),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn residual_visibility_positive_for_all_flows() {
        let (_, ident, _, _) = setup();
        for i in 0..ident.num_candidates() {
            assert!(
                ident.residual_visibility(i) > 0.0,
                "flow {i} invisible in residual subspace"
            );
        }
    }

    #[test]
    fn the_oracle_shares_the_floor_and_the_cutoff() {
        assert_eq!(super::dense_identify::VISIBILITY_FLOOR, VISIBILITY_FLOOR);
        assert_eq!(
            super::dense_identify::COLUMN_NORM_CUTOFF,
            COLUMN_NORM_CUTOFF
        );
    }

    #[test]
    fn zero_residual_identifies_something_harmlessly() {
        // A vector exactly in the normal subspace: residual ~ 0;
        // identification still returns a candidate with f̂ ≈ 0.
        let (model, ident, _, links) = setup();
        let y = model.mean().to_vec();
        let id = ident.identify(&model.residual(&y).unwrap()).unwrap();
        assert!(id.f_hat.abs() < 1e-6 * links.max_abs());
        assert!(id.residual_energy < 1e-12 * links.max_abs().powi(2));
    }
}
