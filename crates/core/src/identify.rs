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
//! `(θ̃ᵢᵀỹ)²/‖θ̃ᵢ‖²`. [`Identifier`] precomputes all `θ̃ᵢ` once
//! (`O(m²n)` at build time) and then identifies in `O(mn)` per anomaly;
//! the literal Equation-1 evaluation is kept as
//! [`Identifier::identify_naive`] and tested equal.

use netanom_linalg::{vector, Matrix};
use netanom_topology::RoutingMatrix;

use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// Smallest `‖θ̃ᵢ‖²` (squared norm of a unit flow direction's residual
/// part) at which flow `i` counts as visible. At or below it the flow
/// lies inside the normal subspace up to rounding: identification never
/// names it, pair search never pairs it, and its detectability bound is
/// infinite — one floor, always compared against the *squared* norm.
pub(crate) const VISIBILITY_FLOOR: f64 = 1e-12;

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

/// Precomputed single-flow identification over a candidate set of OD
/// flows.
#[derive(Debug, Clone)]
pub struct Identifier {
    /// `θ̃ᵢ` as columns (`m × n`).
    theta_tilde: Matrix,
    /// `‖θ̃ᵢ‖²` per flow.
    theta_tilde_norm_sq: Vec<f64>,
    /// `θᵢ` as columns (`m × n`), for reconstructing `y*`.
    theta: Matrix,
}

impl Identifier {
    /// Build the identifier for all OD flows of a routing matrix under a
    /// fitted model.
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
        // All θ̃ᵢ = C̃θᵢ in one batched projection instead of n matvec
        // pairs (identical columns; see SubspaceModel::residual_directions).
        let theta_tilde = model.residual_directions(rm.theta_matrix())?;
        let norms: Vec<f64> = (0..n)
            .map(|i| vector::norm_sq(&theta_tilde.col(i)))
            .collect();
        Ok(Identifier {
            theta_tilde,
            theta_tilde_norm_sq: norms,
            theta: rm.theta_matrix().clone(),
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
    /// `ỹ` (as produced by [`SubspaceModel::residual`]).
    ///
    /// Flows whose direction is (numerically) invisible in the residual
    /// subspace are skipped — they cannot explain any residual energy.
    pub fn identify(&self, residual: &[f64]) -> Result<Identification> {
        if residual.len() != self.theta_tilde.rows() {
            return Err(CoreError::DimensionMismatch {
                expected: self.theta_tilde.rows(),
                got: residual.len(),
            });
        }
        let energy = vector::norm_sq(residual);
        // inner[i] = θ̃ᵢᵀ ỹ for all flows at once.
        let inner = self
            .theta_tilde
            .matvec_t(residual)
            .expect("dim checked above");
        let mut best: Option<(usize, f64)> = None;
        for i in 0..inner.len() {
            let nsq = self.theta_tilde_norm_sq[i];
            if nsq <= VISIBILITY_FLOOR {
                continue;
            }
            let explained = inner[i] * inner[i] / nsq;
            match best {
                Some((_, b)) if b >= explained => {}
                _ => best = Some((i, explained)),
            }
        }
        let (flow, explained) = best.ok_or(CoreError::NoCandidates)?;
        let f_hat = inner[flow] / self.theta_tilde_norm_sq[flow];
        Ok(Identification {
            flow,
            f_hat,
            residual_energy: energy,
            remaining_energy: (energy - explained).max(0.0),
        })
    }

    /// Literal evaluation of paper Equation (1): for every flow, form
    /// `yᵢ* = y − θᵢ f̂ᵢ` and measure `‖C̃ yᵢ*‖`, choosing the minimum.
    ///
    /// Quadratically slower than [`Identifier::identify`]; exists to pin
    /// the algebraic reduction in tests and for didactic value.
    pub fn identify_naive(&self, model: &SubspaceModel, y: &[f64]) -> Result<Identification> {
        let residual = model.residual(y)?;
        let energy = vector::norm_sq(&residual);
        let mut best: Option<(usize, f64, f64)> = None; // (flow, remaining, f_hat)
        for i in 0..self.num_candidates() {
            let nsq = self.theta_tilde_norm_sq[i];
            if nsq <= VISIBILITY_FLOOR {
                continue;
            }
            let tt = self.theta_tilde.col(i);
            let f_hat = vector::dot(&tt, &residual) / nsq;
            // y* = y − θᵢ f̂ᵢ ; C̃y* = ỹ − θ̃ᵢ f̂ᵢ (mean cancels in C̃).
            let removed = vector::sub(&residual, &vector::scaled(&tt, f_hat));
            let remaining = vector::norm_sq(&removed);
            match best {
                Some((_, b, _)) if b <= remaining => {}
                _ => best = Some((i, remaining, f_hat)),
            }
        }
        let (flow, remaining, f_hat) = best.ok_or(CoreError::NoCandidates)?;
        Ok(Identification {
            flow,
            f_hat,
            residual_energy: energy,
            remaining_energy: remaining,
        })
    }

    /// The anomaly direction `θᵢ` of candidate `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn theta(&self, i: usize) -> Vec<f64> {
        self.theta.col(i)
    }
}

#[cfg(test)]
mod tests {
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
        for (t, flow, size) in [(30usize, 2usize, 7e5), (60, 9, 1.2e6), (90, 14, 9e5)] {
            let mut y = links.row(t).to_vec();
            vector::axpy(size, &rm.column(flow), &mut y);
            let fast = ident.identify(&model.residual(&y).unwrap()).unwrap();
            let naive = ident.identify_naive(&model, &y).unwrap();
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
