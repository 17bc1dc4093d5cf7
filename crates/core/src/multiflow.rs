//! Multi-flow anomalies (paper Section 7.2).
//!
//! An anomaly may involve several OD flows with different intensities —
//! the paper's examples are routing shifts and DDoS attacks converging on
//! one destination. The single direction `θᵢ` becomes a matrix `Θ` whose
//! columns are the participating flows' normalized routing columns, and
//! the scalar `fᵢ` becomes a vector estimated by least squares in the
//! residual subspace:
//!
//! ```text
//! f̂ = (Θ̃ᵀΘ̃)⁻¹ Θ̃ᵀ ỹ,   Θ̃ = C̃Θ
//! ```
//!
//! [`greedy_identify`] searches for the participating set by matching
//! pursuit (repeatedly adding the single flow that explains the most
//! remaining residual, then re-solving that least-squares problem for
//! the set jointly) — the natural extension of the paper's argmin to
//! subsets without combinatorial search.

use netanom_linalg::decomposition::Cholesky;
use netanom_linalg::{vector, Matrix};
use netanom_topology::RoutingMatrix;

use crate::identify::Identifier;
use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// A multi-flow identification: participating flows with per-flow
/// magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFlowAnomaly {
    /// Participating flow indices.
    pub flows: Vec<usize>,
    /// Estimated magnitude `f̂ᵢ` along each flow's `θᵢ` (same order as
    /// `flows`).
    pub f_hat: Vec<f64>,
    /// Residual energy before removal.
    pub residual_energy: f64,
    /// Residual energy after removing the joint hypothesis.
    pub remaining_energy: f64,
}

impl MultiFlowAnomaly {
    /// Estimated bytes per participating flow (`f̂ᵢ/‖Aᵢ‖`).
    pub fn estimated_bytes(&self, rm: &RoutingMatrix) -> Vec<f64> {
        self.flows
            .iter()
            .zip(&self.f_hat)
            .map(|(&f, &fh)| fh / (rm.path_len(f) as f64).sqrt())
            .collect()
    }

    /// Fraction of the residual energy the joint hypothesis explains.
    pub fn explained_fraction(&self) -> f64 {
        if self.residual_energy <= 0.0 {
            0.0
        } else {
            1.0 - self.remaining_energy / self.residual_energy
        }
    }
}

/// Largest `sin²` of the angle between a flow's residual footprint and
/// the span of the footprints before it that still counts as dependent:
/// a pivot this small is roundoff, and an estimate through it would be
/// noise amplified by `1/√RTOL`.
const DEPENDENCE_RTOL: f64 = 1e-12;

/// The `m × k` matrix whose columns are `θ_f` for the listed flows.
fn theta_columns(rm: &RoutingMatrix, flows: &[usize]) -> Matrix {
    let cols: Vec<Vec<f64>> = flows.iter().map(|&f| rm.theta(f)).collect();
    Matrix::from_columns(&cols)
}

/// The joint least-squares intensities of a *known* set of participating
/// flows (paper Section 7.2: "replace θᵢ with a matrix Θᵢ … and fᵢ with a
/// vector fᵢ") against an already-projected residual `ỹ = C̃(y − μ)`.
///
/// Returns [`CoreError::DependentCandidates`] when the flows' residual
/// footprints are linearly dependent (e.g. two flows routed identically),
/// [`CoreError::NoCandidates`] for an empty set.
fn estimate_from_residual(
    model: &SubspaceModel,
    rm: &RoutingMatrix,
    flows: &[usize],
    residual: &[f64],
) -> Result<MultiFlowAnomaly> {
    if flows.is_empty() {
        return Err(CoreError::NoCandidates);
    }
    let energy = vector::norm_sq(residual);

    // Θ̃ columns, projected in one batch.
    let theta_tilde = model.residual_directions(&theta_columns(rm, flows))?;

    // Normal equations: (Θ̃ᵀΘ̃) f = Θ̃ᵀ ỹ.
    let gram = theta_tilde.gram();
    let rhs = theta_tilde
        .matvec_t(residual)
        .expect("dims consistent by construction");
    let chol = Cholesky::new(&gram).map_err(|_| CoreError::DependentCandidates)?;
    // Dependent footprints leave a pivot of roundoff, which cancellation
    // can leave just above zero: judge each pivot against its column's
    // energy instead of against zero.
    let l = chol.l();
    if (0..flows.len()).any(|i| l[(i, i)] * l[(i, i)] <= DEPENDENCE_RTOL * gram[(i, i)]) {
        return Err(CoreError::DependentCandidates);
    }
    let f_hat = chol.solve(&rhs).expect("rhs length matches gram dim");

    // Remaining energy after removing the joint hypothesis.
    let fitted = theta_tilde
        .matvec(&f_hat)
        .expect("dims consistent by construction");
    let remaining = vector::norm_sq(&vector::sub(residual, &fitted));

    Ok(MultiFlowAnomaly {
        flows: flows.to_vec(),
        f_hat,
        residual_energy: energy,
        remaining_energy: remaining,
    })
}

/// Greedy matching-pursuit identification of an unknown multi-flow
/// anomaly with at most `max_flows` participants.
///
/// Iteratively adds the single flow explaining the most remaining
/// residual (using `identifier`) and re-solves the joint least squares.
/// A flow is kept only if it reduces the remaining energy by at least
/// `min_gain` **as a fraction of the original residual energy** — true
/// participants each explain tens of percent of the anomaly, while a
/// noise-fitting flow explains a few percent at most, so `min_gain ≈ 0.05`
/// separates them cleanly.
pub fn greedy_identify(
    model: &SubspaceModel,
    rm: &RoutingMatrix,
    identifier: &Identifier,
    y: &[f64],
    max_flows: usize,
    min_gain: f64,
) -> Result<MultiFlowAnomaly> {
    if max_flows == 0 {
        return Err(CoreError::NoCandidates);
    }
    let full_residual = model.residual(y)?;
    let mut flows: Vec<usize> = Vec::new();
    let mut best: Option<MultiFlowAnomaly> = None;
    let mut working = full_residual.clone();

    for _ in 0..max_flows {
        let id = identifier.identify(&working)?;
        if flows.contains(&id.flow) {
            break; // pursuit stalled on an already-selected flow
        }
        flows.push(id.flow);
        let joint = estimate_from_residual(model, rm, &flows, &full_residual);
        let joint = match joint {
            Ok(j) => j,
            Err(CoreError::DependentCandidates) => {
                // The newly added flow is redundant; stop with what we had.
                flows.pop();
                break;
            }
            Err(e) => return Err(e),
        };
        let gain_floor = min_gain.clamp(0.0, 1.0) * joint.residual_energy;
        let improved = match &best {
            None => true,
            Some(prev) => prev.remaining_energy - joint.remaining_energy >= gain_floor,
        };
        if !improved {
            flows.pop();
            break;
        }
        // Update the working residual to what the joint fit leaves.
        let theta_tilde = model.residual_directions(&theta_columns(rm, &flows))?;
        let fitted = theta_tilde
            .matvec(&joint.f_hat)
            .expect("dims consistent by construction");
        working = vector::sub(&full_residual, &fitted);
        best = Some(joint);
    }

    best.ok_or(CoreError::NoCandidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::PcaMethod;
    use crate::separation::SeparationPolicy;
    use netanom_topology::builtin;

    fn setup() -> (SubspaceModel, Identifier, netanom_topology::Network, Matrix) {
        let net = builtin::sprint_europe();
        let m = net.routing_matrix.num_links();
        let links = Matrix::from_fn(600, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 3e5 * phase.sin() * ((l % 5) as f64 + 1.0);
            let noise = (((i * m + l).wrapping_mul(0x9E3779B9)) % 16384) as f64 - 8192.0;
            5e6 + smooth + noise
        });
        let model = SubspaceModel::fit(
            &links,
            SeparationPolicy::FixedCount(2),
            PcaMethod::Covariance,
        )
        .unwrap();
        let ident = Identifier::new(&model, &net.routing_matrix).unwrap();
        (model, ident, net, links)
    }

    /// The joint estimate for a known flow set against a raw measurement.
    fn estimate(
        model: &SubspaceModel,
        rm: &RoutingMatrix,
        flows: &[usize],
        y: &[f64],
    ) -> Result<MultiFlowAnomaly> {
        estimate_from_residual(model, rm, flows, &model.residual(y)?)
    }

    #[test]
    fn known_set_recovers_intensities() {
        let (model, _, net, links) = setup();
        let rm = &net.routing_matrix;
        let flows = [20usize, 87];
        let sizes = [4e6, 7e6];
        let mut y = links.row(100).to_vec();
        for (&f, &s) in flows.iter().zip(&sizes) {
            vector::axpy(s, &rm.column(f), &mut y);
        }
        let est = estimate(&model, rm, &flows, &y).unwrap();
        let bytes = est.estimated_bytes(rm);
        for ((&truth, est_b), &f) in sizes.iter().zip(&bytes).zip(&flows) {
            assert!(
                (est_b / truth - 1.0).abs() < 0.3,
                "flow {f}: estimated {est_b} vs {truth}"
            );
        }
        assert!(est.explained_fraction() > 0.8);
    }

    #[test]
    fn greedy_finds_two_flow_ddos() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        // Two flows converging on the same destination PoP — a DDoS shape.
        let n = net.topology.num_pops();
        let dst = 8usize;
        let f1 = 2 * n + dst; // origin 2 -> dst
        let f2 = 11 * n + dst; // origin 11 -> dst
        let mut y = links.row(222).to_vec();
        vector::axpy(9e6, &rm.column(f1), &mut y);
        vector::axpy(6e6, &rm.column(f2), &mut y);

        let found = greedy_identify(&model, rm, &ident, &y, 4, 0.05).unwrap();
        assert!(
            found.flows.contains(&f1) && found.flows.contains(&f2),
            "found {:?}, wanted {f1} and {f2}",
            found.flows
        );
        assert!(found.explained_fraction() > 0.85);
    }

    #[test]
    fn greedy_stops_at_single_flow_for_single_anomaly() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        let mut y = links.row(50).to_vec();
        vector::axpy(1.2e7, &rm.column(33), &mut y);
        let found = greedy_identify(&model, rm, &ident, &y, 5, 0.05).unwrap();
        assert_eq!(found.flows[0], 33);
        assert!(
            found.flows.len() <= 2,
            "greedy over-selected: {:?}",
            found.flows
        );
    }

    #[test]
    fn joint_beats_marginal_for_overlapping_flows() {
        let (model, _, net, links) = setup();
        let rm = &net.routing_matrix;
        // Two flows sharing links (same origin): marginal estimates double
        // count; the joint solve shouldn't.
        let n = net.topology.num_pops();
        let f1 = 3 * n + 9;
        let f2 = 3 * n + 10;
        let mut y = links.row(300).to_vec();
        vector::axpy(5e6, &rm.column(f1), &mut y);
        vector::axpy(5e6, &rm.column(f2), &mut y);
        let joint = estimate(&model, rm, &[f1, f2], &y).unwrap();
        let bytes = joint.estimated_bytes(rm);
        for b in &bytes {
            assert!((b / 5e6 - 1.0).abs() < 0.35, "joint estimate {b} vs 5e6");
        }
    }

    #[test]
    fn duplicate_flows_are_dependent() {
        let (model, _, net, links) = setup();
        let rm = &net.routing_matrix;
        let y = links.row(10).to_vec();
        assert!(matches!(
            estimate(&model, rm, &[5, 5], &y),
            Err(CoreError::DependentCandidates)
        ));
    }

    #[test]
    fn empty_set_rejected() {
        let (model, ident, net, links) = setup();
        let y = links.row(0).to_vec();
        assert!(matches!(
            estimate(&model, &net.routing_matrix, &[], &y),
            Err(CoreError::NoCandidates)
        ));
        assert!(matches!(
            greedy_identify(&model, &net.routing_matrix, &ident, &y, 0, 0.1),
            Err(CoreError::NoCandidates)
        ));
    }

    #[test]
    fn single_flow_multiflow_matches_identifier() {
        let (model, ident, net, links) = setup();
        let rm = &net.routing_matrix;
        let mut y = links.row(150).to_vec();
        vector::axpy(8e6, &rm.column(60), &mut y);
        let single = ident.identify(&model.residual(&y).unwrap()).unwrap();
        let multi = estimate(&model, rm, &[single.flow], &y).unwrap();
        assert!((multi.f_hat[0] - single.f_hat).abs() < 1e-6 * single.f_hat.abs());
    }
}
