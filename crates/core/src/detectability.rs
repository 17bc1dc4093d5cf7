//! Per-flow detectability bounds (paper Section 5.4).
//!
//! An anomaly lying entirely inside the normal subspace is invisible to
//! the method. Specializing the sufficient condition of Dunia & Qin to
//! one-dimensional anomalies, an anomaly of magnitude `fᵢ` in flow `i` is
//! guaranteed detectable at confidence `1 − α` when
//!
//! ```text
//! fᵢ > 2·δ_α / ‖C̃θᵢ‖        (magnitude along θᵢ)
//! bᵢ > 2·δ_α / (‖C̃θᵢ‖·‖Aᵢ‖)  (bytes in the flow)
//! ```
//!
//! The smaller `‖C̃θᵢ‖` — i.e. the more the flow's direction lies inside
//! the normal subspace — the larger the anomaly must be. Because the
//! normal subspace aligns with the highest-variance flows, **anomalies of
//! a fixed size are harder to detect in large flows**; this module
//! quantifies that and the evaluation crate plots it (Figure 9).

use netanom_linalg::vector;
use netanom_topology::RoutingMatrix;

use crate::identify::VISIBILITY_FLOOR;
use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// The detectability floor of one OD flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDetectability {
    /// Flow index (routing-matrix column).
    pub flow: usize,
    /// `‖C̃θᵢ‖` — the flow direction's norm in the residual subspace
    /// (1.0 = fully visible, 0.0 = undetectable).
    pub residual_norm: f64,
    /// Minimum guaranteed-detectable bytes
    /// `2δ_α / (‖C̃θᵢ‖·‖Aᵢ‖)`; infinite for a flow the identifier
    /// skips as invisible (`‖C̃θᵢ‖²` at or below its visibility floor).
    pub min_detectable_bytes: f64,
}

/// Compute the Section 5.4 detectability bound for every flow at the
/// given confidence level.
pub fn flow_detectability(
    model: &SubspaceModel,
    rm: &RoutingMatrix,
    confidence: f64,
) -> Result<Vec<FlowDetectability>> {
    if rm.num_links() != model.dim() {
        return Err(CoreError::DimensionMismatch {
            expected: model.dim(),
            got: rm.num_links(),
        });
    }
    let delta = model.q_threshold(confidence)?.delta_sq.sqrt();
    // All C̃θᵢ in one batched projection.
    let theta_tilde = model.residual_directions(rm.theta_matrix())?;
    let mut out = Vec::with_capacity(rm.num_flows());
    for i in 0..rm.num_flows() {
        let visibility = vector::norm_sq(&theta_tilde.col(i));
        let residual_norm = visibility.sqrt();
        let a_norm = (rm.path_len(i) as f64).sqrt();
        let min_detectable_bytes = if visibility <= VISIBILITY_FLOOR {
            f64::INFINITY
        } else {
            2.0 * delta / (residual_norm * a_norm)
        };
        out.push(FlowDetectability {
            flow: i,
            residual_norm,
            min_detectable_bytes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::PcaMethod;
    use crate::separation::SeparationPolicy;
    use crate::subspace::Detector;
    use netanom_linalg::Matrix;
    use netanom_topology::builtin;

    fn setup() -> (SubspaceModel, netanom_topology::Network, Matrix) {
        let net = builtin::line(4);
        let m = net.routing_matrix.num_links();
        let links = Matrix::from_fn(400, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            // Give link 0 a big smooth component so flows over it align
            // with the normal subspace.
            let smooth = if l == 0 {
                5e5 * phase.sin()
            } else {
                2e4 * phase.sin()
            };
            let noise = (((i * m + l).wrapping_mul(2654435761)) % 4096) as f64 - 2048.0;
            1e6 + smooth + noise
        });
        let model = SubspaceModel::fit(
            &links,
            SeparationPolicy::FixedCount(1),
            PcaMethod::Covariance,
        )
        .unwrap();
        (model, net, links)
    }

    #[test]
    fn bounds_are_positive_and_finite_for_visible_flows() {
        let (model, net, _) = setup();
        let det = flow_detectability(&model, &net.routing_matrix, 0.999).unwrap();
        assert_eq!(det.len(), net.routing_matrix.num_flows());
        for d in &det {
            assert!(d.residual_norm > 0.0 && d.residual_norm <= 1.0 + 1e-9);
            assert!(d.min_detectable_bytes > 0.0);
            assert!(d.min_detectable_bytes.is_finite());
        }
    }

    #[test]
    fn residual_norm_anti_correlates_with_bound() {
        let (model, net, _) = setup();
        let det = flow_detectability(&model, &net.routing_matrix, 0.999).unwrap();
        // Pick the most and least visible flows; the bound must order the
        // other way.
        let most = det
            .iter()
            .max_by(|a, b| a.residual_norm.partial_cmp(&b.residual_norm).unwrap())
            .unwrap();
        let least = det
            .iter()
            .min_by(|a, b| a.residual_norm.partial_cmp(&b.residual_norm).unwrap())
            .unwrap();
        assert!(most.min_detectable_bytes <= least.min_detectable_bytes);
    }

    #[test]
    fn bound_is_sufficient_injections_above_it_are_detected() {
        let (model, net, links) = setup();
        let rm = &net.routing_matrix;
        let det = flow_detectability(&model, rm, 0.999).unwrap();
        let detector = Detector::new(model.clone(), 0.999).unwrap();
        // For a handful of flows, inject 1.5× the bound at a quiet bin and
        // confirm detection. (The bound guarantees detection from a
        // zero-residual start; a clean bin's own residual is small, so a
        // 50% margin keeps the test honest without being flaky.)
        for &f in &[0usize, 5, 9, 13] {
            let b = det[f].min_detectable_bytes * 1.5;
            let mut y = links.row(42).to_vec();
            netanom_linalg::vector::axpy(b, &rm.column(f), &mut y);
            let d = detector.detect_vector(&y).unwrap();
            assert!(
                d.anomalous,
                "flow {f}: injection {b} above bound not detected (spe {} thr {})",
                d.spe, d.threshold
            );
        }
    }

    #[test]
    fn higher_confidence_raises_the_floor() {
        let (model, net, _) = setup();
        let lo = flow_detectability(&model, &net.routing_matrix, 0.995).unwrap();
        let hi = flow_detectability(&model, &net.routing_matrix, 0.999).unwrap();
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b.min_detectable_bytes > a.min_detectable_bytes);
        }
    }

    /// A flow whose squared residual norm sits between the square of the
    /// floor and the floor itself (`1e-24 < ‖θ̃‖² ≤ 1e-12`) is invisible
    /// to every consumer alike: the identifier never names it, so it
    /// must not be priced at a finite size either.
    #[test]
    fn a_flow_the_identifier_skips_has_no_finite_bound() {
        use crate::identify::Identifier;
        use netanom_topology::RoutingMatrix;

        // Flow 0 crosses links 0 and 1; the one normal axis is its
        // direction tilted by 1e-8 towards link 2, so ‖θ̃₀‖² ≈ 1e-16.
        // Flow 1 (link 3) is orthogonal to the axis and fully visible.
        let rm = RoutingMatrix::from_paths(4, &[vec![0, 1], vec![3]]);
        let mut axis = rm.theta(0);
        axis[2] = 1e-8;
        vector::normalize(&mut axis);
        let model = SubspaceModel::from_parts(
            vec![0.0; 4],
            Matrix::from_fn(4, 1, |i, _| axis[i]),
            vec![4.0, 1.0, 1.0, 1.0],
            1,
        )
        .unwrap();

        let identifier = Identifier::new(&model, &rm).unwrap();
        let visibility = identifier.residual_visibility(0);
        assert!(visibility > 1e-24 && visibility <= VISIBILITY_FLOOR);

        // A residual along θ̃₀ is one only flow 0 could explain; skipped,
        // the identifier falls back to flow 1, which explains none of it.
        let residual = model.residual_direction(&rm.theta(0)).unwrap();
        let id = identifier.identify(&residual).unwrap();
        assert_eq!(id.flow, 1);
        assert_eq!(id.remaining_energy, id.residual_energy);

        let det = flow_detectability(&model, &rm, 0.999).unwrap();
        assert!(det[0].residual_norm > 0.0);
        assert_eq!(det[0].min_detectable_bytes, f64::INFINITY);
        assert!(det[1].min_detectable_bytes.is_finite());
    }

    #[test]
    fn mismatched_routing_matrix_rejected() {
        let (model, _, _) = setup();
        let other = builtin::ring(6);
        assert!(matches!(
            flow_detectability(&model, &other.routing_matrix, 0.999),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }
}
