//! Property-based tests of the subspace method's algebraic invariants.

use netanom_core::{
    qstat, Diagnoser, DiagnoserConfig, Identifier, Pca, PcaMethod, SeparationPolicy, SubspaceModel,
};
use netanom_linalg::{vector, Matrix};
use netanom_topology::builtin;
use proptest::prelude::*;

#[path = "support/svd_route.rs"]
mod svd_route;
use svd_route::SvdPca;

#[path = "support/dense_identify.rs"]
mod dense_identify;
use dense_identify::DenseIdentifier;

/// Deterministic structured measurement matrix parameterized by a seed.
fn measurements(t: usize, m: usize, seed: u64) -> Matrix {
    Matrix::from_fn(t, m, |i, j| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 1e5 * (phase + j as f64).sin() * ((j % 3) as f64 + 1.0);
        let h = (i * m + j + seed as usize).wrapping_mul(2654435761) % 16384;
        1e6 + smooth + (h as f64 - 8192.0)
    })
}

fn fitted_model(seed: u64) -> (SubspaceModel, netanom_topology::Network, Matrix) {
    let net = builtin::line(4);
    let links = measurements(300, net.routing_matrix.num_links(), seed);
    let model = SubspaceModel::fit(
        &links,
        SeparationPolicy::FixedCount(3),
        PcaMethod::Covariance,
    )
    .unwrap();
    (model, net, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pythagoras: ‖y − μ‖² = ‖ŷ‖² + ‖ỹ‖² for every measurement.
    #[test]
    fn decomposition_is_orthogonal(seed in 0u64..200, row in 0usize..300) {
        let (model, _, links) = fitted_model(seed);
        let y = links.row(row);
        let (modeled, residual) = model.decompose(y).unwrap();
        let centered = vector::sub(y, model.mean());
        let lhs = vector::norm_sq(&centered);
        let rhs = vector::norm_sq(&modeled) + vector::norm_sq(&residual);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.max(1.0));
    }

    /// SPE is invariant under any perturbation inside the normal subspace.
    #[test]
    fn spe_blind_to_normal_directions(
        seed in 0u64..200,
        row in 0usize..300,
        coeffs in proptest::collection::vec(-1e6..1e6f64, 3),
    ) {
        let (model, _, links) = fitted_model(seed);
        let mut y = links.row(row).to_vec();
        let before = model.spe(&y).unwrap();
        for (k, &c) in coeffs.iter().enumerate() {
            vector::axpy(c, &model.normal_basis().col(k), &mut y);
        }
        let after = model.spe(&y).unwrap();
        prop_assert!((before - after).abs() <= 1e-6 * before.max(1.0));
    }

    /// SPE grows exactly quadratically along any residual direction.
    #[test]
    fn spe_quadratic_in_residual_direction(seed in 0u64..100, scale in 1.0..50.0f64) {
        let (model, net, _links) = fitted_model(seed);
        let theta = net.routing_matrix.theta(5);
        let theta_res = model.residual_direction(&theta).unwrap();
        let base = model.mean().to_vec();
        let mut y = base.clone();
        vector::axpy(scale * 1e5, &theta_res, &mut y);
        let spe = model.spe(&y).unwrap();
        let expected = (scale * 1e5).powi(2) * vector::norm_sq(&theta_res);
        prop_assert!((spe - expected).abs() <= 1e-6 * expected.max(1.0));
    }

    /// Clean injections above the detectability floor are detected AND
    /// identified with the right flow, and quantified near the injected
    /// size.
    #[test]
    fn injections_above_floor_are_diagnosed(
        seed in 0u64..50,
        flow in 0usize..16,
        row in 0usize..300,
    ) {
        let net = builtin::line(4);
        let links = measurements(300, net.routing_matrix.num_links(), seed);
        let diagnoser = Diagnoser::fit(
            &links,
            &net.routing_matrix,
            DiagnoserConfig {
                separation: SeparationPolicy::FixedCount(3),
                ..DiagnoserConfig::default()
            },
        ).unwrap();
        let floors = netanom_core::detectability::flow_detectability(
            diagnoser.model(), &net.routing_matrix, 0.999,
        ).unwrap();
        // 2x the sufficient bound leaves room for the bin's own residual.
        let size = 2.0 * floors[flow].min_detectable_bytes;
        let mut y = links.row(row).to_vec();
        vector::axpy(size, &net.routing_matrix.column(flow), &mut y);
        let rep = diagnoser.diagnose_vector(&y).unwrap();
        prop_assert!(rep.detected, "flow {flow} at {size:.3e} not detected");
        let id = rep.identification.unwrap();
        // Identification may legitimately pick a route-equivalent flow
        // (nested/identical residual footprints); accept exact match or
        // an estimate consistent with the injection.
        if id.flow == flow {
            let est = rep.estimated_bytes.unwrap();
            prop_assert!(
                (est / size - 1.0).abs() < 0.5,
                "flow {flow}: estimate {est:.3e} vs injected {size:.3e}"
            );
        }
    }

    /// The fast identification equals the paper's literal Equation (1).
    #[test]
    fn fast_identify_equals_naive(
        seed in 0u64..100,
        flow in 0usize..16,
        size in 1e5..1e7f64,
    ) {
        let (model, net, links) = fitted_model(seed);
        let ident = Identifier::new(&model, &net.routing_matrix).unwrap();
        let mut y = links.row(37).to_vec();
        vector::axpy(size, &net.routing_matrix.column(flow), &mut y);
        let fast = ident.identify(&model.residual(&y).unwrap()).unwrap();
        let oracle = DenseIdentifier::new(&model, &net.routing_matrix).unwrap();
        let naive = oracle.identify_naive(&model, &y).unwrap();
        prop_assert_eq!(fast.flow, naive.flow);
        prop_assert!((fast.f_hat - naive.f_hat).abs() <= 1e-6 * naive.f_hat.abs().max(1.0));
    }

    /// The Q threshold is monotone in confidence and scale-equivariant.
    #[test]
    fn q_threshold_monotone_and_equivariant(
        lead in 1.0..1e4f64,
        tail in 0.01..1.0f64,
        s in 0.5..2e3f64,
    ) {
        let mut eig = vec![lead * 100.0, lead];
        eig.extend(std::iter::repeat_n(tail, 20));
        let lo = qstat::q_threshold(&eig, 2, 0.99).unwrap().delta_sq;
        let hi = qstat::q_threshold(&eig, 2, 0.999).unwrap().delta_sq;
        prop_assert!(hi > lo);
        let scaled: Vec<f64> = eig.iter().map(|l| l * s).collect();
        let lo_s = qstat::q_threshold(&scaled, 2, 0.99).unwrap().delta_sq;
        prop_assert!((lo_s / (lo * s) - 1.0).abs() < 1e-9);
    }

    /// PCA eigenvalue sum equals total variance (trace), regardless of
    /// method.
    #[test]
    fn pca_preserves_total_variance(seed in 0u64..200) {
        let y = measurements(200, 6, seed);
        let total: f64 = y.column_variances().iter().sum();
        let svd = SvdPca::fit(&y).unwrap();
        let covariance = Pca::fit(&y).unwrap();
        for (method, eigenvalues) in [("Svd", svd.eigenvalues()), ("Covariance", covariance.eigenvalues())] {
            let sum: f64 = eigenvalues.iter().sum();
            prop_assert!(
                (sum - total).abs() <= 1e-8 * total.max(1.0),
                "{method:?}: {sum} vs trace {total}"
            );
        }
    }

    /// Quantification is exactly linear: estimate(2b) − estimate(b) = b
    /// for injections into the identified flow.
    #[test]
    fn quantification_linearity(seed in 0u64..50, flow in 0usize..16) {
        let net = builtin::line(4);
        let links = measurements(300, net.routing_matrix.num_links(), seed);
        let diagnoser = Diagnoser::fit(
            &links,
            &net.routing_matrix,
            DiagnoserConfig {
                separation: SeparationPolicy::FixedCount(3),
                ..DiagnoserConfig::default()
            },
        ).unwrap();
        let b = 5e6;
        let mut y1 = links.row(99).to_vec();
        vector::axpy(b, &net.routing_matrix.column(flow), &mut y1);
        let mut y2 = links.row(99).to_vec();
        vector::axpy(2.0 * b, &net.routing_matrix.column(flow), &mut y2);
        let r1 = diagnoser.diagnose_vector(&y1).unwrap();
        let r2 = diagnoser.diagnose_vector(&y2).unwrap();
        if let (Some(id1), Some(id2)) = (r1.identification, r2.identification) {
            if id1.flow == flow && id2.flow == flow {
                let slope = r2.estimated_bytes.unwrap() - r1.estimated_bytes.unwrap();
                prop_assert!(
                    (slope / b - 1.0).abs() < 1e-6,
                    "slope {slope:.3e} vs injected step {b:.3e}"
                );
            }
        }
    }
}
