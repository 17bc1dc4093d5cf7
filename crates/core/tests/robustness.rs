//! Robustness: degenerate and adversarial inputs through the pipeline.

use netanom_core::incremental::IncrementalCovariance;
use netanom_core::{
    CoreError, Diagnoser, DiagnoserConfig, PcaMethod, SeparationPolicy, SubspaceModel,
};
use netanom_linalg::{vector, LinalgError, Matrix};
use netanom_topology::builtin;

#[path = "support/svd_route.rs"]
mod svd_route;
use svd_route::SvdPca;

fn measurements(t: usize, m: usize) -> Matrix {
    Matrix::from_fn(t, m, |i, j| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 1e5 * (phase + j as f64).sin();
        let h = (i * m + j).wrapping_mul(2654435761) % 8192;
        1e6 + smooth + (h as f64 - 4096.0)
    })
}

#[test]
fn nan_measurement_is_rejected_not_swallowed() {
    let net = builtin::line(3);
    let links = measurements(200, net.routing_matrix.num_links());
    let diagnoser = Diagnoser::fit(
        &links,
        &net.routing_matrix,
        DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(2),
            ..DiagnoserConfig::default()
        },
    )
    .unwrap();

    let mut y = links.row(5).to_vec();
    y[3] = f64::NAN;
    match diagnoser.diagnose_vector(&y) {
        Err(CoreError::NonFiniteMeasurement { link: 3 }) => {}
        other => panic!("expected NonFiniteMeasurement, got {other:?}"),
    }
    let mut y2 = links.row(5).to_vec();
    y2[0] = f64::INFINITY;
    assert!(matches!(
        diagnoser.diagnose_vector(&y2),
        Err(CoreError::NonFiniteMeasurement { link: 0 })
    ));
}

/// A checkpoint is outside input: NAIC bytes carrying a NaN cross-product
/// decode (every `f64` bit pattern is preserved), and the refit must then
/// refuse with the solver's typed error. Installing the model instead
/// would install a NaN threshold, and `spe > NaN` never alarms.
#[test]
fn nan_in_decoded_statistics_refuses_the_refit() {
    let m = 9;
    let stats = IncrementalCovariance::from_matrix(&measurements(200, m));
    let policy = SeparationPolicy::FixedCount(2);
    stats.to_model(policy).unwrap();
    stats.to_model_truncated(policy, 4, 1e-10).unwrap();

    // Header (8), dim and count (16), m sums, then the m × m upper
    // triangle row-major: poison Σ y₀y₁.
    let mut bytes = stats.to_bytes();
    let at = 8 + 16 + 8 * m + 8;
    bytes[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let poisoned = IncrementalCovariance::from_bytes(&bytes).unwrap();
    for refused in [
        poisoned.to_model(policy),
        poisoned.to_model_truncated(policy, 4, 1e-10),
    ] {
        match refused {
            Err(CoreError::Linalg(LinalgError::DomainError { value, .. })) => {
                assert!(value.is_nan())
            }
            other => panic!("expected a DomainError, got {other:?}"),
        }
    }
}

#[test]
fn constant_link_column_is_harmless() {
    // A dead link (constant zero) must not break fitting or detection on
    // the other links.
    let net = builtin::line(3);
    let m = net.routing_matrix.num_links();
    let links = Matrix::from_fn(300, m, |i, j| {
        if j == 2 {
            0.0
        } else {
            measurements(300, m)[(i, j)]
        }
    });
    let diagnoser = Diagnoser::fit(
        &links,
        &net.routing_matrix,
        DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(2),
            ..DiagnoserConfig::default()
        },
    )
    .expect("dead link must not prevent fitting");
    let mut y = links.row(50).to_vec();
    vector::axpy(1e7, &net.routing_matrix.column(5), &mut y);
    let rep = diagnoser.diagnose_vector(&y).unwrap();
    assert!(rep.detected);
}

#[test]
fn link_permutation_equivariance() {
    // Renumbering links consistently in Y and A must not change any
    // diagnosis outcome — the method has no preferred link order.
    let net = builtin::line(4);
    let rm = &net.routing_matrix;
    let m = rm.num_links();
    let links = measurements(400, m);

    // Permutation: reverse the links.
    let perm: Vec<usize> = (0..m).rev().collect();
    let links_p = links.select_columns(&perm);
    let paths_p: Vec<Vec<usize>> = (0..rm.num_flows())
        .map(|f| {
            rm.flow(f)
                .path
                .iter()
                .map(|l| perm.iter().position(|&p| p == l.0).unwrap())
                .collect()
        })
        .collect();
    let rm_p = netanom_topology::RoutingMatrix::from_paths(m, &paths_p);

    let cfg = DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(3),
        ..DiagnoserConfig::default()
    };
    let d1 = Diagnoser::fit(&links, rm, cfg).unwrap();
    let d2 = Diagnoser::fit(&links_p, &rm_p, cfg).unwrap();

    for (flow, t, size) in [(5usize, 100usize, 8e6), (11, 222, 5e6)] {
        let mut y1 = links.row(t).to_vec();
        vector::axpy(size, &rm.column(flow), &mut y1);
        let mut y2 = links_p.row(t).to_vec();
        vector::axpy(size, &rm_p.column(flow), &mut y2);
        let r1 = d1.diagnose_vector(&y1).unwrap();
        let r2 = d2.diagnose_vector(&y2).unwrap();
        assert_eq!(r1.detected, r2.detected);
        assert!((r1.spe - r2.spe).abs() < 1e-6 * r1.spe.max(1.0));
        if r1.detected {
            assert_eq!(
                r1.identification.unwrap().flow,
                r2.identification.unwrap().flow
            );
        }
    }
}

#[test]
fn fitting_on_nan_training_data_fails_loudly() {
    let net = builtin::line(3);
    let m = net.routing_matrix.num_links();
    let mut links = measurements(100, m);
    links[(50, 1)] = f64::NAN;
    // Either PCA fails to converge or downstream checks reject — what
    // must NOT happen is a silently-NaN model.
    match Diagnoser::fit(&links, &net.routing_matrix, DiagnoserConfig::default()) {
        Err(_) => {}
        Ok(d) => {
            // If a model was produced, it must still reject measurements
            // and not emit NaN SPEs on clean input.
            let spe = d.model().spe(measurements(100, m).row(0)).unwrap();
            assert!(
                spe.is_finite(),
                "model fitted on NaN data emits NaN SPE — silent corruption"
            );
        }
    }
}

#[test]
fn zero_size_training_is_rejected() {
    let net = builtin::line(3);
    assert!(Diagnoser::fit(
        &Matrix::zeros(0, net.routing_matrix.num_links()),
        &net.routing_matrix,
        DiagnoserConfig::default()
    )
    .is_err());
}

#[test]
fn extreme_magnitudes_do_not_overflow() {
    // Traffic in exabytes per bin: the pipeline must stay finite.
    let net = builtin::line(3);
    let m = net.routing_matrix.num_links();
    let links = Matrix::from_fn(200, m, |i, j| {
        1e18 + 1e17 * ((i + j) as f64 * 0.37).sin()
            + ((i * m + j).wrapping_mul(2654435761) % 1024) as f64 * 1e13
    });
    let diagnoser = Diagnoser::fit(
        &links,
        &net.routing_matrix,
        DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(1),
            ..DiagnoserConfig::default()
        },
    )
    .unwrap();
    let rep = diagnoser.diagnose_vector(links.row(7)).unwrap();
    assert!(rep.spe.is_finite());
    assert!(rep.threshold.is_finite());
}

#[test]
fn model_rejects_vectors_from_other_network() {
    let net_a = builtin::line(4);
    let links = measurements(300, net_a.routing_matrix.num_links());
    let model = SubspaceModel::fit(
        &links,
        SeparationPolicy::FixedCount(2),
        PcaMethod::Covariance,
    )
    .unwrap();
    let net_b = builtin::ring(6);
    let wrong = vec![1.0; net_b.routing_matrix.num_links()];
    assert!(matches!(
        model.spe(&wrong),
        Err(CoreError::DimensionMismatch { .. })
    ));
}

/// One week at `m = 121` of exact rank 5 (up to the rounding of its
/// entries): five hashed temporal patterns on hashed link weights over
/// per-link means, strengths falling geometrically so that
/// `λ₅ ≈ 2e-9·λ₁` — small, but five orders above anything roundoff
/// produces — and every later eigenvalue is zero in exact arithmetic.
fn rank_five_week(scale: f64) -> Matrix {
    let hash = |i: usize| (i.wrapping_mul(2654435761) >> 7) % 100_003;
    let unit = |i: usize| hash(i) as f64 / 100_003.0 - 0.5;
    Matrix::from_fn(1008, 121, |i, j| {
        let mut v = 100.0 * (1 + j % 7) as f64;
        for k in 0..5 {
            let strength = 1e3 * 1e-4f64.powf(k as f64 / 4.0);
            v += strength * unit(i * 31 + k * 7919 + 13) * unit(j * 17 + k * 104_729 + 5);
        }
        v * scale
    })
}

/// A residual made of nothing but roundoff must be refused with the
/// typed error on every route that can build a model — the two `fit`
/// routes and both statistics refits — whatever unit the links are
/// measured in (the floor is relative to `λ₁` alone). The Gram
/// route returns zero eigenvalues as roundoff of order `m·ε·λ₁`; a floor
/// that does not grow with `m` lets their sum through as a "threshold"
/// that alarms on every bin.
#[test]
fn roundoff_residual_is_degenerate_on_every_route() {
    for scale in [1e-6, 1.0, 1e6] {
        let y = rank_five_week(scale);
        let svd = SvdPca::fit(&y).unwrap();
        let fit =
            |r| SubspaceModel::fit(&y, SeparationPolicy::FixedCount(r), PcaMethod::Covariance);
        let stats = IncrementalCovariance::from_matrix(&y);
        let threshold = |model: SubspaceModel| model.q_threshold(0.999).unwrap().delta_sq;

        let spectrum = svd.eigenvalues();
        let tail = spectrum[4] / spectrum[0];
        assert!((1e-10..1e-8).contains(&tail), "λ₅/λ₁ = {tail:e}");
        assert!(spectrum[5] < 1e-20 * spectrum[0], "rank 5 exactly");

        let refused = [
            ("fit/svd", svd.model(5)),
            ("fit/covariance", fit(5)),
            ("to_model", stats.to_model(SeparationPolicy::FixedCount(5))),
            (
                "to_model_truncated",
                stats.to_model_truncated(SeparationPolicy::FixedCount(5), 8, 1e-9),
            ),
        ];
        for (route, got) in refused {
            assert!(
                matches!(got, Err(CoreError::DegenerateResidual { r: 5 })),
                "scale {scale:e}, {route}: a roundoff residual must be refused, got δ² = {:?}",
                got.map(threshold)
            );
        }

        // One axis fewer and the residual is λ₅: real variance, which
        // every dense route must resolve to the same threshold. (Any
        // covariance route knows λ₅ only to ≈ m·ε·λ₁/λ₅ ≈ 1e-5.)
        let want = threshold(svd.model(4).unwrap());
        let dense = [
            ("fit/covariance", fit(4)),
            ("to_model", stats.to_model(SeparationPolicy::FixedCount(4))),
        ];
        for (route, got) in dense {
            let got = threshold(got.unwrap());
            assert!(
                (got - want).abs() <= 1e-3 * want,
                "scale {scale:e}, {route}: δ² {got:e} vs the SVD route's {want:e}"
            );
        }
    }
}

/// A constant link and a duplicated link each leave exactly one zero
/// eigenvalue; a split that keeps every other axis normal has only that
/// one left to detect with, and every route must say so rather than
/// calibrate a threshold on its roundoff.
#[test]
fn lone_roundoff_axis_is_refused_by_every_route() {
    let (t, m) = (120, 12);
    let base = measurements(t, m);
    let constant = Matrix::from_fn(t, m, |i, j| if j == 5 { 7.5 } else { base[(i, j)] });
    let duplicated = Matrix::from_fn(t, m, |i, j| base[(i, if j == 9 { 2 } else { j })]);
    for (defect, y) in [("constant", constant), ("duplicated", duplicated)] {
        let policy = SeparationPolicy::FixedCount(m - 1);
        let stats = IncrementalCovariance::from_matrix(&y);
        let refused = [
            ("fit/svd", svd_route::fit_model(&y, policy)),
            (
                "fit/covariance",
                SubspaceModel::fit(&y, policy, PcaMethod::Covariance),
            ),
            ("to_model", stats.to_model(policy)),
            (
                "to_model_truncated",
                stats.to_model_truncated(policy, m - 1, 1e-10),
            ),
        ];
        for (route, got) in refused {
            assert!(
                matches!(got, Err(CoreError::DegenerateResidual { r: 11 })),
                "{defect} link, {route}: got {:?}",
                got.map(|model| model.q_threshold(0.999).map(|q| q.delta_sq))
            );
        }
        // One axis fewer leaves real variance, and every route fits.
        let policy = SeparationPolicy::FixedCount(m - 2);
        assert!(SubspaceModel::fit(&y, policy, PcaMethod::Covariance).is_ok());
        assert!(stats.to_model(policy).is_ok());
    }
}
