//! Route against route: [`PcaMethod::Covariance`] — the two-pass Gram
//! matrix plus the tridiagonal-QL solver every verb fits with — held to
//! the one-sided-Jacobi SVD oracle (`support/svd_route.rs`).
//!
//! Forming `YᵀY` squares the condition number, so the Gram route knows
//! an eigenvalue only to about `m·ε·λ₁` where the SVD route keeps high
//! relative accuracy. What a subspace model is built from must not
//! notice: the same normal dimension `r` under every
//! [`SeparationPolicy`], eigenvalues within `1e-10·λ₁`, the same normal
//! projector `PPᵀ` across any spectral gap, the same threshold `δ²` —
//! or the same typed [`CoreError::DegenerateResidual`] when the residual
//! is roundoff on the Gram route and (almost) nothing on the SVD route.
//!
//! The training matrices are the ones that make the squaring bite: link
//! scales spread over twelve decades, means a million deviations away
//! from zero, a constant link, a duplicated link, exact low rank,
//! `t = m`. The second half states the same agreement on the canned
//! datasets at the paper's two confidence levels.

use netanom_core::{
    CoreError, Detector, Diagnoser, Pca, PcaMethod, SeparationPolicy, SubspaceModel,
};
use netanom_linalg::{vector, Matrix};
use netanom_traffic::datasets;
use proptest::prelude::*;

#[path = "support/svd_route.rs"]
mod svd_route;
use svd_route::SvdPca;

/// Deterministic pseudo-random value in `[-1, 1)`.
fn hash_unit(i: usize) -> f64 {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// What is wrong with a training matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// Nothing: link scales within three decades, `μ/σ ≈ 10`.
    Benign,
    /// Link scales drawn log-uniformly from `1e0…1e12`.
    ScaleSpread,
    /// Per-link means `10^(0…6)` deviations away from zero.
    LargeMeans,
    /// One link never varies (a zero row and column of the covariance).
    ConstantLink,
    /// One link copies another (an exact zero eigenvalue).
    DuplicatedLink,
    /// No noise: the rank is the number of temporal patterns.
    LowRank,
    /// As many bins as links (rank at most `m − 1` after centring).
    Square,
}

const FAMILIES: [Family; 7] = [
    Family::Benign,
    Family::ScaleSpread,
    Family::LargeMeans,
    Family::ConstantLink,
    Family::DuplicatedLink,
    Family::LowRank,
    Family::Square,
];

/// A `t × m` training matrix shaped like link traffic — a few smooth
/// diurnal patterns of geometrically falling strength shared by all
/// links, one short spike pattern (what the 3σ walk stops at), hashed
/// noise underneath — with `family`'s defect applied.
fn training(t: usize, m: usize, seed: usize, family: Family) -> Matrix {
    let smooth = 1 + seed % 3;
    let spike_at = (seed / 3) % t;
    let unit = |a: usize, b: usize| hash_unit((seed * 7919 + a) * 104_729 + b);
    let noise = if family == Family::LowRank { 0.0 } else { 1.0 };
    let source = |j: usize| match family {
        Family::DuplicatedLink if j == m - 1 => 0,
        _ => j,
    };
    Matrix::from_fn(t, m, |i, j| {
        if family == Family::ConstantLink && j == m / 2 {
            return 7.5;
        }
        let j = source(j);
        let mut deviation = noise * unit(i + 3, j + 1000);
        for k in 0..smooth {
            let phase = std::f64::consts::TAU * ((k + 1) * i) as f64 / t as f64;
            deviation +=
                300.0 * 0.2f64.powi(k as i32) * (phase + unit(1, k)).sin() * unit(2, j + k * m);
        }
        if i == spike_at {
            deviation += 25.0 * unit(0, j);
        }
        let (scale, mean) = match family {
            Family::ScaleSpread => (10f64.powf(6.0 * (1.0 + unit(4, j))), 1e3),
            Family::LargeMeans => (1.0, 50.0 * 10f64.powf(3.0 * (1.0 + unit(5, j)))),
            _ => (10f64.powi((j % 4) as i32), 1e3),
        };
        scale * (mean + deviation)
    })
}

/// The normal projector `PPᵀ` of a model.
fn projector(model: &SubspaceModel) -> Matrix {
    let p = model.normal_basis();
    p.matmul_nt(p).unwrap()
}

/// Hold the two fitted routes to the contract in the module docs under
/// one separation policy: the product's fit of `y` against the oracle's.
fn assert_routes_agree(y: &Matrix, svd: &SvdPca, policy: SeparationPolicy, label: &str) {
    let spectrum = svd.eigenvalues();
    let (m, lambda1) = (spectrum.len(), spectrum[0]);
    let r = svd.normal_dim(policy);
    let fitted = (
        SubspaceModel::fit(y, policy, PcaMethod::Covariance),
        svd.model(r),
    );
    match fitted {
        // The one place `r` may differ: a 3σ walk that ran out of signal
        // judges axes that are roundoff on one route and nothing on the
        // other, and wherever it stops there is no residual left.
        (Err(CoreError::DegenerateResidual { .. }), Err(CoreError::DegenerateResidual { .. })) => {}
        (Ok(got), Ok(want)) => {
            assert_eq!(got.normal_dim(), r, "{label}: normal dimension");
            let (got_q, want_q) = (
                got.q_threshold(0.999).unwrap(),
                want.q_threshold(0.999).unwrap(),
            );
            assert!(
                (got_q.delta_sq - want_q.delta_sq).abs()
                    <= 1e-9 * want_q.delta_sq + 1e-12 * lambda1,
                "{label}: δ² {:e} vs the oracle's {:e} (λ₁ = {lambda1:e})",
                got_q.delta_sq,
                want_q.delta_sq
            );
            let gap = if r == 0 {
                0.0
            } else {
                spectrum[r - 1] - spectrum[r]
            };
            if gap > 1e-6 * lambda1 {
                // Davis–Kahan for two backward-stable solves, as in
                // linalg's `assert_matches_oracle`.
                let bound = 8.0 * m as f64 * f64::EPSILON * lambda1 / gap;
                let diff = projector(&got).sub(&projector(&want)).unwrap().max_abs();
                assert!(
                    diff <= bound,
                    "{label}: normal projectors differ by {diff:e} (gap {gap:e}, bound {bound:e})"
                );
            }
        }
        (got, want) => panic!(
            "{label}: one route fitted and the other refused, or an untyped failure: \
             covariance {:?}, svd {:?}",
            got.map(|model| model.normal_dim()),
            want.map(|model| model.normal_dim())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn covariance_route_matches_the_svd_oracle(
        m in 2usize..=48,
        stretch in 1.0..6.0f64,
        seed in 0usize..100_000,
        family in 0usize..FAMILIES.len(),
        fraction in 0.5..0.999_999f64,
    ) {
        let family = FAMILIES[family];
        let t = match family {
            Family::Square => m,
            _ => ((m as f64 * stretch) as usize).clamp(m, 6 * m),
        };
        let y = training(t, m, seed, family);
        let svd = SvdPca::fit(&y).unwrap();
        let covariance = Pca::fit(&y).unwrap();
        let label = format!("{family:?} {t}×{m} seed {seed}");

        let lambda1 = svd.eigenvalues()[0];
        for (i, (got, want)) in covariance.eigenvalues().iter().zip(svd.eigenvalues()).enumerate() {
            prop_assert!(
                (got - want).abs() <= 1e-10 * lambda1,
                "{label}: λ[{i}] {got:e} vs the oracle's {want:e}"
            );
        }

        let smooth = 1 + seed % 3;
        let mut policies = vec![
            SeparationPolicy::default(),
            SeparationPolicy::VarianceFraction(fraction),
        ];
        // Splits above, at and below the signal, and one that leaves a
        // single residual axis — roundoff in the rank-deficient families.
        policies.extend([0, smooth, smooth + 1, m / 2, m - 1].map(SeparationPolicy::FixedCount));
        for policy in policies {
            assert_routes_agree(&y, &svd, policy, &format!("{label} {policy:?}"));
        }
    }
}

/// The subspace rows of the paper-fidelity scoreboard, route against
/// route, on each canned dataset: the same scree (variance fractions,
/// the 90 % and 99 % knees), the same 3σ rank, thresholds within 1e-9
/// relative, and at the paper's two confidence levels the same alarm
/// bins carrying the same identified flows.
#[test]
fn canned_datasets_diagnose_identically_on_both_routes() {
    for ds in [
        datasets::abilene(),
        datasets::sprint1(),
        datasets::sprint2(),
    ] {
        let links = ds.links.matrix();
        let svd = SvdPca::fit(links).unwrap();
        let covariance = Pca::fit(links).unwrap();
        for (a, b) in covariance
            .variance_fractions()
            .iter()
            .zip(svd.variance_fractions())
        {
            assert!((a - b).abs() <= 1e-10, "{}: scree {a} vs {b}", ds.name);
        }
        for knee in [0.90, 0.99] {
            assert_eq!(
                covariance.effective_dimension(knee),
                svd.effective_dimension(knee),
                "{}: {knee} knee",
                ds.name
            );
        }
        let three_sigma = SeparationPolicy::default();
        let r = svd.normal_dim(three_sigma);
        assert_eq!(
            three_sigma.normal_dim(&covariance),
            r,
            "{}: 3σ rank",
            ds.name
        );

        // `Diagnoser::fit` is `SubspaceModel::fit` + `from_model`; the
        // two confidence levels share one decomposition per route.
        let rm = &ds.network.routing_matrix;
        for confidence in [0.999, 0.995] {
            let diagnose = |model: SubspaceModel| {
                let diagnoser = Diagnoser::from_model(model, rm, confidence).unwrap();
                let alarms: Vec<(usize, usize)> = diagnoser
                    .diagnose_anomalies(links)
                    .unwrap()
                    .iter()
                    .map(|rep| (rep.time, rep.identification.expect("identified").flow))
                    .collect();
                (diagnoser.detector().threshold().delta_sq, alarms)
            };
            let (threshold_svd, alarms_svd) = diagnose(svd.model(r).unwrap());
            let (threshold_cov, alarms_cov) = diagnose(
                SubspaceModel::fit(
                    links,
                    SeparationPolicy::FixedCount(r),
                    PcaMethod::Covariance,
                )
                .unwrap(),
            );
            assert!(
                (threshold_cov - threshold_svd).abs() <= 1e-9 * threshold_svd,
                "{} at {confidence}: δ² {threshold_cov:e} vs {threshold_svd:e}",
                ds.name
            );
            assert!(
                !alarms_svd.is_empty(),
                "{} at {confidence}: no alarms",
                ds.name
            );
            assert_eq!(
                alarms_cov, alarms_svd,
                "{} at {confidence}: alarms",
                ds.name
            );
        }
    }
}

/// The default route spelled out — centre, [`Matrix::gram`], scale,
/// [`SubspaceModel::from_covariance`] at the fitted rank — is
/// `SubspaceModel::fit`, bit for bit, model and threshold.
#[test]
fn default_route_fit_is_the_spelled_out_route() {
    let ds = datasets::sprint1();
    let links = ds.links.matrix();
    let real =
        SubspaceModel::fit(links, SeparationPolicy::default(), PcaMethod::Covariance).unwrap();
    let r = real.normal_dim();

    let (centered, mean) = links.mean_centered_columns();
    let mut cov = centered.gram();
    cov.scale_in_place(1.0 / (links.rows() - 1) as f64);
    let spelled =
        SubspaceModel::from_covariance(mean, &cov, SeparationPolicy::FixedCount(r), None).unwrap();
    let bits = |detector: &Detector| {
        let model = detector.model();
        let floats = model
            .eigenvalues()
            .iter()
            .chain(model.normal_basis().as_slice());
        let mut bits: Vec<u64> = floats.map(|x| x.to_bits()).collect();
        bits.push(detector.threshold().delta_sq.to_bits());
        bits
    };
    let spelled = Detector::new(spelled, 0.999).unwrap();
    let real = Detector::new(real, 0.999).unwrap();
    assert_eq!(
        bits(&spelled),
        bits(&real),
        "the spelled-out route is not `SubspaceModel::fit`'s"
    );
    let alarms = spelled.detect_matrix(links).unwrap();
    assert!(alarms.iter().any(|d| d.anomalous), "sprint-1 must alarm");
}

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
fn methods_agree_on_eigenvalues() {
    let y = structured_data(200, 8);
    let svd = SvdPca::fit(&y).unwrap();
    let cov = Pca::fit(&y).unwrap();
    for k in 0..8 {
        let a = svd.eigenvalues()[k];
        let b = cov.eigenvalues()[k];
        assert!(
            (a - b).abs() <= 1e-6 * svd.eigenvalues()[0].max(1.0),
            "eigenvalue {k}: {a} vs {b}"
        );
    }
}

#[test]
fn methods_agree_on_leading_subspace() {
    let y = structured_data(150, 6);
    let svd = SvdPca::fit(&y).unwrap();
    let cov = Pca::fit(&y).unwrap();
    // Component signs may flip; compare |dot| ≈ 1.
    for k in 0..2 {
        let d = vector::dot(&svd.components().col(k), &cov.components().col(k)).abs();
        assert!(d > 1.0 - 1e-6, "component {k} differs: |dot| = {d}");
    }
}

/// The SVD's relative accuracy, which the covariance route does not
/// have: an axis with no variance in rank-1 data projects to zero, where
/// the Gram route's roundoff axis projects to normalized roundoff.
#[test]
fn zero_variance_axis_projects_to_zero() {
    // Rank-1 data: only one nonzero eigenvalue.
    let y = Matrix::from_fn(50, 3, |i, _| i as f64);
    let pca = SvdPca::fit(&y).unwrap();
    assert!(pca.eigenvalues()[1] < 1e-9 * pca.eigenvalues()[0]);
    let u3 = pca.temporal_projection(2);
    assert!(vector::norm(&u3) < 1e-9);
}
