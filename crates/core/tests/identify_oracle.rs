//! The path-arithmetic [`Identifier`] against the dense oracle
//! (`support/dense_identify.rs`: `Θ̃ = Θ − P(PᵀΘ)` materialised).
//!
//! Per flow, `‖θ̃ᵢ‖²` must be bitwise the oracle's below the column-norm
//! cutoff and within `1e-12` relative above it; per residual, the same
//! flow must be named, with `f̂` within `1e-12` relative whenever that
//! flow's norm is at or above the cutoff (on the random models, or
//! within the rounding floor both routes share; see
//! [`assert_same_identification`]). Path sets are random (1–6
//! links, duplicates, unsorted traversal order), identity, and built to
//! place one flow's norm in `(1e-24, 1e-12]` or just above the cutoff;
//! models are fitted to random data. The canned datasets are checked
//! end to end, and their link series against the dense `X·Aᵀ` GEMM.

use netanom_core::{
    Diagnoser, DiagnoserConfig, Identifier, PcaMethod, SeparationPolicy, SubspaceModel,
};
use netanom_linalg::{vector, Matrix};
use netanom_topology::RoutingMatrix;
use netanom_traffic::datasets::{self, Dataset};
use proptest::prelude::*;

#[path = "support/dense_identify.rs"]
mod dense_identify;
use dense_identify::{DenseIdentifier, COLUMN_NORM_CUTOFF, VISIBILITY_FLOOR};

/// splitmix64: a seeded stream for the random models and paths.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn signed(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `t × m` measurements: `r` shared smooth components of very different
/// strengths plus per-link noise, so the fitted normal basis is not
/// axis-aligned. The first component loads 1000× harder on link 0,
/// which puts that link — and a flow over it alone — close to the normal
/// subspace, below the column-norm cutoff.
fn measurements(t: usize, m: usize, r: usize, rng: &mut Mix) -> Matrix {
    let loadings: Vec<Vec<f64>> = (0..r)
        .map(|j| {
            (0..m)
                .map(|l| rng.signed() * if j == 0 && l == 0 { 1e3 } else { 1.0 })
                .collect()
        })
        .collect();
    let noise: Vec<f64> = (0..t * m).map(|_| rng.signed()).collect();
    Matrix::from_fn(t, m, |i, l| {
        let common: f64 = loadings
            .iter()
            .enumerate()
            .map(|(j, w)| {
                let phase = i as f64 * 0.1 * (j + 1) as f64;
                1e6 / 4f64.powi(j as i32) * phase.sin() * w[l]
            })
            .sum();
        1e7 + common + 1e3 * noise[i * m + l]
    })
}

/// Paths of 1–6 links (capped at `m`), drawn with replacement so some
/// repeat a link, in the order drawn.
fn random_paths(m: usize, n: usize, rng: &mut Mix) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| {
            let len = 1 + rng.below(6.min(m));
            (0..len).map(|_| rng.below(m)).collect()
        })
        .collect()
}

/// A model with one normal axis: flow 0's direction `θ₀` tilted by
/// `tilt` towards a link off its path, so `‖θ̃₀‖² ≈ tilt²`.
fn tilted_model(rm: &RoutingMatrix, tilt: f64) -> SubspaceModel {
    let m = rm.num_links();
    let mut axis = rm.theta(0);
    let off = (0..m).find(|&l| axis[l] == 0.0).expect("a link off path 0");
    axis[off] = tilt;
    vector::normalize(&mut axis);
    // Complete the axis to an orthonormal basis (Gram–Schmidt over the
    // unit vectors), components as columns.
    let mut basis = vec![axis];
    for e in 0..m {
        if basis.len() == m {
            break;
        }
        let mut v = vec![0.0; m];
        v[e] = 1.0;
        for _ in 0..2 {
            for b in &basis {
                let d = vector::dot(b, &v);
                vector::axpy(-d, b, &mut v);
            }
        }
        if vector::norm(&v) > 1e-6 {
            vector::normalize(&mut v);
            basis.push(v);
        }
    }
    let components = Matrix::from_columns(&basis);
    let eigenvalues: Vec<f64> = (0..m).map(|i| if i == 0 { 100.0 } else { 1.0 }).collect();
    SubspaceModel::from_eigen(vec![0.0; m], &components, eigenvalues, 1).unwrap()
}

/// Every flow's norm against the oracle: bitwise below the cutoff,
/// `1e-12` relative above it.
fn assert_norms_match(ident: &Identifier, oracle: &DenseIdentifier) {
    assert_eq!(ident.num_candidates(), oracle.num_candidates());
    for i in 0..oracle.num_candidates() {
        let (got, want) = (ident.residual_visibility(i), oracle.residual_visibility(i));

        // Which route a flow takes is decided on the identifier's own
        // estimate, so a norm within rounding of the cutoff may take
        // either; both meet the relative bound.
        if want < COLUMN_NORM_CUTOFF * (1.0 - 1e-9) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "flow {i}: {got:e} vs {want:e}"
            );
        } else {
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "flow {i}: {got:e} vs {want:e}"
            );
        }
    }
}

/// The identifier and the oracle name the same flow for the residual of
/// `y`, with the same `f̂` when that flow's norm is at or above the
/// cutoff: within `1e-12` relative, or within the rounding floor both
/// routes share, `4ε·‖y − μ‖/‖θ̃‖²`.
///
/// The floor is why the two differ at all. They compute `θ̃ᵢᵀỹ` and
/// `θᵢᵀỹ`, which differ by `cᵢᵀPᵀỹ`, and a computed residual keeps
/// `Pᵀỹ` only to `≈ ε‖y − μ‖`. It exceeds `1e-12·|f̂|` only when the
/// normal part of `y` is over `~10³` times its residual.
fn assert_same_identification(
    ident: &Identifier,
    oracle: &DenseIdentifier,
    model: &SubspaceModel,
    y: &[f64],
) {
    let residual = model.residual(y).unwrap();
    let got = ident.identify(&residual).unwrap();
    let want = oracle.identify(&residual).unwrap();
    assert_eq!(got.flow, want.flow, "identified flow");
    assert_eq!(got.residual_energy, want.residual_energy);
    let visibility = oracle.residual_visibility(want.flow);
    if visibility >= COLUMN_NORM_CUTOFF {
        let centred = vector::norm(&vector::sub(y, model.mean()));
        let floor = 4.0 * f64::EPSILON * centred / visibility;
        assert!(
            (got.f_hat - want.f_hat).abs() <= floor.max(1e-12 * want.f_hat.abs()),
            "f_hat {:e} vs {:e}",
            got.f_hat,
            want.f_hat
        );
    }
}

/// Residuals of clean rows with an anomaly injected into random flows.
fn check_injections(
    model: &SubspaceModel,
    rm: &RoutingMatrix,
    links: &Matrix,
    rng: &mut Mix,
    count: usize,
) {
    let ident = Identifier::new(model, rm).unwrap();
    let oracle = DenseIdentifier::new(model, rm).unwrap();
    assert_norms_match(&ident, &oracle);
    for _ in 0..count {
        let mut y = links.row(rng.below(links.rows())).to_vec();
        let flow = rng.below(rm.num_flows());
        vector::axpy(5e4 * (1.0 + rng.signed()), &rm.column(flow), &mut y);
        assert_same_identification(&ident, &oracle, model, &y);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random path sets under models fitted to random data.
    #[test]
    fn random_paths_match_the_dense_oracle(seed in 0u64..10_000) {
        let mut rng = Mix(seed);
        let m = 4 + rng.below(37);
        let n = 1 + rng.below(3 * m);
        let r = 1 + rng.below(6.min(m - 2));
        let links = measurements(4 * m, m, r, &mut rng);
        let model =
            SubspaceModel::fit(&links, SeparationPolicy::FixedCount(r), PcaMethod::Covariance)
                .unwrap();
        let rm = RoutingMatrix::from_paths(m, &random_paths(m, n, &mut rng));
        check_injections(&model, &rm, &links, &mut rng, 8);
    }

    /// One flow per link: `‖θ̃ₗ‖² = 1 − ‖Pₗ‖²`, where the strongest links
    /// fall below the cutoff.
    #[test]
    fn identity_routing_matches_the_dense_oracle(seed in 0u64..10_000) {
        let mut rng = Mix(seed);
        let m = 3 + rng.below(60);
        let r = 1 + rng.below(4.min(m - 2));
        let links = measurements(4 * m, m, r, &mut rng);
        let model =
            SubspaceModel::fit(&links, SeparationPolicy::FixedCount(r), PcaMethod::Covariance)
                .unwrap();
        check_injections(&model, &RoutingMatrix::identity(m), &links, &mut rng, 8);
    }
}

/// A flow the identifier must skip: `‖θ̃₀‖² ∈ (1e-24, 1e-12]`, bitwise
/// the oracle's, and never named.
#[test]
fn a_nearly_invisible_flow_is_bitwise_and_skipped() {
    let rm = RoutingMatrix::from_paths(6, &[vec![3, 0, 1], vec![5], vec![2, 4]]);
    let model = tilted_model(&rm, 1e-8);
    let ident = Identifier::new(&model, &rm).unwrap();
    let oracle = DenseIdentifier::new(&model, &rm).unwrap();
    let visibility = oracle.residual_visibility(0);
    assert!(
        visibility > 1e-24 && visibility <= VISIBILITY_FLOOR,
        "{visibility:e}"
    );
    assert_norms_match(&ident, &oracle);
    // The model's mean is zero, so θ₀ is its own centred measurement.
    let y = rm.theta(0);
    assert_same_identification(&ident, &oracle, &model, &y);
    assert_ne!(
        ident.identify(&model.residual(&y).unwrap()).unwrap().flow,
        0
    );
}

/// A flow just above the cutoff takes the difference route and is named
/// for a residual along its own direction.
#[test]
fn a_flow_just_above_the_cutoff_matches_the_oracle() {
    let rm = RoutingMatrix::from_paths(6, &[vec![3, 0, 1], vec![5], vec![2, 4]]);
    let model = tilted_model(&rm, (1.5 * COLUMN_NORM_CUTOFF).sqrt());
    let ident = Identifier::new(&model, &rm).unwrap();
    let oracle = DenseIdentifier::new(&model, &rm).unwrap();
    let visibility = oracle.residual_visibility(0);
    assert!(
        visibility > COLUMN_NORM_CUTOFF && visibility < 2.0 * COLUMN_NORM_CUTOFF,
        "{visibility:e}"
    );
    assert_norms_match(&ident, &oracle);
    let mut y = vec![0.0; 6];
    vector::axpy(3e5, &rm.column(0), &mut y);
    vector::axpy(1e3, &rm.column(1), &mut y);
    assert_same_identification(&ident, &oracle, &model, &y);
    assert_eq!(
        ident.identify(&model.residual(&y).unwrap()).unwrap().flow,
        0
    );
}

/// Every detected bin of a canned dataset, diagnosed at `confidence`:
/// the same (bin, flow) and `f̂` as the oracle's identification of the
/// same residual.
fn check_dataset(ds: &Dataset, confidence: f64) {
    let rm = &ds.network.routing_matrix;
    let config = DiagnoserConfig {
        confidence,
        ..DiagnoserConfig::default()
    };
    let diagnoser = Diagnoser::fit(ds.links.matrix(), rm, config).unwrap();
    let model = diagnoser.model();
    let oracle = DenseIdentifier::new(model, rm).unwrap();
    assert_norms_match(diagnoser.identifier(), &oracle);
    let reports = diagnoser.diagnose_series(ds.links.matrix()).unwrap();
    let mut detected = 0;
    for report in reports.iter().filter(|r| r.detected) {
        detected += 1;
        let residual = model.residual(ds.links.bin(report.time)).unwrap();
        let want = oracle.identify(&residual).unwrap();
        let got = report.identification.unwrap();
        assert_eq!(got.flow, want.flow, "{} bin {}", ds.name, report.time);
        if oracle.residual_visibility(want.flow) >= COLUMN_NORM_CUTOFF {
            assert!(
                (got.f_hat - want.f_hat).abs() <= 1e-12 * want.f_hat.abs(),
                "{} bin {}: f_hat {:e} vs {:e}",
                ds.name,
                report.time,
                got.f_hat,
                want.f_hat
            );
        }
    }
    assert!(detected > 0, "{} detected nothing", ds.name);
}

#[test]
fn canned_datasets_identify_as_the_dense_oracle() {
    for ds in [datasets::sprint1(), datasets::abilene(), datasets::mini(1)] {
        for confidence in [0.999, 0.995] {
            check_dataset(&ds, confidence);
        }
    }
}

/// `Y = X·Aᵀ` by the per-link scatter is bitwise the dense GEMM with a
/// materialised `Aᵀ`.
#[test]
fn canned_link_series_are_bitwise_the_dense_product() {
    for ds in [
        datasets::sprint1(),
        datasets::sprint2(),
        datasets::abilene(),
        datasets::mini(1),
    ] {
        let rm = &ds.network.routing_matrix;
        let at = Matrix::from_fn(rm.num_flows(), rm.num_links(), |f, l| {
            if rm.paths().path(f).contains(&l) {
                1.0
            } else {
                0.0
            }
        });
        let dense = ds.od.matrix().matmul(&at).unwrap();
        let scattered = ds.od.to_link_series(rm);
        assert_eq!(scattered.num_bins(), dense.rows(), "{}", ds.name);
        for t in 0..dense.rows() {
            let same = dense
                .row(t)
                .iter()
                .zip(scattered.bin(t))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} bin {t}", ds.name);
            assert!(
                ds.links.bin(t) == scattered.bin(t),
                "{} bin {t}: stored link series",
                ds.name
            );
        }
    }
}
