//! Refit-strategy parity: on the canned Abilene week, the *detections*
//! (alarm decisions and identified flows) must be identical across
//! every `--refit` choice — `FullSvd`, `Incremental`, and
//! `Truncated` — and the truncated route's threshold must agree with
//! the dense route's to solver tolerance (its residual moments
//! are computed exactly from covariance traces, so the Jackson–
//! Mudholkar threshold is the same number both ways).
//!
//! This is the acceptance contract of the truncated eigensolver:
//! truncation changes the refit *cost*, never what is detected. The two
//! Sprint weeks hold the same decision identity, which makes the suite
//! an oracle for the statistics refits too: `FullSvd` solves the
//! two-pass covariance of the window's rows and `Incremental` the one
//! its running sums give, so a refit that moved a decision on any
//! canned week would split `Incremental` from `FullSvd` here. The first
//! fit is held to the full PCA's solve, with the rank rule of the SVD
//! oracle (`support/svd_route.rs`).

#[path = "support/svd_route.rs"]
mod svd_route;

use netanom_core::method::{DetectionBackend, SubspaceBackend};
use netanom_core::shard::ShardedEngine;
use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{DiagnoserConfig, DiagnosisReport, SeparationPolicy};
use netanom_linalg::Matrix;
use netanom_topology::LinkPartition;
use netanom_traffic::datasets;

const TRAIN_BINS: usize = 864; // 6 days; stream the remaining day
const REFIT_EVERY: usize = 72;
const CHUNK: usize = 36;

fn abilene_split() -> (Matrix, Matrix, netanom_topology::Network) {
    split(datasets::abilene())
}

fn split(ds: datasets::Dataset) -> (Matrix, Matrix, netanom_topology::Network) {
    let links = ds.links.matrix();
    let training = links.row_block(0, TRAIN_BINS).unwrap();
    let tail = links
        .row_block(TRAIN_BINS, links.rows() - TRAIN_BINS)
        .unwrap();
    (training, tail, ds.network)
}

fn stream_reports(strategy: RefitStrategy) -> (Vec<DiagnosisReport>, StreamingEngine) {
    stream_reports_on(datasets::abilene(), DiagnoserConfig::default(), strategy)
}

fn stream_reports_on(
    ds: datasets::Dataset,
    config: DiagnoserConfig,
    strategy: RefitStrategy,
) -> (Vec<DiagnosisReport>, StreamingEngine) {
    let (training, tail, network) = split(ds);
    let mut engine = StreamingEngine::new(
        &training,
        &network.routing_matrix,
        config,
        StreamConfig::new(TRAIN_BINS)
            .refit_every(REFIT_EVERY)
            .strategy(strategy),
    )
    .unwrap();
    let mut reports = Vec::with_capacity(tail.rows());
    let mut next = 0;
    while next < tail.rows() {
        let take = CHUNK.min(tail.rows() - next);
        let block = tail.row_block(next, take).unwrap();
        reports.extend(engine.process_batch(&block).unwrap());
        next += take;
    }
    assert!(engine.refits() >= 1, "the stream must cross refits");
    (reports, engine)
}

/// The decision trace of a report stream: (detected, identified flow).
fn decisions(reports: &[DiagnosisReport]) -> Vec<(bool, Option<usize>)> {
    reports
        .iter()
        .map(|r| (r.detected, r.identification.as_ref().map(|id| id.flow)))
        .collect()
}

#[test]
fn abilene_detections_bitwise_across_refit_strategies() {
    let (full, _) = stream_reports(RefitStrategy::FullSvd);
    let (incremental, inc_engine) = stream_reports(RefitStrategy::Incremental);
    let (truncated, trunc_engine) = stream_reports(RefitStrategy::truncated());

    // The canned week embeds anomalies; the stream must alarm at all.
    assert!(
        full.iter().any(|r| r.detected),
        "no detections on the contaminated Abilene tail"
    );
    // Decisions bitwise-identical across every --refit choice.
    assert_eq!(
        decisions(&full),
        decisions(&incremental),
        "full-SVD vs incremental detections diverge"
    );
    assert_eq!(
        decisions(&incremental),
        decisions(&truncated),
        "incremental vs truncated detections diverge"
    );

    // SPEs of the statistics-based strategies agree to solver tolerance.
    for (t, (a, b)) in incremental.iter().zip(&truncated).enumerate() {
        let rel = (a.spe - b.spe).abs() / a.spe.max(1.0);
        assert!(rel < 1e-6, "SPE divergence {rel:.2e} at arrival {t}");
    }
    // The exact-moment threshold matches the full-spectrum threshold.
    let thr_inc = inc_engine.diagnoser().detector().threshold().delta_sq;
    let thr_trunc = trunc_engine.diagnoser().detector().threshold().delta_sq;
    let rel = (thr_inc - thr_trunc).abs() / thr_inc;
    assert!(rel < 1e-9, "threshold divergence {rel:.2e}");
    // Both froze the same normal dimension under the 3σ policy.
    assert_eq!(
        inc_engine.diagnoser().model().normal_dim(),
        trunc_engine.diagnoser().model().normal_dim()
    );
}

/// The same decision identity on the two Sprint weeks. There the 3σ rule
/// is not stable across refits (a `FullSvd` refit re-runs it and moves
/// `r`, which the statistics-based strategies freeze), so `FullSvd` runs
/// with `r` pinned to the rank the initial fit chose — what the other two
/// carry anyway — and the comparison is of the solvers alone.
#[test]
fn sprint_detections_identical_across_refit_strategies() {
    for dataset in [datasets::sprint1, datasets::sprint2] {
        let name = dataset().name;
        let default = DiagnoserConfig::default();
        let (incremental, inc_engine) =
            stream_reports_on(dataset(), default, RefitStrategy::Incremental);
        let (truncated, trunc_engine) =
            stream_reports_on(dataset(), default, RefitStrategy::truncated());
        let r = inc_engine.diagnoser().model().normal_dim();
        let pinned = DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(r),
            ..default
        };
        let (full, _) = stream_reports_on(dataset(), pinned, RefitStrategy::FullSvd);

        assert!(full.iter().any(|r| r.detected), "{name}: no detections");
        assert_eq!(
            decisions(&full),
            decisions(&incremental),
            "{name}: full-SVD vs incremental detections diverge"
        );
        assert_eq!(
            decisions(&incremental),
            decisions(&truncated),
            "{name}: incremental vs truncated detections diverge"
        );
        let thr_inc = inc_engine.diagnoser().detector().threshold().delta_sq;
        let thr_trunc = trunc_engine.diagnoser().detector().threshold().delta_sq;
        let rel = (thr_inc - thr_trunc).abs() / thr_inc;
        assert!(rel < 1e-9, "{name}: threshold divergence {rel:.2e}");
        assert_eq!(r, trunc_engine.diagnoser().model().normal_dim());
    }
}

#[test]
fn truncated_threshold_moments_match_full_spectrum() {
    // Directly compare the two refit products on identical statistics.
    let (training, _, _) = abilene_split();
    let stats = netanom_core::incremental::IncrementalCovariance::from_matrix(&training);
    let policy = netanom_core::SeparationPolicy::FixedCount(4);
    let dense = stats.to_model(policy).unwrap();
    let truncated = stats.to_model_truncated(policy, 8, 1e-12).unwrap();

    // Top-k eigenvalues to 1e-9 relative (the acceptance gate).
    let scale = dense.eigenvalues()[0];
    for (i, (a, b)) in dense
        .eigenvalues()
        .iter()
        .zip(truncated.eigenvalues())
        .enumerate()
    {
        assert!((a - b).abs() <= 1e-9 * scale, "eigenvalue {i}: {a} vs {b}");
    }
    // Sign-fixed basis parity.
    for c in 0..dense.normal_basis().cols() {
        let a = dense.normal_basis().col(c);
        let b = truncated.normal_basis().col(c);
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let sign = if dot >= 0.0 { 1.0 } else { -1.0 };
        for (x, y) in a.iter().zip(&b) {
            assert!((x - sign * y).abs() < 1e-8, "basis column {c} differs");
        }
    }
    // The moments route reproduces the spectrum-summed threshold.
    let qa = dense.q_threshold(0.999).unwrap();
    let qb = truncated.q_threshold(0.999).unwrap();
    assert!((qa.delta_sq - qb.delta_sq).abs() <= 1e-9 * qa.delta_sq);
    assert!((qa.phi1 - qb.phi1).abs() <= 1e-9 * qa.phi1);
    assert!((qa.phi2 - qb.phi2).abs() <= 1e-9 * qa.phi2);
    assert!((qa.phi3 - qb.phi3).abs() <= 1e-9 * qa.phi3);
}

#[test]
fn sharded_truncated_refits_match_streaming() {
    let (training, tail, network) = abilene_split();
    let rm = &network.routing_matrix;
    let cfg = StreamConfig::new(TRAIN_BINS)
        .refit_every(REFIT_EVERY)
        .strategy(RefitStrategy::truncated());
    let mut streaming =
        StreamingEngine::new(&training, rm, DiagnoserConfig::default(), cfg).unwrap();
    let partition = LinkPartition::round_robin(rm.num_links(), 4).unwrap();
    let mut sharded =
        ShardedEngine::new(&training, rm, DiagnoserConfig::default(), cfg, &partition).unwrap();

    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut next = 0;
    while next < tail.rows() {
        let take = CHUNK.min(tail.rows() - next);
        let block = tail.row_block(next, take).unwrap();
        a.extend(streaming.process_batch(&block).unwrap());
        b.extend(sharded.process_batch(&block).unwrap());
        next += take;
    }
    assert!(streaming.refits() >= 1);
    assert_eq!(streaming.refits(), sharded.refits());
    assert_eq!(decisions(&a), decisions(&b), "sharding changed decisions");
    for (t, (x, y)) in a.iter().zip(&b).enumerate() {
        let rel = (x.spe - y.spe).abs() / x.spe.max(1.0);
        assert!(rel < 1e-9, "SPE divergence {rel:.2e} at arrival {t}");
    }
    // Merged statistics are bitwise the single-process statistics, so
    // the post-refit thresholds must be *identical*.
    assert_eq!(
        streaming.diagnoser().detector().threshold().delta_sq,
        sharded.diagnoser().detector().threshold().delta_sq,
    );
}

#[test]
fn truncated_state_roundtrips_with_identical_threshold() {
    let (_, _, network) = abilene_split();
    let rm = &network.routing_matrix;
    let (_, engine) = stream_reports(RefitStrategy::truncated());
    let backend = engine.backend();
    let model = engine.diagnoser().model();
    assert!(
        model.residual_moments().is_some(),
        "truncated refits must carry exact residual moments"
    );

    let state = backend.export_state();
    let bytes = state.to_bytes();
    let restored = netanom_core::method::MethodState::from_bytes(&bytes).unwrap();
    assert_eq!(restored, state);

    // Restore a backend from the state alone: scoring and threshold must
    // be bitwise the exporter's.
    let (_, tail, _) = abilene_split();
    let other = SubspaceBackend::from_state(
        &restored,
        rm,
        DiagnoserConfig::default(),
        RefitStrategy::FullSvd,
        None,
    )
    .unwrap();
    assert_eq!(other.threshold(), backend.threshold());
    for t in 0..10 {
        let a = backend.score_vector(tail.row(t)).unwrap();
        let b = other.score_vector(tail.row(t)).unwrap();
        assert_eq!(a, b, "bin {t}");
    }
}

/// Under `FixedCount(r)` a truncated refit locks only the `r` pairs the
/// model keeps. Those are bitwise the first `r` of the `k`-pair solve,
/// so the model is `SubspaceModel::from_truncated` on that solve bit for
/// bit — basis, residual moments, threshold — except that it stores the
/// `r` computed eigenvalues instead of `k`.
#[test]
fn fixed_count_truncated_refit_is_the_k_pair_model_bitwise() {
    use netanom_core::incremental::IncrementalCovariance;
    use netanom_core::SubspaceModel;
    use netanom_linalg::decomposition::{power_traces, TruncatedEigen};

    let k = netanom_core::stream::DEFAULT_TRUNCATED_K;
    let tol = netanom_core::stream::DEFAULT_TRUNCATED_TOL;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for dataset in [datasets::abilene, datasets::sprint1, datasets::sprint2] {
        let (training, _, _) = split(dataset());
        let stats = IncrementalCovariance::from_matrix(&training);
        let cov = stats.covariance().unwrap();
        let all = TruncatedEigen::of_covariance(&cov, k, tol).unwrap();
        assert!(all.sweeps > 0, "expected the iterative solve");
        let traces = power_traces(&cov).unwrap();
        for r in [1, 4, 5, k] {
            let got = stats
                .to_model_truncated(SeparationPolicy::FixedCount(r), k, tol)
                .unwrap();
            let want =
                SubspaceModel::from_truncated(stats.mean().unwrap(), &all, r, traces).unwrap();
            assert_eq!(got.normal_dim(), r);
            assert_eq!(
                bits(got.normal_basis().as_slice()),
                bits(want.normal_basis().as_slice()),
                "r = {r}: basis"
            );
            let (gm, wm) = (
                got.residual_moments().unwrap(),
                want.residual_moments().unwrap(),
            );
            assert_eq!(
                bits(&[gm.0, gm.1, gm.2]),
                bits(&[wm.0, wm.1, wm.2]),
                "r = {r}: moments"
            );
            for confidence in [0.999, 0.995] {
                assert_eq!(
                    got.q_threshold(confidence).unwrap().delta_sq.to_bits(),
                    want.q_threshold(confidence).unwrap().delta_sq.to_bits(),
                    "r = {r}: threshold at {confidence}"
                );
            }
            assert_eq!(bits(got.eigenvalues()), bits(&all.eigenvalues[..r]));
        }
    }
}

/// A checkpoint or `Model` broadcast written when truncated refits
/// exported all `k` computed eigenvalues still imports, and gives the
/// threshold of the `r`-eigenvalue state exported now.
#[test]
fn truncated_state_with_k_eigenvalues_still_imports() {
    use netanom_core::method::subspace_model_from_state;
    use netanom_linalg::decomposition::TruncatedEigen;

    let (_, engine) = stream_reports(RefitStrategy::truncated());
    let state = engine.backend().export_state();
    let (model, confidence) = subspace_model_from_state(&state).unwrap();
    let r = model.normal_dim();
    assert_eq!(
        state.vectors[1].len(),
        r,
        "exports the r locked eigenvalues"
    );

    // The state padded to k eigenvalues, the shape the k-pair solve
    // exported. The values past r are the training window's (never
    // read: the moments carry the residual, and the threshold's floor
    // reads only λ₁).
    let k = netanom_core::stream::DEFAULT_TRUNCATED_K;
    assert!(r < k);
    let (training, _, _) = abilene_split();
    let cov = netanom_core::incremental::IncrementalCovariance::from_matrix(&training)
        .covariance()
        .unwrap();
    let tail = TruncatedEigen::of_covariance(&cov, k, 1e-10).unwrap();
    let mut old = state.clone();
    old.vectors[1].extend_from_slice(&tail.eigenvalues[r..]);
    assert_eq!(old.vectors[1].len(), k);
    let (old_model, old_confidence) = subspace_model_from_state(&old).unwrap();
    assert_eq!(old_confidence, confidence);
    assert_eq!(old_model.normal_dim(), r);
    assert_eq!(old_model.eigenvalues().len(), k);
    assert_eq!(
        old_model
            .q_threshold(confidence)
            .unwrap()
            .delta_sq
            .to_bits(),
        model.q_threshold(confidence).unwrap().delta_sq.to_bits()
    );

    let (_, _, network) = abilene_split();
    let other = SubspaceBackend::from_state(
        &old,
        &network.routing_matrix,
        DiagnoserConfig::default(),
        RefitStrategy::FullSvd,
        None,
    )
    .unwrap();
    assert_eq!(other.threshold(), engine.backend().threshold());
}

/// A dense refit computes only the `r` eigenvectors the model keeps, yet
/// its spectrum and thresholds are bitwise those of the full solve's
/// model (`SubspaceModel::from_eigen` on `SymmetricEigen::of_covariance`)
/// and its basis the full solve's leading columns to roundoff — on the
/// first window of each canned week and on two slid windows after it,
/// under fixed counts and variance fractions.
#[test]
fn dense_refit_keeps_the_full_solves_spectrum_and_threshold_bits() {
    use netanom_core::incremental::IncrementalCovariance;
    use netanom_core::SubspaceModel;
    use netanom_linalg::decomposition::SymmetricEigen;

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let policies = [
        SeparationPolicy::FixedCount(1),
        SeparationPolicy::FixedCount(4),
        SeparationPolicy::FixedCount(5),
        SeparationPolicy::FixedCount(8),
        SeparationPolicy::VarianceFraction(0.9),
        SeparationPolicy::VarianceFraction(0.99),
    ];
    for dataset in [datasets::abilene, datasets::sprint1, datasets::sprint2] {
        let ds = dataset();
        let links = ds.links.matrix();
        let mut stats =
            IncrementalCovariance::from_matrix(&links.row_block(0, TRAIN_BINS).unwrap());
        for window in 0..3 {
            if window > 0 {
                let start = (window - 1) * REFIT_EVERY;
                for t in start..start + REFIT_EVERY {
                    stats
                        .slide(links.row(t), links.row(t + TRAIN_BINS))
                        .unwrap();
                }
            }
            let full = SymmetricEigen::of_covariance(&stats.covariance().unwrap()).unwrap();
            let total: f64 = full.eigenvalues.iter().sum();
            for policy in policies {
                let r = match policy {
                    SeparationPolicy::FixedCount(r) => r,
                    SeparationPolicy::VarianceFraction(f) => {
                        let mut acc = 0.0;
                        1 + full
                            .eigenvalues
                            .iter()
                            .position(|&l| {
                                acc += l;
                                acc >= f * total
                            })
                            .unwrap()
                    }
                    SeparationPolicy::ThreeSigma { .. } => unreachable!(),
                };
                let at = format!("{} window {window} {policy:?}", ds.name);
                let got = stats.to_model(policy).unwrap();
                let want = SubspaceModel::from_eigen(
                    stats.mean().unwrap(),
                    &full.eigenvectors,
                    full.eigenvalues.clone(),
                    r,
                )
                .unwrap();
                assert_eq!(got.normal_dim(), r, "{at}");
                assert_eq!(
                    bits(got.eigenvalues()),
                    bits(want.eigenvalues()),
                    "{at}: eigenvalues"
                );
                for confidence in [0.999, 0.995] {
                    let (g, w) = (
                        got.q_threshold(confidence).unwrap(),
                        want.q_threshold(confidence).unwrap(),
                    );
                    assert_eq!(
                        bits(&[g.delta_sq, g.phi1, g.phi2, g.phi3, g.h0]),
                        bits(&[w.delta_sq, w.phi1, w.phi2, w.phi3, w.h0]),
                        "{at}: threshold at {confidence}"
                    );
                }
                let (gp, wp) = (got.normal_basis(), want.normal_basis());
                assert_eq!(gp.shape(), wp.shape(), "{at}");
                let drift = gp.sub(wp).unwrap().max_abs();
                assert!(drift <= 1e-12, "{at}: basis drift {drift:e}");
            }
        }
    }
}

/// The first fit builds only the eigenvectors its model keeps, yet its
/// normal dimension, spectrum and thresholds are bitwise those of the
/// full PCA's model (`Pca::fit`, the oracle's rank rule on it, and
/// `SubspaceModel::from_eigen`), and its basis the full solve's leading
/// columns to roundoff — on each canned week and on ledger-shaped
/// synthetic weeks at m = 121 and 256, under the 3σ walk, fixed counts
/// and variance fractions.
#[test]
fn first_fit_keeps_the_full_routes_bits() {
    use netanom_core::{Pca, PcaMethod, SubspaceModel};
    use netanom_traffic::synth::{self, ScaleConfig};

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let policies = [
        SeparationPolicy::default(),
        SeparationPolicy::FixedCount(1),
        SeparationPolicy::FixedCount(4),
        SeparationPolicy::FixedCount(5),
        SeparationPolicy::FixedCount(8),
        SeparationPolicy::VarianceFraction(0.9),
        SeparationPolicy::VarianceFraction(0.99),
    ];
    let mut weeks: Vec<(String, Matrix)> =
        [datasets::abilene, datasets::sprint1, datasets::sprint2]
            .into_iter()
            .map(|dataset| {
                let ds = dataset();
                (ds.name.to_string(), ds.links.matrix().clone())
            })
            .collect();
    for m in [121, 256] {
        let (_, series) = synth::workload(&ScaleConfig::new(m, 1008, 7)).unwrap();
        weeks.push((format!("synthetic m = {m}"), series.matrix().clone()));
    }
    for (name, links) in &weeks {
        let pca = Pca::fit(links).unwrap();
        for policy in policies {
            let at = format!("{name} {policy:?}");
            let r =
                svd_route::normal_dim_of(policy, pca.eigenvalues(), |i| pca.temporal_projection(i));
            let got = SubspaceModel::fit(links, policy, PcaMethod::Covariance).unwrap();
            let want = SubspaceModel::from_eigen(
                pca.mean().to_vec(),
                pca.components(),
                pca.eigenvalues().to_vec(),
                r,
            )
            .unwrap();
            assert_eq!(got.normal_dim(), r, "{at}");
            assert_eq!(
                bits(got.eigenvalues()),
                bits(want.eigenvalues()),
                "{at}: eigenvalues"
            );
            for confidence in [0.999, 0.995] {
                let (g, w) = (
                    got.q_threshold(confidence).unwrap(),
                    want.q_threshold(confidence).unwrap(),
                );
                assert_eq!(
                    bits(&[g.delta_sq, g.phi1, g.phi2, g.phi3, g.h0]),
                    bits(&[w.delta_sq, w.phi1, w.phi2, w.phi3, w.h0]),
                    "{at}: threshold at {confidence}"
                );
            }
            let (gp, wp) = (got.normal_basis(), want.normal_basis());
            assert_eq!(gp.shape(), wp.shape(), "{at}");
            let drift = gp.sub(wp).unwrap().max_abs();
            assert!(drift <= 1e-12, "{at}: basis drift {drift:e}");
        }
    }
}
