//! Parity suite: [`StreamingEngine`] must reproduce the sequential
//! behavior of the seed's sequential online loop — fit on a training
//! window, diagnose each arrival with `Diagnoser::diagnose_vector`,
//! maintain a sliding window, refit from the materialized window every
//! `k` arrivals — *bitwise* for detections and identifications, across
//! refit boundaries, for both the per-arrival and the batched entry
//! points.
//!
//! The reference below is a line-for-line transcription of the seed's
//! online loop (including its `Vec<Vec<f64>>` window with `remove(0)`
//! eviction), kept here so the engine is checked against the historical
//! semantics rather than against itself.

use netanom_core::method::SubspaceBackend;
use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{Diagnoser, DiagnoserConfig, DiagnosisReport, PcaMethod, SeparationPolicy};
use netanom_linalg::{vector, Matrix};
use netanom_topology::{builtin, RoutingMatrix};

/// The seed's sequential online diagnoser, verbatim.
struct SeqReference {
    diagnoser: Diagnoser,
    rm: RoutingMatrix,
    config: DiagnoserConfig,
    window: Vec<Vec<f64>>,
    window_capacity: usize,
    refit_every: Option<usize>,
    arrivals_since_fit: usize,
    arrivals_total: usize,
}

impl SeqReference {
    fn new(
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        window_capacity: usize,
        refit_every: Option<usize>,
    ) -> Self {
        let diagnoser = Diagnoser::fit(training, rm, config).unwrap();
        let capacity = window_capacity.max(training.rows());
        let mut window = Vec::with_capacity(capacity);
        let start = training.rows().saturating_sub(capacity);
        for t in start..training.rows() {
            window.push(training.row(t).to_vec());
        }
        SeqReference {
            diagnoser,
            rm: rm.clone(),
            config,
            window,
            window_capacity: capacity,
            refit_every,
            arrivals_since_fit: 0,
            arrivals_total: 0,
        }
    }

    fn process(&mut self, y: &[f64]) -> DiagnosisReport {
        let mut report = self.diagnoser.diagnose_vector(y).unwrap();
        report.time = self.arrivals_total;
        self.arrivals_total += 1;
        self.arrivals_since_fit += 1;
        if self.window.len() == self.window_capacity {
            self.window.remove(0); // the seed's O(n) eviction, kept verbatim
        }
        self.window.push(y.to_vec());
        if let Some(k) = self.refit_every {
            if self.arrivals_since_fit >= k {
                let training = Matrix::from_rows(&self.window);
                self.diagnoser = Diagnoser::fit(&training, &self.rm, self.config).unwrap();
                self.arrivals_since_fit = 0;
            }
        }
        report
    }
}

fn training(m: usize, bins: usize, seed: usize) -> Matrix {
    Matrix::from_fn(bins, m, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 3) as f64 + 1.0);
        let noise = (((i * m + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    })
}

/// Fresh arrivals with anomalies staged in several bins so that the
/// parity check covers identifications and quantifications, not just
/// quiet traffic.
fn arrivals_with_anomalies(rm: &RoutingMatrix, bins: usize, seed: usize) -> Matrix {
    let mut fresh = training(rm.num_links(), bins, seed);
    for (t, flow, size) in [(17, 2, 7e6), (49, 4, 9e6), (50, 1, 8e6), (101, 3, 1.1e7)] {
        if t < bins && flow < rm.num_flows() {
            let mut row = fresh.row(t).to_vec();
            vector::axpy(size, &rm.column(flow), &mut row);
            fresh.set_row(t, &row);
        }
    }
    fresh
}

/// Every case below runs once per PCA route; `Covariance`, the one every verb
/// ships with, is the only one.
const ROUTES: [PcaMethod; 1] = [PcaMethod::Covariance];

fn fixed_config(pca_method: PcaMethod) -> DiagnoserConfig {
    DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(2),
        pca_method,
        confidence: 0.999,
    }
}

/// Bitwise comparison of two report streams: everything `assert_eq`,
/// with the SPE additionally reported in relative terms on divergence.
fn assert_reports_bitwise(engine: &[DiagnosisReport], reference: &[DiagnosisReport]) {
    assert_eq!(engine.len(), reference.len());
    let mut detections = 0usize;
    for (e, r) in engine.iter().zip(reference) {
        assert!(
            (e.spe - r.spe).abs() <= 1e-9 * r.spe.max(1.0),
            "SPE diverged at arrival {}: {} vs {}",
            r.time,
            e.spe,
            r.spe
        );
        assert_eq!(e, r, "report diverged at arrival {}", r.time);
        detections += usize::from(r.detected);
    }
    assert!(
        detections >= 3,
        "parity run exercised only {detections} detections"
    );
}

#[test]
fn engine_process_is_bitwise_to_sequential_seed_across_refits() {
    for pca_method in ROUTES {
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let fresh = arrivals_with_anomalies(rm, 130, 300);

        // Refit every 50 → two refit boundaries inside the run.
        let mut reference = SeqReference::new(&train, rm, fixed_config(pca_method), 300, Some(50));
        let mut engine = StreamingEngine::new(
            &train,
            rm,
            fixed_config(pca_method),
            StreamConfig::new(300).refit_every(50),
        )
        .unwrap();

        let ref_reports: Vec<_> = (0..fresh.rows())
            .map(|t| reference.process(fresh.row(t)))
            .collect();
        let eng_reports: Vec<_> = (0..fresh.rows())
            .map(|t| engine.process(fresh.row(t)).unwrap())
            .collect();
        assert_reports_bitwise(&eng_reports, &ref_reports);

        // Window state agrees row for row (the ring buffer vs the Vec).
        assert_eq!(engine.window().len(), reference.window.len());
        for i in 0..engine.window().len() {
            assert_eq!(engine.window().row(i), &reference.window[i][..], "row {i}");
        }
        assert_eq!(engine.arrivals_since_refit(), reference.arrivals_since_fit);
    }
}

#[test]
fn engine_process_batch_is_bitwise_to_sequential_seed_across_refits() {
    for pca_method in ROUTES {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let fresh = arrivals_with_anomalies(rm, 130, 300);

        let mut reference = SeqReference::new(&train, rm, fixed_config(pca_method), 300, Some(50));
        let mut engine = StreamingEngine::new(
            &train,
            rm,
            fixed_config(pca_method),
            StreamConfig::new(300).refit_every(50),
        )
        .unwrap();

        let ref_reports: Vec<_> = (0..fresh.rows())
            .map(|t| reference.process(fresh.row(t)))
            .collect();
        // One call spanning both refit boundaries.
        let eng_reports = engine.process_batch(&fresh).unwrap();

        assert_eq!(eng_reports.len(), ref_reports.len());
        for (e, r) in eng_reports.iter().zip(&ref_reports) {
            assert!(
                (e.spe - r.spe).abs() <= 1e-9 * r.spe.max(1.0),
                "SPE diverged at arrival {}",
                r.time
            );
            assert_eq!(e.time, r.time);
            assert_eq!(e.detected, r.detected, "detection diverged at {}", r.time);
            assert_eq!(
                e.identification, r.identification,
                "identification diverged at {}",
                r.time
            );
            assert_eq!(
                e.estimated_bytes, r.estimated_bytes,
                "quantification diverged at {}",
                r.time
            );
        }
        assert_eq!(engine.arrivals(), reference.arrivals_total);
        assert_eq!(engine.arrivals_since_refit(), reference.arrivals_since_fit);
    }
}

#[test]
fn parity_holds_under_the_paper_default_config() {
    for pca_method in ROUTES {
        // ThreeSigma separation at 99.9 % — the paper's defaults — with a
        // window smaller than the training data (clamped up) and a refit
        // cadence of 1 (refit after every arrival: every boundary is a
        // refit boundary).
        let net = builtin::line(4);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 220, 7);
        let fresh = arrivals_with_anomalies(rm, 25, 900);

        let config = DiagnoserConfig {
            pca_method,
            ..DiagnoserConfig::default()
        };
        let mut reference = SeqReference::new(&train, rm, config, 64, Some(1));
        let mut engine =
            StreamingEngine::new(&train, rm, config, StreamConfig::new(64).refit_every(1)).unwrap();

        let ref_reports: Vec<_> = (0..fresh.rows())
            .map(|t| reference.process(fresh.row(t)))
            .collect();
        let eng_reports = engine.process_batch(&fresh).unwrap();
        for (e, r) in eng_reports.iter().zip(&ref_reports) {
            assert_eq!(e.time, r.time);
            assert_eq!(e.detected, r.detected, "detection diverged at {}", r.time);
            assert!(
                (e.spe - r.spe).abs() <= 1e-9 * r.spe.max(1.0),
                "SPE diverged at arrival {}",
                r.time
            );
            assert_eq!(e.identification, r.identification);
        }
        // Capacity was clamped up to the training length, as the seed did.
        assert_eq!(engine.window().capacity(), 220);
    }
}

/// The backend-generic construction path (`SubspaceBackend::fit` +
/// `StreamingEngine::with_backend`) must be bitwise identical to the
/// `StreamingEngine::new` sugar — and therefore, transitively, to the
/// sequential seed — across refit boundaries, for both refit strategies.
#[test]
fn generic_backend_engine_is_bitwise_to_sugar() {
    for pca_method in ROUTES {
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let fresh = arrivals_with_anomalies(rm, 130, 300);

        for strategy in [RefitStrategy::FullSvd, RefitStrategy::Incremental] {
            let stream_cfg = StreamConfig::new(300).refit_every(50).strategy(strategy);
            let mut sugar =
                StreamingEngine::new(&train, rm, fixed_config(pca_method), stream_cfg).unwrap();
            let backend =
                SubspaceBackend::fit(&train, rm, fixed_config(pca_method), strategy).unwrap();
            let mut generic = StreamingEngine::with_backend(backend, &train, stream_cfg).unwrap();

            // Both entry points, like for like (the per-vector and fused
            // batch SPE kernels differ in the last bits by design, so the
            // comparison must not mix them).
            let head = 40;
            let a: Vec<_> = (0..head)
                .map(|t| sugar.process(fresh.row(t)).unwrap())
                .collect();
            let b: Vec<_> = (0..head)
                .map(|t| generic.process(fresh.row(t)).unwrap())
                .collect();
            assert_eq!(a, b, "{strategy:?}: per-arrival path");
            let tail = fresh
                .row_block(head, fresh.rows() - head)
                .expect("within range");
            let a = sugar.process_batch(&tail).unwrap();
            let b = generic.process_batch(&tail).unwrap();
            assert_eq!(a, b, "{strategy:?}: batched path");
            assert_eq!(sugar.refits(), generic.refits());
            assert_eq!(
                sugar.diagnoser().detector().threshold().delta_sq,
                generic.diagnoser().detector().threshold().delta_sq,
                "{strategy:?}: post-refit thresholds must be bitwise equal"
            );
        }
    }
}

#[test]
fn incremental_strategy_matches_detections_within_numerical_tolerance() {
    for pca_method in ROUTES {
        // The incremental refit route is numerically different (sufficient
        // statistics + Jacobi instead of a fresh SVD) — the contract is
        // agreement on decisions and small relative SPE drift, not bitwise
        // equality.
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let fresh = arrivals_with_anomalies(rm, 130, 300);

        let mut reference = SeqReference::new(&train, rm, fixed_config(pca_method), 300, Some(40));
        let mut engine = StreamingEngine::new(
            &train,
            rm,
            fixed_config(pca_method),
            StreamConfig::new(300)
                .refit_every(40)
                .strategy(RefitStrategy::Incremental),
        )
        .unwrap();

        let mut detections = 0usize;
        for t in 0..fresh.rows() {
            let r = reference.process(fresh.row(t));
            let e = engine.process(fresh.row(t)).unwrap();
            assert_eq!(e.detected, r.detected, "decision diverged at arrival {t}");
            if let (Some(ei), Some(ri)) = (e.identification, r.identification) {
                assert_eq!(ei.flow, ri.flow, "identified flow diverged at {t}");
            }
            let rel = (e.spe - r.spe).abs() / r.spe.max(1.0);
            assert!(rel < 1e-5, "SPE drift {rel:.2e} at arrival {t}");
            detections += usize::from(r.detected);
        }
        assert!(detections >= 3);
        assert_eq!(engine.refits(), 3);
    }
}
