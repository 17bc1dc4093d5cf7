//! Parity of the pluggable-method layer:
//!
//! * the `MethodBackend::Subspace` route through the generic streaming
//!   engine is **bitwise** the plain subspace engine (the enum adds
//!   dispatch, never arithmetic);
//! * every temporal backend's batched scoring equals its sequential
//!   scoring, across refit boundaries;
//! * exported method state reproduces the exporter's scoring when a
//!   backend is restored from it, and a temporal state whose threshold
//!   or confidence could not have come from a calibration is refused.

use netanom_baselines::methods::{MethodName, TemporalBackend, TemporalKind};
use netanom_core::method::DetectionBackend;
use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{DiagnoserConfig, PcaMethod, SeparationPolicy};
use netanom_linalg::{vector, Matrix};
use netanom_topology::{builtin, Network};

fn training(m: usize, bins: usize, seed: usize) -> Matrix {
    Matrix::from_fn(bins, m, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 3) as f64 + 1.0);
        let noise = (((i * m + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    })
}

/// The subspace cases run once per PCA route; `Covariance`, the one every
/// verb ships with, is the only one.
const ROUTES: [PcaMethod; 1] = [PcaMethod::Covariance];

fn config(pca_method: PcaMethod) -> DiagnoserConfig {
    DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(2),
        pca_method,
        confidence: 0.999,
    }
}

/// Arrivals continuing the training pattern, with large anomalies staged
/// on a few flows.
fn staged_stream(net: &Network, t0: usize, bins: usize) -> Matrix {
    let rm = &net.routing_matrix;
    let m = rm.num_links();
    let mut stream = Matrix::from_fn(bins, m, |i, l| {
        let t = t0 + i;
        let phase = t as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 3) as f64 + 1.0);
        let noise = (((t * m + l).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    });
    let mut k = 0usize;
    let mut t = 15;
    while t < bins {
        let flow = (k * 7 + 2) % rm.num_flows();
        let mut row = stream.row(t).to_vec();
        vector::axpy(4e7, &rm.column(flow), &mut row);
        stream.set_row(t, &row);
        k += 1;
        t += 22;
    }
    stream
}

fn temporal_kinds() -> Vec<TemporalKind> {
    vec![
        TemporalKind::Ewma,
        TemporalKind::HoltWinters { period: 48 },
        TemporalKind::Fourier,
        TemporalKind::Wavelet { levels: 4 },
    ]
}

#[test]
fn method_enum_subspace_is_bitwise_to_plain_engines() {
    for pca_method in ROUTES {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 250, 0);
        let stream_cfg = StreamConfig::new(250)
            .refit_every(40)
            .strategy(RefitStrategy::Incremental);
        let arrivals = staged_stream(&net, 250, 100);

        // Streaming: plain vs enum-wrapped, batched entry point.
        let mut plain = StreamingEngine::new(&train, rm, config(pca_method), stream_cfg).unwrap();
        let backend = MethodName::Subspace
            .fit(&train, rm, config(pca_method), RefitStrategy::Incremental)
            .unwrap();
        let mut wrapped = StreamingEngine::with_backend(backend, &train, stream_cfg).unwrap();
        let a = plain.process_batch(&arrivals).unwrap();
        let b = wrapped.process_batch(&arrivals).unwrap();
        assert_eq!(a, b, "streaming enum route must be bitwise");
        assert!(a.iter().any(|r| r.detected), "staged anomalies fire");
    }
}

#[test]
fn temporal_batched_scoring_equals_sequential_across_refits() {
    let net = builtin::line(3);
    let m = net.routing_matrix.num_links();
    let train = training(m, 240, 0);
    let arrivals = staged_stream(&net, 240, 110);

    for kind in temporal_kinds() {
        let stream_cfg = StreamConfig::new(240).refit_every(45);
        let mk = || {
            let backend = TemporalBackend::fit(kind, &train, 0.999).unwrap();
            StreamingEngine::with_backend(backend, &train, stream_cfg).unwrap()
        };
        let mut seq = mk();
        let mut bat = mk();
        let seq_reports: Vec<_> = (0..arrivals.rows())
            .map(|t| seq.process(arrivals.row(t)).unwrap())
            .collect();
        let bat_reports = bat.process_batch(&arrivals).unwrap();
        assert_eq!(
            seq_reports, bat_reports,
            "{kind:?}: batched scoring must equal sequential bitwise"
        );
        assert_eq!(seq.refits(), bat.refits());
        assert!(seq.refits() >= 2, "{kind:?}: stream must cross refits");
        assert!(
            seq_reports.iter().any(|r| r.detected),
            "{kind:?}: staged 40 MB anomalies must fire"
        );
    }
}

#[test]
fn every_method_state_roundtrips_scoring() {
    for pca_method in ROUTES {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 240, 0);
        let probe = staged_stream(&net, 240, 25);

        for name in MethodName::ALL {
            let exporter = name
                .fit(&train, rm, config(pca_method), RefitStrategy::FullSvd)
                .unwrap();
            let state = exporter.export_state();
            assert_eq!(state.method, name.as_str());
            let bytes = state.to_bytes();
            let decoded = netanom_core::MethodState::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, state);

            let restore = |state: &netanom_core::MethodState| {
                name.backend_from_state(
                    state,
                    m,
                    rm,
                    config(pca_method),
                    RefitStrategy::FullSvd,
                    None,
                )
            };
            let importer = restore(&decoded).unwrap();
            assert_eq!(
                importer.threshold(),
                exporter.threshold(),
                "{name}: threshold must survive the roundtrip bitwise"
            );
            for t in 0..probe.rows() {
                let a = exporter.score_vector(probe.row(t)).unwrap();
                let b = importer.score_vector(probe.row(t)).unwrap();
                assert_eq!(a, b, "{name}: scoring diverged after import at bin {t}");
            }

            // Cross-method state is rejected.
            let mut wrong = decoded.clone();
            wrong.method = if name == MethodName::Ewma {
                "fourier".to_string()
            } else {
                "ewma".to_string()
            };
            assert!(restore(&wrong).is_err(), "{name}");
        }
    }
}

/// A temporal state is refused at restore when its threshold could
/// never alarm (NaN), always alarms (negative) or is infinite, or when
/// its confidence lies outside `(0, 1)`, where it would fail only at the
/// next refit. A threshold of 0, what constant training calibrates to,
/// restores.
#[test]
fn temporal_state_with_an_unusable_threshold_or_confidence_is_refused() {
    let net = builtin::line(3);
    let rm = &net.routing_matrix;
    let m = rm.num_links();
    let train = training(m, 240, 0);
    let cases = [
        (0, f64::NAN),
        (0, f64::INFINITY),
        (0, f64::NEG_INFINITY),
        (0, -1.0),
        (1, 0.0),
        (1, 1.0),
        (1, f64::NAN),
    ];
    for name in MethodName::ALL {
        let Some(kind) = name.temporal_kind() else {
            continue;
        };
        let state = name
            .fit(&train, rm, config(ROUTES[0]), RefitStrategy::FullSvd)
            .unwrap()
            .export_state();
        for (slot, value) in cases {
            let mut bad = state.clone();
            bad.scalars[slot] = value;
            assert!(
                matches!(
                    TemporalBackend::from_state(kind, m, &bad),
                    Err(netanom_core::CoreError::InvalidState { .. })
                ),
                "{name}: scalar {slot} = {value} must be refused"
            );
        }
        let mut zero = state.clone();
        zero.scalars[0] = 0.0;
        let restored = TemporalBackend::from_state(kind, m, &zero).unwrap();
        assert_eq!(restored.threshold(), 0.0, "{name}");
    }
}

#[test]
fn wavelet_state_with_different_depth_is_rejected() {
    let net = builtin::line(3);
    let m = net.routing_matrix.num_links();
    let train = training(m, 200, 0);
    let exporter =
        TemporalBackend::fit(TemporalKind::Wavelet { levels: 4 }, &train, 0.999).unwrap();
    let state = exporter.export_state();
    // Same method name, different decomposition depth: importing would
    // silently complete blocks on the wrong cadence, so it must error.
    assert!(
        TemporalBackend::from_state(TemporalKind::Wavelet { levels: 5 }, m, &state).is_err(),
        "depth-4 state must not import into a depth-5 backend"
    );
}

#[test]
fn unknown_method_parse_lists_the_valid_set() {
    let err = MethodName::parse("kalman").unwrap_err();
    for known in netanom_baselines::methods::METHOD_NAMES {
        assert!(err.contains(known), "error must list {known}: {err}");
    }
    assert_eq!(MethodName::parse("wavelet"), Ok(MethodName::Wavelet));
    assert_eq!(MethodName::parse("subspace"), Ok(MethodName::Subspace));
}
