//! Batch-vs-per-vector parity on a real canned dataset.
//!
//! The batch API's contract: `Detector::detect_matrix` and the batched
//! `Diagnoser::diagnose_series` agree with the per-vector path
//! (`detect_vector` / `diagnose_vector` row by row) bit for bit — the
//! fused detection kernel keeps the per-vector operation order, and
//! identification runs on the exact per-vector residual. These tests
//! pin that contract on `datasets::mini`.

use netanom_core::{Detector, Diagnoser, DiagnoserConfig};
use netanom_traffic::datasets;

/// Bitwise equality, spelled so a failure prints both values.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[test]
fn detect_matrix_is_identical_to_per_vector_detection() {
    let ds = datasets::mini(7);
    let links = ds.links.matrix();
    let diagnoser = Diagnoser::fit(
        links,
        &ds.network.routing_matrix,
        DiagnoserConfig::default(),
    )
    .unwrap();
    let detector: &Detector = diagnoser.detector();

    let batch = detector.detect_matrix(links).unwrap();
    assert_eq!(batch.len(), links.rows());
    let mut any_detected = false;
    for (t, b) in batch.iter().enumerate() {
        let single = detector.detect_vector(links.row(t)).unwrap();
        assert_eq!(b.time, t);
        assert_eq!(
            b.anomalous, single.anomalous,
            "detection decision diverged at bin {t}"
        );
        assert!(
            same(b.spe, single.spe),
            "SPE diverged at bin {t}: {} vs {}",
            b.spe,
            single.spe
        );
        any_detected |= b.anomalous;
    }
    assert!(
        any_detected,
        "mini dataset should contain detectable anomalies"
    );
}

#[test]
fn batched_diagnose_series_is_identical_to_per_vector_reports() {
    let ds = datasets::mini(7);
    let links = ds.links.matrix();
    let diagnoser = Diagnoser::fit(
        links,
        &ds.network.routing_matrix,
        DiagnoserConfig::default(),
    )
    .unwrap();

    let batch = diagnoser.diagnose_series(links).unwrap();
    assert_eq!(batch.len(), links.rows());
    for (t, b) in batch.iter().enumerate() {
        let mut single = diagnoser.diagnose_vector(links.row(t)).unwrap();
        single.time = t;
        assert_eq!(b.detected, single.detected, "detection diverged at bin {t}");
        assert!(same(b.spe, single.spe), "SPE diverged at bin {t}");
        assert_eq!(b.threshold, single.threshold);
        match (b.identification, single.identification) {
            (None, None) => {}
            (Some(bi), Some(si)) => {
                assert_eq!(bi.flow, si.flow, "identified flow diverged at bin {t}");
                assert!(same(bi.f_hat, si.f_hat), "f_hat diverged at bin {t}");
                assert!(same(bi.residual_energy, si.residual_energy));
                assert!(same(bi.remaining_energy, si.remaining_energy));
                assert!(same(
                    b.estimated_bytes.unwrap(),
                    single.estimated_bytes.unwrap()
                ));
            }
            _ => panic!("identification presence diverged at bin {t}"),
        }
    }
}
