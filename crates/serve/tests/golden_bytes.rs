//! Golden-byte pins for the `NASC` session checkpoint: one taken in the
//! training phase and one in the streaming phase carrying a nested
//! `NAMS` model and `NAIC` statistics, both at `m = 4`. A daemon must
//! keep restoring files an earlier build wrote, so a moved byte fails
//! here.

use netanom_core::incremental::IncrementalCovariance;
use netanom_core::{MethodState, RefitStrategy};
use netanom_linalg::Matrix;
use netanom_serve::SessionCheckpoint;

#[path = "../../core/tests/support/mod.rs"]
mod support;

fn golden(file: &str, encoded: &[u8]) -> Vec<u8> {
    support::golden(env!("CARGO_MANIFEST_DIR"), file, encoded)
}

/// Small-integer rows: exact in every accumulator on every host.
fn rows() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 2.0, 3.0, 4.0],
        vec![0.0, -1.0, 5.0, 2.0],
        vec![7.0, 3.0, 0.0, -6.0],
    ]
}

fn training_phase() -> SessionCheckpoint {
    SessionCheckpoint {
        method: "ewma".to_string(),
        dim: 4,
        train_bins: 6,
        confidence: 0.995,
        strategy: RefitStrategy::FullSvd,
        refit_every: None,
        window_capacity: 6,
        queue_capacity: 64,
        autodrain: false,
        streaming: false,
        arrivals_total: 0,
        arrivals_since_fit: 0,
        refits: 0,
        alarms: 0,
        drops: 1,
        training_rows: rows(),
        window_rows: vec![],
        pending: vec![vec![0.5, 0.25, -0.125, 8.0]],
        state: None,
        stats: None,
    }
}

fn streaming_phase() -> SessionCheckpoint {
    let model = MethodState {
        method: "subspace".to_string(),
        scalars: vec![2.0, 0.999, 0.75, 0.3125, 0.140625],
        vectors: vec![vec![2.5, 1.25, 2.75, 0.0], vec![9.5, 4.25, 0.5]],
        matrices: vec![Matrix::from_fn(4, 2, |i, j| {
            (i * 2 + j) as f64 * 0.125 - 0.5
        })],
    };
    let mut stats = IncrementalCovariance::new(4);
    for row in rows() {
        stats.add(&row).unwrap();
    }
    SessionCheckpoint {
        method: "subspace".to_string(),
        dim: 4,
        train_bins: 3,
        confidence: 0.999,
        strategy: RefitStrategy::Truncated { k: 3, tol: 1e-10 },
        refit_every: Some(5),
        window_capacity: 3,
        queue_capacity: 64,
        autodrain: true,
        streaming: true,
        arrivals_total: 17,
        arrivals_since_fit: 2,
        refits: 3,
        alarms: 1,
        drops: 2,
        training_rows: vec![],
        window_rows: rows(),
        pending: vec![vec![0.5, 0.25, -0.125, 8.0]],
        state: Some(model.to_bytes()),
        stats: Some(stats.to_bytes()),
    }
}

#[test]
fn session_checkpoints_match_their_golden_bytes() {
    for (file, cp) in [
        ("nasc_training.bin", training_phase()),
        ("nasc_streaming.bin", streaming_phase()),
    ] {
        let want = golden(file, &cp.to_bytes());
        assert_eq!(SessionCheckpoint::from_bytes(&want).unwrap(), cp, "{file}");
    }
}
