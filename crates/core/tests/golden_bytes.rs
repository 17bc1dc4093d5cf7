//! Golden-byte pins for the core crate's three binary encodings:
//! `NAMS` ([`MethodState`]), `NAIC` ([`IncrementalCovariance`]) and
//! `NACS` ([`CovarianceShard`]).
//!
//! The files under `tests/golden/` are what the encoders produced for
//! the fixed `m = 4` values built below; they are durable state (model
//! broadcasts, worker and session checkpoints), so an encoder change
//! that moves a single byte fails here. Every value is assembled from
//! exactly-representable floats so the bytes do not depend on how a
//! kernel rounds.

use netanom_core::incremental::{CovarianceShard, IncrementalCovariance};
use netanom_core::MethodState;
use netanom_linalg::Matrix;

mod support;

const M: usize = 4;

fn golden(file: &str, encoded: &[u8]) -> Vec<u8> {
    support::golden(env!("CARGO_MANIFEST_DIR"), file, encoded)
}

/// Deterministic, exactly-representable filler: multiples of 1/8 around
/// zero, with a sign change so the sign bit is exercised.
fn ramp(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + seed * 3) % 23) as f64 * 0.125 - 1.0)
        .collect()
}

fn table(rows: usize, cols: usize, seed: usize) -> Matrix {
    let data = ramp(rows * cols, seed);
    Matrix::from_fn(rows, cols, |i, j| data[i * cols + j])
}

/// One state per method, shaped like that method's `export_state` at
/// `m = 4` (see `netanom-baselines::methods`), plus the truncated-refit
/// subspace layout with its three residual moments.
fn states() -> Vec<(&'static str, MethodState)> {
    let state = |method: &str, scalars: Vec<f64>, vectors, matrices| MethodState {
        method: method.to_string(),
        scalars,
        vectors,
        matrices,
    };
    vec![
        (
            "nams_subspace.bin",
            state(
                "subspace",
                vec![2.0, 0.999],
                vec![ramp(M, 1), vec![9.5, 4.25, 0.5, 0.0]],
                vec![table(M, 2, 2)],
            ),
        ),
        (
            "nams_subspace_truncated.bin",
            state(
                "subspace",
                vec![2.0, 0.999, 0.75, 0.3125, 0.140625],
                vec![ramp(M, 1), vec![9.5, 4.25, 0.5]],
                vec![table(M, 2, 2)],
            ),
        ),
        (
            "nams_ewma.bin",
            state(
                "ewma",
                vec![1.5e12, 0.995],
                vec![vec![0.25; M], ramp(M, 3)],
                vec![],
            ),
        ),
        (
            "nams_holt_winters.bin",
            state(
                "holt-winters",
                vec![2.5e12, 0.995, 3.0, 7.0],
                vec![ramp(M, 4), ramp(M, 5)],
                vec![table(M, 3, 6)],
            ),
        ),
        (
            "nams_fourier.bin",
            state(
                "fourier",
                vec![3.5e12, 0.995, 288.0],
                vec![vec![144.0, 1008.0]],
                vec![table(M, 5, 7)],
            ),
        ),
        (
            // No pending samples: an `m × 0` matrix, the zero-width edge
            // of the matrix field.
            "nams_wavelet.bin",
            state(
                "wavelet",
                vec![4.5e12, 0.995, 3.0],
                vec![ramp(M, 8)],
                vec![Matrix::zeros(M, 0)],
            ),
        ),
    ]
}

/// Small-integer measurements: every sum and product is exact, so the
/// accumulators hold the same bits on every host.
fn measurements() -> Vec<[f64; M]> {
    vec![
        [1.0, 2.0, 3.0, 4.0],
        [0.0, -1.0, 5.0, 2.0],
        [7.0, 3.0, 0.0, -6.0],
    ]
}

fn statistics() -> IncrementalCovariance {
    let mut acc = IncrementalCovariance::new(M);
    for y in measurements() {
        acc.add(&y).unwrap();
    }
    acc
}

fn shard() -> CovarianceShard {
    let mut shard = CovarianceShard::new(M, &[1, 3]).unwrap();
    for y in measurements() {
        shard.add(&y).unwrap();
    }
    shard
}

#[test]
fn method_states_match_their_golden_bytes() {
    for (file, state) in states() {
        let want = golden(file, &state.to_bytes());
        assert_eq!(
            MethodState::from_bytes(&want).unwrap(),
            state,
            "{file}: decoder moved"
        );
    }
}

#[test]
fn incremental_covariance_matches_its_golden_bytes() {
    let acc = statistics();
    let want = golden("naic.bin", &acc.to_bytes());
    let back = IncrementalCovariance::from_bytes(&want).unwrap();
    assert_eq!(back.dim(), M);
    assert_eq!(back.count(), acc.count());
    assert_eq!(back.covariance().unwrap(), acc.covariance().unwrap());
    assert_eq!(back.to_bytes(), want, "decode then encode is the identity");
}

#[test]
fn covariance_shard_matches_its_golden_bytes() {
    let shard = shard();
    let want = golden("nacs.bin", &shard.to_bytes());
    let back = CovarianceShard::from_bytes(&want).unwrap();
    assert_eq!(back.dim(), M);
    assert_eq!(back.links(), shard.links());
    assert_eq!(back.count(), shard.count());
    assert_eq!(back.to_bytes(), want, "decode then encode is the identity");
}
