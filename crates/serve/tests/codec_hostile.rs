//! The shared hostile-input contract (see
//! `core/tests/support/mod.rs`) applied to the `NASC` session
//! checkpoint, in both phases.

use netanom_core::RefitStrategy;
use netanom_serve::{ErrorCode, SessionCheckpoint};

#[path = "../../core/tests/support/mod.rs"]
mod support;

#[test]
fn session_checkpoint_decoder_survives_hostile_input() {
    for file in ["nasc_training.bin", "nasc_streaming.bin"] {
        let golden = support::read_golden(env!("CARGO_MANIFEST_DIR"), file);
        support::assert_survives_hostile_input(file, &golden, 8, |b| {
            SessionCheckpoint::from_bytes(b).ok().map(|c| c.to_bytes())
        });
    }
}

/// A byte `to_bytes` never writes is refused, whatever the strategy: a
/// `k` or `tol` under a tag that has none, and a flag other than 0 or 1.
#[test]
fn session_checkpoint_decoder_refuses_bytes_the_encoder_never_writes() {
    let golden = support::read_golden(env!("CARGO_MANIFEST_DIR"), "nasc_streaming.bin");
    for strategy in [RefitStrategy::FullSvd, RefitStrategy::Incremental] {
        let cp = SessionCheckpoint {
            strategy,
            autodrain: true,
            streaming: true,
            state: Some(vec![7]),
            stats: Some(vec![7]),
            ..SessionCheckpoint::from_bytes(&golden).unwrap()
        };
        let bytes = cp.to_bytes();
        let tag = 8 + 8 + cp.method.len() + 3 * 8;
        let autodrain = tag + 1 + 8 + 8 + 3 * 8;
        let stats = bytes.len() - (1 + 8 + 1);
        let state = stats - (1 + 8 + 1);
        let flags = [autodrain, autodrain + 1, state, stats];
        assert_eq!(
            flags.map(|at| bytes[at]),
            [1; 4],
            "{strategy:?}: flag offsets"
        );
        // A nonzero `k`, a `tol` of -0.0, and each flag set to 2.
        let mutants = [(tag + 1, 1), (tag + 16, 0x80)].into_iter();
        for (at, byte) in mutants.chain(flags.map(|at| (at, 2))) {
            let mut bad = bytes.clone();
            bad[at] = byte;
            let err = SessionCheckpoint::from_bytes(&bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::Checkpoint, "{strategy:?}, byte {at}");
        }
    }
}
