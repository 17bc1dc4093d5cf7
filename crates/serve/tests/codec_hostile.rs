//! The shared hostile-input contract (see
//! `core/tests/support/mod.rs`) applied to the `NASC` session
//! checkpoint, in both phases.

use netanom_serve::SessionCheckpoint;

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
