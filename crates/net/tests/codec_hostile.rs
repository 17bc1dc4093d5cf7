//! The shared hostile-input contract (see
//! `core/tests/support/mod.rs`) applied to what this crate decodes: the
//! `NACK` checkpoint and the payload of every golden wire frame.

use netanom_net::{read_frame, Checkpoint, Message, DEFAULT_MAX_FRAME};

#[path = "../../core/tests/support/mod.rs"]
mod support;

fn golden(file: &str) -> Vec<u8> {
    support::read_golden(env!("CARGO_MANIFEST_DIR"), file)
}

#[test]
fn worker_checkpoint_decoder_survives_hostile_input() {
    for file in ["nack_bare.bin", "nack_cached.bin"] {
        support::assert_survives_hostile_input(file, &golden(file), 8, |b| {
            Checkpoint::from_bytes(b).ok().map(|c| c.to_bytes())
        });
    }
}

#[test]
fn message_decoder_survives_hostile_input() {
    let frames = golden("wire_frames.bin");
    let mut wire = &frames[..];
    let mut seen = 0;
    while let Some(payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap() {
        let name = Message::from_bytes(&payload).unwrap().name();
        support::assert_survives_hostile_input(name, &payload, 0, |b| {
            Message::from_bytes(b).ok().map(|m| m.to_bytes())
        });
        seen += 1;
    }
    assert_eq!(seen, 16, "one payload per golden frame");
}
