//! Golden-byte pins for what `netanom-net` writes to disk and to the
//! wire: the `NACK` worker checkpoint (with and without its
//! [`RoundCache`]) and one frame of every [`Message`] variant —
//! `Welcome` once per refit strategy, since each strategy has its own
//! tag and tail.
//!
//! `tests/golden/wire_frames.bin` is the frames back to back, exactly as
//! [`write_frame`] lays them on a socket, so the length prefix is pinned
//! along with the payloads.

use netanom_core::RefitStrategy;
use netanom_linalg::Matrix;
use netanom_net::{read_frame, write_frame, Checkpoint, Message, RoundCache, DEFAULT_MAX_FRAME};

#[path = "../../core/tests/support/mod.rs"]
mod support;

fn golden(file: &str, encoded: &[u8]) -> Vec<u8> {
    support::golden(env!("CARGO_MANIFEST_DIR"), file, encoded)
}

/// Exactly-representable filler (multiples of 1/8, both signs).
fn table(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * cols + j) * 7 + seed * 3) as f64 % 23.0 * 0.125 - 1.0
    })
}

fn checkpoint(cache: bool) -> Checkpoint {
    Checkpoint {
        shard: 1,
        shards: 2,
        dim: 4,
        links: vec![1, 3],
        train_bins: 6,
        completed_round: 3,
        arrivals: 9,
        state: b"NAMS-bytes-ride-opaque".to_vec(),
        stats: cache.then(|| b"NACS-bytes-ride-opaque".to_vec()),
        window_capacity: 6,
        window: table(5, 4, 1),
        cache: cache.then(|| RoundCache {
            round: 3,
            rows: 3,
            coeffs: table(3, 2, 2),
            scores: vec![0.25, -1.5, 3.0],
            residual: table(3, 2, 3),
        }),
    }
}

// `.into()` lets this file compile unchanged whether `Welcome` carries
// `RefitStrategy` itself or a wire-side mirror of it; the bytes are the
// same either way, which is the point.
#[allow(clippy::useless_conversion)]
fn welcome(strategy: RefitStrategy) -> Message {
    Message::Welcome {
        state: vec![1, 2, 3],
        strategy: strategy.into(),
        window_capacity: 6,
        round: 3,
    }
}

/// Every variant in tag order, `Welcome` three times.
fn vocabulary() -> Vec<Message> {
    vec![
        Message::Join {
            shard: 1,
            shards: 2,
            dim: 4,
            links: vec![1, 3],
            train_bins: 6,
            completed_round: 3,
            arrivals: 9,
        },
        welcome(RefitStrategy::FullSvd),
        welcome(RefitStrategy::Incremental),
        welcome(RefitStrategy::Truncated { k: 3, tol: 1e-10 }),
        Message::Reject {
            reason: "shard 9 out of range".into(),
        },
        Message::RunBlock { round: 4, take: 3 },
        Message::PhaseA {
            round: 4,
            rows: 3,
            coeffs: table(3, 2, 4),
        },
        Message::Exhausted { round: 5 },
        Message::Merged {
            round: 4,
            coeffs: table(3, 2, 5),
        },
        Message::PhaseB {
            round: 4,
            scores: vec![0.25, -1.5, 3.0],
            residual: table(3, 2, 6),
        },
        Message::StatsRequest { round: 4 },
        Message::Stats {
            round: 4,
            bytes: vec![9; 5],
        },
        Message::WindowSlice {
            round: 4,
            slice: table(2, 2, 7),
        },
        Message::Model {
            round: 4,
            state: vec![4, 5, 6],
        },
        Message::Done { arrivals: 12 },
        Message::Fatal {
            reason: "feeds disagree".into(),
        },
    ]
}

#[test]
fn worker_checkpoints_match_their_golden_bytes() {
    for (file, cache) in [("nack_bare.bin", false), ("nack_cached.bin", true)] {
        let ckpt = checkpoint(cache);
        let want = golden(file, &ckpt.to_bytes());
        assert_eq!(Checkpoint::from_bytes(&want).unwrap(), ckpt, "{file}");
    }
}

#[test]
fn every_message_frame_matches_its_golden_bytes() {
    let messages = vocabulary();
    let mut frames = Vec::new();
    for msg in &messages {
        write_frame(&mut frames, &msg.to_bytes()).unwrap();
    }
    let want = golden("wire_frames.bin", &frames);

    let mut wire = &want[..];
    for msg in &messages {
        let payload = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(&Message::from_bytes(&payload).unwrap(), msg);
    }
    assert!(read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap().is_none());
    // All 14 tags appear, in order.
    let names: Vec<_> = messages.iter().map(Message::name).collect();
    assert_eq!(names.iter().filter(|n| **n == "welcome").count(), 3);
    let mut distinct = names.clone();
    distinct.dedup();
    assert_eq!(distinct.len(), 14);
}
