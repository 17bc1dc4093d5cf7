//! Property tests for the u64-length-prefixed frame codec: round-trips
//! through in-memory duplexes under arbitrary payloads, write
//! splitting, and read coalescing; enforced maximum frame size; and
//! exact severed-stream classification at every cut point.

use std::io::{self, Read, Write};

use netanom_core::RefitStrategy;
use netanom_linalg::Matrix;
use netanom_net::{read_frame, write_frame, FailureKind, Message, NetError};
use proptest::prelude::*;

/// A reader that serves a byte buffer in chunks of at most
/// `chunk` bytes per `read` call — models a TCP stack delivering a
/// frame across many segments (and, dually, coalescing many writes
/// into one buffered stream).
struct ChunkedReader {
    data: Vec<u8>,
    at: usize,
    chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunk: usize) -> Self {
        ChunkedReader {
            data,
            at: 0,
            chunk: chunk.max(1),
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// A writer that accepts at most `chunk` bytes per `write` call, so
/// `write_all` inside the codec must loop over split writes.
struct ChunkedWriter {
    data: Vec<u8>,
    chunk: usize,
}

impl ChunkedWriter {
    fn new(chunk: usize) -> Self {
        ChunkedWriter {
            data: Vec::new(),
            chunk: chunk.max(1),
        }
    }
}

impl Write for ChunkedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.data.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const MAX: u64 = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payload sequences (zero-length included) survive the
    /// codec bitwise through split writes and coalesced chunked reads.
    #[test]
    fn payloads_roundtrip_through_split_and_coalesced_io(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..200),
            1..8,
        ),
        write_chunk in 1usize..16,
        read_chunk in 1usize..16,
    ) {
        let mut w = ChunkedWriter::new(write_chunk);
        for p in &payloads {
            write_frame(&mut w, p).unwrap();
        }
        let mut r = ChunkedReader::new(w.data, read_chunk);
        for p in &payloads {
            let got = read_frame(&mut r, MAX).unwrap();
            prop_assert_eq!(got.as_deref(), Some(&p[..]));
        }
        // Clean EOF exactly at the boundary after the last frame.
        prop_assert!(read_frame(&mut r, MAX).unwrap().is_none());
    }

    /// Cutting the stream at any byte offset inside a frame is
    /// classified as a mid-frame sever with exact byte counts; a cut at
    /// a frame boundary is a clean EOF.
    #[test]
    fn every_cut_point_is_classified_exactly(
        payload in proptest::collection::vec(0u8..=255, 0..60),
        read_chunk in 1usize..8,
    ) {
        let mut w = ChunkedWriter::new(usize::MAX);
        write_frame(&mut w, &payload).unwrap();
        let full = w.data;
        let total = full.len();
        for cut in 0..=total {
            let mut r = ChunkedReader::new(full[..cut].to_vec(), read_chunk);
            let result = read_frame(&mut r, MAX);
            if cut == 0 {
                prop_assert!(result.unwrap().is_none());
            } else if cut == total {
                prop_assert_eq!(result.unwrap().as_deref(), Some(&payload[..]));
            } else {
                // A cut inside the 8-byte prefix reports the prefix as
                // the expectation (the frame size is unknown until the
                // prefix decodes); beyond it, the full frame size.
                let want_expected = if cut < 8 { 8 } else { total };
                match result {
                    Err(NetError::SeveredMidFrame { got, expected }) => {
                        prop_assert_eq!(got, cut);
                        prop_assert_eq!(expected, want_expected);
                    }
                    other => prop_assert!(
                        false,
                        "cut at {}/{} gave {:?}",
                        cut,
                        total,
                        other.map(|p| p.map(|b| b.len()))
                    ),
                }
            }
        }
    }

    /// A length prefix above the maximum errors (no panic, no hang, no
    /// allocation of the claimed size), whatever follows the prefix.
    #[test]
    fn oversized_frames_error_before_allocation(
        excess in 1u64..=u64::MAX / 2,
        junk in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let len = MAX + excess;
        let mut data = len.to_le_bytes().to_vec();
        data.extend_from_slice(&junk);
        let mut r = ChunkedReader::new(data, 8);
        match read_frame(&mut r, MAX) {
            Err(NetError::FrameTooLarge { len: got, max }) => {
                prop_assert_eq!(got, len);
                prop_assert_eq!(max, MAX);
            }
            other => prop_assert!(false, "got {:?}", other.map(|p| p.map(|b| b.len()))),
        }
    }
}

#[test]
fn zero_length_frame_roundtrips() {
    let mut w = ChunkedWriter::new(3);
    write_frame(&mut w, &[]).unwrap();
    assert_eq!(w.data.len(), 8);
    let mut r = ChunkedReader::new(w.data, 1);
    assert_eq!(read_frame(&mut r, MAX).unwrap().as_deref(), Some(&[][..]));
    assert!(read_frame(&mut r, MAX).unwrap().is_none());
}

#[test]
fn failure_kinds_classify_the_taxonomy() {
    assert_eq!(NetError::CleanDisconnect.kind(), FailureKind::CleanEof);
    assert_eq!(
        NetError::SeveredMidFrame {
            got: 3,
            expected: 9
        }
        .kind(),
        FailureKind::SeveredMidFrame
    );
    assert_eq!(
        NetError::FrameTooLarge { len: 10, max: 5 }.kind(),
        FailureKind::FrameTooLarge
    );
    assert_eq!(
        NetError::Timeout { during: "x" }.kind(),
        FailureKind::Timeout
    );
    // Socket timeouts classify as timeouts on both Unix and Windows.
    for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
        assert_eq!(
            NetError::from(io::Error::new(kind, "t")).kind(),
            FailureKind::Timeout
        );
    }
    assert_eq!(
        NetError::from(io::Error::new(io::ErrorKind::ConnectionReset, "r")).kind(),
        FailureKind::Io
    );
}

/// Every message variant survives its binary encoding exactly.
#[test]
fn message_vocabulary_roundtrips() {
    let coeffs = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5 - 1.0);
    let residual = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 6.0);
    let messages = vec![
        Message::Join {
            shard: 1,
            shards: 4,
            dim: 12,
            links: vec![1, 5, 9],
            train_bins: 288,
            completed_round: 7,
            arrivals: 84,
        },
        Message::Welcome {
            state: vec![1, 2, 3],
            strategy: RefitStrategy::Truncated { k: 6, tol: 1e-10 },
            window_capacity: 288,
            round: 7,
        },
        Message::Welcome {
            state: vec![],
            strategy: RefitStrategy::FullSvd,
            window_capacity: 1,
            round: 0,
        },
        Message::Reject {
            reason: "shard 9 out of range".into(),
        },
        Message::RunBlock { round: 8, take: 12 },
        Message::PhaseA {
            round: 8,
            rows: 3,
            coeffs: coeffs.clone(),
        },
        Message::Exhausted { round: 9 },
        Message::Merged { round: 8, coeffs },
        Message::PhaseB {
            round: 8,
            scores: vec![0.25, -1.5, 3.0],
            residual,
        },
        Message::StatsRequest { round: 8 },
        Message::Stats {
            round: 8,
            bytes: vec![9; 40],
        },
        Message::WindowSlice {
            round: 8,
            slice: Matrix::zeros(2, 3),
        },
        Message::Model {
            round: 8,
            state: vec![4, 5, 6],
        },
        Message::Done { arrivals: 96 },
        Message::Fatal {
            reason: "feeds disagree".into(),
        },
    ];
    for msg in messages {
        let bytes = msg.to_bytes();
        assert_eq!(Message::from_bytes(&bytes).unwrap(), msg, "{}", msg.name());
        // Truncation never panics.
        for cut in 0..bytes.len() {
            assert!(
                Message::from_bytes(&bytes[..cut]).is_err(),
                "{} decodes from a {cut}-byte prefix",
                msg.name()
            );
        }
        // Trailing bytes are rejected.
        let mut padded = bytes;
        padded.push(0);
        assert!(Message::from_bytes(&padded).is_err());
    }
    assert!(Message::from_bytes(&[200]).is_err());
}
