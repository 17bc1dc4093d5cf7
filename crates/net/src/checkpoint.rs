//! Worker checkpoint/resume.
//!
//! A worker checkpoints at every round boundary (after applying phase B,
//! before replying), so a killed worker restarted from its checkpoint
//! rejoins without re-running warmup — and without double-applying
//! anything: the checkpoint carries the round's cached phase A/B
//! replies, so when the tracker re-requests the round the restarted
//! worker *replays* the cached bytes instead of recomputing, which is
//! what makes kill-and-rejoin runs bitwise identical to never-killed
//! runs.
//!
//! Saves go through [`codec::write_atomic`] so a crash mid-save leaves
//! the previous checkpoint intact. The file format is a `core::codec`
//! field sequence behind a `"NACK"` header (see DESIGN.md, "Binary
//! encodings"); the model state and statistics ride in their own
//! self-describing encodings, untouched.

use std::fs;
use std::path::Path;

use netanom_core::codec::{
    self, put_bytes, put_f64s, put_matrix, put_u32, put_u64, put_u8, CodecError, Reader,
};
use netanom_linalg::Matrix;

use crate::error::{NetError, Result};
use crate::wire::{counted_f64s, counted_u64s, Decoded};

const CHECKPOINT_MAGIC: [u8; 4] = *b"NACK";
const CHECKPOINT_VERSION: u32 = 1;

/// Cached wire replies for the most recently completed round, replayed
/// verbatim when the tracker re-requests the round after a rejoin.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCache {
    /// The completed round the cache belongs to.
    pub round: u64,
    /// Rows the round processed.
    pub rows: u64,
    /// Phase-A partial coefficients (`rows × r`).
    pub coeffs: Matrix,
    /// Phase-B partial scores.
    pub scores: Vec<f64>,
    /// Phase-B residual slice (`rows × m_s`).
    pub residual: Matrix,
}

/// Everything a restarted worker needs to rejoin mid-stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Shard index.
    pub shard: u32,
    /// Total shard count.
    pub shards: u32,
    /// Global link count `m`.
    pub dim: u64,
    /// Ascending global link indices the shard owns.
    pub links: Vec<usize>,
    /// Training prefix length consumed.
    pub train_bins: u64,
    /// Rounds fully applied.
    pub completed_round: u64,
    /// Streamed rows applied beyond training.
    pub arrivals: u64,
    /// Encoded [`netanom_core::MethodState`] at checkpoint time. May be
    /// stale relative to the tracker (a refit's model broadcast lands
    /// *after* the round completes); the worker always installs the
    /// fresher state from the rejoin `Welcome`.
    pub state: Vec<u8>,
    /// Encoded [`netanom_core::incremental::CovarianceShard`] under
    /// statistics-maintaining strategies.
    pub stats: Option<Vec<u8>>,
    /// Resolved sliding-window capacity (rows).
    pub window_capacity: u64,
    /// The full-width retained window (`len × m`, arrival order).
    pub window: Matrix,
    /// Cached replies for `completed_round`.
    pub cache: Option<RoundCache>,
}

impl Checkpoint {
    /// Encode to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::header(&mut out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        put_u32(&mut out, self.shard);
        put_u32(&mut out, self.shards);
        put_u64(&mut out, self.dim);
        put_u64(&mut out, self.links.len() as u64);
        for &l in &self.links {
            put_u64(&mut out, l as u64);
        }
        put_u64(&mut out, self.train_bins);
        put_u64(&mut out, self.completed_round);
        put_u64(&mut out, self.arrivals);
        put_bytes(&mut out, &self.state);
        match &self.stats {
            None => put_u8(&mut out, 0),
            Some(bytes) => {
                put_u8(&mut out, 1);
                put_bytes(&mut out, bytes);
            }
        }
        put_u64(&mut out, self.window_capacity);
        put_matrix(&mut out, &self.window);
        match &self.cache {
            None => put_u8(&mut out, 0),
            Some(cache) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, cache.round);
                put_u64(&mut out, cache.rows);
                put_matrix(&mut out, &cache.coeffs);
                put_u64(&mut out, cache.scores.len() as u64);
                put_f64s(&mut out, &cache.scores);
                put_matrix(&mut out, &cache.residual);
            }
        }
        out
    }

    /// Decode from bytes; rejects bad magic/version, truncation, and
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode(bytes).map_err(|e| NetError::Checkpoint {
            reason: e.to_string(),
        })
    }

    fn decode(bytes: &[u8]) -> Decoded<Self> {
        let mut r = Reader::new(bytes);
        r.expect_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let ckpt = Checkpoint {
            shard: r.u32()?,
            shards: r.u32()?,
            dim: r.u64()?,
            links: counted_u64s(&mut r)?
                .into_iter()
                .map(|l| l as usize)
                .collect(),
            train_bins: r.u64()?,
            completed_round: r.u64()?,
            arrivals: r.u64()?,
            state: r.bytes()?,
            stats: match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                tag => {
                    return Err(CodecError::BadTag {
                        field: "statistics",
                        tag,
                    })
                }
            },
            window_capacity: r.u64()?,
            window: r.matrix()?,
            cache: match r.u8()? {
                0 => None,
                1 => Some(RoundCache {
                    round: r.u64()?,
                    rows: r.u64()?,
                    coeffs: r.matrix()?,
                    scores: counted_f64s(&mut r)?,
                    residual: r.matrix()?,
                }),
                tag => {
                    return Err(CodecError::BadTag {
                        field: "round-cache",
                        tag,
                    })
                }
            },
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// Atomically persist to `path` ([`codec::write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<()> {
        codec::write_atomic(path, &self.to_bytes()).map_err(|e| NetError::Checkpoint {
            reason: e.to_string(),
        })
    }

    /// Load and validate from `path`.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = fs::read(path).map_err(|e| NetError::Checkpoint {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            shard: 1,
            shards: 2,
            dim: 4,
            links: vec![1, 3],
            train_bins: 120,
            completed_round: 7,
            arrivals: 84,
            state: vec![9, 8, 7],
            stats: Some(vec![1, 2, 3, 4]),
            window_capacity: 120,
            window: Matrix::from_fn(5, 4, |i, j| (i * 4 + j) as f64 * 0.5),
            cache: Some(RoundCache {
                round: 7,
                rows: 12,
                coeffs: Matrix::from_fn(12, 2, |i, j| (i + j) as f64),
                scores: (0..12).map(|i| i as f64 * 1.25).collect(),
                residual: Matrix::from_fn(12, 2, |i, j| (i * 2 + j) as f64 - 3.0),
            }),
        }
    }

    #[test]
    fn roundtrips_bitwise() {
        let ckpt = sample();
        let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded, ckpt);
        // None branches too.
        let bare = Checkpoint {
            stats: None,
            cache: None,
            ..ckpt
        };
        assert_eq!(Checkpoint::from_bytes(&bare.to_bytes()).unwrap(), bare);
    }

    /// Truncation, trailing bytes and lying counts are the shared
    /// hostile-input suite's (`tests/codec_hostile.rs`); this pins that
    /// a foreign header is refused *as a checkpoint error*.
    #[test]
    fn rejects_a_foreign_header_as_a_checkpoint_error() {
        let bytes = sample().to_bytes();
        for (at, byte) in [(0, b'X'), (4, 99)] {
            let mut bad = bytes.clone();
            bad[at] = byte;
            assert!(matches!(
                Checkpoint::from_bytes(&bad),
                Err(NetError::Checkpoint { .. })
            ));
        }
    }
}
