//! Session checkpoints: everything a restarted daemon needs to resume a
//! session bitwise.
//!
//! The exported [`MethodState`](netanom_core::MethodState) (the crate-wide `"NAMS"` LE-binary
//! model codec) is necessary but not sufficient for a no-warmup resume:
//! refits read the retained window, the incremental strategy reads the
//! sliding covariance accumulator (whose float accumulation history
//! cannot be reproduced by re-adding window rows), and refit *timing*
//! reads the engine counters. A [`SessionCheckpoint`] therefore
//! serializes the opened configuration, the engine counters, the window
//! rows in arrival order, the queued-but-unprocessed rows, the
//! [`MethodState`](netanom_core::MethodState) bytes, and (when maintained) the exact
//! `IncrementalCovariance` bit patterns — a `core::codec` field sequence
//! behind a `"NASC"` version-1 header (see DESIGN.md, "Binary
//! encodings").
//!
//! [`SessionCheckpoint::save`] writes through [`codec::write_atomic`],
//! so a crash mid-write leaves the previous checkpoint intact.

use std::path::Path;

use netanom_core::codec::{
    self, put_bytes, put_f64, put_f64s, put_u64, put_u8, CodecError, Reader,
};
use netanom_core::RefitStrategy;

use crate::protocol::{ErrorCode, ServeError};

const CHECKPOINT_MAGIC: [u8; 4] = *b"NASC";
const CHECKPOINT_VERSION: u32 = 1;

/// A serialized session: configuration, counters, retained rows, and
/// method state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Registry name of the method.
    pub method: String,
    /// Number of links.
    pub dim: usize,
    /// Training prefix length.
    pub train_bins: usize,
    /// Detection confidence.
    pub confidence: f64,
    /// Refit strategy.
    pub strategy: RefitStrategy,
    /// Refit cadence in arrivals.
    pub refit_every: Option<usize>,
    /// Ring-window capacity.
    pub window_capacity: usize,
    /// Ingest queue capacity.
    pub queue_capacity: usize,
    /// Whether obs lines drain synchronously.
    pub autodrain: bool,
    /// Whether the session had finished training.
    pub streaming: bool,
    /// Engine counter: total arrivals processed.
    pub arrivals_total: usize,
    /// Engine counter: arrivals since the last (re)fit.
    pub arrivals_since_fit: usize,
    /// Engine counter: refits performed.
    pub refits: usize,
    /// Alarms emitted so far (continues the `stats` counters).
    pub alarms: u64,
    /// Rows rejected by the full queue so far.
    pub drops: u64,
    /// Training rows accumulated so far (training phase only).
    pub training_rows: Vec<Vec<f64>>,
    /// Retained window rows, oldest first (streaming phase only).
    pub window_rows: Vec<Vec<f64>>,
    /// Queued-but-unprocessed rows, oldest first.
    pub pending: Vec<Vec<f64>>,
    /// `MethodState::to_bytes` of the fitted backend (streaming only).
    pub state: Option<Vec<u8>>,
    /// `IncrementalCovariance::to_bytes` of the sliding statistics
    /// (subspace method under a statistics-maintaining strategy).
    pub stats: Option<Vec<u8>>,
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::new(ErrorCode::Checkpoint, e.to_string())
    }
}

/// A row table: a `u64` row count, then the rows back to back, each
/// `dim` wide (the width is the checkpoint's `dim` field, not repeated).
fn put_rows(out: &mut Vec<u8>, rows: &[Vec<f64>]) {
    put_u64(out, rows.len() as u64);
    for row in rows {
        put_f64s(out, row);
    }
}

fn rows(r: &mut Reader<'_>, dim: usize) -> Result<Vec<Vec<f64>>, CodecError> {
    let n = r.count()?;
    (0..n).map(|_| r.f64s(dim)).collect()
}

fn optional_bytes(out: &mut Vec<u8>, bytes: &Option<Vec<u8>>) {
    match bytes {
        None => put_u8(out, 0),
        Some(b) => {
            put_u8(out, 1);
            put_bytes(out, b);
        }
    }
}

/// A one-byte flag: 0 or 1, and no other byte.
fn flag(r: &mut Reader<'_>, field: &'static str) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { field, tag }),
    }
}

impl SessionCheckpoint {
    /// Serialize to the `"NASC"` little-endian layout. Every `f64` bit
    /// pattern is preserved exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::header(&mut out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        put_bytes(&mut out, self.method.as_bytes());
        put_u64(&mut out, self.dim as u64);
        put_u64(&mut out, self.train_bins as u64);
        put_f64(&mut out, self.confidence);
        // Fixed-width strategy: tag, k, tol — zeros where unused. (The
        // wire's `Welcome` pins a different, variable-width layout.)
        let (tag, k, tol) = match self.strategy {
            RefitStrategy::FullSvd => (0, 0, 0.0),
            RefitStrategy::Incremental => (1, 0, 0.0),
            RefitStrategy::Truncated { k, tol } => (2, k, tol),
        };
        put_u8(&mut out, tag);
        put_u64(&mut out, k as u64);
        put_f64(&mut out, tol);
        put_u64(&mut out, self.refit_every.unwrap_or(0) as u64);
        put_u64(&mut out, self.window_capacity as u64);
        put_u64(&mut out, self.queue_capacity as u64);
        put_u8(&mut out, self.autodrain as u8);
        put_u8(&mut out, self.streaming as u8);
        put_u64(&mut out, self.arrivals_total as u64);
        put_u64(&mut out, self.arrivals_since_fit as u64);
        put_u64(&mut out, self.refits as u64);
        put_u64(&mut out, self.alarms);
        put_u64(&mut out, self.drops);
        put_rows(&mut out, &self.training_rows);
        put_rows(&mut out, &self.window_rows);
        put_rows(&mut out, &self.pending);
        optional_bytes(&mut out, &self.state);
        optional_bytes(&mut out, &self.stats);
        out
    }

    /// Decode a buffer produced by [`SessionCheckpoint::to_bytes`],
    /// rejecting bad magic/version, truncation, trailing bytes, and any
    /// byte [`SessionCheckpoint::to_bytes`] would not have written: a
    /// flag other than 0 or 1, or truncation parameters under another
    /// strategy's tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(bytes);
        r.expect_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let method = r.str()?;
        let dim = r.u64()? as usize;
        if dim == 0 {
            // No session opens with zero links, and against zero-width
            // rows a row count means nothing: refuse before the tables.
            return Err(ServeError::new(
                ErrorCode::Checkpoint,
                "checkpoint has zero links",
            ));
        }
        let train_bins = r.u64()? as usize;
        let confidence = r.f64()?;
        let (tag, k, tol) = (r.u8()?, r.u64()? as usize, r.f64()?);
        let strategy = match (tag, k, tol.to_bits()) {
            (0, 0, 0) => RefitStrategy::FullSvd,
            (1, 0, 0) => RefitStrategy::Incremental,
            (2, ..) => RefitStrategy::Truncated { k, tol },
            (0 | 1, ..) => {
                return Err(ServeError::new(
                    ErrorCode::Checkpoint,
                    format!("refit-strategy tag {tag} carries k={k} tol={tol:e}"),
                ))
            }
            (tag, ..) => {
                return Err(CodecError::BadTag {
                    field: "refit-strategy",
                    tag,
                }
                .into())
            }
        };
        let cp = SessionCheckpoint {
            method,
            dim,
            train_bins,
            confidence,
            strategy,
            refit_every: match r.u64()? as usize {
                0 => None,
                n => Some(n),
            },
            window_capacity: r.u64()? as usize,
            queue_capacity: r.u64()? as usize,
            autodrain: flag(&mut r, "autodrain")?,
            streaming: flag(&mut r, "streaming")?,
            arrivals_total: r.u64()? as usize,
            arrivals_since_fit: r.u64()? as usize,
            refits: r.u64()? as usize,
            alarms: r.u64()?,
            drops: r.u64()?,
            training_rows: rows(&mut r, dim)?,
            window_rows: rows(&mut r, dim)?,
            pending: rows(&mut r, dim)?,
            state: flag(&mut r, "state")?.then(|| r.bytes()).transpose()?,
            stats: flag(&mut r, "stats")?.then(|| r.bytes()).transpose()?,
        };
        r.finish()?;
        Ok(cp)
    }

    /// Write atomically ([`codec::write_atomic`]); returns the encoded
    /// size.
    pub fn save(&self, path: &Path) -> Result<usize, ServeError> {
        let bytes = self.to_bytes();
        codec::write_atomic(path, &bytes)
            .map_err(|e| ServeError::new(ErrorCode::Checkpoint, e.to_string()))?;
        Ok(bytes.len())
    }

    /// Read and decode a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let bytes = std::fs::read(path).map_err(|e| {
            ServeError::new(
                ErrorCode::Checkpoint,
                format!("reading {}: {e}", path.display()),
            )
        })?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            method: "subspace".to_string(),
            dim: 3,
            train_bins: 10,
            confidence: 0.999,
            strategy: RefitStrategy::Truncated { k: 4, tol: 1e-10 },
            refit_every: Some(5),
            window_capacity: 10,
            queue_capacity: 64,
            autodrain: true,
            streaming: true,
            arrivals_total: 17,
            arrivals_since_fit: 2,
            refits: 3,
            alarms: 1,
            drops: 2,
            training_rows: vec![],
            window_rows: vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.5]],
            pending: vec![vec![7.0, 8.0, 9.0]],
            state: Some(vec![1, 2, 3, 4]),
            stats: Some(vec![9, 9]),
        }
    }

    #[test]
    fn roundtrips_bitwise() {
        let cp = sample();
        let decoded = SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(cp, decoded);
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
            let err = SessionCheckpoint::from_bytes(&bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::Checkpoint);
        }
    }
}
