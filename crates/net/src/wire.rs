//! The tracker/worker message vocabulary and its binary encoding.
//!
//! One [`Message`] per frame; a `u8` tag selects the variant and the
//! body is a fixed little-endian field sequence (see the table in
//! `DESIGN.md`). Model state and covariance statistics ride as opaque
//! byte payloads in their own self-describing encodings
//! ([`netanom_core::MethodState::to_bytes`],
//! [`netanom_core::incremental::CovarianceShard::to_bytes`]) so the frame layer
//! never re-interprets them — what a worker decodes is byte-identical
//! to what the coordinator encoded.

use netanom_core::codec::{
    put_bytes, put_f64, put_f64s, put_matrix, put_str, put_u32, put_u64, put_u8, CodecError, Reader,
};
use netanom_core::RefitStrategy;
use netanom_linalg::Matrix;

use crate::error::Result;

/// What the field-level decoders return; the public `from_bytes`
/// functions convert it into the crate's error kinds.
pub(crate) type Decoded<T> = std::result::Result<T, CodecError>;

/// Everything the tracker and workers say to each other.
///
/// Worker → tracker: [`Message::Join`], [`Message::PhaseA`],
/// [`Message::Exhausted`], [`Message::PhaseB`], [`Message::Stats`],
/// [`Message::WindowSlice`]. Tracker → worker: the rest. Every
/// round-scoped message carries its round number so resends after a
/// rejoin are unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker hello: who it is, what partition it believes in, and how
    /// far it had progressed (both zero on a fresh start; a rejoining
    /// worker reports its checkpoint so the tracker can validate).
    Join {
        /// Shard index in `0..shards`.
        shard: u32,
        /// Total shard count the worker was launched with.
        shards: u32,
        /// Global link count.
        dim: u64,
        /// Ascending global link indices the worker owns.
        links: Vec<u64>,
        /// Training prefix length the worker consumed.
        train_bins: u64,
        /// Rounds the worker has fully applied.
        completed_round: u64,
        /// Streamed rows applied beyond training.
        arrivals: u64,
    },
    /// Tracker accepts a join: current model state, refit strategy, the
    /// resolved per-shard window capacity, and the tracker's completed
    /// round.
    Welcome {
        /// Encoded [`netanom_core::MethodState`] of the current model.
        state: Vec<u8>,
        /// Refit strategy the worker must maintain statistics for.
        strategy: RefitStrategy,
        /// Resolved sliding-window capacity (rows).
        window_capacity: u64,
        /// Rounds the tracker has finalized.
        round: u64,
    },
    /// Tracker refuses a join.
    Reject {
        /// Why.
        reason: String,
    },
    /// Tracker asks for phase A of round `round` over the next `take`
    /// rows of the worker's feed.
    RunBlock {
        /// Round number (1-based; round `n` requires `completed == n-1`).
        round: u64,
        /// Rows to read (the worker may return fewer at end of feed).
        take: u64,
    },
    /// Worker's phase-A reply: how many rows it actually read and the
    /// partial projection coefficients.
    PhaseA {
        /// Round number echoed.
        round: u64,
        /// Rows read (≤ the requested take, > 0).
        rows: u64,
        /// Partial coefficients (`rows × r`).
        coeffs: Matrix,
    },
    /// Worker's phase-A reply when its feed is exhausted.
    Exhausted {
        /// Round number echoed.
        round: u64,
    },
    /// Tracker broadcasts the merged global coefficients for phase B.
    Merged {
        /// Round number.
        round: u64,
        /// Merged coefficients (`rows × r`).
        coeffs: Matrix,
    },
    /// Worker's phase-B reply: partial scores and its residual slice.
    PhaseB {
        /// Round number echoed.
        round: u64,
        /// Partial SPE contributions, one per row.
        scores: Vec<f64>,
        /// Residual column slice (`rows × m_s`).
        residual: Matrix,
    },
    /// Tracker asks for the worker's refit inputs.
    StatsRequest {
        /// Round number the refit follows.
        round: u64,
    },
    /// Worker's refit input under statistics-maintaining strategies.
    Stats {
        /// Round number echoed.
        round: u64,
        /// Encoded [`netanom_core::incremental::CovarianceShard`].
        bytes: Vec<u8>,
    },
    /// Worker's refit input under [`RefitStrategy::FullSvd`]: its window's
    /// column slice in arrival order.
    WindowSlice {
        /// Round number echoed.
        round: u64,
        /// Window column slice (`len × m_s`).
        slice: Matrix,
    },
    /// Tracker broadcasts the refitted model.
    Model {
        /// Round number the refit followed.
        round: u64,
        /// Encoded [`netanom_core::MethodState`].
        state: Vec<u8>,
    },
    /// Tracker announces the end of the stream.
    Done {
        /// Total streamed rows diagnosed.
        arrivals: u64,
    },
    /// Tracker announces an unrecoverable error; workers exit.
    Fatal {
        /// Why.
        reason: String,
    },
}

/// The wire layout of a strategy: a tag byte, and `k`/`tol` only behind
/// the truncated tag. (The `NASC` checkpoint pins a different, fixed-width
/// layout of the same enum.)
fn put_strategy(out: &mut Vec<u8>, s: RefitStrategy) {
    match s {
        RefitStrategy::FullSvd => put_u8(out, 0),
        RefitStrategy::Incremental => put_u8(out, 1),
        RefitStrategy::Truncated { k, tol } => {
            put_u8(out, 2);
            put_u64(out, k as u64);
            put_f64(out, tol);
        }
    }
}

fn strategy(r: &mut Reader<'_>) -> Decoded<RefitStrategy> {
    match r.u8()? {
        0 => Ok(RefitStrategy::FullSvd),
        1 => Ok(RefitStrategy::Incremental),
        2 => Ok(RefitStrategy::Truncated {
            k: r.u64()? as usize,
            tol: r.f64()?,
        }),
        tag => Err(CodecError::BadTag {
            field: "strategy",
            tag,
        }),
    }
}

/// A `u64` count and that many `f64`s.
pub(crate) fn counted_f64s(r: &mut Reader<'_>) -> Decoded<Vec<f64>> {
    let n = r.count()?;
    r.f64s(n)
}

/// A `u64` count and that many `u64`s.
pub(crate) fn counted_u64s(r: &mut Reader<'_>) -> Decoded<Vec<u64>> {
    let n = r.count()?;
    r.u64s(n)
}

impl Message {
    /// Short name for protocol-error reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Join { .. } => "join",
            Message::Welcome { .. } => "welcome",
            Message::Reject { .. } => "reject",
            Message::RunBlock { .. } => "run-block",
            Message::PhaseA { .. } => "phase-a",
            Message::Exhausted { .. } => "exhausted",
            Message::Merged { .. } => "merged",
            Message::PhaseB { .. } => "phase-b",
            Message::StatsRequest { .. } => "stats-request",
            Message::Stats { .. } => "stats",
            Message::WindowSlice { .. } => "window-slice",
            Message::Model { .. } => "model",
            Message::Done { .. } => "done",
            Message::Fatal { .. } => "fatal",
        }
    }

    /// Encode to one frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Join {
                shard,
                shards,
                dim,
                links,
                train_bins,
                completed_round,
                arrivals,
            } => {
                put_u8(&mut out, 0);
                put_u32(&mut out, *shard);
                put_u32(&mut out, *shards);
                put_u64(&mut out, *dim);
                put_u64(&mut out, links.len() as u64);
                for &l in links {
                    put_u64(&mut out, l);
                }
                put_u64(&mut out, *train_bins);
                put_u64(&mut out, *completed_round);
                put_u64(&mut out, *arrivals);
            }
            Message::Welcome {
                state,
                strategy,
                window_capacity,
                round,
            } => {
                put_u8(&mut out, 1);
                put_bytes(&mut out, state);
                put_strategy(&mut out, *strategy);
                put_u64(&mut out, *window_capacity);
                put_u64(&mut out, *round);
            }
            Message::Reject { reason } => {
                put_u8(&mut out, 2);
                put_str(&mut out, reason);
            }
            Message::RunBlock { round, take } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *round);
                put_u64(&mut out, *take);
            }
            Message::PhaseA {
                round,
                rows,
                coeffs,
            } => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *round);
                put_u64(&mut out, *rows);
                put_matrix(&mut out, coeffs);
            }
            Message::Exhausted { round } => {
                put_u8(&mut out, 5);
                put_u64(&mut out, *round);
            }
            Message::Merged { round, coeffs } => {
                put_u8(&mut out, 6);
                put_u64(&mut out, *round);
                put_matrix(&mut out, coeffs);
            }
            Message::PhaseB {
                round,
                scores,
                residual,
            } => {
                put_u8(&mut out, 7);
                put_u64(&mut out, *round);
                put_u64(&mut out, scores.len() as u64);
                put_f64s(&mut out, scores);
                put_matrix(&mut out, residual);
            }
            Message::StatsRequest { round } => {
                put_u8(&mut out, 8);
                put_u64(&mut out, *round);
            }
            Message::Stats { round, bytes } => {
                put_u8(&mut out, 9);
                put_u64(&mut out, *round);
                put_bytes(&mut out, bytes);
            }
            Message::WindowSlice { round, slice } => {
                put_u8(&mut out, 10);
                put_u64(&mut out, *round);
                put_matrix(&mut out, slice);
            }
            Message::Model { round, state } => {
                put_u8(&mut out, 11);
                put_u64(&mut out, *round);
                put_bytes(&mut out, state);
            }
            Message::Done { arrivals } => {
                put_u8(&mut out, 12);
                put_u64(&mut out, *arrivals);
            }
            Message::Fatal { reason } => {
                put_u8(&mut out, 13);
                put_str(&mut out, reason);
            }
        }
        out
    }

    /// Decode one frame payload; rejects unknown tags, truncation, and
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(Self::decode(bytes)?)
    }

    fn decode(bytes: &[u8]) -> Decoded<Self> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            0 => Message::Join {
                shard: r.u32()?,
                shards: r.u32()?,
                dim: r.u64()?,
                links: counted_u64s(&mut r)?,
                train_bins: r.u64()?,
                completed_round: r.u64()?,
                arrivals: r.u64()?,
            },
            1 => Message::Welcome {
                state: r.bytes()?,
                strategy: strategy(&mut r)?,
                window_capacity: r.u64()?,
                round: r.u64()?,
            },
            2 => Message::Reject { reason: r.str()? },
            3 => Message::RunBlock {
                round: r.u64()?,
                take: r.u64()?,
            },
            4 => Message::PhaseA {
                round: r.u64()?,
                rows: r.u64()?,
                coeffs: r.matrix()?,
            },
            5 => Message::Exhausted { round: r.u64()? },
            6 => Message::Merged {
                round: r.u64()?,
                coeffs: r.matrix()?,
            },
            7 => Message::PhaseB {
                round: r.u64()?,
                scores: counted_f64s(&mut r)?,
                residual: r.matrix()?,
            },
            8 => Message::StatsRequest { round: r.u64()? },
            9 => Message::Stats {
                round: r.u64()?,
                bytes: r.bytes()?,
            },
            10 => Message::WindowSlice {
                round: r.u64()?,
                slice: r.matrix()?,
            },
            11 => Message::Model {
                round: r.u64()?,
                state: r.bytes()?,
            },
            12 => Message::Done { arrivals: r.u64()? },
            13 => Message::Fatal { reason: r.str()? },
            tag => {
                return Err(CodecError::BadTag {
                    field: "message",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}
