//! The worker side of distributed diagnosis.
//!
//! A worker owns one shard of the link partition, reads its measurement
//! stream locally (tracker requests dictate the row cadence, so every
//! worker stays on the same bin), and runs the exact
//! [`SubspaceShard`] phase A/B the in-process
//! [`ShardedEngine`](netanom_core::ShardedEngine) runs, over one
//! full-width [`RingWindow`] slid by the same
//! [`RingWindow::evictions`] — one code path, so distributed detections
//! are bitwise identical by construction.
//!
//! What a tracker or a checkpoint hands the worker is checked before it
//! is used: a model state not `dim` links wide, a zero window capacity,
//! merged coefficients of the wrong shape, or a checkpoint window of the
//! wrong width is a typed error, never a panic.
//!
//! Robustness is a state machine, not an afterthought:
//!
//! * every round-scoped request carries its round number, and the
//!   worker caches its replies for the in-flight and most recently
//!   completed rounds, so a re-request after a reconnect *replays*
//!   cached bytes instead of recomputing (phase B advances sliding
//!   statistics — applying it twice would corrupt them);
//! * on a connection fault the worker reconnects with bounded
//!   retry/backoff, re-joins with its progress counters, and installs
//!   the model state the tracker's `Welcome` carries (which may be
//!   fresher than local state if a refit broadcast was missed);
//! * with a checkpoint path configured, every completed round is
//!   atomically persisted, so a *killed* worker process restarted from
//!   the checkpoint rejoins without warmup and without drift.

use std::io::BufRead;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use netanom_core::incremental::CovarianceShard;
use netanom_core::{
    subspace_model_from_state, MethodState, RefitStrategy, RingWindow, SubspaceModel,
    SubspacePartial, SubspaceShard,
};
use netanom_linalg::Matrix;
use netanom_traffic::io::CsvChunks;

use crate::checkpoint::{Checkpoint, RoundCache};
use crate::error::{NetError, Result};
use crate::frame::{FramedConn, DEFAULT_MAX_FRAME};
use crate::wire::Message;

/// Test-only faults a worker can be launched with, exercised by the
/// fault-injection suite. Both complete (and checkpoint) the given
/// round first, so a restarted worker resumes from a real mid-stream
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// After completing round `n`: send the phase-B reply, half-close
    /// the socket, and exit. The tracker's next read sees a clean EOF
    /// at a frame boundary.
    DropAfterRounds(u64),
    /// After completing round `n`: instead of the phase-B reply, write
    /// a *partial* frame (a length prefix promising more bytes than
    /// follow), half-close, and exit. The tracker's read is cut
    /// mid-frame.
    SeverMidFrameAfterRounds(u64),
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// Training prefix length (rows) to consume before joining.
    pub train_bins: usize,
    /// Per-attempt TCP connect deadline.
    pub connect_timeout: Duration,
    /// Socket read deadline (a tracker silent for longer is treated as
    /// a connection fault).
    pub read_timeout: Duration,
    /// Connection attempts per (re)connect episode.
    pub retries: usize,
    /// Base backoff between attempts (doubles per attempt).
    pub backoff: Duration,
    /// Maximum frame payload accepted.
    pub max_frame: u64,
    /// Checkpoint path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Test-only injected fault.
    pub fault: Option<InjectedFault>,
}

impl WorkerConfig {
    /// Defaults for shard `shard` of `shards` with a `train_bins`
    /// training prefix.
    pub fn new(shard: usize, shards: usize, train_bins: usize) -> Self {
        WorkerConfig {
            shard,
            shards,
            train_bins,
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            retries: 10,
            backoff: Duration::from_millis(50),
            max_frame: DEFAULT_MAX_FRAME,
            checkpoint: None,
            fault: None,
        }
    }
}

/// What a worker did over its run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Rounds fully applied.
    pub rounds: u64,
    /// Streamed rows applied beyond training.
    pub arrivals: u64,
    /// Successful reconnects after connection faults.
    pub rejoins: usize,
}

/// Phase-A result held for the in-flight round (computed on request,
/// applied on `Merged`, replayed verbatim on re-request).
#[derive(Debug)]
enum PendingA {
    Rows {
        block: Matrix,
        partial: SubspacePartial,
    },
    Exhausted,
}

/// Live worker state between messages.
struct WorkerState {
    shard: SubspaceShard,
    window: RingWindow,
    window_capacity: usize,
    state_bytes: Vec<u8>,
    completed: u64,
    arrivals: u64,
    pending: Option<PendingA>,
    cache: Option<RoundCache>,
    rejoins: usize,
}

fn connect(addr: &str, cfg: &WorkerConfig) -> Result<FramedConn<TcpStream>> {
    let mut last: Option<NetError> = None;
    for attempt in 0..cfg.retries.max(1) {
        if attempt > 0 {
            thread::sleep(cfg.backoff * (1 << attempt.min(6)) as u32);
        }
        let target = match addr.to_socket_addrs().map(|mut a| a.next()) {
            Ok(Some(t)) => t,
            Ok(None) => {
                return Err(NetError::Protocol {
                    reason: format!("address {addr} resolves to nothing"),
                })
            }
            Err(e) => return Err(NetError::Io(e)),
        };
        match TcpStream::connect_timeout(&target, cfg.connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(cfg.read_timeout))?;
                return Ok(FramedConn::new(stream, cfg.max_frame));
            }
            Err(e) => last = Some(e.into()),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// A completed join handshake: the live connection plus the `Welcome`
/// fields the tracker answered with.
struct Joined {
    conn: FramedConn<TcpStream>,
    state: Vec<u8>,
    strategy: RefitStrategy,
    window_capacity: u64,
}

/// Connect and complete the join handshake.
fn join(
    addr: &str,
    links: &[usize],
    dim: usize,
    completed: u64,
    arrivals: u64,
    cfg: &WorkerConfig,
) -> Result<Joined> {
    let mut conn = connect(addr, cfg)?;
    conn.send(&Message::Join {
        shard: cfg.shard as u32,
        shards: cfg.shards as u32,
        dim: dim as u64,
        links: links.iter().map(|&l| l as u64).collect(),
        train_bins: cfg.train_bins as u64,
        completed_round: completed,
        arrivals,
    })?;
    match conn.recv()? {
        Message::Welcome {
            state,
            strategy,
            window_capacity,
            round: _,
        } => Ok(Joined {
            conn,
            state,
            strategy,
            window_capacity,
        }),
        Message::Reject { reason } => Err(NetError::Rejected { reason }),
        other => Err(NetError::Protocol {
            reason: format!("expected welcome, got {}", other.name()),
        }),
    }
}

/// Reconnect after a connection fault and re-install the model the
/// tracker currently holds (it may have refitted while we were away).
fn rejoin(
    addr: &str,
    links: &[usize],
    dim: usize,
    st: &mut WorkerState,
    cfg: &WorkerConfig,
) -> Result<FramedConn<TcpStream>> {
    let joined = join(addr, links, dim, st.completed, st.arrivals, cfg)?;
    install_state(&mut st.shard, links, dim, &joined.state)?;
    st.state_bytes = joined.state;
    st.rejoins += 1;
    Ok(joined.conn)
}

/// Decode a tracker's model state, refusing one that is not `dim` links
/// wide.
fn decode_model(state: &[u8], dim: usize) -> Result<SubspaceModel> {
    let (model, _confidence) = subspace_model_from_state(&MethodState::from_bytes(state)?)?;
    if model.dim() != dim {
        return Err(NetError::Protocol {
            reason: format!(
                "tracker's model covers {} links, the feed {dim}",
                model.dim()
            ),
        });
    }
    Ok(model)
}

fn install_state(
    shard: &mut SubspaceShard,
    links: &[usize],
    dim: usize,
    state: &[u8],
) -> Result<()> {
    Ok(shard.install_model(&decode_model(state, dim)?, links)?)
}

fn write_checkpoint(
    st: &WorkerState,
    links: &[usize],
    dim: usize,
    cfg: &WorkerConfig,
) -> Result<()> {
    let Some(path) = &cfg.checkpoint else {
        return Ok(());
    };
    Checkpoint {
        shard: cfg.shard as u32,
        shards: cfg.shards as u32,
        dim: dim as u64,
        links: links.to_vec(),
        train_bins: cfg.train_bins as u64,
        completed_round: st.completed,
        arrivals: st.arrivals,
        state: st.state_bytes.clone(),
        stats: st.shard.stats().map(|s| s.to_bytes()),
        window_capacity: st.window_capacity as u64,
        window: st.window.to_matrix(),
        cache: st.cache.clone(),
    }
    .save(path)
}

/// Half-close the socket so the tracker's pending read observes an EOF
/// (clean or mid-frame depending on what was written last), without
/// racing an RST from a full close.
fn half_close(conn: &FramedConn<TcpStream>) {
    let _ = conn.stream().shutdown(Shutdown::Write);
}

/// After an injected fault's half-close, wait for the tracker to drop
/// its end so the process exit cannot race the tracker's read.
fn drain_until_eof(conn: &mut FramedConn<TcpStream>) {
    for _ in 0..1000 {
        match conn.recv_raw() {
            Ok(Some(_)) => continue,
            _ => return,
        }
    }
}

/// Run one worker to completion: consume the training prefix (or
/// resume from the checkpoint), join the tracker at `addr`, and serve
/// rounds until `Done`.
///
/// `rows` is the worker's local copy of the full-width measurement
/// series; the tracker's `RunBlock` requests say how many rows each
/// round reads. `links` is the ascending global link set this shard
/// owns — it must match the tracker's partition or the join is
/// rejected.
pub fn run_worker<R: BufRead>(
    addr: &str,
    mut rows: CsvChunks<R>,
    links: &[usize],
    cfg: &WorkerConfig,
) -> Result<WorkerSummary> {
    let dim = rows.num_links();

    // Bootstrap: fresh training read, or checkpoint resume.
    let resumed: Option<Checkpoint> = match &cfg.checkpoint {
        Some(path) if path.exists() => Some(Checkpoint::load(path)?),
        _ => None,
    };
    let (training, resumed) = match resumed {
        Some(ckpt) => {
            let stats = validate_checkpoint(&ckpt, links, dim, cfg)?;
            // Skip the training prefix and the arrivals already applied.
            let mut left = cfg.train_bins + ckpt.arrivals as usize;
            while left > 0 {
                let Some(block) = rows.take_up_to(left)? else {
                    return Err(NetError::Checkpoint {
                        reason: format!("feed ended {left} rows before the checkpoint position"),
                    });
                };
                left -= block.rows();
            }
            (None, Some((ckpt, stats)))
        }
        None => (Some(rows.take_rows(cfg.train_bins)?), None),
    };

    let (completed, arrivals) = resumed
        .as_ref()
        .map_or((0, 0), |(c, _)| (c.completed_round, c.arrivals));
    let Joined {
        mut conn,
        state,
        strategy,
        window_capacity,
    } = join(addr, links, dim, completed, arrivals, cfg)?;
    if window_capacity == 0 {
        return Err(NetError::Protocol {
            reason: "tracker's window capacity is 0 rows".into(),
        });
    }
    let capacity = window_capacity as usize;

    // A fresh start and a checkpoint resume differ only in where the
    // statistics rows, the retained window rows and the reply cache
    // come from.
    let (stats, retained, cache) = match resumed {
        None => {
            let training = training.expect("fresh start read the training prefix");
            let stats = if strategy.maintains_statistics() {
                let mut acc = CovarianceShard::new(dim, links)?;
                for t in 0..training.rows() {
                    acc.add(training.row(t))?;
                }
                Some(acc)
            } else {
                None
            };
            (stats, training, None)
        }
        Some((ckpt, stats)) => {
            if ckpt.window_capacity as usize != capacity {
                return Err(NetError::Checkpoint {
                    reason: format!(
                        "checkpoint window capacity {} vs tracker's {capacity}",
                        ckpt.window_capacity
                    ),
                });
            }
            if stats.is_some() != strategy.maintains_statistics() {
                return Err(NetError::Checkpoint {
                    reason: "checkpoint statistics disagree with the tracker's refit strategy"
                        .into(),
                });
            }
            (stats, ckpt.window, ckpt.cache)
        }
    };
    let model = decode_model(&state, dim)?;
    // Pushing every row leaves the most recent `capacity` of them.
    let mut window = RingWindow::new(capacity, dim);
    for t in 0..retained.rows() {
        window.push(retained.row(t));
    }
    let mut st = WorkerState {
        shard: SubspaceShard::from_model(&model, links, stats)?,
        window,
        window_capacity: capacity,
        state_bytes: state,
        completed,
        arrivals,
        pending: None,
        cache,
        rejoins: 0,
    };

    // Serve rounds until Done (or an unrecoverable error).
    loop {
        let msg = match conn.recv() {
            Ok(msg) => msg,
            Err(e) if e.is_connection_fault() => {
                conn = rejoin(addr, links, dim, &mut st, cfg)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        let reply = match dispatch(&mut rows, &mut st, links, dim, cfg, msg)? {
            Dispatch::Reply(reply) => reply,
            Dispatch::Quiet => continue,
            Dispatch::Finished(arrivals) => {
                debug_assert_eq!(arrivals, st.arrivals);
                return Ok(WorkerSummary {
                    rounds: st.completed,
                    arrivals: st.arrivals,
                    rejoins: st.rejoins,
                });
            }
        };

        // Injected faults fire after a round completes, instead of the
        // normal reply path.
        if let Some(fault) = cfg.fault {
            if fire_fault(fault, &mut conn, &st, &reply)? {
                unreachable!("fire_fault always errors when it fires");
            }
        }

        match conn.send(&reply) {
            Ok(()) => {}
            Err(e) if e.is_connection_fault() => {
                // The tracker will re-request whatever this reply
                // answered; caches make the resend exact.
                conn = rejoin(addr, links, dim, &mut st, cfg)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Check a loaded checkpoint against this worker's configuration and
/// decode its statistics rows, which must be this shard's rows over
/// exactly the checkpoint's window.
fn validate_checkpoint(
    ckpt: &Checkpoint,
    links: &[usize],
    dim: usize,
    cfg: &WorkerConfig,
) -> Result<Option<CovarianceShard>> {
    let ok = ckpt.shard as usize == cfg.shard
        && ckpt.shards as usize == cfg.shards
        && ckpt.dim as usize == dim
        && ckpt.links == links
        && ckpt.train_bins as usize == cfg.train_bins;
    if !ok {
        return Err(NetError::Checkpoint {
            reason: format!(
                "checkpoint is for shard {}/{} over {} links (training {}), \
                 not this worker's configuration",
                ckpt.shard,
                ckpt.shards,
                ckpt.links.len(),
                ckpt.train_bins
            ),
        });
    }
    if ckpt.window.cols() != dim {
        return Err(NetError::Checkpoint {
            reason: format!(
                "checkpoint window is {} links wide, the feed {dim}",
                ckpt.window.cols()
            ),
        });
    }
    let Some(bytes) = &ckpt.stats else {
        return Ok(None);
    };
    let stats = CovarianceShard::from_bytes(bytes).map_err(|e| NetError::Checkpoint {
        reason: format!("decoding statistics: {e}"),
    })?;
    if stats.links() != links || stats.dim() != dim || stats.count() != ckpt.window.rows() {
        return Err(NetError::Checkpoint {
            reason: format!(
                "checkpoint statistics cover links {:?} of {} over {} rows, \
                 not this shard's {links:?} of {dim} over its {}-row window",
                stats.links(),
                stats.dim(),
                stats.count(),
                ckpt.window.rows()
            ),
        });
    }
    Ok(Some(stats))
}

enum Dispatch {
    Reply(Message),
    Quiet,
    Finished(u64),
}

fn dispatch<R: BufRead>(
    rows: &mut CsvChunks<R>,
    st: &mut WorkerState,
    links: &[usize],
    dim: usize,
    cfg: &WorkerConfig,
    msg: Message,
) -> Result<Dispatch> {
    match msg {
        Message::RunBlock { round, take } => {
            if round == st.completed {
                // The tracker lost our reply for a round we already
                // applied; replay the cached bytes.
                let cache =
                    st.cache
                        .as_ref()
                        .filter(|c| c.round == round)
                        .ok_or(NetError::Protocol {
                            reason: format!("no cached phase A for completed round {round}"),
                        })?;
                return Ok(Dispatch::Reply(Message::PhaseA {
                    round,
                    rows: cache.rows,
                    coeffs: cache.coeffs.clone(),
                }));
            }
            if round != st.completed + 1 {
                return Err(NetError::Protocol {
                    reason: format!(
                        "run-block for round {round} with {} completed",
                        st.completed
                    ),
                });
            }
            if take == 0 {
                return Err(NetError::Protocol {
                    reason: format!("run-block for round {round} takes no rows"),
                });
            }
            if st.pending.is_none() {
                st.pending = Some(match rows.take_up_to(take as usize)? {
                    None => PendingA::Exhausted,
                    Some(block) => {
                        let partial = st.shard.phase_a(links, &block);
                        PendingA::Rows { block, partial }
                    }
                });
            }
            Ok(Dispatch::Reply(
                match st.pending.as_ref().expect("just filled") {
                    PendingA::Exhausted => Message::Exhausted { round },
                    PendingA::Rows { block, partial } => Message::PhaseA {
                        round,
                        rows: block.rows() as u64,
                        coeffs: partial.coeffs().clone(),
                    },
                },
            ))
        }
        Message::Merged { round, coeffs } => {
            if round == st.completed {
                let cache =
                    st.cache
                        .as_ref()
                        .filter(|c| c.round == round)
                        .ok_or(NetError::Protocol {
                            reason: format!("no cached phase B for completed round {round}"),
                        })?;
                return Ok(Dispatch::Reply(Message::PhaseB {
                    round,
                    scores: cache.scores.clone(),
                    residual: cache.residual.clone(),
                }));
            }
            let pending = match st.pending.take() {
                Some(p) if round == st.completed + 1 => p,
                other => {
                    st.pending = other;
                    return Err(NetError::Protocol {
                        reason: format!(
                            "merged coefficients for round {round} without a pending \
                             phase A (completed {})",
                            st.completed
                        ),
                    });
                }
            };
            let PendingA::Rows { block, partial } = pending else {
                return Err(NetError::Protocol {
                    reason: format!("merged coefficients for exhausted round {round}"),
                });
            };
            let evicted = st.window.evictions(&block);
            let scores = st.shard.phase_b(&partial, &coeffs, &block, &evicted)?;
            for t in 0..block.rows() {
                st.window.push(block.row(t));
            }
            st.completed = round;
            st.arrivals += block.rows() as u64;
            st.cache = Some(RoundCache {
                round,
                rows: block.rows() as u64,
                coeffs: partial.coeffs().clone(),
                scores: scores.scores.clone(),
                residual: scores.residual.clone(),
            });
            write_checkpoint(st, links, dim, cfg)?;
            Ok(Dispatch::Reply(Message::PhaseB {
                round,
                scores: scores.scores,
                residual: scores.residual,
            }))
        }
        Message::StatsRequest { round } => Ok(Dispatch::Reply(match st.shard.stats() {
            Some(stats) => Message::Stats {
                round,
                bytes: stats.to_bytes(),
            },
            None => Message::WindowSlice {
                round,
                slice: st.window.to_matrix().select_columns(links),
            },
        })),
        Message::Model { round: _, state } => {
            install_state(&mut st.shard, links, dim, &state)?;
            st.state_bytes = state;
            Ok(Dispatch::Quiet)
        }
        Message::Done { arrivals } => Ok(Dispatch::Finished(arrivals)),
        Message::Fatal { reason } => Err(NetError::Protocol {
            reason: format!("tracker aborted: {reason}"),
        }),
        other => Err(NetError::Protocol {
            reason: format!("unexpected {} from tracker", other.name()),
        }),
    }
}

/// Fire an injected fault if its trigger round just completed. Returns
/// `Ok(false)` when the fault is not due; never returns `Ok(true)` —
/// when the fault fires this exits with [`NetError::Injected`].
fn fire_fault(
    fault: InjectedFault,
    conn: &mut FramedConn<TcpStream>,
    st: &WorkerState,
    reply: &Message,
) -> Result<bool> {
    // Faults trigger on the phase-B completion of their round.
    let is_phase_b = matches!(reply, Message::PhaseB { .. });
    match fault {
        InjectedFault::DropAfterRounds(n) if is_phase_b && st.completed == n => {
            conn.send(reply)?;
            half_close(conn);
            drain_until_eof(conn);
            Err(NetError::Injected)
        }
        InjectedFault::SeverMidFrameAfterRounds(n) if is_phase_b && st.completed == n => {
            // A length prefix promising 64 payload bytes, then only 3.
            let stream = conn.stream();
            {
                use std::io::Write;
                let mut s = stream;
                let _ = s.write_all(&64u64.to_le_bytes());
                let _ = s.write_all(&[1, 2, 3]);
                let _ = s.flush();
            }
            half_close(conn);
            drain_until_eof(conn);
            Err(NetError::Injected)
        }
        _ => Ok(false),
    }
}
