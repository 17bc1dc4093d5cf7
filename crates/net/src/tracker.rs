//! The tracker side of distributed diagnosis: join-and-dispatch over
//! TCP with the in-process engine's exact semantics.
//!
//! The tracker owns the fitted [`SubspaceBackend`] and the link
//! partition. Each round it asks every worker for phase A over the
//! same row count, merges the partial projection coefficients **in
//! shard order** (the same [`merge_coeff_partials`] the in-process
//! engine calls), broadcasts the merged context for phase B, and
//! finalizes through the same [`finalize_block`] — so a distributed
//! diagnosis is bitwise identical to
//! [`ShardedEngine`](netanom_core::ShardedEngine) on the same
//! partition by construction. Round sizes, report numbering and refit
//! timing come from the same [`Cadence`] the in-process engines own, so
//! refits land on the same arrival indices.
//!
//! Failure handling is per-worker and classified: a connection fault
//! ([`FailureKind`]) drops only that worker's connection, opens a
//! bounded rejoin window with escalating deadlines, and on rejoin
//! retries only the requests that worker had not answered — replies
//! already collected from other workers are kept, and workers replay
//! cached replies for rounds they already applied, so a retried round
//! produces exactly the bytes the unretried round would have.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use netanom_core::incremental::{CovarianceShard, IncrementalCovariance};
use netanom_core::{
    assemble_columns, finalize_block, merge_coeff_partials, Cadence, DetectionBackend,
    DiagnosisReport, RefitStrategy, ShardScores, StreamConfig, SubspaceBackend,
};
use netanom_linalg::Matrix;
use netanom_topology::LinkPartition;

use crate::error::{FailureKind, NetError, Result};
use crate::frame::{FramedConn, DEFAULT_MAX_FRAME};
use crate::wire::Message;

/// Tracker configuration.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Training prefix length (rows) every worker consumed locally.
    pub train_bins: usize,
    /// Maximum rows dispatched per round (rounds shrink at refit
    /// boundaries, exactly like the in-process batch path).
    pub chunk: usize,
    /// Streaming configuration (window capacity, refit cadence and
    /// strategy). The effective window capacity is
    /// `window_capacity.max(train_bins)`, as in-process.
    pub stream: StreamConfig,
    /// Socket read deadline per reply.
    pub read_timeout: Duration,
    /// Deadline for the initial join of all workers.
    pub join_timeout: Duration,
    /// Rejoin windows granted per worker failure episode.
    pub rejoin_attempts: usize,
    /// Base rejoin window length (doubles per attempt).
    pub rejoin_backoff: Duration,
    /// Maximum frame payload accepted.
    pub max_frame: u64,
}

impl TrackerConfig {
    /// Defaults around a `train_bins` training prefix.
    pub fn new(train_bins: usize, stream: StreamConfig) -> Self {
        TrackerConfig {
            train_bins,
            chunk: 144,
            stream,
            read_timeout: Duration::from_secs(30),
            join_timeout: Duration::from_secs(30),
            rejoin_attempts: 6,
            rejoin_backoff: Duration::from_millis(100),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// One worker-failure episode the tracker recovered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejoinEvent {
    /// Which shard failed.
    pub shard: usize,
    /// How the failure was classified.
    pub kind: FailureKind,
    /// Rejoin windows waited before the worker came back.
    pub attempts: usize,
}

/// What a tracker run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerSummary {
    /// Streamed rows diagnosed.
    pub arrivals: usize,
    /// Rounds completed.
    pub rounds: u64,
    /// Merge-refit-broadcast cycles performed.
    pub refits: usize,
    /// Worker-failure episodes recovered from, in order.
    pub rejoins: Vec<RejoinEvent>,
}

/// A worker's phase-A answer for the in-flight round.
#[derive(Debug)]
enum PhaseAReply {
    Rows { rows: usize, coeffs: Matrix },
    Exhausted,
}

/// The distributed coordinator: listens, dispatches rounds, merges,
/// refits, and finalizes. Build with [`Tracker::bind`], then drive
/// with [`Tracker::run`].
#[derive(Debug)]
pub struct Tracker {
    listener: TcpListener,
    backend: SubspaceBackend,
    links: Vec<Vec<usize>>,
    cfg: TrackerConfig,
    window_capacity: usize,
    conns: Vec<Option<FramedConn<TcpStream>>>,
    cadence: Cadence,
    completed: u64,
    rejoins: Vec<RejoinEvent>,
}

/// One reply slot per shard for a request every shard must answer, and
/// whether that request is already in flight on the shard's live
/// connection.
///
/// A request sent on a still-live connection must not be re-sent on the
/// next attempt even though its reply has not arrived yet (another
/// shard's failure can abort an attempt with replies still in flight) —
/// re-requesting would queue a duplicate answer that a later recv
/// misreads. The flag resets only when that shard's connection is
/// dropped.
struct Slots<T> {
    replies: Vec<Option<T>>,
    asked: Vec<bool>,
}

impl<T> Slots<T> {
    fn new(shards: usize) -> Self {
        Slots {
            replies: (0..shards).map(|_| None).collect(),
            asked: vec![false; shards],
        }
    }

    /// Forget shard `s`'s reply and request: its connection was dropped.
    fn clear(&mut self, s: usize) {
        self.replies[s] = None;
        self.asked[s] = false;
    }

    fn into_replies(self) -> Vec<T> {
        self.replies
            .into_iter()
            .map(|r| r.expect("every shard replied"))
            .collect()
    }
}

impl Tracker {
    /// Bind the listening socket around an already-fitted backend and a
    /// link partition. `backend` must have been fitted on the same
    /// `cfg.train_bins`-row training prefix every worker reads locally
    /// (e.g. via [`SubspaceBackend::fit_sharded`]).
    pub fn bind(
        addr: &str,
        backend: SubspaceBackend,
        partition: &LinkPartition,
        cfg: TrackerConfig,
    ) -> Result<Self> {
        let m = backend.dim();
        if partition.num_links() != m {
            return Err(NetError::Protocol {
                reason: format!(
                    "partition covers {} links, backend expects {m}",
                    partition.num_links()
                ),
            });
        }
        let listener = TcpListener::bind(addr)?;
        let window_capacity = cfg.stream.window_capacity.max(cfg.train_bins);
        let cadence = Cadence::new(cfg.stream.refit_every);
        let shards = partition.num_shards();
        Ok(Tracker {
            listener,
            backend,
            links: partition.groups().to_vec(),
            cfg,
            window_capacity,
            conns: (0..shards).map(|_| None).collect(),
            cadence,
            completed: 0,
            rejoins: Vec::new(),
        })
    }

    /// The bound listening address (for `addr == "127.0.0.1:0"` runs).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The coordinator's backend (current model, threshold, strategy).
    pub fn backend_ref(&self) -> &SubspaceBackend {
        &self.backend
    }

    /// Accept one pending connection, waiting until `deadline`.
    /// `Ok(None)` when the deadline passes with no connection.
    fn poll_accept(&self, deadline: Instant) -> Result<Option<TcpStream>> {
        self.listener.set_nonblocking(true)?;
        let out = loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => break Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Ok(None);
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(NetError::Io(e)),
            }
        };
        self.listener.set_nonblocking(false)?;
        let out = out?;
        if let Some(stream) = &out {
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        }
        Ok(out)
    }

    /// Validate a join request against the partition and our progress;
    /// `Err(reason)` becomes a `Reject`.
    fn validate_join(&self, msg: &Message) -> std::result::Result<usize, String> {
        let Message::Join {
            shard,
            shards,
            dim,
            links,
            train_bins,
            completed_round,
            arrivals: _,
        } = msg
        else {
            return Err(format!("expected join, got {}", msg.name()));
        };
        let shard = *shard as usize;
        if *shards as usize != self.links.len() {
            return Err(format!(
                "worker believes in {} shards, tracker has {}",
                shards,
                self.links.len()
            ));
        }
        if shard >= self.links.len() {
            return Err(format!("shard {shard} out of range"));
        }
        if self.conns[shard].is_some() {
            return Err(format!("shard {shard} is already connected"));
        }
        if *dim as usize != self.backend.dim() {
            return Err(format!(
                "worker streams {dim} links, tracker expects {}",
                self.backend.dim()
            ));
        }
        let expected: Vec<u64> = self.links[shard].iter().map(|&l| l as u64).collect();
        if *links != expected {
            return Err(format!(
                "worker's link set for shard {shard} does not match the partition"
            ));
        }
        if *train_bins as usize != self.cfg.train_bins {
            return Err(format!(
                "worker trained on {train_bins} bins, tracker on {}",
                self.cfg.train_bins
            ));
        }
        if *completed_round != self.completed && *completed_round != self.completed + 1 {
            return Err(format!(
                "worker completed round {completed_round}, tracker is at {}",
                self.completed
            ));
        }
        Ok(shard)
    }

    /// Handshake one accepted stream: read its join, validate, and
    /// either install it (returning the shard index) or reject it
    /// (returning `Ok(None)`).
    fn handshake(&mut self, stream: TcpStream) -> Result<Option<usize>> {
        let mut conn = FramedConn::new(stream, self.cfg.max_frame);
        let msg = match conn.recv() {
            Ok(msg) => msg,
            // A connection that dies during its own handshake is the
            // dying peer's problem; keep listening.
            Err(e) if e.is_connection_fault() => return Ok(None),
            Err(e) => return Err(e),
        };
        match self.validate_join(&msg) {
            Ok(shard) => {
                conn.send(&Message::Welcome {
                    state: self.backend.export_state().to_bytes(),
                    strategy: self.backend.strategy(),
                    window_capacity: self.window_capacity as u64,
                    round: self.completed,
                })?;
                self.conns[shard] = Some(conn);
                Ok(Some(shard))
            }
            Err(reason) => {
                let _ = conn.send(&Message::Reject { reason });
                Ok(None)
            }
        }
    }

    /// Accept and handshake joins until `filled` holds; `false` when the
    /// deadline passes first.
    fn accept_until(&mut self, deadline: Instant, filled: impl Fn(&Self) -> bool) -> Result<bool> {
        while !filled(self) {
            match self.poll_accept(deadline)? {
                Some(stream) => {
                    self.handshake(stream)?;
                }
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// A worker failed: classify, drop its connection, and hold a
    /// bounded sequence of escalating rejoin windows for it.
    fn rejoin_worker(&mut self, shard: usize, cause: NetError) -> Result<()> {
        let kind = cause.kind();
        self.conns[shard] = None;
        for attempt in 0..self.cfg.rejoin_attempts.max(1) {
            let window = self.cfg.rejoin_backoff * (1 << attempt.min(6)) as u32;
            let deadline = Instant::now() + window;
            if self.accept_until(deadline, |t| t.conns[shard].is_some())? {
                self.rejoins.push(RejoinEvent {
                    shard,
                    kind,
                    attempts: attempt + 1,
                });
                return Ok(());
            }
        }
        Err(NetError::WorkerLost {
            shard,
            attempts: self.cfg.rejoin_attempts.max(1),
            last: Box::new(cause),
        })
    }

    /// Send to shard `s`.
    fn send_to(&mut self, s: usize, msg: &Message) -> Result<()> {
        self.conns[s]
            .as_mut()
            .expect("send_to targets a connected shard")
            .send(msg)
    }

    /// Receive from shard `s`.
    fn recv_from(&mut self, s: usize) -> Result<Message> {
        self.conns[s]
            .as_mut()
            .expect("recv_from targets a connected shard")
            .recv()
    }

    /// Tell every connected worker the run is over (best effort).
    fn broadcast_final(&mut self, msg: &Message) {
        for conn in self.conns.iter_mut().flatten() {
            let _ = conn.send(msg);
        }
    }

    /// Handle a per-shard failure inside a retry loop: connection
    /// faults open a rejoin window, anything else aborts the run.
    fn recover(&mut self, shard: usize, e: NetError) -> Result<()> {
        if e.is_connection_fault() {
            self.rejoin_worker(shard, e)
        } else {
            Err(e)
        }
    }

    /// Run the stream to completion, handing each finalized block of
    /// reports to `sink` (stamped with arrival indices, exactly like
    /// the in-process engine's `process_batch` output).
    pub fn run(&mut self, mut sink: impl FnMut(&[DiagnosisReport])) -> Result<TrackerSummary> {
        let deadline = Instant::now() + self.cfg.join_timeout;
        if !self.accept_until(deadline, |t| t.conns.iter().all(Option::is_some))? {
            return Err(NetError::Timeout {
                during: "initial worker joins",
            });
        }

        loop {
            let round = self.completed + 1;
            let take = self.cadence.take(self.cfg.chunk);
            match self.run_round(round, take)? {
                None => {
                    self.broadcast_final(&Message::Done {
                        arrivals: self.cadence.total() as u64,
                    });
                    return Ok(TrackerSummary {
                        arrivals: self.cadence.total(),
                        rounds: self.completed,
                        refits: self.cadence.refits(),
                        rejoins: std::mem::take(&mut self.rejoins),
                    });
                }
                Some(mut reports) => {
                    let refit_due = self.cadence.stamp(&mut reports);
                    self.completed = round;
                    sink(&reports);
                    if refit_due {
                        self.refit(round)?;
                    }
                }
            }
        }
    }

    /// One pass of the asked-once discipline every collection shares:
    /// send `request` to each shard lacking a reply and not yet asked on
    /// its live connection, then receive from each shard lacking a
    /// reply, keeping what `accept` makes of it (its `Err` is a fatal
    /// protocol error).
    ///
    /// `Ok(None)` means every slot is filled. `Ok(Some(s))` means shard
    /// `s`'s connection faulted and the worker has rejoined: its slot
    /// here is cleared, replies from the other shards are kept, and the
    /// caller restarts its attempt after clearing whatever else it
    /// holds for `s`.
    fn collect<T>(
        &mut self,
        request: &Message,
        slots: &mut Slots<T>,
        accept: impl Fn(&Self, usize, Message) -> std::result::Result<T, String>,
    ) -> Result<Option<usize>> {
        // Every request goes out before the first reply is awaited, so
        // the workers compute side by side.
        for s in 0..self.conns.len() {
            if slots.replies[s].is_some() || slots.asked[s] {
                continue;
            }
            if let Err(e) = self.send_to(s, request) {
                slots.clear(s);
                self.recover(s, e)?;
                return Ok(Some(s));
            }
            slots.asked[s] = true;
        }
        for s in 0..self.conns.len() {
            if slots.replies[s].is_some() {
                continue;
            }
            match self.recv_from(s) {
                Ok(msg) => match accept(self, s, msg) {
                    Ok(value) => slots.replies[s] = Some(value),
                    Err(reason) => return Err(self.fatal(reason)),
                },
                Err(e) => {
                    slots.clear(s);
                    self.recover(s, e)?;
                    return Ok(Some(s));
                }
            }
        }
        Ok(None)
    }

    /// Drive one round to completion, retrying per-worker failures via
    /// rejoin windows. `Ok(None)` means every feed is exhausted.
    fn run_round(&mut self, round: u64, take: usize) -> Result<Option<Vec<DiagnosisReport>>> {
        let n = self.conns.len();
        let mut a: Slots<PhaseAReply> = Slots::new(n);
        let mut b: Slots<ShardScores> = Slots::new(n);
        let run_block = Message::RunBlock {
            round,
            take: take as u64,
        };

        loop {
            // Phase A. A shard only talks here while it holds no
            // phase-A reply, which it loses together with its phase-B
            // slot, so there is nothing of `b` to clear on a fault.
            let faulted = self.collect(&run_block, &mut a, |tracker, s, msg| match msg {
                Message::PhaseA {
                    round: r,
                    rows,
                    coeffs,
                } if r == round => {
                    let r = tracker.backend.diagnoser().model().normal_dim();
                    if rows == 0 || coeffs.rows() != rows as usize || coeffs.cols() != r {
                        return Err(format!("shard {s} phase A shape mismatch in round {round}"));
                    }
                    Ok(PhaseAReply::Rows {
                        rows: rows as usize,
                        coeffs,
                    })
                }
                Message::Exhausted { round: r } if r == round => Ok(PhaseAReply::Exhausted),
                other => Err(format!(
                    "shard {s} answered round {round} phase A with {}",
                    other.name()
                )),
            })?;
            if faulted.is_some() {
                continue;
            }

            // End-of-stream consensus: feeds are replicas of the same
            // bin sequence, so either all are exhausted or none is.
            let exhausted = a
                .replies
                .iter()
                .filter(|r| matches!(r, Some(PhaseAReply::Exhausted)))
                .count();
            if exhausted == n {
                return Ok(None);
            }
            if exhausted > 0 {
                return Err(self.fatal(format!(
                    "{exhausted} of {n} workers exhausted in round {round} — feeds disagree"
                )));
            }
            let partials: Vec<(usize, &Matrix)> = a
                .replies
                .iter()
                .map(|reply| match reply {
                    Some(PhaseAReply::Rows { rows, coeffs }) => (*rows, coeffs),
                    _ => unreachable!("all replies are rows"),
                })
                .collect();
            let rows = partials[0].0;
            if let Some(s) = partials.iter().position(|&(r, _)| r != rows) {
                let r = partials[s].0;
                return Err(self.fatal(format!(
                    "round {round} row counts disagree: shard 0 read {rows}, \
                     shard {s} read {r}"
                )));
            }

            // Merge in shard order — the same function the in-process
            // engine uses, recomputed fresh on every attempt from the
            // collected partials (deterministic, so retries are
            // bitwise identical).
            let r = self.backend.diagnoser().model().normal_dim();
            let merged = Message::Merged {
                round,
                coeffs: merge_coeff_partials(rows, r, partials.into_iter().map(|(_, c)| c))?,
            };

            // Phase B.
            let faulted = self.collect(&merged, &mut b, |tracker, s, msg| match msg {
                Message::PhaseB {
                    round: r,
                    scores,
                    residual,
                } if r == round => {
                    if scores.len() != rows
                        || residual.rows() != rows
                        || residual.cols() != tracker.links[s].len()
                    {
                        return Err(format!("shard {s} phase B shape mismatch in round {round}"));
                    }
                    Ok(ShardScores { scores, residual })
                }
                other => Err(format!(
                    "shard {s} answered round {round} phase B with {}",
                    other.name()
                )),
            })?;
            if let Some(s) = faulted {
                // Reset phase A too: a worker restarted from its
                // checkpoint has no pending phase A to apply a merged
                // context to — re-driving it through phase A replays
                // its caches bitwise.
                a.clear(s);
                continue;
            }

            return Ok(Some(finalize_block(
                self.backend.diagnoser(),
                &self.links,
                rows,
                &b.into_replies(),
            )?));
        }
    }

    /// Merge-refit-broadcast after round `round`, with the retry
    /// discipline the module docs describe: the collection step is
    /// retryable (it only reads worker state), the local refit runs
    /// exactly once, and the broadcast is idempotent (a worker that
    /// rejoins mid-broadcast receives the refitted state in its
    /// `Welcome` instead).
    fn refit(&mut self, round: u64) -> Result<()> {
        match self.cfg.stream.strategy {
            RefitStrategy::FullSvd => {
                let slices = self.collect_refit_inputs(round, |msg| match msg {
                    Message::WindowSlice { round: r, slice } if r == round => Some(slice),
                    _ => None,
                })?;
                let len = slices[0].rows();
                for (s, slice) in slices.iter().enumerate() {
                    if slice.rows() != len || slice.cols() != self.links[s].len() {
                        return Err(self.fatal(format!(
                            "shard {s} window slice shape mismatch in round {round}"
                        )));
                    }
                }
                let window = assemble_columns(self.backend.dim(), &self.links, &slices)?;
                self.backend.refit_from_window(&window)?;
            }
            RefitStrategy::Incremental | RefitStrategy::Truncated { .. } => {
                let payloads = self.collect_refit_inputs(round, |msg| match msg {
                    Message::Stats { round: r, bytes } if r == round => Some(bytes),
                    _ => None,
                })?;
                let shards: Vec<CovarianceShard> = payloads
                    .iter()
                    .map(|bytes| CovarianceShard::from_bytes(bytes))
                    .collect::<std::result::Result<_, _>>()?;
                let merged = IncrementalCovariance::merge(shards.iter())?;
                self.backend.refit_from_statistics(&merged)?;
            }
        }
        self.cadence.refitted();

        // Idempotent model broadcast: a worker that fails here rejoins
        // with a Welcome already carrying the refitted state, so its
        // delivery is complete either way.
        let model = Message::Model {
            round,
            state: self.backend.export_state().to_bytes(),
        };
        for s in 0..self.conns.len() {
            if let Err(e) = self.send_to(s, &model) {
                self.recover(s, e)?;
            }
        }
        Ok(())
    }

    /// Collect one refit input per shard. Reads never mutate worker
    /// state, so a rejoined worker is simply asked again.
    fn collect_refit_inputs<T>(
        &mut self,
        round: u64,
        extract: impl Fn(Message) -> Option<T>,
    ) -> Result<Vec<T>> {
        let request = Message::StatsRequest { round };
        let mut inputs = Slots::new(self.conns.len());
        let accept = |_: &Self, s: usize, msg: Message| {
            extract(msg).ok_or_else(|| {
                format!(
                    "shard {s} answered the round-{round} refit request \
                     with the wrong message"
                )
            })
        };
        while self.collect(&request, &mut inputs, accept)?.is_some() {}
        Ok(inputs.into_replies())
    }

    /// Broadcast a fatal error to the workers and build the matching
    /// tracker-side error.
    fn fatal(&mut self, reason: String) -> NetError {
        self.broadcast_final(&Message::Fatal {
            reason: reason.clone(),
        });
        NetError::Protocol { reason }
    }
}
