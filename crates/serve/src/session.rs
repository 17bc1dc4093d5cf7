//! One tenant session: a named engine configuration, its bounded
//! ingest queue, and its lifecycle from training to streaming.
//!
//! ```text
//!            open                     train-bins rows drained
//! (absent) ───────▶ Training ─────────────────────────────▶ Streaming
//!                      │                                        │
//!                      │ checkpoint/restore                     │ checkpoint/restore
//!                      ▼                                        ▼
//!                   (file)                                   (file)
//! ```
//!
//! Rows arrive through [`Session::push`] into a bounded queue — a full
//! queue *rejects* the row (the caller answers `busy`) instead of
//! growing without bound — and [`Session::drain`] moves queued rows
//! through the phase machine: accumulate while training, then fit once
//! (the same [`netanom_baselines::methods::build_streaming`] path every
//! other verb uses, with identity routing), then score/observe/refit
//! through the shared [`StreamingEngine`]. The session emits
//! [`Event`]s (fit completed, alarm fired) for the service loop to
//! print.
//!
//! Because each session owns its engine outright, interleaving many
//! sessions through one daemon produces per-session output identical
//! to running each alone — multi-tenant isolation is structural, not
//! scheduled.

use std::collections::VecDeque;
use std::time::Instant;

use netanom_baselines::methods::{build_streaming, MethodBackend, MethodName};
use netanom_core::incremental::IncrementalCovariance;
use netanom_core::method::DetectionBackend;
use netanom_core::{Cadence, CoreError, EngineConfig, MethodState, RingWindow, StreamingEngine};
use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::checkpoint::SessionCheckpoint;
use crate::protocol::{alarm_csv_row, ErrorCode, ServeError};

/// Default ingest-queue capacity (rows) when `open` does not set one.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// The validated parameters of an `open` line.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of links every row must carry.
    pub dim: usize,
    /// The shared engine configuration.
    pub engine: EngineConfig,
    /// Bounded ingest-queue capacity.
    pub queue_capacity: usize,
    /// Drain synchronously on every `obs` (default), or only on
    /// explicit `drain` commands.
    pub autodrain: bool,
}

impl SessionConfig {
    /// Parse `open` key=value parameters. `dim` and `train-bins` are
    /// required; unknown keys and out-of-range values are
    /// [`ErrorCode::BadConfig`] errors, and unknown method/refit names
    /// list the valid set.
    pub fn from_params(params: &[(&str, &str)]) -> Result<Self, ServeError> {
        let bad = |msg: String| ServeError::new(ErrorCode::BadConfig, msg);
        let positive = |k: &str, v: &str| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad(format!("{k} must be a positive integer, got {v:?}")))
        };
        let mut dim = None;
        let mut train_bins = None;
        let mut queue_capacity = DEFAULT_QUEUE_CAPACITY;
        let mut autodrain = true;
        let mut engine_params = Vec::new();
        for &(k, v) in params {
            match k {
                "dim" => dim = Some(positive(k, v)?),
                "train-bins" => {
                    train_bins =
                        Some(v.parse::<usize>().map_err(|_| {
                            bad(format!("train-bins must be an integer, got {v:?}"))
                        })?)
                }
                "queue" => queue_capacity = positive(k, v)?,
                "drain" => {
                    autodrain = match v {
                        "auto" => true,
                        "manual" => false,
                        other => {
                            return Err(bad(format!("drain must be auto|manual, got {other:?}")))
                        }
                    }
                }
                _ => engine_params.push((k, v)),
            }
        }
        let dim = dim.ok_or_else(|| bad("open requires dim=<links>".to_string()))?;
        let train_bins =
            train_bins.ok_or_else(|| bad("open requires train-bins=<rows>".to_string()))?;
        let mut engine = EngineConfig::new(train_bins).map_err(bad)?;
        for (k, v) in engine_params {
            if !engine.set(k, v).map_err(bad)? {
                return Err(bad(format!("unknown open parameter {k:?}")));
            }
        }
        // Resolve now so a typo is answered at open time with the
        // registry's valid-set error, not at fit time.
        MethodName::parse(engine.method()).map_err(bad)?;
        Ok(SessionConfig {
            dim,
            engine,
            queue_capacity,
            autodrain,
        })
    }
}

/// An event the session emits while draining, for the service loop to
/// print before the command's reply.
#[derive(Debug, Clone)]
pub enum Event {
    /// Training completed and the model was fitted.
    Fit {
        /// Registry name of the fitted method.
        method: String,
        /// The detection threshold the model froze.
        threshold: f64,
        /// The subspace method's normal dimension, when applicable.
        normal_dim: Option<usize>,
    },
    /// A streamed bin fired the detector. The payload is the exact CSV
    /// row `netanom stream` would print.
    Alarm {
        /// `bin,spe,threshold,flow,estimated_bytes,explained_fraction`.
        row: String,
    },
}

/// What one [`Session::drain`] call did.
#[derive(Debug, Clone)]
pub struct DrainOutcome {
    /// Rows moved out of the queue and through the engine.
    pub processed: usize,
    /// Rows still queued afterwards.
    pub remaining: usize,
    /// Fit/alarm events, in occurrence order.
    pub events: Vec<Event>,
}

enum Phase {
    Training {
        rows: Vec<Vec<f64>>,
    },
    Streaming {
        engine: Box<StreamingEngine<MethodBackend>>,
    },
}

/// One tenant session (see the module docs for the lifecycle).
pub struct Session {
    config: SessionConfig,
    phase: Phase,
    queue: VecDeque<Vec<f64>>,
    alarms: u64,
    drops: u64,
    /// Wall time spent inside [`Session::drain`] processing rows —
    /// the denominator of the `stats` arrivals/sec rate (idle time
    /// between commands does not dilute the throughput figure).
    busy_secs: f64,
    /// Wall time of the most recent drain sub-batch that performed a
    /// refit (includes that sub-batch's scoring).
    last_refit_ms: Option<f64>,
    /// Set when `open` downgraded a cadence-less statistics strategy.
    downgraded: Option<&'static str>,
}

impl Session {
    /// Open a session: validate nothing further (the config is already
    /// validated), apply the cadence-downgrade rule, start training.
    pub fn open(mut config: SessionConfig) -> Self {
        let downgraded = config.engine.normalize();
        Session {
            config,
            phase: Phase::Training { rows: Vec::new() },
            queue: VecDeque::new(),
            alarms: 0,
            drops: 0,
            busy_secs: 0.0,
            last_refit_ms: None,
            downgraded,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The note from the cadence-downgrade rule, if `open` applied it.
    pub fn downgraded(&self) -> Option<&'static str> {
        self.downgraded
    }

    /// `"training"` or `"streaming"`.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Training { .. } => "training",
            Phase::Streaming { .. } => "streaming",
        }
    }

    /// Rows currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Rows rejected by a full queue so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Alarms emitted so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Rows processed through the engine so far (0 while training).
    pub fn arrivals(&self) -> usize {
        match &self.phase {
            Phase::Training { rows } => rows.len(),
            Phase::Streaming { engine } => self.config.engine.train_bins() + engine.arrivals(),
        }
    }

    /// Refits performed so far.
    pub fn refits(&self) -> usize {
        match &self.phase {
            Phase::Training { .. } => 0,
            Phase::Streaming { engine } => engine.refits(),
        }
    }

    /// Wall time of the most recent refit-containing drain sub-batch.
    pub fn last_refit_ms(&self) -> Option<f64> {
        self.last_refit_ms
    }

    /// Processed rows per second of drain wall time.
    pub fn arrivals_per_sec(&self) -> f64 {
        if self.busy_secs <= 0.0 {
            0.0
        } else {
            self.arrivals() as f64 / self.busy_secs
        }
    }

    /// Enqueue one row. A full queue rejects the row and counts a drop
    /// — the caller answers `busy <sid> queued=<q> capacity=<c>`; a
    /// wrong-width row is a [`ErrorCode::DimMismatch`] error and a row
    /// with a NaN or infinite value a [`ErrorCode::Parse`] error. A row
    /// the engine would refuse must be refused here, before it is
    /// queued: `drain` hands the engine whole blocks, and a refused
    /// block stays queued.
    ///
    /// Returns `Ok(true)` when the row was queued, `Ok(false)` on a
    /// full queue.
    pub fn push(&mut self, row: Vec<f64>) -> Result<bool, ServeError> {
        if row.len() != self.config.dim {
            return Err(ServeError::new(
                ErrorCode::DimMismatch,
                format!("expected {} links, got {}", self.config.dim, row.len()),
            ));
        }
        if let Some(link) = row.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::new(
                ErrorCode::Parse,
                CoreError::NonFiniteMeasurement { link }.to_string(),
            ));
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.drops += 1;
            return Ok(false);
        }
        self.queue.push_back(row);
        Ok(true)
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }

    /// Whether obs lines drain synchronously.
    pub fn autodrain(&self) -> bool {
        self.config.autodrain
    }

    /// Move up to `max` queued rows (all, when `None`) through the
    /// phase machine; returns the fit/alarm events in order.
    pub fn drain(&mut self, max: Option<usize>) -> Result<DrainOutcome, ServeError> {
        let budget = max.unwrap_or(self.queue.len()).min(self.queue.len());
        let mut events = Vec::new();
        let mut processed = 0usize;
        let t0 = Instant::now();
        while processed < budget {
            match &mut self.phase {
                Phase::Training { rows } => {
                    let row = self.queue.pop_front().expect("budget <= queue length");
                    rows.push(row);
                    processed += 1;
                    if rows.len() == self.config.engine.train_bins() {
                        let training = std::mem::take(rows);
                        let (engine, event) = fit(&self.config, &training)?;
                        events.push(event);
                        self.phase = Phase::Streaming {
                            engine: Box::new(engine),
                        };
                    }
                }
                Phase::Streaming { engine } => {
                    let take = budget - processed;
                    let dim = self.config.dim;
                    let block = Matrix::from_fn(take, dim, |i, j| self.queue[i][j]);
                    let refits_before = engine.refits();
                    let bt = Instant::now();
                    let reports = engine.process_batch(&block).map_err(|e| {
                        ServeError::new(ErrorCode::StateMismatch, format!("processing: {e}"))
                    })?;
                    let batch_ms = bt.elapsed().as_secs_f64() * 1e3;
                    if engine.refits() > refits_before {
                        self.last_refit_ms = Some(batch_ms);
                    }
                    self.queue.drain(..take);
                    processed += take;
                    for rep in reports.iter().filter(|r| r.detected) {
                        self.alarms += 1;
                        events.push(Event::Alarm {
                            row: alarm_csv_row(rep, self.config.engine.train_bins()),
                        });
                    }
                }
            }
        }
        self.busy_secs += t0.elapsed().as_secs_f64();
        Ok(DrainOutcome {
            processed,
            remaining: self.queue.len(),
            events,
        })
    }

    /// Serialize the session (see [`SessionCheckpoint`]).
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let engine_cfg = &self.config.engine;
        let mut cp = SessionCheckpoint {
            method: engine_cfg.method().to_string(),
            dim: self.config.dim,
            train_bins: engine_cfg.train_bins(),
            confidence: engine_cfg.confidence(),
            strategy: engine_cfg.strategy(),
            refit_every: engine_cfg.refit_every(),
            window_capacity: engine_cfg.window(),
            queue_capacity: self.config.queue_capacity,
            autodrain: self.config.autodrain,
            streaming: false,
            arrivals_total: 0,
            arrivals_since_fit: 0,
            refits: 0,
            alarms: self.alarms,
            drops: self.drops,
            training_rows: Vec::new(),
            window_rows: Vec::new(),
            pending: self.queue.iter().cloned().collect(),
            state: None,
            stats: None,
        };
        match &self.phase {
            Phase::Training { rows } => {
                cp.training_rows = rows.clone();
            }
            Phase::Streaming { engine } => {
                cp.streaming = true;
                cp.arrivals_total = engine.arrivals();
                cp.arrivals_since_fit = engine.arrivals_since_refit();
                cp.refits = engine.refits();
                cp.refit_every = engine.refit_cadence();
                let window = engine.window();
                cp.window_capacity = window.capacity();
                cp.window_rows = (0..window.len()).map(|i| window.row(i).to_vec()).collect();
                cp.state = Some(engine.backend().export_state().to_bytes());
                cp.stats = engine.backend().statistics().map(|s| s.to_bytes());
            }
        }
        cp
    }

    /// Replace this session's state wholesale from a checkpoint.
    ///
    /// The checkpoint must agree with the opened configuration on the
    /// method and the link count ([`ErrorCode::StateMismatch`] /
    /// [`ErrorCode::DimMismatch`]); everything else — strategy,
    /// cadence, window, counters — is adopted *from the checkpoint*,
    /// because those are what make the resumed stream bitwise identical
    /// to the exporting process.
    pub fn restore(&mut self, cp: SessionCheckpoint) -> Result<(), ServeError> {
        if cp.dim != self.config.dim {
            return Err(ServeError::new(
                ErrorCode::DimMismatch,
                format!(
                    "checkpoint has {} links, session opened {}",
                    cp.dim, self.config.dim
                ),
            ));
        }
        if cp.method != self.config.engine.method() {
            return Err(ServeError::new(
                ErrorCode::StateMismatch,
                format!(
                    "checkpoint fitted method {:?}, session opened {:?}",
                    cp.method,
                    self.config.engine.method()
                ),
            ));
        }
        let method =
            MethodName::parse(&cp.method).map_err(|e| ServeError::new(ErrorCode::Checkpoint, e))?;
        let mut engine_cfg = EngineConfig::new(cp.train_bins)
            .map_err(|e| ServeError::new(ErrorCode::Checkpoint, e))?
            .with_method(&cp.method)
            .with_refit(cp.strategy)
            .with_window(cp.window_capacity)
            .map_err(|e| ServeError::new(ErrorCode::Checkpoint, e))?
            .with_confidence(cp.confidence)
            .map_err(|e| ServeError::new(ErrorCode::Checkpoint, e))?;
        if let Some(every) = cp.refit_every {
            engine_cfg = engine_cfg
                .with_refit_every(every)
                .map_err(|e| ServeError::new(ErrorCode::Checkpoint, e))?;
        }
        let phase = if !cp.streaming {
            if cp.training_rows.len() >= cp.train_bins {
                return Err(ServeError::new(
                    ErrorCode::Checkpoint,
                    "a training-phase checkpoint holds a full training set",
                ));
            }
            Phase::Training {
                rows: cp.training_rows,
            }
        } else {
            let state_bytes = cp.state.as_deref().ok_or_else(|| {
                ServeError::new(ErrorCode::Checkpoint, "streaming checkpoint has no model")
            })?;
            let state = MethodState::from_bytes(state_bytes).map_err(|e| {
                ServeError::new(ErrorCode::Checkpoint, format!("decoding model: {e}"))
            })?;
            let stats = match &cp.stats {
                None => None,
                Some(b) => Some(IncrementalCovariance::from_bytes(b).map_err(|e| {
                    ServeError::new(ErrorCode::Checkpoint, format!("decoding statistics: {e}"))
                })?),
            };
            let rm = RoutingMatrix::identity(cp.dim);
            let backend = method
                .backend_from_state(
                    &state,
                    cp.dim,
                    &rm,
                    engine_cfg.diagnoser_config(),
                    cp.strategy,
                    stats,
                )
                .map_err(|e| {
                    ServeError::new(ErrorCode::Checkpoint, format!("rebuilding backend: {e}"))
                })?;
            let mut window = RingWindow::new(cp.window_capacity, cp.dim);
            for row in &cp.window_rows {
                if row.len() != cp.dim {
                    return Err(ServeError::new(
                        ErrorCode::Checkpoint,
                        "checkpoint window row has the wrong width",
                    ));
                }
                window.push(row);
            }
            // The statistics describe exactly the window's rows; any other
            // count would refit on moments no window produced.
            if let Some(stats) = backend.statistics() {
                if stats.count() != window.len() {
                    return Err(ServeError::new(
                        ErrorCode::Checkpoint,
                        format!(
                            "checkpoint statistics cover {} rows, its window {}",
                            stats.count(),
                            window.len()
                        ),
                    ));
                }
            }
            let cadence = Cadence::resume(
                cp.refit_every,
                cp.arrivals_total,
                cp.arrivals_since_fit,
                cp.refits,
            );
            let engine = StreamingEngine::resume(backend, window, cadence).map_err(|e| {
                ServeError::new(ErrorCode::Checkpoint, format!("resuming engine: {e}"))
            })?;
            Phase::Streaming {
                engine: Box::new(engine),
            }
        };
        self.config.engine = engine_cfg;
        self.config.queue_capacity = cp.queue_capacity;
        self.config.autodrain = cp.autodrain;
        self.phase = phase;
        self.queue = cp.pending.into();
        self.alarms = cp.alarms;
        self.drops = cp.drops;
        self.downgraded = None;
        Ok(())
    }
}

/// Fit the session's configured method on the accumulated training rows
/// — the same shared construction path (`build_streaming`) as
/// `netanom stream`, with identity routing: one flow per link, the
/// fallback the offline verbs use when no routing is supplied, which
/// keeps a `serve` replay byte-identical to `netanom stream --links …`
/// without `--paths`.
fn fit(
    config: &SessionConfig,
    training_rows: &[Vec<f64>],
) -> Result<(StreamingEngine<MethodBackend>, Event), ServeError> {
    let dim = config.dim;
    let training = Matrix::from_fn(training_rows.len(), dim, |i, j| training_rows[i][j]);
    let rm = RoutingMatrix::identity(dim);
    let engine = build_streaming(&config.engine, &training, &rm)
        .map_err(|e| ServeError::new(ErrorCode::BadConfig, e))?;
    let backend = engine.backend();
    let event = Event::Fit {
        method: backend.name().to_string(),
        threshold: backend.threshold(),
        normal_dim: backend
            .as_subspace()
            .map(|b| b.diagnoser().model().normal_dim()),
    };
    Ok((engine, event))
}
