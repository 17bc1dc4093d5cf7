//! The streaming ingestion engine: the single online entry point.
//!
//! The paper pitches the subspace method "as a first-level online
//! monitoring tool" (Section 7.1): the SVD is computed occasionally, and
//! each arriving measurement is diagnosed against the frozen model in
//! `O(m·r)`. [`StreamingEngine`] is the production-shaped realization of
//! that sketch:
//!
//! * the retained history lives in a [`RingWindow`] — one contiguous
//!   row-major buffer that grows to at most `capacity × m` and then rings
//!   in place, with `O(1)` eviction, no per-row boxing, no `remove(0)`
//!   shifting;
//! * the detection method itself is a pluggable [`DetectionBackend`]:
//!   the engine is generic over it (default: the paper's
//!   [`SubspaceBackend`]), so the temporal comparators stream through
//!   the same machinery;
//! * periodic refits can run through [`RefitStrategy::Incremental`]:
//!   sufficient statistics
//!   ([`IncrementalCovariance`](crate::incremental::IncrementalCovariance))
//!   are maintained at `O(m²)` per arrival and a refit is one `m × m`
//!   symmetric eigen-solve, independent of the window length — versus the
//!   two-pass refit over the whole window of [`RefitStrategy::FullSvd`];
//! * backlogs and micro-batched collection go through
//!   [`StreamingEngine::process_batch`], which rides the backend's
//!   batched scoring path (a GEMM for the subspace method) between
//!   refit boundaries.
//!
//! Semantics are pinned by parity tests (`tests/stream_parity.rs`):
//! under [`RefitStrategy::FullSvd`], [`StreamingEngine::process`] and
//! [`StreamingEngine::process_batch`] reproduce the seed's sequential
//! fit/diagnose/refit loop report for report, including mid-block refit
//! boundaries.

use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::cadence::Cadence;
use crate::diagnose::{Diagnoser, DiagnoserConfig, DiagnosisReport};
use crate::method::{DetectionBackend, SubspaceBackend};
use crate::{CoreError, Result};

/// Default `k` of [`RefitStrategy::truncated`]: the iteration block is
/// sized for `k` pairs (`b = k + 4 + k/2`), comfortably above the
/// normal dimension the 3σ rule picks on backbone data (`r ≈ 4`). A
/// refit locks only the `r` pairs the frozen model keeps; the width
/// past `r` is there because a block sized from `r` converges slowly
/// where the spectrum clusters just past it.
pub const DEFAULT_TRUNCATED_K: usize = 8;

/// Default Rayleigh-quotient residual tolerance of
/// [`RefitStrategy::truncated`], relative to the largest eigenvalue.
pub const DEFAULT_TRUNCATED_TOL: f64 = 1e-10;

/// How [`StreamingEngine`] recomputes its model when a refit is due.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RefitStrategy {
    /// Materialize the window and rerun the full fit (PCA, subspace
    /// separation — so the 3σ rule is re-run and `r` may move — and
    /// threshold). Exactly the behavior of the seed's sequential loop;
    /// cost grows with the window length.
    ///
    /// The name is historical (and the CLI keyword stays `full`): the
    /// one PCA route ([`PcaMethod::Covariance`](crate::PcaMethod::Covariance))
    /// is a two-pass centring, one Gram product and one symmetric
    /// eigen-solve over the whole window, not an SVD.
    #[default]
    FullSvd,
    /// Maintain sufficient statistics (`n`, `Σy`, `Σyyᵀ`) incrementally
    /// at `O(m²)` per arrival and refit with one `m × m` symmetric
    /// eigen-solve — independent of the window length.
    ///
    /// The 3σ separation rule needs temporal projections that sufficient
    /// statistics cannot provide, so under
    /// [`SeparationPolicy::ThreeSigma`](crate::SeparationPolicy::ThreeSigma)
    /// incremental refits freeze the
    /// normal dimension `r` chosen by the most recent full fit (the
    /// paper's stability argument: the subspace barely moves week over
    /// week). Other policies are re-evaluated on the fresh spectrum.
    ///
    /// The statistics upkeep is paid on every arrival even with
    /// `refit_every = None`, because manual [`StreamingEngine::refit`]
    /// calls (caller-driven cadence) still consume them — callers that
    /// will never refit should pick [`RefitStrategy::FullSvd`], which
    /// maintains nothing.
    Incremental,
    /// Like [`RefitStrategy::Incremental`], but the refit solves only
    /// for the leading eigenpairs of the covariance — blocked subspace
    /// iteration with deflation
    /// ([`TruncatedEigen`](netanom_linalg::decomposition::TruncatedEigen)),
    /// `O(m²·k)` per sweep instead of the dense solve's `O(m³)` — which is
    /// what makes refits affordable on thousand-link topologies.
    ///
    /// The Q-statistic threshold stays **exact**: the residual moments
    /// come from the covariance's power traces minus the computed
    /// eigenvalues' contributions, so detections match the
    /// [`RefitStrategy::Incremental`] route up to the solver tolerance
    /// (pinned by `tests/refit_parity.rs`). The same 3σ freeze of the
    /// normal dimension applies, and the solve locks only the frozen
    /// `r` pairs; statistics upkeep is identical to the incremental
    /// strategy.
    Truncated {
        /// Pairs the iteration block is sized for (raised to the
        /// model's normal dimension when smaller). Under the frozen
        /// `FixedCount(r)` the solve stops once the `r` kept pairs
        /// lock — bitwise the first `r` of a `k`-pair solve; under
        /// `VarianceFraction` all `k` lock and `r` is searched among
        /// them.
        k: usize,
        /// Relative Rayleigh-quotient residual tolerance of the
        /// iteration (see
        /// [`TruncatedEigen::top_k`](netanom_linalg::decomposition::TruncatedEigen::top_k)).
        tol: f64,
    },
}

impl RefitStrategy {
    /// The truncated strategy with the default block size and tolerance
    /// ([`DEFAULT_TRUNCATED_K`], [`DEFAULT_TRUNCATED_TOL`]) — what the
    /// CLI's `--refit truncated` selects.
    pub fn truncated() -> Self {
        RefitStrategy::Truncated {
            k: DEFAULT_TRUNCATED_K,
            tol: DEFAULT_TRUNCATED_TOL,
        }
    }

    /// `true` for the strategies that maintain sliding sufficient
    /// statistics on every arrival (incremental and truncated refits).
    pub fn maintains_statistics(&self) -> bool {
        !matches!(self, RefitStrategy::FullSvd)
    }
}

/// Configuration of the streaming layer (the model itself is configured
/// by [`DiagnoserConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum number of measurements retained for refits. Clamped up to
    /// the training length by [`StreamingEngine::new`] so a refit never
    /// sees fewer rows than the bootstrap fit.
    pub window_capacity: usize,
    /// Refit the model after this many arrivals (`None` = never).
    pub refit_every: Option<usize>,
    /// Refit route.
    pub strategy: RefitStrategy,
}

impl StreamConfig {
    /// A config retaining `window_capacity` rows, never refitting, using
    /// the default (full) refit strategy.
    pub fn new(window_capacity: usize) -> Self {
        StreamConfig {
            window_capacity,
            refit_every: None,
            strategy: RefitStrategy::default(),
        }
    }

    /// Set the refit cadence.
    pub fn refit_every(mut self, every: usize) -> Self {
        self.refit_every = Some(every);
        self
    }

    /// Set the refit strategy.
    pub fn strategy(mut self, strategy: RefitStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// A fixed-capacity sliding window of measurement rows in one contiguous
/// row-major buffer.
///
/// The buffer grows as rows arrive, up to `capacity` rows and never past
/// them, so a `capacity` far beyond what will ever be retained (a
/// client's `window=`, a decoded checkpoint) costs only the rows that
/// are. Once full, pushing overwrites the oldest row in place: `O(m)` per
/// push, `O(1)` eviction, zero steady-state allocation — replacing the
/// `Vec<Vec<f64>>` + `remove(0)` pattern (`O(n)` shift per arrival plus a
/// heap round-trip per row) the original online path used.
#[derive(Debug, Clone)]
pub struct RingWindow {
    /// The retained rows, `len × dim` values. Until the window fills,
    /// nothing has been evicted and they sit in arrival order; after,
    /// rows are addressed modulo `capacity` from `head`.
    data: Vec<f64>,
    capacity: usize,
    dim: usize,
    /// Physical row of the oldest logical row.
    head: usize,
    /// Number of valid rows (`≤ capacity`).
    len: usize,
}

impl RingWindow {
    /// An empty window of `capacity` rows of width `dim`. Allocates
    /// nothing until the first push.
    ///
    /// # Panics
    /// Panics if `capacity` or `dim` is zero.
    pub fn new(capacity: usize, dim: usize) -> Self {
        assert!(capacity > 0, "RingWindow capacity must be positive");
        assert!(dim > 0, "RingWindow dim must be positive");
        RingWindow {
            data: Vec::new(),
            capacity,
            dim,
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of retained rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of retained rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rows are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row width `m`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when the next push will evict the oldest row.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Physical row `slot` of the buffer.
    fn slot(&self, slot: usize) -> &[f64] {
        &self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    /// The `i`-th retained row in arrival order (`0` = oldest).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "RingWindow row {i} out of {}", self.len);
        self.slot((self.head + i) % self.capacity)
    }

    /// The row the next [`RingWindow::push`] will evict, when full.
    pub fn oldest(&self) -> Option<&[f64]> {
        if self.is_full() {
            Some(self.slot(self.head))
        } else {
            None
        }
    }

    /// Append a row, overwriting the oldest when full (`O(m)`; no
    /// allocation once full).
    ///
    /// Until then the buffer doubles with `reserve_exact`, capped at
    /// `capacity` rows, so a full window holds exactly `capacity × dim`.
    ///
    /// # Panics
    /// Panics if `y.len() != dim()`.
    pub fn push(&mut self, y: &[f64]) {
        assert_eq!(y.len(), self.dim, "RingWindow row width mismatch");
        if self.len == self.capacity {
            let at = self.head * self.dim;
            self.data[at..at + self.dim].copy_from_slice(y);
            self.head = (self.head + 1) % self.capacity;
        } else {
            if self.data.len() == self.data.capacity() {
                let rows = (2 * self.len).clamp(1, self.capacity);
                self.data.reserve_exact((rows - self.len) * self.dim);
            }
            self.data.extend_from_slice(y);
            self.len += 1;
        }
    }

    /// The row each push of `block`'s rows will evict, in push order,
    /// borrowed rather than copied: `None` while the window is still
    /// filling, else the oldest row of the combined `[window, block]`
    /// sequence — a retained row while any is left, then the block's own
    /// earlier rows.
    pub fn evictions<'a>(&'a self, block: &'a Matrix) -> Vec<Option<&'a [f64]>> {
        (0..block.rows())
            .map(|t| {
                let idx = (self.len + t).checked_sub(self.capacity)?;
                Some(if idx < self.len {
                    self.row(idx)
                } else {
                    block.row(idx - self.len)
                })
            })
            .collect()
    }

    /// Materialize the window in arrival order as a `len × m` matrix.
    ///
    /// A wrapped window is exactly two contiguous spans of the buffer, so
    /// this is at most two `memcpy`s ([`Matrix::from_segments`]) — no
    /// per-row allocation.
    pub fn to_matrix(&self) -> Matrix {
        let (newest, oldest) = self.data.split_at(self.head * self.dim);
        Matrix::from_segments(self.dim, &[oldest, newest]).expect("whole rows by construction")
    }
}

/// The streaming engine: ring-buffered window, per-arrival or batched
/// scoring against a frozen model, periodic refits — generic over the
/// [`DetectionBackend`] that does the scoring.
///
/// The default backend is the paper's [`SubspaceBackend`], for which
/// this engine reproduces the seed's sequential loop bitwise
/// (`tests/stream_parity.rs`); any other backend — the temporal comparators in `netanom-baselines::methods` —
/// rides the identical ingestion machinery, which is what makes the
/// paper's method comparison honest.
///
/// The engine drives the backend as *score → observe → refit-if-due*:
/// every arrival is scored against the state before it, then folded into
/// the streaming state, and the model is refrozen on the configured
/// cadence.
#[derive(Debug, Clone)]
pub struct StreamingEngine<B: DetectionBackend = SubspaceBackend> {
    backend: B,
    window: RingWindow,
    cadence: Cadence,
}

impl StreamingEngine<SubspaceBackend> {
    /// Bootstrap the subspace engine from historical training data (e.g.
    /// last week's measurements): full fit, window seeded with the most
    /// recent `window_capacity` training rows (clamped up to the
    /// training length).
    pub fn new(
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        stream: StreamConfig,
    ) -> Result<Self> {
        let backend = SubspaceBackend::fit(training, rm, config, stream.strategy)?;
        Self::with_backend(backend, training, stream)
    }

    /// The current (frozen) diagnoser.
    pub fn diagnoser(&self) -> &Diagnoser {
        self.backend.diagnoser()
    }
}

impl<B: DetectionBackend> StreamingEngine<B> {
    /// Assemble an engine around an already-fitted backend, seeding the
    /// window with the most recent `window_capacity` training rows
    /// (clamped up to the training length, so a refit never sees fewer
    /// rows than the bootstrap fit). `training` must be the matrix the
    /// backend was fitted on.
    ///
    /// `stream.strategy` is consumed by backend constructors that honor
    /// it (the subspace backend); it has no engine-level effect here.
    pub fn with_backend(backend: B, training: &Matrix, stream: StreamConfig) -> Result<Self> {
        if training.cols() != backend.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: backend.dim(),
                got: training.cols(),
            });
        }
        let capacity = stream.window_capacity.max(training.rows());
        let mut window = RingWindow::new(capacity, training.cols());
        for t in 0..training.rows() {
            window.push(training.row(t));
        }
        Ok(StreamingEngine {
            backend,
            window,
            cadence: Cadence::new(stream.refit_every),
        })
    }

    /// Reassemble an engine from checkpointed parts without refitting:
    /// an already-restored backend, the retained window rows (oldest
    /// first), and the arrival/refit counters of the exporting engine
    /// ([`Cadence::resume`]).
    ///
    /// With backend, window, and counters restored bit-exactly, every
    /// subsequent [`StreamingEngine::process`] call — scoring, window
    /// eviction, and refit timing — is bitwise identical to the engine
    /// that was checkpointed, which is what lets a restarted service
    /// session resume mid-stream with no warmup.
    pub fn resume(backend: B, window: RingWindow, cadence: Cadence) -> Result<Self> {
        if window.dim() != backend.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: backend.dim(),
                got: window.dim(),
            });
        }
        Ok(StreamingEngine {
            backend,
            window,
            cadence,
        })
    }

    /// The refit cadence in arrivals, if any.
    pub fn refit_cadence(&self) -> Option<usize> {
        self.cadence.refit_every()
    }

    /// Total measurements processed so far.
    pub fn arrivals(&self) -> usize {
        self.cadence.total()
    }

    /// Arrivals since the most recent (re)fit.
    pub fn arrivals_since_refit(&self) -> usize {
        self.cadence.since_fit()
    }

    /// Number of refits performed so far.
    pub fn refits(&self) -> usize {
        self.cadence.refits()
    }

    /// The detection backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The retained measurement window.
    pub fn window(&self) -> &RingWindow {
        &self.window
    }

    /// Process one arriving measurement vector: score it against the
    /// frozen model, slide the window, and refit if due.
    ///
    /// The report's `time` is the arrival counter (0-based).
    pub fn process(&mut self, y: &[f64]) -> Result<DiagnosisReport> {
        let mut report = self.backend.score_vector(y)?;
        let refit_due = self.cadence.stamp(std::slice::from_mut(&mut report));
        self.backend.observe(self.window.oldest(), y)?;
        self.window.push(y);
        if refit_due {
            self.refit()?;
        }
        Ok(report)
    }

    /// Process a whole block of arrivals (rows of a `b × m` matrix) at
    /// once.
    ///
    /// Equivalent to calling [`StreamingEngine::process`] on every row in
    /// order — including mid-block refits, which are honored by
    /// scoring batch-wise only up to each refit boundary — but the
    /// scoring between refits runs through the backend's batched
    /// [`DetectionBackend::score_matrix`] path (a GEMM for the subspace
    /// method). This is the intended entry point for replaying backlogs
    /// or micro-batched collection (e.g. one SNMP poll cycle per call).
    pub fn process_batch(&mut self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        let mut out = Vec::with_capacity(links.rows());
        let mut next = 0;
        while next < links.rows() {
            let take = self.cadence.take(links.rows() - next);
            let block = links.row_block(next, take).expect("range checked");
            let mut reports = self.backend.score_matrix(&block)?;
            let refit_due = self.cadence.stamp(&mut reports);
            out.append(&mut reports);
            let evicted = self.window.evictions(&block);
            self.backend.observe_block(&evicted, &block)?;
            for t in 0..take {
                self.window.push(block.row(t));
            }
            next += take;
            if refit_due {
                self.refit()?;
            }
        }
        Ok(out)
    }

    /// Refreeze the backend's model from the current window
    /// ([`DetectionBackend::refit`] — for the subspace backend, the
    /// configured [`RefitStrategy`]).
    ///
    /// Anomalous bins contaminate a refit slightly; the paper's
    /// week-over-week stability argument is that the top components are
    /// dominated by diurnal structure, so sparse spikes barely move them.
    pub fn refit(&mut self) -> Result<()> {
        self.backend.refit(&self.window)?;
        self.cadence.refitted();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separation::SeparationPolicy;
    use netanom_linalg::vector;
    use netanom_topology::builtin;

    fn training(m: usize, bins: usize, seed: usize) -> Matrix {
        Matrix::from_fn(bins, m, |i, l| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 2e5 * phase.sin() * ((l % 3) as f64 + 1.0);
            let noise = (((i * m + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
            2e6 + smooth + noise
        })
    }

    fn config() -> DiagnoserConfig {
        // The route every verb ships with; `tests/*_parity.rs` run both.
        DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(2),
            ..DiagnoserConfig::default()
        }
    }

    #[test]
    fn ring_window_pushes_evicts_and_wraps() {
        let mut w = RingWindow::new(3, 2);
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
        for i in 0..3 {
            w.push(&[i as f64, 10.0 + i as f64]);
        }
        assert!(w.is_full());
        assert_eq!(w.oldest(), Some(&[0.0, 10.0][..]));
        // Two more pushes wrap the storage.
        w.push(&[3.0, 13.0]);
        w.push(&[4.0, 14.0]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.row(0), &[2.0, 12.0]);
        assert_eq!(w.row(1), &[3.0, 13.0]);
        assert_eq!(w.row(2), &[4.0, 14.0]);
        let m = w.to_matrix();
        assert_eq!(m.shape(), (3, 2));
        for i in 0..3 {
            assert_eq!(m.row(i), w.row(i), "row {i}");
        }
    }

    #[test]
    fn ring_window_to_matrix_partial_and_unwrapped() {
        let mut w = RingWindow::new(4, 1);
        w.push(&[1.0]);
        w.push(&[2.0]);
        let m = w.to_matrix();
        assert_eq!(m.shape(), (2, 1));
        assert_eq!(m.row(0), &[1.0]);
        assert_eq!(m.row(1), &[2.0]);
    }

    #[test]
    fn frozen_engine_matches_batch_diagnoser() {
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 400, 0);
        let fresh = training(rm.num_links(), 100, 400);

        let batch = Diagnoser::fit(&train, rm, config()).unwrap();
        let mut engine =
            StreamingEngine::new(&train, rm, config(), StreamConfig::new(400)).unwrap();

        for t in 0..fresh.rows() {
            let b = batch.diagnose_vector(fresh.row(t)).unwrap();
            let o = engine.process(fresh.row(t)).unwrap();
            assert_eq!(o.time, t);
            assert_eq!(b.spe, o.spe);
            assert_eq!(b.detected, o.detected);
        }
        assert_eq!(engine.arrivals(), 100);
        assert_eq!(engine.refits(), 0);

        // A spike streamed into flow 6 alarms and names that flow.
        let mut y = training(rm.num_links(), 1, 997).row(0).to_vec();
        vector::axpy(8e6, &rm.column(6), &mut y);
        let rep = engine.process(&y).unwrap();
        assert!(rep.detected);
        assert_eq!(rep.identification.unwrap().flow, 6);
    }

    #[test]
    fn incremental_and_full_refits_agree_on_detections() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let mut full =
            StreamingEngine::new(&train, rm, config(), StreamConfig::new(300).refit_every(50))
                .unwrap();
        let mut inc = StreamingEngine::new(
            &train,
            rm,
            config(),
            StreamConfig::new(300)
                .refit_every(50)
                .strategy(RefitStrategy::Incremental),
        )
        .unwrap();

        let fresh = training(rm.num_links(), 160, 300);
        let mut spike = fresh.clone();
        let mut row = spike.row(120).to_vec();
        vector::axpy(9e6, &rm.column(2), &mut row);
        spike.set_row(120, &row);

        let mut spike_reports = (false, false);
        for t in 0..spike.rows() {
            let f = full.process(spike.row(t)).unwrap();
            let i = inc.process(spike.row(t)).unwrap();
            assert_eq!(f.detected, i.detected, "divergence at arrival {t}");
            let rel = (f.spe - i.spe).abs() / f.spe.max(1.0);
            assert!(rel < 1e-5, "SPE divergence {rel:.2e} at arrival {t}");
            if t == 120 {
                spike_reports = (f.detected, i.detected);
            }
        }
        assert_eq!(full.refits(), inc.refits());
        assert_eq!(full.refits(), 3);
        // The staged spike is caught by both routes.
        assert_eq!(spike_reports, (true, true));
        // The refitted model has absorbed the fresh data without turning
        // clean traffic into an alarm storm.
        let tail = training(rm.num_links(), 50, 777);
        let alarms = (0..tail.rows())
            .filter(|&t| full.process(tail.row(t)).unwrap().detected)
            .count();
        assert!(alarms <= 2, "{alarms} alarms after refit");
    }

    #[test]
    fn incremental_refit_with_three_sigma_freezes_r() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let cfg = DiagnoserConfig::default(); // ThreeSigma
        let mut engine = StreamingEngine::new(
            &train,
            rm,
            cfg,
            StreamConfig::new(300)
                .refit_every(60)
                .strategy(RefitStrategy::Incremental),
        )
        .unwrap();
        let r0 = engine.diagnoser().model().normal_dim();
        let fresh = training(rm.num_links(), 130, 300);
        for t in 0..fresh.rows() {
            engine.process(fresh.row(t)).unwrap();
        }
        assert_eq!(engine.refits(), 2);
        assert_eq!(engine.diagnoser().model().normal_dim(), r0);
    }

    #[test]
    fn manual_refit_resets_counter_and_counts() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 200, 0);
        let mut engine = StreamingEngine::new(
            &train,
            rm,
            config(),
            StreamConfig::new(200).refit_every(1000),
        )
        .unwrap();
        engine.process(train.row(10)).unwrap();
        assert_eq!(engine.arrivals_since_refit(), 1);
        engine.refit().unwrap();
        assert_eq!(engine.arrivals_since_refit(), 0);
        assert_eq!(engine.arrivals(), 1);
        assert_eq!(engine.refits(), 1);
    }
}
