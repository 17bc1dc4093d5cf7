//! The streaming ingestion engine: the single online entry point.
//!
//! The paper pitches the subspace method "as a first-level online
//! monitoring tool" (Section 7.1): the SVD is computed occasionally, and
//! each arriving measurement is diagnosed against the frozen model in
//! `O(m·r)`. [`StreamingEngine`] is the production-shaped realization of
//! that sketch:
//!
//! * the retained history lives in a [`RingWindow`] — one contiguous
//!   `capacity × m` allocation with `O(1)` eviction, no per-row boxing,
//!   no `remove(0)` shifting;
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
//!   refit boundaries;
//! * several measurement kinds (bytes, packets, flow-entropy, …) stream
//!   through one [`MultiwayEngine`] that keeps the per-way engines in
//!   lockstep.
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
use crate::multiflow::{self, MultiFlowAnomaly};
use crate::{CoreError, Result};

/// Default number of top eigenpairs computed by
/// [`RefitStrategy::truncated`] — comfortably above the normal
/// dimension the 3σ rule picks on backbone data (`r ≈ 4`), so the
/// frozen `r` always fits inside the computed block.
pub const DEFAULT_TRUNCATED_K: usize = 8;

/// Default Rayleigh-quotient residual tolerance of
/// [`RefitStrategy::truncated`], relative to the largest eigenvalue.
pub const DEFAULT_TRUNCATED_TOL: f64 = 1e-10;

/// How [`StreamingEngine`] recomputes its model when a refit is due.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RefitStrategy {
    /// Materialize the window and rerun the full fit (PCA via the
    /// configured [`crate::PcaMethod`], subspace separation — so the 3σ
    /// rule is re-run and `r` may move — and threshold). Exactly the
    /// behavior of the seed's sequential loop; cost grows with the
    /// window length.
    ///
    /// The name is historical (and the CLI keyword stays `full`): on
    /// the default [`PcaMethod::Covariance`](crate::PcaMethod::Covariance)
    /// route this is a two-pass centring, one Gram product and one
    /// symmetric eigen-solve over the whole window, not an SVD.
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
    /// for the top `k` eigenpairs of the covariance — blocked subspace
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
    /// normal dimension applies, and `k` is raised to the frozen `r`
    /// when necessary; statistics upkeep is identical to the
    /// incremental strategy.
    Truncated {
        /// Number of top eigenpairs to compute (raised to the model's
        /// normal dimension when smaller).
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

/// A fixed-capacity sliding window of measurement rows backed by one
/// contiguous `capacity × m` allocation.
///
/// Pushing into a full window overwrites the oldest row in place: `O(m)`
/// per push, `O(1)` eviction, zero steady-state allocation — replacing
/// the `Vec<Vec<f64>>` + `remove(0)` pattern (`O(n)` shift per arrival
/// plus a heap round-trip per row) the original online path used.
#[derive(Debug, Clone)]
pub struct RingWindow {
    /// Flat `capacity × dim` storage; rows are addressed modulo
    /// `capacity`.
    data: Matrix,
    /// Physical row of the oldest logical row.
    head: usize,
    /// Number of valid rows (`≤ capacity`).
    len: usize,
}

impl RingWindow {
    /// An empty window of `capacity` rows of width `dim`.
    ///
    /// # Panics
    /// Panics if `capacity` or `dim` is zero.
    pub fn new(capacity: usize, dim: usize) -> Self {
        assert!(capacity > 0, "RingWindow capacity must be positive");
        assert!(dim > 0, "RingWindow dim must be positive");
        RingWindow {
            data: Matrix::zeros(capacity, dim),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of retained rows.
    pub fn capacity(&self) -> usize {
        self.data.rows()
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
        self.data.cols()
    }

    /// `true` when the next push will evict the oldest row.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// The `i`-th retained row in arrival order (`0` = oldest).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "RingWindow row {i} out of {}", self.len);
        self.data.row((self.head + i) % self.capacity())
    }

    /// The row the next [`RingWindow::push`] will evict, when full.
    pub fn oldest(&self) -> Option<&[f64]> {
        if self.is_full() {
            Some(self.data.row(self.head))
        } else {
            None
        }
    }

    /// Append a row, overwriting the oldest when full (`O(m)`, no
    /// allocation).
    ///
    /// # Panics
    /// Panics if `y.len() != dim()`.
    pub fn push(&mut self, y: &[f64]) {
        let cap = self.capacity();
        assert_eq!(y.len(), self.dim(), "RingWindow row width mismatch");
        if self.len == cap {
            self.data.row_mut(self.head).copy_from_slice(y);
            self.head = (self.head + 1) % cap;
        } else {
            let slot = (self.head + self.len) % cap;
            self.data.row_mut(slot).copy_from_slice(y);
            self.len += 1;
        }
    }

    /// Materialize the window in arrival order as a `len × m` matrix.
    ///
    /// A wrapped window is exactly two contiguous spans of the backing
    /// storage, so this is at most two `memcpy`s
    /// ([`Matrix::from_segments`]) — no per-row allocation.
    pub fn to_matrix(&self) -> Matrix {
        let cap = self.capacity();
        let first = self.len.min(cap - self.head);
        let a = self
            .data
            .row_span(self.head, first)
            .expect("within storage");
        let b = self
            .data
            .row_span(0, self.len - first)
            .expect("within storage");
        Matrix::from_segments(self.dim(), &[a, b]).expect("whole rows by construction")
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

    /// The active refit strategy.
    pub fn strategy(&self) -> RefitStrategy {
        self.backend.strategy()
    }

    /// The current (frozen) diagnoser.
    pub fn diagnoser(&self) -> &Diagnoser {
        self.backend.diagnoser()
    }

    /// Diagnose a measurement for a *multi-flow* anomaly against the
    /// frozen model, without advancing the stream: greedy matching
    /// pursuit ([`multiflow::greedy_identify`]) over at most `max_flows`
    /// flows, keeping a flow only if it explains at least `min_gain` of
    /// the residual energy.
    ///
    /// Returns `Ok(None)` when the detection step does not fire — the
    /// paper does not attempt identification on undetected bins.
    pub fn diagnose_multiflow(
        &self,
        y: &[f64],
        max_flows: usize,
        min_gain: f64,
    ) -> Result<Option<MultiFlowAnomaly>> {
        let diagnoser = self.backend.diagnoser();
        let report = diagnoser.diagnose_vector(y)?;
        if !report.detected {
            return Ok(None);
        }
        multiflow::greedy_identify(
            diagnoser.model(),
            self.backend.routing(),
            diagnoser.identifier(),
            y,
            max_flows,
            min_gain,
        )
        .map(Some)
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

    /// Slide the window and the backend's streaming state by one
    /// arrival.
    fn ingest_row(&mut self, y: &[f64]) -> Result<()> {
        self.backend.observe(self.window.oldest(), y)?;
        self.window.push(y);
        Ok(())
    }

    /// Process one arriving measurement vector: score it against the
    /// frozen model, slide the window, and refit if due.
    ///
    /// The report's `time` is the arrival counter (0-based).
    pub fn process(&mut self, y: &[f64]) -> Result<DiagnosisReport> {
        let mut report = self.backend.score_vector(y)?;
        let refit_due = self.cadence.stamp(std::slice::from_mut(&mut report));
        self.ingest_row(y)?;
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
            for t in 0..take {
                self.ingest_row(block.row(t))?;
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

/// One synchronized report from a [`MultiwayEngine`]: the per-way
/// diagnosis of a single time bin.
#[derive(Debug, Clone)]
pub struct MultiwayReport {
    /// Per-way reports, aligned with [`MultiwayEngine::way_names`].
    pub reports: Vec<DiagnosisReport>,
    /// Number of ways whose detection fired.
    pub detections: usize,
}

impl MultiwayReport {
    /// `true` if any way detected an anomaly this bin.
    pub fn any_detected(&self) -> bool {
        self.detections > 0
    }

    /// `true` if at least `min_ways` ways fired — a simple consensus
    /// rule; requiring two of {bytes, packets, entropy} suppresses
    /// single-metric measurement glitches.
    pub fn consensus(&self, min_ways: usize) -> bool {
        self.detections >= min_ways
    }
}

/// Several measurement kinds (*ways*) of the same network — e.g. byte
/// counts, packet counts, and flow-entropy summaries — streaming in
/// lockstep through one engine per way.
///
/// The multi-way view is how the follow-on traffic-feature work deploys
/// the subspace method: volume anomalies surface in bytes/packets while
/// distributional anomalies (scans, worms) surface in entropy; running
/// the ways against one clock gives a per-bin consensus report.
#[derive(Debug, Clone)]
pub struct MultiwayEngine<B: DetectionBackend = SubspaceBackend> {
    names: Vec<String>,
    engines: Vec<StreamingEngine<B>>,
}

impl<B: DetectionBackend> MultiwayEngine<B> {
    /// Assemble from named per-way engines (at least one).
    pub fn new(ways: Vec<(String, StreamingEngine<B>)>) -> Result<Self> {
        if ways.is_empty() {
            return Err(CoreError::NoCandidates);
        }
        let (names, engines) = ways.into_iter().unzip();
        Ok(MultiwayEngine { names, engines })
    }

    /// Number of ways.
    pub fn num_ways(&self) -> usize {
        self.engines.len()
    }

    /// The way names, in report order.
    pub fn way_names(&self) -> &[String] {
        &self.names
    }

    /// The engine behind way `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_ways()`.
    pub fn way(&self, i: usize) -> &StreamingEngine<B> {
        &self.engines[i]
    }

    /// Process one time bin: measurement vector `rows[i]` goes to way
    /// `i`. Errors if the slice count does not match the way count; a
    /// failing way aborts the bin *before any way ingests it* (widths
    /// and finiteness are validated up front), so bad input can never
    /// drift the ways out of lockstep. A refit failure mid-call is the
    /// one desynchronizing error left; it means that way's window can no
    /// longer support a model, and the ensemble should be rebuilt.
    pub fn process(&mut self, rows: &[&[f64]]) -> Result<MultiwayReport> {
        if rows.len() != self.engines.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.engines.len(),
                got: rows.len(),
            });
        }
        // Validate everything up front so no way ingests a row unless
        // all ways will.
        for (engine, row) in self.engines.iter().zip(rows) {
            if row.len() != engine.window.dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: engine.window.dim(),
                    got: row.len(),
                });
            }
            if let Some(link) = row.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteMeasurement { link });
            }
        }
        let mut reports = Vec::with_capacity(self.engines.len());
        for (engine, row) in self.engines.iter_mut().zip(rows) {
            reports.push(engine.process(row)?);
        }
        let detections = reports.iter().filter(|r| r.detected).count();
        Ok(MultiwayReport {
            reports,
            detections,
        })
    }

    /// Process a whole block per way (`blocks[i]` is a `b × mᵢ` matrix,
    /// all with the same row count `b`): the batched form of
    /// [`MultiwayEngine::process`], returning one [`MultiwayReport`] per
    /// bin. The same up-front validation (row counts, widths,
    /// finiteness) guarantees bad input is rejected before any way
    /// ingests a row.
    pub fn process_batch(&mut self, blocks: &[Matrix]) -> Result<Vec<MultiwayReport>> {
        if blocks.len() != self.engines.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.engines.len(),
                got: blocks.len(),
            });
        }
        let bins = blocks.first().map_or(0, Matrix::rows);
        for (engine, b) in self.engines.iter().zip(blocks) {
            if b.rows() != bins {
                return Err(CoreError::DimensionMismatch {
                    expected: bins,
                    got: b.rows(),
                });
            }
            if b.cols() != engine.window.dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: engine.window.dim(),
                    got: b.cols(),
                });
            }
            for t in 0..b.rows() {
                if let Some(link) = b.row(t).iter().position(|v| !v.is_finite()) {
                    return Err(CoreError::NonFiniteMeasurement { link });
                }
            }
        }
        let mut per_way = Vec::with_capacity(self.engines.len());
        for (engine, block) in self.engines.iter_mut().zip(blocks) {
            per_way.push(engine.process_batch(block)?);
        }
        let mut out = Vec::with_capacity(bins);
        for t in 0..bins {
            let reports: Vec<DiagnosisReport> = per_way.iter().map(|w| w[t]).collect();
            let detections = reports.iter().filter(|r| r.detected).count();
            out.push(MultiwayReport {
                reports,
                detections,
            });
        }
        Ok(out)
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
    fn multiflow_hook_reports_detected_bins_only() {
        let net = builtin::sprint_europe();
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 400, 0);
        let engine = StreamingEngine::new(&train, rm, config(), StreamConfig::new(400)).unwrap();

        let quiet = training(rm.num_links(), 1, 900).row(0).to_vec();
        assert!(engine
            .diagnose_multiflow(&quiet, 3, 0.05)
            .unwrap()
            .is_none());

        let mut y = quiet.clone();
        vector::axpy(2e7, &rm.column(20), &mut y);
        vector::axpy(1.5e7, &rm.column(130), &mut y);
        let found = engine.diagnose_multiflow(&y, 4, 0.05).unwrap().unwrap();
        assert!(found.flows.contains(&20), "found {:?}", found.flows);
    }

    #[test]
    fn multiway_engines_stay_in_lockstep() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let bytes_train = training(rm.num_links(), 300, 0);
        let pkts_train = bytes_train.scaled(1.0 / 1500.0); // ~MTU-sized packets
        let mk = |train: &Matrix| {
            StreamingEngine::new(train, rm, config(), StreamConfig::new(300).refit_every(80))
                .unwrap()
        };
        let mut multi = MultiwayEngine::new(vec![
            ("bytes".to_string(), mk(&bytes_train)),
            ("packets".to_string(), mk(&pkts_train)),
        ])
        .unwrap();
        assert_eq!(multi.way_names(), ["bytes", "packets"]);

        let fresh = training(rm.num_links(), 100, 300);
        for t in 0..fresh.rows() {
            let row = fresh.row(t).to_vec();
            let pkts = vector::scaled(&row, 1.0 / 1500.0);
            let rep = multi.process(&[&row, &pkts]).unwrap();
            assert_eq!(rep.reports.len(), 2);
            assert_eq!(rep.reports[0].time, t);
            assert_eq!(rep.reports[1].time, t);
        }
        assert_eq!(multi.way(0).arrivals(), 100);
        assert_eq!(multi.way(1).arrivals(), 100);
        // An anomaly visible in both ways reaches consensus.
        let mut row = fresh.row(50).to_vec();
        vector::axpy(8e6, &rm.column(2), &mut row);
        let pkts = vector::scaled(&row, 1.0 / 1500.0);
        let rep = multi.process(&[&row, &pkts]).unwrap();
        assert!(rep.any_detected());
        assert!(rep.consensus(2));
    }

    #[test]
    fn multiway_batch_equals_sequential() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let mk = || {
            StreamingEngine::new(&train, rm, config(), StreamConfig::new(300).refit_every(40))
                .unwrap()
        };
        let mut seq = MultiwayEngine::new(vec![
            ("bytes".to_string(), mk()),
            ("packets".to_string(), mk()),
        ])
        .unwrap();
        let mut bat = seq.clone();

        let fresh = training(rm.num_links(), 90, 300);
        let mut seq_reports = Vec::new();
        for t in 0..fresh.rows() {
            seq_reports.push(seq.process(&[fresh.row(t), fresh.row(t)]).unwrap());
        }
        let bat_reports = bat.process_batch(&[fresh.clone(), fresh.clone()]).unwrap();
        assert_eq!(bat_reports.len(), seq_reports.len());
        for (b, s) in bat_reports.iter().zip(&seq_reports) {
            for (br, sr) in b.reports.iter().zip(&s.reports) {
                assert_eq!(br.time, sr.time);
                assert_eq!(br.detected, sr.detected);
                assert!((br.spe - sr.spe).abs() <= 1e-12 * sr.spe.max(1.0));
            }
        }
        // One batched call leaves the engine where row-by-row calls do:
        // same refit phase, same retained window.
        let (b, s) = (bat.way(0), seq.way(0));
        assert_eq!(b.arrivals_since_refit(), s.arrivals_since_refit());
        assert_eq!(b.window().len(), s.window().len());
        for i in 0..b.window().len() {
            assert_eq!(b.window().row(i), s.window().row(i), "window row {i}");
        }
    }

    #[test]
    fn multiway_validates_shapes() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 200, 0);
        let engine = StreamingEngine::new(&train, rm, config(), StreamConfig::new(200)).unwrap();
        let mut multi = MultiwayEngine::new(vec![("bytes".to_string(), engine)]).unwrap();
        assert!(MultiwayEngine::<SubspaceBackend>::new(vec![]).is_err());
        assert!(multi.process(&[]).is_err());
        let short = [1.0, 2.0];
        assert!(multi.process(&[&short[..]]).is_err());
        // Non-finite rows are rejected before any way ingests.
        let m = multi.way(0).window().dim();
        let mut bad = vec![1.0; m];
        bad[1] = f64::NAN;
        assert!(matches!(
            multi.process(&[&bad[..]]),
            Err(CoreError::NonFiniteMeasurement { link: 1 })
        ));
        // Batched entry point validates widths and finiteness too.
        assert!(multi.process_batch(&[Matrix::zeros(2, m + 1)]).is_err());
        let mut block = Matrix::zeros(2, m);
        block[(1, 0)] = f64::INFINITY;
        assert!(matches!(
            multi.process_batch(&[block]),
            Err(CoreError::NonFiniteMeasurement { link: 0 })
        ));
        // Nothing was ingested by the failed calls.
        assert_eq!(multi.way(0).arrivals(), 0);
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
