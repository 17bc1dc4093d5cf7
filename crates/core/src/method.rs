//! Pluggable detection backends: the method layer of the engines.
//!
//! The paper's central claim is comparative — the network-wide subspace
//! method separates anomalies that per-link *temporal* filters (EWMA,
//! Fourier, wavelets; Section 6, Figure 10) cannot. Comparing methods
//! honestly requires running every one of them through the same
//! ingestion and evaluation machinery. This module makes the detection
//! method a first-class, swappable component:
//!
//! * [`DetectionBackend`] is the contract every method implements:
//!   per-arrival [`score_vector`](DetectionBackend::score_vector) and
//!   state-advancing [`observe`](DetectionBackend::observe), batched
//!   [`score_matrix`](DetectionBackend::score_matrix) (the GEMM path
//!   where the method allows), a cadenced
//!   [`refit`](DetectionBackend::refit) from the engine's retained
//!   window, and a serializable [`MethodState`] for model broadcast and
//!   checkpointing.
//! * [`SubspaceBackend`] is the reference implementation: the
//!   subspace/Q-statistic pipeline, producing bitwise the reports the
//!   pre-refactor engines produced (pinned by `tests/stream_parity.rs`
//!   and `tests/shard_parity.rs`).
//! * [`SubspaceShard`] is one link shard's slice of the subspace state,
//!   with the phase A/B computations whose partials the coordinator
//!   merges **in shard order** ([`merge_coeff_partials`]). Only the
//!   subspace method is network-wide — its projection and covariance
//!   span every link — so it is the only method with something to merge
//!   across a link partition; [`ShardedEngine`](crate::ShardedEngine)
//!   and the TCP tracker/worker drive these phases directly.
//!
//! The temporal comparators (EWMA, Holt–Winters, Fourier, Haar wavelet)
//! implement [`DetectionBackend`] in `netanom-baselines` (`methods`
//! module), which also hosts the by-name registry the CLI's `--method`
//! flag resolves against and `MethodBackend`, the enum the streaming
//! verbs run any registered method through.
//!
//! # Engine contract
//!
//! [`StreamingEngine`](crate::StreamingEngine) drives a backend as:
//! `score` the arrival against the frozen model, then `observe` it
//! (advance streaming state as the window slides), then `refit` when the
//! cadence is due. Scoring therefore always sees the state *before* the
//! arrival — exactly one-step-ahead forecasting for the temporal
//! methods, and the frozen-model diagnosis of Section 7.1 for the
//! subspace method.

use std::fmt;

use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::codec::{self, CodecError, Reader};
use crate::diagnose::{Diagnoser, DiagnoserConfig, DiagnosisReport};
use crate::incremental::{CovarianceShard, IncrementalCovariance};
use crate::separation::SeparationPolicy;
use crate::stream::{RefitStrategy, RingWindow};
use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// A detection method runnable through the streaming engine.
///
/// Implementations are fitted at construction (each backend has its own
/// constructor taking whatever the method needs — routing for the
/// subspace method, smoothing weights for EWMA, …); the trait covers
/// only what the engine drives. See the [module docs](self) for the
/// score → observe → refit contract.
pub trait DetectionBackend: fmt::Debug {
    /// Stable method name (`"subspace"`, `"ewma"`, …) — the identifier
    /// the CLI registry and [`MethodState`] use.
    fn name(&self) -> &'static str;

    /// Measurement-vector width `m` the backend was fitted for.
    fn dim(&self) -> usize;

    /// The detection threshold currently in force (the subspace
    /// Q-statistic `δ²_α`, or a temporal method's calibrated
    /// residual-energy cutoff).
    fn threshold(&self) -> f64;

    /// Score the next arrival against the frozen model without
    /// advancing any state. The report's `time` is 0; the engine stamps
    /// it.
    fn score_vector(&self, y: &[f64]) -> Result<DiagnosisReport>;

    /// Score a whole block of consecutive arrivals (rows of a `b × m`
    /// matrix) without advancing state — equivalent to scoring each row
    /// in order, but free to batch (the subspace backend rides the
    /// fused GEMM detection kernel).
    fn score_matrix(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>>;

    /// Advance the per-arrival streaming state: the engine's window just
    /// slid by one row (`evicted` is the row that fell out, `None` while
    /// the window is still filling).
    fn observe(&mut self, evicted: Option<&[f64]>, y: &[f64]) -> Result<()>;

    /// Advance the streaming state over a block of window pushes:
    /// push `t` adds `block.row(t)` and evicts `evicted[t]`
    /// ([`RingWindow::evictions`]). Equivalent to calling
    /// [`observe`](Self::observe) push after push — what this default
    /// does; the subspace backend folds the block into its statistics
    /// in one pass ([`CovarianceShard::observe_block`]).
    fn observe_block(&mut self, evicted: &[Option<&[f64]>], block: &Matrix) -> Result<()> {
        for (t, &old) in evicted.iter().enumerate() {
            self.observe(old, block.row(t))?;
        }
        Ok(())
    }

    /// Cadenced refit from the engine's retained window: rebuild the
    /// model (and threshold) the scoring methods are frozen against.
    fn refit(&mut self, window: &RingWindow) -> Result<()>;

    /// Export the frozen model as a serializable [`MethodState`] — the
    /// unit a sharded deployment broadcasts and a checkpoint stores.
    fn export_state(&self) -> MethodState;
}

/// Serializable model state: what a coordinator broadcasts to shards and
/// what a checkpoint stores. Deliberately schema-light — a method name
/// plus scalar/vector/matrix payloads — so backends with very different
/// models share one wire format.
///
/// [`MethodState::to_bytes`] / [`MethodState::from_bytes`] give a
/// self-contained little-endian binary encoding (no external
/// serialization crates).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodState {
    /// The owning backend's [`DetectionBackend::name`].
    pub method: String,
    /// Scalar payload (model hyperparameters, thresholds, counters).
    pub scalars: Vec<f64>,
    /// Vector payload (means, spectra, per-link parameters).
    pub vectors: Vec<Vec<f64>>,
    /// Matrix payload (bases, per-link seasonal tables).
    pub matrices: Vec<Matrix>,
}

/// Magic prefix of the binary encoding (`"NAMS"` = netanom method
/// state).
const STATE_MAGIC: [u8; 4] = *b"NAMS";
/// Encoding version.
const STATE_VERSION: u32 = 1;

/// `NAMS` spells every length as a `u32`.
fn put_len(out: &mut Vec<u8>, n: usize) {
    codec::put_u32(out, n as u32);
}

fn len(r: &mut Reader<'_>) -> std::result::Result<usize, CodecError> {
    Ok(r.u32()? as usize)
}

impl MethodState {
    /// Encode as a self-contained little-endian byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::header(&mut out, STATE_MAGIC, STATE_VERSION);
        put_len(&mut out, self.method.len());
        out.extend_from_slice(self.method.as_bytes());
        put_len(&mut out, self.scalars.len());
        codec::put_f64s(&mut out, &self.scalars);
        put_len(&mut out, self.vectors.len());
        for v in &self.vectors {
            put_len(&mut out, v.len());
            codec::put_f64s(&mut out, v);
        }
        put_len(&mut out, self.matrices.len());
        for m in &self.matrices {
            put_len(&mut out, m.rows());
            put_len(&mut out, m.cols());
            codec::put_f64s(&mut out, m.as_slice());
        }
        out
    }

    /// Decode a buffer produced by [`MethodState::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        r.expect_header(STATE_MAGIC, STATE_VERSION)?;
        let name_len = len(&mut r)?;
        let method = r.utf8(name_len)?.to_string();
        let n = len(&mut r)?;
        let scalars = r.f64s(n)?;
        // Each element consumes at least its own length field, so these
        // loops end with the buffer however large the counts claim to be.
        let vectors = (0..len(&mut r)?)
            .map(|_| {
                let n = len(&mut r)?;
                r.f64s(n)
            })
            .collect::<std::result::Result<_, _>>()?;
        let matrices = (0..len(&mut r)?)
            .map(|_| {
                let (rows, cols) = (len(&mut r)?, len(&mut r)?);
                r.matrix_body(rows, cols)
            })
            .collect::<std::result::Result<_, _>>()?;
        r.finish()?;
        Ok(MethodState {
            method,
            scalars,
            vectors,
            matrices,
        })
    }

    /// Check the state targets the given method.
    pub fn expect_method(&self, name: &str) -> Result<()> {
        if self.method != name {
            return Err(CoreError::InvalidState {
                reason: "state belongs to a different method",
            });
        }
        Ok(())
    }
}

/// Rebuild a [`SubspaceModel`] (and its confidence level) from an
/// exported subspace [`MethodState`] — the single decoder behind
/// [`SubspaceBackend::from_state`] and the distributed worker's model
/// broadcast, so a state installed over the wire assembles into
/// **bitwise** the model the exporter froze.
pub fn subspace_model_from_state(state: &MethodState) -> Result<(SubspaceModel, f64)> {
    state.expect_method("subspace")?;
    let (r, confidence, moments) = match state.scalars[..] {
        [r, confidence] => (r, confidence, None),
        [r, confidence, phi1, phi2, phi3] => (r, confidence, Some((phi1, phi2, phi3))),
        _ => {
            return Err(CoreError::InvalidState {
                reason: "subspace state needs [r, confidence] or \
                         [r, confidence, phi1, phi2, phi3] scalars",
            })
        }
    };
    let [mean, eigenvalues] = &state.vectors[..] else {
        return Err(CoreError::InvalidState {
            reason: "subspace state needs [mean, eigenvalues] vectors",
        });
    };
    let [basis] = &state.matrices[..] else {
        return Err(CoreError::InvalidState {
            reason: "subspace state needs [basis] matrix",
        });
    };
    let model = match moments {
        None => {
            SubspaceModel::from_parts(mean.clone(), basis.clone(), eigenvalues.clone(), r as usize)
        }
        Some(moments) => SubspaceModel::from_parts_truncated(
            mean.clone(),
            basis.clone(),
            eigenvalues.clone(),
            r as usize,
            moments,
        ),
    }
    .map_err(|_| CoreError::InvalidState {
        reason: "subspace state does not assemble into a model",
    })?;
    Ok((model, confidence))
}

/// Per-bin output of one shard's phase B: its partial score
/// contributions and its residual slice.
#[derive(Debug)]
pub struct ShardScores {
    /// One partial score per bin of the block, summed across shards *in
    /// shard order* by the coordinator.
    pub scores: Vec<f64>,
    /// Residual column slice (`b × m_s`) for the coordinator to
    /// assemble when a bin fires.
    pub residual: Matrix,
}

/// The subspace/Q-statistic pipeline as a [`DetectionBackend`] — the
/// reference implementation, bitwise identical to the pre-refactor
/// engines' behavior.
///
/// Owns the three-step [`Diagnoser`], the routing matrix, and (under
/// [`RefitStrategy::Incremental`]) the sliding sufficient statistics the
/// engine's `observe` calls maintain.
#[derive(Debug, Clone)]
pub struct SubspaceBackend {
    diagnoser: Diagnoser,
    rm: RoutingMatrix,
    config: DiagnoserConfig,
    strategy: RefitStrategy,
    /// Sufficient statistics over exactly the engine's window rows;
    /// maintained only under [`RefitStrategy::Incremental`].
    stats: Option<IncrementalCovariance>,
}

impl SubspaceBackend {
    /// Fit on a `t × m` training matrix: full subspace fit plus (under
    /// the incremental strategy) sufficient statistics over the same
    /// rows.
    pub fn fit(
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
    ) -> Result<Self> {
        let mut backend = Self::fit_sharded(training, rm, config, strategy)?;
        if strategy.maintains_statistics() {
            backend.stats = Some(IncrementalCovariance::from_matrix(training));
        }
        Ok(backend)
    }

    /// Like [`SubspaceBackend::fit`], but for a backend that will drive
    /// a [`ShardedEngine`](crate::ShardedEngine): the global streaming
    /// statistics are skipped, because a sharded deployment maintains
    /// its statistics in the per-shard [`CovarianceShard`] rows
    /// ([`SubspaceShard`]) — the global accumulator
    /// would be write-only dead state paying `O(t·m²)` at bootstrap.
    ///
    /// A backend built this way cannot refit inside a
    /// [`StreamingEngine`](crate::StreamingEngine) under a
    /// statistics-maintaining strategy: its streaming
    /// [`refit`](DetectionBackend::refit) needs the statistics this
    /// constructor omits and answers [`CoreError::ShardMismatch`]. The
    /// sharded refit path never touches them.
    pub fn fit_sharded(
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
    ) -> Result<Self> {
        let diagnoser = Diagnoser::fit(training, rm, config)?;
        Ok(SubspaceBackend {
            diagnoser,
            rm: rm.clone(),
            config,
            strategy,
            stats: None,
        })
    }

    /// Reconstruct a backend from an exported [`MethodState`] without
    /// refitting — the restore half of a service-session checkpoint.
    ///
    /// The model is rebuilt bit-exactly from the state (including the
    /// truncated-refit residual moments, via
    /// [`subspace_model_from_state`]); `stats` reinstalls the sliding
    /// sufficient statistics a statistics-maintaining `strategy` needs,
    /// so subsequent observes and refits continue the exact history of
    /// the exporting process. The state's embedded confidence is
    /// ignored in favor of `config.confidence` (the session's opened
    /// configuration is authoritative, and an exporting session always
    /// embeds the same value).
    pub fn from_state(
        state: &MethodState,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
        stats: Option<IncrementalCovariance>,
    ) -> Result<Self> {
        let (model, _confidence) = subspace_model_from_state(state)?;
        if let Some(acc) = &stats {
            if acc.dim() != model.dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: model.dim(),
                    got: acc.dim(),
                });
            }
        }
        if strategy.maintains_statistics() && stats.is_none() {
            return Err(CoreError::InvalidState {
                reason: "a statistics-maintaining strategy needs restored statistics",
            });
        }
        let diagnoser = Diagnoser::from_model(model, rm, config.confidence)?;
        Ok(SubspaceBackend {
            diagnoser,
            rm: rm.clone(),
            config,
            strategy,
            stats,
        })
    }

    /// The sliding sufficient statistics, when the strategy maintains
    /// them — the statistics half of a service-session checkpoint
    /// (serialize with [`IncrementalCovariance::to_bytes`]).
    pub fn statistics(&self) -> Option<&IncrementalCovariance> {
        self.stats.as_ref()
    }

    /// The current (frozen) three-step diagnoser.
    pub fn diagnoser(&self) -> &Diagnoser {
        &self.diagnoser
    }

    /// The active refit strategy.
    pub fn strategy(&self) -> RefitStrategy {
        self.strategy
    }

    /// The diagnoser configuration the backend refits with.
    pub fn config(&self) -> DiagnoserConfig {
        self.config
    }

    /// The refit policy: under 3σ separation, incremental refits freeze
    /// the normal dimension chosen by the last full fit (sufficient
    /// statistics carry no temporal projections).
    fn incremental_policy(&self) -> SeparationPolicy {
        match self.config.separation {
            SeparationPolicy::ThreeSigma { .. } => {
                SeparationPolicy::FixedCount(self.diagnoser.model().normal_dim())
            }
            other => other,
        }
    }

    /// Refit the frozen model from merged sufficient statistics — the
    /// coordinator step after an [`IncrementalCovariance::merge`] of the
    /// shard rows, shared by the in-process
    /// [`ShardedEngine::refit`](crate::ShardedEngine::refit) and the TCP
    /// tracker so both refit bitwise identically. Applies the same 3σ
    /// normal-dimension freeze as the streaming refit. Errors with
    /// [`CoreError::ShardMismatch`] under [`RefitStrategy::FullSvd`],
    /// which does not refit from statistics.
    pub fn refit_from_statistics(&mut self, stats: &IncrementalCovariance) -> Result<()> {
        let model = match self.strategy {
            RefitStrategy::FullSvd => {
                return Err(CoreError::ShardMismatch {
                    reason: "full refits rebuild from the window, not statistics",
                })
            }
            RefitStrategy::Incremental => stats.to_model(self.incremental_policy())?,
            RefitStrategy::Truncated { k, tol } => {
                stats.to_model_truncated(self.incremental_policy(), k, tol)?
            }
        };
        self.diagnoser
            .refit_model(model, &self.rm, self.config.confidence)
    }

    /// Refit the frozen model with a full fit over an assembled window
    /// (`len × m`, arrival order) — the [`RefitStrategy::FullSvd`]
    /// coordinator step, shared by the in-process engine and the TCP
    /// tracker: the two-pass Gram route of
    /// [`PcaMethod`](crate::PcaMethod) and the separation policy re-run
    /// on the window, 3σ included.
    pub fn refit_from_window(&mut self, window: &Matrix) -> Result<()> {
        let model = SubspaceModel::fit(window, self.config.separation, self.config.pca_method)?;
        self.diagnoser
            .refit_model(model, &self.rm, self.config.confidence)
    }
}

impl DetectionBackend for SubspaceBackend {
    fn name(&self) -> &'static str {
        "subspace"
    }

    fn dim(&self) -> usize {
        self.diagnoser.model().dim()
    }

    fn threshold(&self) -> f64 {
        self.diagnoser.detector().threshold().delta_sq
    }

    fn score_vector(&self, y: &[f64]) -> Result<DiagnosisReport> {
        self.diagnoser.diagnose_vector(y)
    }

    fn score_matrix(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        self.diagnoser.diagnose_series(links)
    }

    fn observe(&mut self, evicted: Option<&[f64]>, y: &[f64]) -> Result<()> {
        match &mut self.stats {
            Some(stats) => stats.observe(evicted, y),
            None => Ok(()),
        }
    }

    fn observe_block(&mut self, evicted: &[Option<&[f64]>], block: &Matrix) -> Result<()> {
        match &mut self.stats {
            Some(stats) => stats.observe_block(evicted, block),
            None => Ok(()),
        }
    }

    fn refit(&mut self, window: &RingWindow) -> Result<()> {
        if self.strategy == RefitStrategy::FullSvd {
            return self.refit_from_window(&window.to_matrix());
        }
        // Taken for the call: `refit_from_statistics` needs `&mut self`
        // next to the accumulator it reads.
        let stats = self.stats.take().ok_or(CoreError::ShardMismatch {
            reason: "this backend keeps no streaming statistics (it was fitted for \
                     sharded use); fit it with SubspaceBackend::fit to refit in a \
                     streaming engine",
        })?;
        let refitted = self.refit_from_statistics(&stats);
        self.stats = Some(stats);
        refitted
    }

    fn export_state(&self) -> MethodState {
        let model = self.diagnoser.model();
        // Truncated-refit models append their exact residual moments:
        // the importer cannot recompute them from the (truncated)
        // spectrum, and the moments are what keep the threshold
        // identical across the wire.
        let mut scalars = vec![model.normal_dim() as f64, self.config.confidence];
        if let Some((phi1, phi2, phi3)) = model.residual_moments() {
            scalars.extend([phi1, phi2, phi3]);
        }
        MethodState {
            method: "subspace".to_string(),
            scalars,
            vectors: vec![model.mean().to_vec(), model.eigenvalues().to_vec()],
            matrices: vec![model.normal_basis().clone()],
        }
    }
}

/// One shard's slice of the subspace state: its rows of the global
/// sufficient statistics and its broadcast slice of the frozen model.
///
/// The phase methods ([`SubspaceShard::phase_a`],
/// [`SubspaceShard::phase_b`]) are the *worker side* of the sharded
/// subspace computation. [`ShardedEngine`](crate::ShardedEngine) drives
/// them in process; a distributed worker (`netanom-net`) drives the
/// same methods over TCP — one code path, so the two deployments are
/// bitwise identical by construction.
#[derive(Debug, Clone)]
pub struct SubspaceShard {
    /// Statistics rows; maintained only under
    /// [`RefitStrategy::Incremental`].
    stats: Option<CovarianceShard>,
    /// Broadcast slice of the model mean (`m_s` entries).
    mean: Vec<f64>,
    /// Broadcast rows of the normal basis (`m_s × r`).
    basis: Matrix,
}

impl SubspaceShard {
    /// Build a shard from the model it will score against: the slice of
    /// `model`'s mean and normal basis owned by `links`, plus optional
    /// pre-seeded statistics rows. This is exactly the seeding
    /// [`ShardedEngine::with_backend`](crate::ShardedEngine::with_backend)
    /// performs, exposed so an out-of-process worker can construct its shard from a broadcast
    /// [`MethodState`] (via [`subspace_model_from_state`]).
    ///
    /// Errors with [`CoreError::DimensionMismatch`] when a link lies
    /// outside the model's `m` links.
    pub fn from_model(
        model: &SubspaceModel,
        links: &[usize],
        stats: Option<CovarianceShard>,
    ) -> Result<Self> {
        let m = model.dim();
        if let Some(&l) = links.iter().find(|&&l| l >= m) {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: l + 1,
            });
        }
        let mean = model.mean();
        let basis = model.normal_basis();
        Ok(SubspaceShard {
            stats,
            mean: links.iter().map(|&l| mean[l]).collect(),
            basis: Matrix::from_fn(links.len(), basis.cols(), |k, j| basis[(links[k], j)]),
        })
    }

    /// Merge the shards' statistics rows into the global accumulator —
    /// what a sharded refit solves on, bitwise the accumulator a
    /// single-process engine maintains over the same stream. Errors with
    /// [`CoreError::ShardMismatch`] under [`RefitStrategy::FullSvd`],
    /// which maintains no statistics.
    pub(crate) fn merge_statistics(shards: &[SubspaceShard]) -> Result<IncrementalCovariance> {
        let mut parts = Vec::with_capacity(shards.len());
        for shard in shards {
            parts.push(shard.stats.as_ref().ok_or(CoreError::ShardMismatch {
                reason: "statistics are only maintained under the incremental \
                         and truncated refit strategies",
            })?);
        }
        IncrementalCovariance::merge(parts)
    }

    /// Re-cut the model slices after a refit broadcast, keeping the
    /// statistics rows — the worker side of the coordinator's
    /// merge-refit-broadcast step. On error the shard is unchanged.
    pub fn install_model(&mut self, model: &SubspaceModel, links: &[usize]) -> Result<()> {
        let SubspaceShard { mean, basis, .. } = Self::from_model(model, links, None)?;
        self.mean = mean;
        self.basis = basis;
        Ok(())
    }

    /// Phase A: center the shard's columns of the block against its mean
    /// slice and project onto its basis rows — no cross-shard
    /// information, no state mutation.
    pub fn phase_a(&self, links: &[usize], block: &Matrix) -> SubspacePartial {
        let centered = Matrix::from_fn(block.rows(), links.len(), |t, k| {
            block[(t, links[k])] - self.mean[k]
        });
        let coeffs = centered
            .matmul(&self.basis)
            .expect("basis rows match the shard width");
        SubspacePartial { centered, coeffs }
    }

    /// Phase B: given the merged global projection coefficients, compute
    /// the shard's residual slice and partial SPE contributions, and
    /// advance the statistics rows over the block (`evicted[t]` is the
    /// full row the `t`-th window push evicts, `None` while filling).
    ///
    /// Errors with [`CoreError::DimensionMismatch`], before touching any
    /// state, unless `merged` is `rows × r` like the partial's own
    /// coefficients.
    pub fn phase_b(
        &mut self,
        partial: &SubspacePartial,
        merged: &Matrix,
        block: &Matrix,
        evicted: &[Option<&[f64]>],
    ) -> Result<ShardScores> {
        let (rows, r) = partial.coeffs.shape();
        expect_shape(merged, rows, r)?;
        let residual = partial.centered.sub(&merged.matmul_nt(&self.basis)?)?;
        let norms = residual.row_norms_sq();
        if let Some(stats) = &mut self.stats {
            stats.observe_block(evicted, block)?;
        }
        Ok(ShardScores {
            scores: norms,
            residual,
        })
    }

    /// The shard's statistics rows (`None` under
    /// [`RefitStrategy::FullSvd`]).
    pub fn stats(&self) -> Option<&CovarianceShard> {
        self.stats.as_ref()
    }
}

/// Phase-A output of one subspace shard.
#[derive(Debug)]
pub struct SubspacePartial {
    /// Mean-centered slice (`b × m_s`).
    centered: Matrix,
    /// Partial projection coefficients `Z_s · P_s` (`b × r`).
    coeffs: Matrix,
}

impl SubspacePartial {
    /// The partial projection coefficients (`b × r`) the coordinator
    /// merges — the only phase-A output that crosses shard (or process)
    /// boundaries.
    pub fn coeffs(&self) -> &Matrix {
        &self.coeffs
    }
}

/// Sum per-shard projection-coefficient partials (`bins × r` each) **in
/// the given order** from a zero accumulator — the coordinator's merge.
/// Both [`ShardedEngine`](crate::ShardedEngine) and the TCP tracker
/// call this one function, so the merged coefficients (and everything
/// downstream) are bitwise identical across transports.
///
/// Errors with [`CoreError::DimensionMismatch`] if any partial is not
/// `bins × r`.
pub fn merge_coeff_partials<'a, I>(bins: usize, r: usize, partials: I) -> Result<Matrix>
where
    I: IntoIterator<Item = &'a Matrix>,
{
    let mut coeffs = Matrix::zeros(bins, r);
    for partial in partials {
        expect_shape(partial, bins, r)?;
        coeffs = coeffs.add(partial)?;
    }
    Ok(coeffs)
}

/// [`CoreError::DimensionMismatch`] unless `matrix` is `rows × cols`.
fn expect_shape(matrix: &Matrix, rows: usize, cols: usize) -> Result<()> {
    for (expected, got) in [(rows, matrix.rows()), (cols, matrix.cols())] {
        if got != expected {
            return Err(CoreError::DimensionMismatch { expected, got });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn state_roundtrips_through_bytes() {
        let state = MethodState {
            method: "subspace".to_string(),
            scalars: vec![2.0, 0.999],
            vectors: vec![vec![1.0, -2.5], vec![]],
            matrices: vec![Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64)],
        };
        let bytes = state.to_bytes();
        let back = MethodState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn subspace_backend_scores_like_the_diagnoser() {
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let backend = SubspaceBackend::fit(&train, rm, config(), RefitStrategy::FullSvd).unwrap();
        let diag = Diagnoser::fit(&train, rm, config()).unwrap();
        let fresh = training(rm.num_links(), 40, 300);
        for t in 0..fresh.rows() {
            let a = backend.score_vector(fresh.row(t)).unwrap();
            let b = diag.diagnose_vector(fresh.row(t)).unwrap();
            assert_eq!(a, b);
        }
        let batch = backend.score_matrix(&fresh).unwrap();
        let direct = diag.diagnose_series(&fresh).unwrap();
        assert_eq!(batch, direct);
        assert_eq!(backend.name(), "subspace");
        assert_eq!(backend.dim(), rm.num_links());
        assert!(backend.threshold() > 0.0);
    }

    #[test]
    fn subspace_state_export_import_preserves_scoring() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 250, 0);
        let backend = SubspaceBackend::fit(&train, rm, config(), RefitStrategy::FullSvd).unwrap();
        let state = backend.export_state();
        assert_eq!(state.method, "subspace");

        // Restore from the decoded state alone: scoring must be bitwise
        // identical to the exporter.
        let restored = MethodState::from_bytes(&state.to_bytes()).unwrap();
        let restore = |state: &MethodState| {
            SubspaceBackend::from_state(state, rm, config(), RefitStrategy::FullSvd, None)
        };
        let other = restore(&restored).unwrap();
        assert_eq!(other.threshold(), backend.threshold());
        let fresh = training(rm.num_links(), 30, 500);
        for t in 0..fresh.rows() {
            let a = backend.score_vector(fresh.row(t)).unwrap();
            let b = other.score_vector(fresh.row(t)).unwrap();
            assert_eq!(a, b, "bin {t}");
        }

        // A state for another method is rejected.
        let mut wrong = state.clone();
        wrong.method = "ewma".to_string();
        assert!(matches!(
            restore(&wrong),
            Err(CoreError::InvalidState { .. })
        ));
    }
}
