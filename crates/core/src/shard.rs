//! Sharded network-wide diagnosis: the subspace method's mergeable
//! state across link partitions.
//!
//! The paper's central claim is that a *network-wide* view separates
//! anomalies per-link analysis misses — yet real measurement planes are
//! distributed: each PoP's collector reports its own links, not the
//! whole network. [`ShardedEngine`] reconciles the two. The link set is
//! split into `K` shards by a [`LinkPartition`] (per-PoP, round-robin,
//! or explicit), and each shard runs its share of the per-arrival work
//! over its columns, while the coordinator keeps the one full-width
//! [`RingWindow`] — held exactly as
//! [`StreamingEngine`](crate::StreamingEngine) and the TCP worker hold
//! theirs — for evictions and full refits:
//!
//! ```text
//!        arrivals (full m-vector per bin, O(m) bandwidth)
//!            │ each shard reads its columns
//!   ┌────────┼─────────┬──────────────┐
//!   ▼        ▼         ▼              ▼
//! shard 0  shard 1   shard 2  …    shard K−1     each: statistics rows,
//!   │        │         │              │          mean + basis slices
//!   └────────┴────┬────┴───────────── ┘          (phase A: projection)
//!                 ▼
//!          coordinator: merge coefficients in shard order, slide the window
//!                 │ refit on cadence (merged statistics or the window)
//!                 ▼
//!          broadcast model slices back to shards
//!                 │
//!          shards: partial SPEs + residual slices (phase B) ──►
//!          coordinator sums, detects, identifies ([`finalize_block`])
//! ```
//!
//! The engine runs the paper's subspace method, the one method with
//! something to merge: its projection and covariance span every link.
//! Each shard is a [`SubspaceShard`]; per arrival it pays its share of
//! the `O(m²)` sufficient-statistic upkeep and the `O(m·r)` projection,
//! the merge is `O(K·r)` per bin, and the refit merges
//! [`CovarianceShard`] rows into the global covariance **bitwise** —
//! refitted models match the single-process engine exactly, merged SPEs
//! agree within `1e-9` relative, and detections and identifications
//! match exactly on every pinned stream (`tests/shard_parity.rs`). The
//! per-link temporal comparators have nothing to merge: `netanom shard
//! --method <temporal>` runs them through
//! [`StreamingEngine`](crate::StreamingEngine).
//!
//! On one box the shards execute on the rayon scope splitter (one worker
//! per shard when more than one hardware thread is available; the merge
//! order is fixed by shard index, so results are bitwise independent of
//! the thread count). The same shard/coordinator message pattern — column
//! feeds in, partials out, model slices back — maps 1:1 onto a
//! multi-process deployment where each PoP collector hosts its shard,
//! with [`MethodState`](crate::method::MethodState) as the broadcast
//! wire format.
//!
//! # Example
//!
//! ```
//! use netanom_core::shard::ShardedEngine;
//! use netanom_core::{DiagnoserConfig, SeparationPolicy, StreamConfig};
//! use netanom_linalg::Matrix;
//! use netanom_topology::{builtin, LinkPartition};
//!
//! let net = builtin::line(3);
//! let rm = &net.routing_matrix;
//! let m = rm.num_links();
//! let training = Matrix::from_fn(240, m, |t, l| {
//!     let phase = t as f64 * std::f64::consts::TAU / 144.0;
//!     2e6 + 2e5 * phase.sin() * ((l % 3) as f64 + 1.0)
//!         + ((t * m + l) % 97) as f64
//! });
//! let config = DiagnoserConfig {
//!     separation: SeparationPolicy::FixedCount(2),
//!     ..DiagnoserConfig::default()
//! };
//! let partition = LinkPartition::round_robin(m, 3).unwrap();
//! let mut engine =
//!     ShardedEngine::new(&training, rm, config, StreamConfig::new(240), &partition).unwrap();
//! assert_eq!(engine.num_shards(), 3);
//! let report = engine.process(training.row(10)).unwrap();
//! assert!(!report.detected); // training data is quiet
//! ```

use std::time::Instant;

use netanom_linalg::{BlockPlacement, Matrix};
use netanom_topology::{LinkPartition, RoutingMatrix};

use crate::cadence::Cadence;
use crate::diagnose::{Diagnoser, DiagnoserConfig, DiagnosisReport};
use crate::incremental::{CovarianceShard, IncrementalCovariance};
use crate::method::{
    merge_coeff_partials, DetectionBackend, ShardScores, SubspaceBackend, SubspaceShard,
};
use crate::stream::{RefitStrategy, RingWindow, StreamConfig};
use crate::{CoreError, Result};

/// The sharded subspace engine: `K` shard workers over a link
/// partition, coordinated into exactly the single-process semantics of
/// [`StreamingEngine`](crate::StreamingEngine).
///
/// See the [module docs](self) for the architecture; the parity and
/// scale contracts are:
///
/// * **Detections and identifications** equal the single-process
///   engine's (pinned by `tests/shard_parity.rs` for every partition
///   shape and `K ∈ {1, 2, 4, 8}`). Merged SPEs agree within `1e-9`
///   relative — shard partial sums reassociate floating-point
///   addition — so a decision could differ only for a bin whose
///   single-process SPE sits inside that sliver of the threshold,
///   which the parity suite shows does not happen on any pinned
///   stream (the same caveat the batch API documents for
///   [`Detector::detect_matrix`](crate::Detector::detect_matrix)).
/// * Under [`RefitStrategy::Incremental`] the merged covariance is
///   **bitwise identical** to the single-process
///   [`StreamingEngine`](crate::StreamingEngine)'s, so refitted models
///   match exactly; under [`RefitStrategy::FullSvd`] the engine's window
///   holds the single-process window's rows in the same order, so full
///   refits match exactly too.
/// * Results are bitwise independent of the worker thread count: shard
///   partials are always merged in shard order.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    backend: SubspaceBackend,
    /// Ascending global link indices per shard.
    links: Vec<Vec<usize>>,
    /// The full-width sliding window (`capacity × m`).
    window: RingWindow,
    shards: Vec<SubspaceShard>,
    cadence: Cadence,
    refit_seconds: f64,
}

impl ShardedEngine {
    /// Bootstrap the engine from historical training data, exactly like
    /// [`StreamingEngine::new`](crate::StreamingEngine::new), with the
    /// link set split across `partition`'s shards.
    ///
    /// The global fit happens once at the coordinator; the window is
    /// seeded with the trailing training rows and every shard (under
    /// [`RefitStrategy::Incremental`]) with its rows of the sufficient
    /// statistics over the same rows.
    pub fn new(
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        stream: StreamConfig,
        partition: &LinkPartition,
    ) -> Result<Self> {
        if training.cols() != rm.num_links() {
            return Err(CoreError::DimensionMismatch {
                expected: rm.num_links(),
                got: training.cols(),
            });
        }
        // fit_sharded: shard statistics live in the per-shard states,
        // so the backend's global streaming accumulator is skipped.
        let backend = SubspaceBackend::fit_sharded(training, rm, config, stream.strategy)?;
        Self::with_backend(backend, training, stream, partition)
    }

    /// Assemble a sharded engine around an already-fitted backend;
    /// `training` must be the matrix the backend was fitted on. The
    /// window is seeded as
    /// [`StreamingEngine::with_backend`](crate::StreamingEngine::with_backend)
    /// seeds its own, and every shard with its slice of the model and
    /// (when the backend's strategy maintains them) its rows of the
    /// sufficient statistics over the training rows
    /// ([`CovarianceShard::from_matrix`], every engine's seeding pass).
    pub fn with_backend(
        backend: SubspaceBackend,
        training: &Matrix,
        stream: StreamConfig,
        partition: &LinkPartition,
    ) -> Result<Self> {
        let m = backend.dim();
        if training.cols() != m {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: training.cols(),
            });
        }
        if partition.num_links() != m {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: partition.num_links(),
            });
        }
        let model = backend.diagnoser().model();
        let mut shards = Vec::with_capacity(partition.num_shards());
        let seeds = backend.strategy().maintains_statistics();
        for links in partition.groups() {
            let stats = seeds
                .then(|| CovarianceShard::from_matrix(training, links))
                .transpose()?;
            shards.push(SubspaceShard::from_model(model, links, stats)?);
        }
        let capacity = stream.window_capacity.max(training.rows());
        let mut window = RingWindow::new(capacity, m);
        for t in 0..training.rows() {
            window.push(training.row(t));
        }
        Ok(ShardedEngine {
            backend,
            links: partition.groups().to_vec(),
            window,
            shards,
            cadence: Cadence::new(stream.refit_every),
            refit_seconds: 0.0,
        })
    }

    /// The coordinator's current (frozen) diagnoser.
    pub fn diagnoser(&self) -> &Diagnoser {
        self.backend.diagnoser()
    }

    /// Merge the shard statistics into the global accumulator — bitwise
    /// identical to the one a single-process
    /// [`StreamingEngine`](crate::StreamingEngine) maintains over the
    /// same stream.
    ///
    /// Errors with [`CoreError::ShardMismatch`] under
    /// [`RefitStrategy::FullSvd`], which maintains no statistics.
    pub fn merged_statistics(&self) -> Result<IncrementalCovariance> {
        SubspaceShard::merge_statistics(&self.shards)
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The ascending global link indices owned by shard `s`.
    ///
    /// # Panics
    /// Panics if `s >= num_shards()`.
    pub fn shard_links(&self, s: usize) -> &[usize] {
        &self.links[s]
    }

    /// Total measurements processed so far.
    pub fn arrivals(&self) -> usize {
        self.cadence.total()
    }

    /// Number of refits performed so far.
    pub fn refits(&self) -> usize {
        self.cadence.refits()
    }

    /// Wall-clock seconds spent in merge + refit + broadcast so far —
    /// the coordination overhead a deployment pays for the global view.
    pub fn refit_seconds(&self) -> f64 {
        self.refit_seconds
    }

    /// Process one arriving full measurement vector.
    ///
    /// Semantically identical to
    /// [`StreamingEngine::process`](crate::StreamingEngine::process):
    /// score against the frozen model, slide the window and every
    /// shard's state, refit when due. Implemented as a one-row
    /// [`ShardedEngine::process_batch`], so the per-arrival and batched
    /// paths cannot drift apart.
    pub fn process(&mut self, y: &[f64]) -> Result<DiagnosisReport> {
        let block = Matrix::from_vec(1, y.len(), y.to_vec()).expect("sized to shape");
        let mut reports = self.process_batch(&block)?;
        Ok(reports.pop().expect("one report per row"))
    }

    /// Process a whole block of arrivals (rows of a `b × m` matrix),
    /// honoring mid-block refit boundaries exactly like
    /// [`StreamingEngine::process_batch`](crate::StreamingEngine::process_batch).
    ///
    /// Inputs are validated up front (width, finiteness) so no shard
    /// ingests a row unless all will; an internal error mid-block (which
    /// validated input cannot trigger) leaves the engine inconsistent
    /// and should be treated as fatal.
    pub fn process_batch(&mut self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        let m = self.backend.dim();
        if links.cols() != m {
            return Err(CoreError::DimensionMismatch {
                expected: m,
                got: links.cols(),
            });
        }
        for t in 0..links.rows() {
            if let Some(link) = links.row(t).iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteMeasurement { link });
            }
        }
        let mut out = Vec::with_capacity(links.rows());
        let mut next = 0;
        while next < links.rows() {
            let take = self.cadence.take(links.rows() - next);
            let block = links.row_block(next, take).expect("range checked");
            let mut reports = self.run_block(&block)?;
            let refit_due = self.cadence.stamp(&mut reports);
            out.append(&mut reports);
            next += take;
            if refit_due {
                self.refit()?;
            }
        }
        Ok(out)
    }

    /// Process a block delivered as per-shard column slices —
    /// `slices[s]` is the `b × m_s` block of shard `s`'s links.
    ///
    /// The coordinator reassembles the full block (pure placement) and
    /// runs [`ShardedEngine::process_batch`]; the statistics rows are
    /// maintained over full arrival vectors, so the slices must cover
    /// every link. No verb delivers slices — `netanom shard` calls
    /// [`ShardedEngine::process_batch`] on the blocks it reads — and
    /// this stays only because the performance ledger's harness compiles
    /// against it, until the harness next changes.
    pub fn process_batch_slices(&mut self, slices: &[Matrix]) -> Result<Vec<DiagnosisReport>> {
        let full = assemble_columns(self.backend.dim(), &self.links, slices)?;
        self.process_batch(&full)
    }

    /// Whether to fan the shard phases out over scoped worker threads.
    ///
    /// Serial execution computes exactly the same values (partials are
    /// always merged in shard order), so this is purely a wall-clock
    /// decision: more than one shard, more than one hardware thread, and
    /// enough rows to amortize the spawns.
    fn parallel(&self, rows: usize) -> bool {
        self.shards.len() > 1 && rows >= 4 && rayon::current_num_threads() > 1
    }

    /// Score a refit-free block against the frozen model and ingest it.
    /// Reports come back with `time == 0`; the caller stamps them.
    fn run_block(&mut self, block: &Matrix) -> Result<Vec<DiagnosisReport>> {
        let bins = block.rows();
        let parallel = self.parallel(bins);

        // Phase A: project each shard's columns, merged in shard order
        // (fixed order = thread-count-independent results).
        let partials = fan_out(
            parallel,
            self.shards.iter().zip(&self.links),
            |(shard, links)| shard.phase_a(links, block),
        );
        let r = self.backend.diagnoser().model().normal_dim();
        let merged = merge_coeff_partials(bins, r, partials.iter().map(|p| p.coeffs()))?;

        // Phase B: partial SPEs and residual slices, advancing the
        // statistics rows past the rows the block evicts.
        let evicted = self.window.evictions(block);
        let outs = fan_out(
            parallel,
            self.shards.iter_mut().zip(&partials),
            |(shard, partial)| shard.phase_b(partial, &merged, block, &evicted),
        )
        .into_iter()
        .collect::<Result<Vec<ShardScores>>>()?;

        for t in 0..bins {
            self.window.push(block.row(t));
        }
        finalize_block(self.backend.diagnoser(), &self.links, bins, &outs)
    }

    /// Merge, refit, and broadcast: refit the coordinator's model from
    /// the merged shard statistics (or, under
    /// [`RefitStrategy::FullSvd`], from the window), and hand every
    /// shard its new model slice.
    ///
    /// This exactly mirrors
    /// [`StreamingEngine::refit`](crate::StreamingEngine::refit),
    /// including the 3σ freeze of the normal dimension under incremental
    /// refits. Wall-clock spent here accumulates into
    /// [`ShardedEngine::refit_seconds`].
    pub fn refit(&mut self) -> Result<()> {
        let t0 = Instant::now();
        match self.backend.strategy() {
            RefitStrategy::FullSvd => self.backend.refit_from_window(&self.window.to_matrix())?,
            RefitStrategy::Incremental | RefitStrategy::Truncated { .. } => {
                let stats = SubspaceShard::merge_statistics(&self.shards)?;
                self.backend.refit_from_statistics(&stats)?;
            }
        }
        let model = self.backend.diagnoser().model();
        for (shard, links) in self.shards.iter_mut().zip(&self.links) {
            shard.install_model(model, links)?;
        }
        self.cadence.refitted();
        self.refit_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Run `f` once per shard — over scoped worker threads when `parallel`,
/// in turn otherwise — and return the results in shard order.
///
/// Both ways compute exactly the same values; the first shard runs on
/// the calling thread, so `K` shards cost `K − 1` spawns.
fn fan_out<T: Send, R: Send>(
    parallel: bool,
    mut shards: impl Iterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if !parallel {
        return shards.map(f).collect();
    }
    let first = shards.next();
    let rest: Vec<T> = shards.collect();
    let mut slots: Vec<Option<R>> = rest.iter().map(|_| None).collect();
    let f = &f;
    let head = rayon::scope(|s| {
        for (shard, slot) in rest.into_iter().zip(slots.iter_mut()) {
            s.spawn(move |_| *slot = Some(f(shard)));
        }
        first.map(f)
    });
    head.into_iter()
        .chain(slots.into_iter().map(|r| r.expect("every shard ran")))
        .collect()
}

/// The coordinator's scoring loop, shared by [`ShardedEngine`] and the
/// TCP tracker in `netanom-net`: sum the shards' score partials in
/// shard order and report each bin through
/// [`Diagnoser::report`], which identifies a fired bin on the residual
/// assembled from the shard slices.
///
/// `outs[s]` is shard `s`'s phase-B output for the same `bins`-row
/// block and `links[s]` its ascending global link indices; summation
/// and residual placement both walk shards in that order, so results
/// are independent of where (or in what thread/socket order) the shards
/// computed. Reports come back with `time == 0` — the driver's
/// [`Cadence`] stamps arrival indices.
pub fn finalize_block(
    diagnoser: &Diagnoser,
    links: &[Vec<usize>],
    bins: usize,
    outs: &[ShardScores],
) -> Result<Vec<DiagnosisReport>> {
    let m = diagnoser.model().dim();
    (0..bins)
        .map(|t| {
            let score: f64 = outs.iter().map(|o| o.scores[t]).sum();
            diagnoser.report(score, || {
                Ok(scatter_row(
                    m,
                    links,
                    outs.iter().map(|o| o.residual.row(t)),
                ))
            })
        })
        .collect()
}

/// One full-width row from the shards' slices of it: `slices[s][k]` is
/// the value of link `links[s][k]`.
fn scatter_row<'a>(
    m: usize,
    links: &[Vec<usize>],
    slices: impl Iterator<Item = &'a [f64]>,
) -> Vec<f64> {
    let mut row = vec![0.0; m];
    for (links, slice) in links.iter().zip(slices) {
        for (k, &l) in links.iter().enumerate() {
            row[l] = slice[k];
        }
    }
    row
}

/// Place per-shard column slices into one `rows × cols` matrix:
/// `slices[s]` holds the columns `links[s]` of every row. Pure
/// placement, so the result is bitwise the matrix the slices were cut
/// from — how a block delivered as per-shard feeds and the window
/// slices TCP workers send for a full refit are put back together.
pub fn assemble_columns<L: AsRef<[usize]>>(
    cols: usize,
    links: &[L],
    slices: &[Matrix],
) -> Result<Matrix> {
    if slices.len() != links.len() {
        return Err(CoreError::DimensionMismatch {
            expected: links.len(),
            got: slices.len(),
        });
    }
    // A slice of the wrong height or width is refused by
    // `assemble_blocks`: every block must match its index lists.
    let rows = slices.first().map_or(0, Matrix::rows);
    let row_ids: Vec<usize> = (0..rows).collect();
    let placements: Vec<BlockPlacement> = links
        .iter()
        .zip(slices)
        .map(|(links, block)| BlockPlacement {
            rows: &row_ids,
            cols: links.as_ref(),
            block,
        })
        .collect();
    Ok(Matrix::assemble_blocks(rows, cols, &placements)?)
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
    fn construction_validates_dimensions() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 200, 0);
        let bad = LinkPartition::round_robin(m + 1, 2).unwrap();
        assert!(ShardedEngine::new(&train, rm, config(), StreamConfig::new(200), &bad).is_err());
        let narrow = training(m - 1, 200, 0);
        let good = LinkPartition::round_robin(m, 2).unwrap();
        assert!(ShardedEngine::new(&narrow, rm, config(), StreamConfig::new(200), &good).is_err());
    }

    #[test]
    fn detects_injected_anomaly_and_identifies_flow() {
        let net = builtin::sprint_europe();
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 400, 0);
        let partition = LinkPartition::per_pop(&net.topology);
        let mut engine =
            ShardedEngine::new(&train, rm, config(), StreamConfig::new(400), &partition).unwrap();
        assert_eq!(engine.num_shards(), net.topology.num_pops());

        let quiet = training(m, 1, 900).row(0).to_vec();
        let rep = engine.process(&quiet).unwrap();
        assert!(!rep.detected);

        let flow = 20;
        let mut y = quiet.clone();
        vector::axpy(2e7, &rm.column(flow), &mut y);
        let rep = engine.process(&y).unwrap();
        assert!(rep.detected, "spe {} vs {}", rep.spe, rep.threshold);
        assert_eq!(rep.identification.unwrap().flow, flow);
        assert_eq!(engine.arrivals(), 2);
    }

    #[test]
    fn batch_and_slices_paths_agree() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 300, 0);
        let partition = LinkPartition::round_robin(m, 3).unwrap();
        let mk = || {
            ShardedEngine::new(
                &train,
                rm,
                config(),
                StreamConfig::new(300).refit_every(40),
                &partition,
            )
            .unwrap()
        };
        let mut whole = mk();
        let mut sliced = mk();
        let fresh = training(m, 90, 300);
        let a = whole.process_batch(&fresh).unwrap();
        let slices: Vec<Matrix> = partition
            .groups()
            .iter()
            .map(|g| fresh.select_columns(g))
            .collect();
        let b = sliced.process_batch_slices(&slices).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.spe, y.spe);
            assert_eq!(x.detected, y.detected);
        }
        assert_eq!(whole.refits(), 2);
        assert_eq!(sliced.refits(), 2);
        assert!(whole.refit_seconds() > 0.0);
    }

    #[test]
    fn slices_path_validates_shapes() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 200, 0);
        let partition = LinkPartition::round_robin(m, 2).unwrap();
        let mut engine =
            ShardedEngine::new(&train, rm, config(), StreamConfig::new(200), &partition).unwrap();
        assert!(engine.process_batch_slices(&[]).is_err());
        let wrong_rows = vec![
            Matrix::zeros(2, partition.group(0).len()),
            Matrix::zeros(3, partition.group(1).len()),
        ];
        assert!(engine.process_batch_slices(&wrong_rows).is_err());
        let wrong_cols = vec![
            Matrix::zeros(2, partition.group(0).len() + 1),
            Matrix::zeros(2, partition.group(1).len()),
        ];
        assert!(engine.process_batch_slices(&wrong_cols).is_err());
        // Non-finite values are rejected before any ingestion.
        let mut bad = Matrix::zeros(1, m);
        bad[(0, 1)] = f64::NAN;
        assert!(matches!(
            engine.process_batch(&bad),
            Err(CoreError::NonFiniteMeasurement { link: 1 })
        ));
        assert_eq!(engine.arrivals(), 0);
    }

    /// A NaN partial score (an overflowed projection) is quiet — `spe >
    /// threshold` is false — rather than a fired bin with no residual.
    #[test]
    fn a_nan_partial_score_finalizes_quiet() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 200, 0);
        let backend =
            SubspaceBackend::fit_sharded(&train, rm, config(), RefitStrategy::FullSvd).unwrap();
        let links = LinkPartition::round_robin(m, 2).unwrap().groups().to_vec();
        let outs: Vec<ShardScores> = [[0.5, f64::NAN], [0.25, 0.5]]
            .iter()
            .zip(&links)
            .map(|(scores, links)| ShardScores {
                scores: scores.to_vec(),
                residual: Matrix::zeros(2, links.len()),
            })
            .collect();
        let reports = finalize_block(backend.diagnoser(), &links, 2, &outs).unwrap();
        assert_eq!(reports[0].spe, 0.75);
        assert!(reports[1].spe.is_nan());
        for report in &reports {
            assert!(!report.detected);
            assert!(report.identification.is_none());
            assert!(report.estimated_bytes.is_none());
        }
    }

    #[test]
    fn merged_statistics_requires_incremental_strategy() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 200, 0);
        let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
        let engine =
            ShardedEngine::new(&train, rm, config(), StreamConfig::new(200), &partition).unwrap();
        assert!(matches!(
            engine.merged_statistics(),
            Err(CoreError::ShardMismatch { .. })
        ));
    }

    #[test]
    fn generic_construction_matches_sugar_bitwise() {
        let net = builtin::line(3);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 250, 0);
        let partition = LinkPartition::round_robin(m, 3).unwrap();
        let stream_cfg = StreamConfig::new(250)
            .refit_every(40)
            .strategy(RefitStrategy::Incremental);
        let mut sugar = ShardedEngine::new(&train, rm, config(), stream_cfg, &partition).unwrap();
        let backend =
            SubspaceBackend::fit(&train, rm, config(), RefitStrategy::Incremental).unwrap();
        let mut generic =
            ShardedEngine::with_backend(backend, &train, stream_cfg, &partition).unwrap();
        let fresh = training(m, 90, 250);
        let a = sugar.process_batch(&fresh).unwrap();
        let b = generic.process_batch(&fresh).unwrap();
        assert_eq!(a, b);
    }
}
