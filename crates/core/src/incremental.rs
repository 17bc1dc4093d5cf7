//! Incremental model maintenance for online deployment.
//!
//! The paper notes that recomputing the SVD per timestep is unnecessary
//! ("one need only compute the SVD occasionally") and points to the
//! decomposition-updating literature for busier settings. This module
//! implements the practical middle ground: maintain the sufficient
//! statistics of the measurement window — column sums and the raw
//! cross-product matrix `Σ y yᵀ` — under `O(m²)` row additions and
//! removals, and rebuild the `m × m` covariance eigendecomposition on
//! demand: one dense symmetric eigen-solve for every eigenvalue and only
//! the `r` eigenvectors the model keeps, about 1.1–1.3 ms at `m = 121`
//! (the solve for all `m` vectors takes 1.8–2.0 ms).
//! The first fit takes the same solve
//! ([`SubspaceModel::from_covariance`]) on a two-pass Gram matrix
//! ([`PcaMethod::Covariance`](crate::PcaMethod::Covariance)), so what the
//! statistics save a refit is the `O(w·m²)` pass over the window, not a
//! different decomposition.
//!
//! A sliding one-week window over 10-minute bins therefore costs `O(m²)`
//! per arrival plus one small eigen-solve per refit, independent of the
//! window length.
//!
//! One accumulator, [`CovarianceShard`], holds the update of every entry
//! for an ascending link set. Engines hand it whole blocks of window
//! pushes ([`observe_block`](CovarianceShard::observe_block)): the block's
//! slides fold into the statistics in one pass of
//! [`kernel::rank_update`], which gives each entry exactly the `± yᵢ·yⱼ`
//! steps of the row loop ([`add`](CovarianceShard::add),
//! [`remove`](CovarianceShard::remove)) in the same order and rounding.
//! Short blocks, rows with a zero multiplier and blocks holding a NaN or
//! an infinity keep the row loop, and seeding
//! ([`from_matrix`](CovarianceShard::from_matrix)) is the same call with
//! no evictions. Engine shards and TCP workers hold one over their links
//! and [`IncrementalCovariance`] wraps one over every link, so
//! [`IncrementalCovariance::merge`] of the shards is bitwise the global
//! one.

use netanom_linalg::decomposition::{self, TruncatedEigen};
use netanom_linalg::{kernel, vector, BlockPlacement, Matrix};

use crate::codec::{self, Reader};
use crate::separation::SeparationPolicy;
use crate::subspace::SubspaceModel;
use crate::{CoreError, Result};

/// Running sufficient statistics (`n`, `Σy`, `Σyyᵀ`) of a set of
/// measurement vectors: the [`CovarianceShard`] over every link, and the
/// only statistics a model is solved from.
///
/// # Numerical note
///
/// The covariance is formed as `(Σyyᵀ − n·μμᵀ)/(n−1)`, which cancels
/// ~`(μ/σ)²` of precision. At backbone scales (`μ/σ` ≈ 10–100) this
/// costs 2–4 of the 16 significant digits — harmless here, but callers
/// with extreme mean-to-variance ratios should refit from raw data
/// occasionally. The `from_matrix` → `covariance` path is tested against
/// the direct two-pass computation to 1e-9 relative accuracy.
#[derive(Debug, Clone)]
pub struct IncrementalCovariance {
    /// Over `0..dim`, so row `i` of its `cross` is row `i` of `Σyyᵀ`.
    stats: CovarianceShard,
}

impl IncrementalCovariance {
    /// Empty statistics over `m`-dimensional measurements.
    pub fn new(dim: usize) -> Self {
        IncrementalCovariance {
            stats: CovarianceShard::empty(dim, (0..dim).collect()),
        }
    }

    /// Statistics of every row of a `t × m` matrix: bitwise what
    /// [`add`](Self::add), row after row, leaves behind, in about half
    /// the time ([`CovarianceShard::from_matrix`]).
    pub fn from_matrix(data: &Matrix) -> Self {
        let mut acc = Self::new(data.cols());
        acc.stats.seed(data);
        acc
    }

    /// Number of accumulated measurements.
    pub fn count(&self) -> usize {
        self.stats.count
    }

    /// Measurement dimension `m`.
    pub fn dim(&self) -> usize {
        self.stats.dim
    }

    /// Add one measurement (`O(m²)`).
    pub fn add(&mut self, y: &[f64]) -> Result<()> {
        self.stats.add(y)
    }

    /// Remove a previously-added measurement ([`CovarianceShard::remove`]).
    pub fn remove(&mut self, y: &[f64]) -> Result<()> {
        self.stats.remove(y)
    }

    /// Remove `old`, add `new` (`O(m²)`, a full ring buffer's steady state).
    pub fn slide(&mut self, old: &[f64], new: &[f64]) -> Result<()> {
        self.stats.slide(old, new)
    }

    /// Follow one window push ([`CovarianceShard::observe`]).
    pub fn observe(&mut self, evicted: Option<&[f64]>, y: &[f64]) -> Result<()> {
        self.stats.observe(evicted, y)
    }

    /// Follow a block of window pushes
    /// ([`CovarianceShard::observe_block`]).
    pub fn observe_block(&mut self, evicted: &[Option<&[f64]>], block: &Matrix) -> Result<()> {
        self.stats.observe_block(evicted, block)
    }

    /// Current mean vector.
    ///
    /// Returns an error with zero measurements.
    pub fn mean(&self) -> Result<Vec<f64>> {
        if self.count() == 0 {
            return Err(CoreError::TooFewSamples { got: 0, need: 1 });
        }
        Ok(vector::scaled(&self.stats.sum, 1.0 / self.count() as f64))
    }

    /// Sample covariance `(Σyyᵀ − n·μμᵀ)/(n−1)`.
    ///
    /// Requires at least two measurements. Tiny negative diagonal values
    /// from cancellation are clamped to zero.
    pub fn covariance(&self) -> Result<Matrix> {
        if self.count() < 2 {
            return Err(CoreError::TooFewSamples {
                got: self.count(),
                need: 2,
            });
        }
        let n = self.count() as f64;
        let mean = self.mean()?;
        let denom = n - 1.0;
        let dim = self.dim();
        let mut cov = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in i..dim {
                let v = (self.stats.cross[(i, j)] - n * mean[i] * mean[j]) / denom;
                let v = if i == j { v.max(0.0) } else { v };
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        Ok(cov)
    }

    /// Serialize with a `"NAIC"` magic (netanom incremental covariance) —
    /// the statistics half of a service-session checkpoint, and
    /// [`CovarianceShard`]'s layout without the link list. Every `f64`
    /// bit pattern is preserved exactly, so refits after a restore are
    /// bitwise the refits of an uninterrupted run.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.stats.encode(STATS_MAGIC, STATS_VERSION, false)
    }

    /// Decode a buffer produced by [`IncrementalCovariance::to_bytes`],
    /// rejecting bad magic/version, truncation, and trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let stats = CovarianceShard::decode(bytes, STATS_MAGIC, STATS_VERSION, false)?;
        Ok(IncrementalCovariance { stats })
    }

    /// Rebuild a [`SubspaceModel`] from the current window under the
    /// given separation policy: [`SubspaceModel::from_covariance`] on the
    /// window's mean and covariance, the route every model takes.
    ///
    /// The 3σ policy needs the temporal projections, which sufficient
    /// statistics cannot provide; use [`SeparationPolicy::FixedCount`] or
    /// [`SeparationPolicy::VarianceFraction`] here (typically with the
    /// `r` the 3σ rule chose at the last full fit — the subspace is
    /// stable week over week, which is the paper's whole argument for
    /// fitting occasionally).
    pub fn to_model(&self, policy: SeparationPolicy) -> Result<SubspaceModel> {
        policy.refuse_without_projections()?;
        SubspaceModel::from_covariance(self.mean()?, &self.covariance()?, policy, None)
    }

    /// Rebuild a [`SubspaceModel`] from the current window with a
    /// **truncated** eigensolve: only the leading eigenpairs of the
    /// covariance are computed
    /// ([`TruncatedEigen::covariance_pairs`]), `O(m²·k)` per sweep instead
    /// of the dense solve's `O(m³)` in [`IncrementalCovariance::to_model`]
    /// — the refit route for thousand-link topologies.
    ///
    /// The Q-statistic threshold stays exact: the covariance's power
    /// traces ([`power_traces`]) supply the residual moments without the
    /// tail spectrum. `k` sizes the iteration block and is raised to the
    /// policy's normal dimension when smaller. Under
    /// [`SeparationPolicy::FixedCount`]`(r)` the solve locks only the `r`
    /// pairs the model keeps ([`TruncatedEigen::covariance_pairs`]) —
    /// bitwise the first `r` of the `k`-pair solve, so the model equals
    /// [`SubspaceModel::from_truncated`] on that solve except that it
    /// stores `r` eigenvalues, not `k`. Under
    /// [`SeparationPolicy::VarianceFraction`] all `k` pairs lock and the
    /// dimension search is confined to them (`r ≤ k`); the 3σ policy is
    /// rejected exactly like [`IncrementalCovariance::to_model`].
    ///
    /// [`TruncatedEigen::covariance_pairs`]:
    /// netanom_linalg::decomposition::TruncatedEigen::covariance_pairs
    /// [`power_traces`]: netanom_linalg::decomposition::power_traces
    pub fn to_model_truncated(
        &self,
        policy: SeparationPolicy,
        k: usize,
        tol: f64,
    ) -> Result<SubspaceModel> {
        policy.refuse_without_projections()?;
        let cov = self.covariance()?;
        let k_eff = match policy {
            SeparationPolicy::FixedCount(r) => k.max(r.min(self.dim().saturating_sub(1))),
            _ => k,
        }
        .clamp(1, self.dim());
        // A fixed count locks only the pairs the model keeps (at least
        // one: the threshold's degeneracy floor reads `λ₁`); the search
        // of a variance fraction needs the whole block.
        let pairs = match policy {
            SeparationPolicy::FixedCount(r) => r.min(self.dim().saturating_sub(1)).max(1),
            _ => k_eff,
        };
        let eig = TruncatedEigen::covariance_pairs(&cov, k_eff, pairs, tol)?;
        let traces = decomposition::power_traces(&cov)?;
        let r = match policy.spectral_dim(&eig.eigenvalues, traces.0.max(0.0), self.dim()) {
            Some(r) => r,
            // The variance target lies beyond the computed block:
            // silently shrinking the subspace would diverge from
            // `to_model`'s choice, so refuse — the caller must raise `k`
            // (or the block already spans the whole space and the policy
            // is degenerate either way).
            None if eig.len() < self.dim() => {
                return Err(CoreError::TruncatedBlockTooSmall { k: eig.len() });
            }
            None => eig.len(),
        };
        if r >= self.dim() {
            // Same degenerate-separation semantics as `to_model`.
            return Err(CoreError::DegenerateResidual { r });
        }
        SubspaceModel::from_truncated(self.mean()?, &eig, r, traces)
    }

    /// Merge per-shard statistics ([`CovarianceShard`]) covering disjoint
    /// link sets back into one global accumulator.
    ///
    /// The shards must all have seen the same number of measurements and
    /// their link sets must partition `0..dim`. Every shard holds exactly
    /// its links' rows of the triangle, updated by the loop the global
    /// accumulator runs, so the merge is pure placement
    /// ([`Matrix::assemble_blocks`]) and **bitwise** the accumulator a
    /// single process keeps over the same stream.
    pub fn merge<'a, I: IntoIterator<Item = &'a CovarianceShard>>(shards: I) -> Result<Self> {
        let shards: Vec<&CovarianceShard> = shards.into_iter().collect();
        let Some(&first) = shards.first() else {
            return Err(CoreError::ShardMismatch {
                reason: "no shard statistics to merge",
            });
        };
        let dim = first.dim;
        let count = first.count;
        let mut sum = vec![0.0; dim];
        let mut owned = vec![false; dim];
        for &shard in &shards {
            if shard.dim != dim {
                return Err(CoreError::ShardMismatch {
                    reason: "shards disagree on the measurement dimension",
                });
            }
            if shard.count != count {
                return Err(CoreError::ShardMismatch {
                    reason: "shards have seen different numbers of measurements",
                });
            }
            for (k, &i) in shard.links.iter().enumerate() {
                if owned[i] {
                    return Err(CoreError::ShardMismatch {
                        reason: "a link is owned by more than one shard",
                    });
                }
                owned[i] = true;
                sum[i] = shard.sum[k];
            }
        }
        if !owned.iter().all(|&o| o) {
            return Err(CoreError::ShardMismatch {
                reason: "some link is owned by no shard",
            });
        }
        let links: Vec<usize> = (0..dim).collect();
        let placements: Vec<BlockPlacement> = shards
            .iter()
            .map(|&shard| BlockPlacement {
                rows: &shard.links,
                cols: &links,
                block: &shard.cross,
            })
            .collect();
        let cross = Matrix::assemble_blocks(dim, dim, &placements)?;
        Ok(IncrementalCovariance {
            stats: CovarianceShard {
                dim,
                links,
                count,
                sum,
                cross,
            },
        })
    }
}

/// Magic prefix of the serialized global accumulator
/// ([`IncrementalCovariance::to_bytes`]).
const STATS_MAGIC: [u8; 4] = *b"NAIC";
/// Version of the serialized global accumulator layout.
const STATS_VERSION: u32 = 1;

/// Magic prefix of [`CovarianceShard`]'s binary encoding.
const SHARD_MAGIC: [u8; 4] = *b"NACS";
/// Encoding version.
const SHARD_VERSION: u32 = 1;

/// The statistics accumulator: the rows of `Σ y yᵀ` (upper triangle)
/// belonging to an ascending link set, the matching entries of `Σ y`,
/// and the measurement count — one shard's slice of the global
/// statistics, or over every link the global statistics themselves.
///
/// Each arriving (or evicted) measurement is the **full** `m`-vector —
/// row `i` needs `y[j]` for every `j ≥ i` — but the compute is only the
/// shard's share of the `O(m²)` triangle, the per-arrival hot cost the
/// sharded engine splits across workers.
#[derive(Debug, Clone)]
pub struct CovarianceShard {
    /// Global measurement dimension `m`.
    dim: usize,
    /// Owned global link indices, strictly ascending.
    links: Vec<usize>,
    count: usize,
    /// `sum[k] = Σ y[links[k]]`.
    sum: Vec<f64>,
    /// Row `k` holds `Σ y[i]·y[j]` for `i = links[k]`, `j ∈ i..dim`
    /// (full `dim` width, zeros left of the diagonal).
    cross: Matrix,
}

impl CovarianceShard {
    /// Empty statistics for a shard owning `links` (strictly ascending
    /// global indices into `0..dim`).
    pub fn new(dim: usize, links: &[usize]) -> Result<Self> {
        check_links(dim, links)?;
        Ok(Self::empty(dim, links.to_vec()))
    }

    /// Empty statistics over links already known to be valid.
    fn empty(dim: usize, links: Vec<usize>) -> Self {
        CovarianceShard {
            dim,
            count: 0,
            sum: vec![0.0; links.len()],
            cross: Matrix::zeros(links.len(), dim),
            links,
        }
    }

    /// Statistics of every row of a `t × m` matrix for the shard owning
    /// `links` — how every engine seeds its statistics: one
    /// [`observe_block`](Self::observe_block) with no evictions, so
    /// bitwise what [`add`](Self::add), row after row, leaves behind.
    pub fn from_matrix(data: &Matrix, links: &[usize]) -> Result<Self> {
        let mut acc = Self::new(data.cols(), links)?;
        acc.seed(data);
        Ok(acc)
    }

    /// Add every row of `data` as [`from_matrix`](Self::from_matrix) does.
    fn seed(&mut self, data: &Matrix) {
        let fills = vec![None; data.rows()];
        self.observe_block(&fills, data)
            .expect("row width is the dimension by construction");
    }

    /// Number of accumulated measurements.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Global measurement dimension `m`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The owned global link indices.
    pub fn links(&self) -> &[usize] {
        &self.links
    }

    fn check(&self, y: &[f64]) -> Result<()> {
        if y.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                got: y.len(),
            });
        }
        Ok(())
    }

    /// Add one full measurement vector, updating only the owned rows.
    pub fn add(&mut self, y: &[f64]) -> Result<()> {
        self.check(y)?;
        self.count += 1;
        self.fold(false, y);
        Ok(())
    }

    /// Remove a previously-added measurement.
    ///
    /// The caller is responsible for passing exactly a vector that was
    /// added earlier (the sliding-window pattern); removing anything else
    /// silently corrupts the statistics. Removing below zero measurements
    /// is an error.
    pub fn remove(&mut self, y: &[f64]) -> Result<()> {
        self.check(y)?;
        if self.count == 0 {
            return Err(CoreError::TooFewSamples { got: 0, need: 1 });
        }
        self.count -= 1;
        self.fold(true, y);
        Ok(())
    }

    /// Slide the window by one measurement: remove `old`, add `new`.
    pub fn slide(&mut self, old: &[f64], new: &[f64]) -> Result<()> {
        self.remove(old)?;
        self.add(new)
    }

    /// Follow one push of the engine's window: slide out the row it
    /// evicted, or just add `y` while the window fills (`None`).
    pub fn observe(&mut self, evicted: Option<&[f64]>, y: &[f64]) -> Result<()> {
        match evicted {
            Some(old) => self.slide(old, y),
            None => self.add(y),
        }
    }

    /// Follow a block of window pushes at once: push `t` adds
    /// `block.row(t)` after sliding out `evicted[t]` (`None` while the
    /// window fills; [`RingWindow::evictions`] lists them, the block's
    /// own earlier rows included when it outruns the window). Bitwise
    /// what [`observe`](Self::observe) leaves behind push after push.
    ///
    /// The block's terms stack in push order, `[old₀, new₀, old₁, …]`,
    /// and every owned row takes them in one in-place pass of
    /// [`kernel::rank_update`] (the unfused packed tile, or for a deep
    /// update of a narrow triangle its direct loop), so each entry
    /// takes exactly the row loop's `± yᵢ·yⱼ` steps in the same order
    /// and rounding. Three cases keep the row loop:
    ///
    /// * a block with fewer terms than the tile's packing crossover
    ///   ([`kernel::use_packed`]), with no stacking;
    /// * within a block, an owned row `i` whose multiplier `yᵢ` is a
    ///   zero of either sign in any term — the row loop skips those
    ///   terms, and skipping is not adding `0·y` (signed zeros, `0·∞`);
    /// * a block holding a NaN or an infinity: where a NaN product
    ///   (an input NaN, or `∞·0`) meets a NaN already in `Σ y yᵀ` —
    ///   this block's or one an earlier block left there — which
    ///   payload survives depends on the operand order each loop was
    ///   compiled with. No product of finite terms is a NaN, so past
    ///   this rule no two NaNs meet.
    ///
    /// Errors, before touching any state, unless every row is `m` wide,
    /// `evicted` lists one entry per block row, and an eviction has a
    /// measurement to remove.
    ///
    /// [`RingWindow::evictions`]: crate::stream::RingWindow::evictions
    pub fn observe_block(&mut self, evicted: &[Option<&[f64]>], block: &Matrix) -> Result<()> {
        if block.rows() != evicted.len() {
            return Err(CoreError::DimensionMismatch {
                expected: block.rows(),
                got: evicted.len(),
            });
        }
        if block.rows() > 0 {
            self.check(block.row(0))?;
        }
        for old in evicted.iter().flatten() {
            self.check(old)?;
        }
        if self.count == 0 && matches!(evicted.first(), Some(Some(_))) {
            return Err(CoreError::TooFewSamples { got: 0, need: 1 });
        }
        let fills = evicted.iter().filter(|e| e.is_none()).count();
        let terms = 2 * evicted.len() - fills;
        let folded = kernel::use_packed(self.links.len(), terms, self.dim) && {
            let mut rows = Vec::with_capacity(terms);
            let mut negate = Vec::with_capacity(terms);
            for (t, old) in evicted.iter().enumerate() {
                if let Some(old) = old {
                    rows.push(*old);
                    negate.push(true);
                }
                rows.push(block.row(t));
                negate.push(false);
            }
            self.fold_terms(&rows, &negate)?
        };
        if !folded {
            for (t, old) in evicted.iter().enumerate() {
                if let Some(old) = old {
                    self.fold(true, old);
                }
                self.fold(false, block.row(t));
            }
        }
        self.count += fills;
        Ok(())
    }

    /// Add (or, negated, subtract) `y` into `Σ y` and every owned row of
    /// `Σ y yᵀ`: the row loop.
    fn fold(&mut self, negate: bool, y: &[f64]) {
        self.fold_sum(negate, y);
        for (k, &i) in self.links.iter().enumerate() {
            accumulate(self.cross.row_mut(k), i, y, negate);
        }
    }

    /// Take `y`'s owned entries into (or, negated, out of) `Σ y`.
    fn fold_sum(&mut self, negate: bool, y: &[f64]) {
        for (s, &i) in self.sum.iter_mut().zip(&self.links) {
            if negate {
                *s -= y[i];
            } else {
                *s += y[i];
            }
        }
    }

    /// [`fold`](Self::fold) every term in order, term `t` negated where
    /// `negate[t]`, in one pass of [`kernel::rank_update`]; an owned row
    /// with a zero multiplier in any term takes the row loop instead.
    /// Answers `false`, touching nothing, when a term holds a NaN or an
    /// infinity.
    fn fold_terms(&mut self, terms: &[&[f64]], negate: &[bool]) -> Result<bool> {
        let Some(zero) = self.fold_sums(terms, negate) else {
            return Ok(false);
        };
        // `rank_update` leaves a row alone whose first column is past
        // the last.
        let mut cols = self.links.clone();
        for (k, col) in cols.iter_mut().enumerate() {
            let i = *col;
            if zero[k] {
                let row = self.cross.row_mut(k);
                for (&y, &neg) in terms.iter().zip(negate) {
                    accumulate(row, i, y, neg);
                }
                *col = self.dim;
            }
        }
        kernel::rank_update(terms, negate, &cols, &mut self.cross)?;
        Ok(true)
    }

    /// Take every term into `Σ y` and flag each owned row with a zero
    /// multiplier in some term; `None`, touching nothing, when a term
    /// holds a NaN or an infinity.
    fn fold_sums(&mut self, terms: &[&[f64]], negate: &[bool]) -> Option<Vec<bool>> {
        let from = self.links.first().map_or(self.dim, |&l| l);
        if self.links.len() == self.dim - from {
            // Links run unbroken to the last column (every link, say), so
            // every column a product meets is owned: one pass takes `Σ y`
            // and each link's smallest magnitude, and `Σ y` stays finite
            // only if every value is. (An overflow, or a `Σ y` already
            // not finite, sends the block to the row loop, which is
            // always right.)
            let before = self.sum.clone();
            let mut low = vec![f64::INFINITY; self.links.len()];
            for (&y, &neg) in terms.iter().zip(negate) {
                let lanes = self.sum.iter_mut().zip(&mut low).zip(&y[from..]);
                let least = |z: f64, v: f64| if v.abs() < z { v.abs() } else { z };
                if neg {
                    lanes.for_each(|((s, z), &v)| {
                        *s -= v;
                        *z = least(*z, v);
                    });
                } else {
                    lanes.for_each(|((s, z), &v)| {
                        *s += v;
                        *z = least(*z, v);
                    });
                }
            }
            if self.sum.iter().all(|s| s.is_finite()) {
                return Some(low.iter().map(|&z| z == 0.0).collect());
            }
            self.sum = before;
            return None;
        }
        let mut zero = vec![false; self.dim];
        let mut finite = true;
        for y in terms {
            for (z, &v) in zero.iter_mut().zip(*y) {
                *z |= v == 0.0;
                finite &= v.is_finite();
            }
        }
        if !finite {
            return None;
        }
        for (&y, &neg) in terms.iter().zip(negate) {
            self.fold_sum(neg, y);
        }
        Some(self.links.iter().map(|&i| zero[i]).collect())
    }

    /// Header, `dim`, `count`, the link list when `with_links`, `Σ y`,
    /// then the `Σ y yᵀ` rows: the `NACS` and `NAIC` layouts.
    fn encode(&self, magic: [u8; 4], version: u32, with_links: bool) -> Vec<u8> {
        let mut out = Vec::new();
        codec::header(&mut out, magic, version);
        codec::put_u64(&mut out, self.dim as u64);
        codec::put_u64(&mut out, self.count as u64);
        if with_links {
            codec::put_u64(&mut out, self.links.len() as u64);
            for &l in &self.links {
                codec::put_u64(&mut out, l as u64);
            }
        }
        codec::put_f64s(&mut out, &self.sum);
        codec::put_f64s(&mut out, self.cross.as_slice());
        out
    }

    /// Encode as a self-contained little-endian byte buffer — the wire
    /// format workers use to ship statistics partials to the tracker
    /// (`"NACS"` = netanom covariance shard). Every `f64` bit pattern is
    /// preserved exactly, so a decoded shard merges bitwise identically
    /// to the original.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(SHARD_MAGIC, SHARD_VERSION, true)
    }

    /// Decode a buffer produced by [`CovarianceShard::to_bytes`],
    /// re-validating every structural invariant (`links` strictly
    /// ascending and inside `0..dim`, exact buffer length).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode(bytes, SHARD_MAGIC, SHARD_VERSION, true)
    }

    /// Decode what [`encode`](Self::encode) wrote. Without a link list
    /// the links are `0..dim`, built only after the length checks, so a
    /// header claiming a huge `dim` allocates nothing.
    fn decode(bytes: &[u8], magic: [u8; 4], version: u32, with_links: bool) -> Result<Self> {
        let mut r = Reader::new(bytes);
        r.expect_header(magic, version)?;
        let dim = r.u64()? as usize;
        let count = r.u64()? as usize;
        let listed = with_links
            .then(|| r.count().and_then(|n| r.u64s(n)))
            .transpose()?;
        let rows = listed.as_ref().map_or(dim, Vec::len);
        let sum = r.f64s(rows)?;
        let cross = r.matrix_body(rows, dim)?;
        r.finish()?;
        let links: Vec<usize> = match listed {
            Some(listed) => listed.into_iter().map(|l| l as usize).collect(),
            None => (0..dim).collect(),
        };
        if with_links {
            check_links(dim, &links)?;
        }
        Ok(CovarianceShard {
            dim,
            links,
            count,
            sum,
            cross,
        })
    }
}

/// Refuse a link set that is empty, not strictly ascending, or reaches
/// past `0..dim`.
fn check_links(dim: usize, links: &[usize]) -> Result<()> {
    let refuse = |reason| Err(CoreError::ShardMismatch { reason });
    let Some(&last) = links.last() else {
        return refuse("a shard must own at least one link");
    };
    if links.windows(2).any(|w| w[0] >= w[1]) {
        return refuse("shard links must be strictly ascending");
    }
    if last >= dim {
        return refuse("shard links exceed the measurement dimension");
    }
    Ok(())
}

/// Row `i` of `Σ y yᵀ` takes `± yᵢ·y[j]` for every `j ≥ i` — the one
/// per-entry update, skipped whole when `yᵢ` is a zero of either sign.
/// `−= yᵢ·y[j]` is `+= (−yᵢ)·y[j]` (a sign flip is exact), and the axpy
/// performs exactly that scalar step per element.
fn accumulate(row: &mut [f64], i: usize, y: &[f64], negate: bool) {
    let yi = y[i];
    if yi != 0.0 {
        vector::axpy(if negate { -yi } else { yi }, &y[i..], &mut row[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::Pca;

    fn data(t: usize, m: usize, seed: usize) -> Matrix {
        Matrix::from_fn(t, m, |i, j| {
            let phase = i as f64 * std::f64::consts::TAU / 144.0;
            let smooth = 1e5 * phase.sin() * ((j % 3) as f64 + 1.0);
            let noise = (((i * m + j + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
            1e6 + smooth + noise
        })
    }

    #[test]
    fn matches_two_pass_covariance() {
        let y = data(300, 6, 0);
        let inc = IncrementalCovariance::from_matrix(&y);
        let (centered, mean) = y.mean_centered_columns();
        let direct = centered.gram().scaled(1.0 / 299.0);
        let cov = inc.covariance().unwrap();
        assert!(
            cov.approx_eq(&direct, 1e-9 * direct.max_abs()),
            "incremental covariance diverges from two-pass"
        );
        assert!(vector::approx_eq(&inc.mean().unwrap(), &mean, 1e-9));
    }

    #[test]
    fn from_matrix_is_bitwise_row_by_row_adds() {
        // Every t mod 4 and both parities of m. Zeros of either sign take
        // `add`'s skipping loop, and the NaN in row 5 sits beside one, so
        // its products are skipped there and nowhere else. Row 6 puts a
        // zero on a pair's lower row with an infinity right of it: only
        // the skip keeps `0 · ∞` out of that row.
        for (t, m) in [(0, 3), (3, 4), (9, 1), (22, 7), (41, 12)] {
            let base = data(t, m, 3);
            let y = Matrix::from_fn(t, m, |i, j| match (i * m + j) % 23 {
                _ if i == 5 && j < 2 => [0.0, f64::NAN][j],
                _ if i == 6 && (3..5).contains(&j) => [0.0, f64::INFINITY][j - 3],
                0 => 0.0,
                7 => -0.0,
                _ => base[(i, j)],
            });
            let mut want = IncrementalCovariance::new(m);
            for i in 0..t {
                want.add(y.row(i)).unwrap();
            }
            let got = IncrementalCovariance::from_matrix(&y);
            assert_eq!(got.to_bytes(), want.to_bytes(), "t = {t}, m = {m}");

            // The same pass over shards, merged back: round-robin over 1,
            // 2, 3 and m shards (every link, pairs of non-adjacent links,
            // one link each) and contiguous halves, odd counts among them.
            let rr = |k: usize| -> Vec<Vec<usize>> {
                (0..k).map(|s| (s..m).step_by(k).collect()).collect()
            };
            let half = m.div_ceil(2);
            let halves = vec![(0..half).collect(), (half..m).collect()];
            for groups in [rr(1), rr(2), rr(3), rr(m), halves] {
                let seeded: Vec<CovarianceShard> = (groups.iter().filter(|g| !g.is_empty()))
                    .map(|links| {
                        let mut want = CovarianceShard::new(m, links).unwrap();
                        (0..t).for_each(|i| want.add(y.row(i)).unwrap());
                        let got = CovarianceShard::from_matrix(&y, links).unwrap();
                        assert_eq!(got.to_bytes(), want.to_bytes(), "t = {t}, links {links:?}");
                        got
                    })
                    .collect();
                let merged = IncrementalCovariance::merge(&seeded).unwrap();
                assert_eq!(merged.to_bytes(), got.to_bytes(), "t = {t}, {groups:?}");
            }
        }
    }

    #[test]
    fn sliding_window_equals_batch_on_window() {
        let y = data(400, 5, 1);
        let window = 250;
        let mut inc = IncrementalCovariance::from_matrix(&y.row_block(0, window).unwrap());
        // Slide by 150 steps.
        for t in 0..150 {
            inc.remove(y.row(t)).unwrap();
            inc.add(y.row(window + t)).unwrap();
        }
        let batch = IncrementalCovariance::from_matrix(&y.row_block(150, window).unwrap());
        assert_eq!(inc.count(), window);
        let a = inc.covariance().unwrap();
        let b = batch.covariance().unwrap();
        assert!(a.approx_eq(&b, 1e-6 * b.max_abs().max(1.0)));
    }

    #[test]
    fn model_matches_full_pca_fit() {
        let y = data(500, 6, 2);
        let inc = IncrementalCovariance::from_matrix(&y);
        let model_inc = inc.to_model(SeparationPolicy::FixedCount(2)).unwrap();
        let pca = Pca::fit(&y).unwrap();
        let model_batch = SubspaceModel::from_eigen(
            pca.mean().to_vec(),
            pca.components(),
            pca.eigenvalues().to_vec(),
            2,
        )
        .unwrap();

        // Same SPE on arbitrary probes (sign flips in eigenvectors cancel
        // inside the projector).
        for t in [0usize, 123, 499] {
            let a = model_inc.spe(y.row(t)).unwrap();
            let b = model_batch.spe(y.row(t)).unwrap();
            assert!(
                (a - b).abs() <= 1e-6 * b.max(1.0),
                "SPE mismatch at row {t}: {a} vs {b}"
            );
        }
        // Same spectrum.
        for (a, b) in model_inc
            .eigenvalues()
            .iter()
            .zip(model_batch.eigenvalues())
        {
            assert!((a - b).abs() <= 1e-6 * b.max(1.0));
        }
    }

    #[test]
    fn variance_fraction_policy_works_without_temporal_data() {
        let y = data(300, 6, 3);
        let inc = IncrementalCovariance::from_matrix(&y);
        let model = inc
            .to_model(SeparationPolicy::VarianceFraction(0.9))
            .unwrap();
        assert!(model.normal_dim() >= 1);
        assert!(model.normal_dim() < 6);
    }

    #[test]
    fn three_sigma_policy_is_rejected() {
        let y = data(100, 4, 4);
        let inc = IncrementalCovariance::from_matrix(&y);
        assert!(inc.to_model(SeparationPolicy::default()).is_err());
        // The refusal comes before any statistic is read, so an empty
        // window gets it too.
        assert!(matches!(
            IncrementalCovariance::new(4).to_model(SeparationPolicy::default()),
            Err(CoreError::DegenerateResidual { r: usize::MAX })
        ));
    }

    #[test]
    fn empty_and_underfull_errors() {
        let mut inc = IncrementalCovariance::new(3);
        assert!(inc.mean().is_err());
        assert!(inc.covariance().is_err());
        assert!(inc.remove(&[1.0, 2.0, 3.0]).is_err());
        inc.add(&[1.0, 2.0, 3.0]).unwrap();
        assert!(inc.covariance().is_err()); // needs 2
        assert!(inc.add(&[1.0]).is_err()); // dim check
    }

    #[test]
    fn sharded_statistics_merge_bitwise_to_global() {
        let y = data(120, 7, 6);
        // Uneven, non-contiguous ownership.
        let groups: [&[usize]; 3] = [&[0, 3, 6], &[1, 2], &[4, 5]];
        let mut shards: Vec<CovarianceShard> = groups
            .iter()
            .map(|g| CovarianceShard::new(7, g).unwrap())
            .collect();
        let mut global = IncrementalCovariance::new(7);
        // Interleave adds and a sliding phase.
        for t in 0..80 {
            global.add(y.row(t)).unwrap();
            for s in &mut shards {
                s.add(y.row(t)).unwrap();
            }
        }
        for t in 80..120 {
            global.slide(y.row(t - 80), y.row(t)).unwrap();
            for s in &mut shards {
                s.slide(y.row(t - 80), y.row(t)).unwrap();
            }
        }
        let merged = IncrementalCovariance::merge(&shards).unwrap();
        assert_eq!(merged.count(), global.count());
        assert!(
            merged
                .covariance()
                .unwrap()
                .approx_eq(&global.covariance().unwrap(), 0.0),
            "merged covariance must be bitwise identical to the global accumulator"
        );
        assert_eq!(merged.mean().unwrap(), global.mean().unwrap());
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        let mk = |links: &[usize]| CovarianceShard::new(4, links).unwrap();
        // Empty input.
        let none: Vec<CovarianceShard> = Vec::new();
        assert!(matches!(
            IncrementalCovariance::merge(&none),
            Err(CoreError::ShardMismatch { .. })
        ));
        // Overlapping ownership.
        assert!(IncrementalCovariance::merge(&[mk(&[0, 1]), mk(&[1, 2, 3])]).is_err());
        // Missing links.
        assert!(IncrementalCovariance::merge(&[mk(&[0, 1]), mk(&[2])]).is_err());
        // Count mismatch.
        let mut a = mk(&[0, 1]);
        let b = mk(&[2, 3]);
        a.add(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(matches!(
            IncrementalCovariance::merge(&[a, b]),
            Err(CoreError::ShardMismatch { .. })
        ));
        // Dim mismatch.
        let c = CovarianceShard::new(5, &[0, 1, 2, 3, 4]).unwrap();
        assert!(IncrementalCovariance::merge(&[mk(&[0, 1, 2, 3]), c]).is_err());
    }

    #[test]
    fn covariance_shard_validates_construction_and_rows() {
        assert!(CovarianceShard::new(4, &[]).is_err());
        assert!(CovarianceShard::new(4, &[1, 1]).is_err());
        assert!(CovarianceShard::new(4, &[2, 1]).is_err());
        assert!(CovarianceShard::new(4, &[0, 4]).is_err());
        let mut s = CovarianceShard::new(4, &[0, 2]).unwrap();
        assert_eq!(s.links(), &[0, 2]);
        assert_eq!(s.dim(), 4);
        assert!(s.add(&[1.0, 2.0]).is_err());
        assert!(s.remove(&[1.0; 4]).is_err()); // nothing added yet
        s.add(&[1.0; 4]).unwrap();
        assert_eq!(s.count(), 1);
        s.remove(&[1.0; 4]).unwrap();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn covariance_shard_bytes_roundtrip_is_bitwise() {
        let y = data(40, 6, 11);
        let mut s = CovarianceShard::new(6, &[1, 3, 4]).unwrap();
        for t in 0..y.rows() {
            s.add(y.row(t)).unwrap();
        }
        let bytes = s.to_bytes();
        let back = CovarianceShard::from_bytes(&bytes).unwrap();
        assert_eq!(back.dim(), s.dim());
        assert_eq!(back.links(), s.links());
        assert_eq!(back.count(), s.count());
        assert_eq!(back.sum, s.sum, "sum must round-trip bitwise");
        assert!(back.cross == s.cross, "cross rows must round-trip bitwise");
        // A decoded shard must merge exactly like the original.
        let mut other = CovarianceShard::new(6, &[0, 2, 5]).unwrap();
        for t in 0..y.rows() {
            other.add(y.row(t)).unwrap();
        }
        let merged_orig = IncrementalCovariance::merge([&s, &other]).unwrap();
        let merged_back = IncrementalCovariance::merge([&back, &other]).unwrap();
        assert!(merged_orig.covariance().unwrap() == merged_back.covariance().unwrap());
    }

    /// Structural corruption the byte-level hostile suite
    /// (`tests/codec_hostile.rs`) cannot see: a well-formed buffer whose
    /// links are out of order.
    #[test]
    fn covariance_shard_bytes_revalidates_link_order() {
        let mut s = CovarianceShard::new(3, &[0, 2]).unwrap();
        s.add(&[1.0, 2.0, 3.0]).unwrap();
        let mut swapped = s.to_bytes();
        // links live after magic(4)+version(4)+dim(8)+count(8)+len(8).
        let at = 4 + 4 + 8 + 8 + 8;
        let (a, b) = (at, at + 8);
        for i in 0..8 {
            swapped.swap(a + i, b + i);
        }
        assert!(CovarianceShard::from_bytes(&swapped).is_err());
    }

    #[test]
    fn add_remove_roundtrip_restores_state() {
        let y = data(50, 4, 5);
        let mut inc = IncrementalCovariance::from_matrix(&y);
        let before = inc.covariance().unwrap();
        let probe = vec![5e6, -1e6, 3e6, 0.0];
        inc.add(&probe).unwrap();
        inc.remove(&probe).unwrap();
        let after = inc.covariance().unwrap();
        assert!(after.approx_eq(&before, 1e-6 * before.max_abs()));
    }
}
