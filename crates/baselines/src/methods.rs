//! The temporal comparators as pluggable detection backends, plus the
//! by-name method registry.
//!
//! This module closes the loop the paper's Section 6/Figure 10
//! comparison opens: the per-link temporal filters — EWMA, Holt–Winters,
//! the eight-period Fourier model, and the Haar wavelet — implement
//! [`DetectionBackend`], so every method runs through the *same*
//! streaming engine as the subspace method. [`MethodName`] is the
//! registry the CLI's `--method` flag resolves against, and
//! [`MethodBackend`] puts the subspace reference implementation and the
//! temporal family behind one concrete [`DetectionBackend`] for every
//! caller that picks the method at run time (`stream`, `serve`, `eval`,
//! and `shard` for a temporal method). A temporal method scores each
//! link on its own, so a link partition gives it nothing to merge: only
//! the subspace method runs through the sharded engine.
//!
//! # Scoring semantics of the temporal backends
//!
//! Each link carries its own streaming forecaster (the incremental
//! `step` ports in this crate). The per-bin score is the squared norm of
//! the per-link one-step residual vector, `‖z_t − ẑ_t‖²` — exactly the
//! residual-energy series Figure 10 plots (for the subspace method the
//! same quantity is the SPE). The detection threshold is calibrated at
//! fit/refit time as the empirical `confidence`-quantile of the training
//! window's residual energies, mirroring the subspace method's
//! `1 − α` false-alarm contract without assuming the Q-statistic's
//! Gaussian residual model (which per-link temporal residuals do not
//! satisfy).
//!
//! # Example
//!
//! Every registered method streams through the same engine:
//!
//! ```
//! use netanom_baselines::methods::MethodName;
//! use netanom_core::{DiagnoserConfig, RefitStrategy, StreamConfig, StreamingEngine};
//! use netanom_linalg::Matrix;
//! use netanom_topology::builtin;
//!
//! let net = builtin::line(3);
//! let rm = &net.routing_matrix;
//! let m = rm.num_links();
//! let gen = |t: usize, l: usize| {
//!     2e6 + 2e5 * (t as f64 * std::f64::consts::TAU / 144.0).sin() * (l + 1) as f64
//!         + ((t * m + l) % 101) as f64
//! };
//! let training = Matrix::from_fn(288, m, &gen);
//! // The next bin continues the diurnal pattern — with a large volume
//! // anomaly injected along flow 0's path.
//! let mut next: Vec<f64> = (0..m).map(|l| gen(288, l)).collect();
//! for (l, a) in rm.column(0).iter().enumerate() {
//!     next[l] += 5e7 * a;
//! }
//! for name in MethodName::ALL {
//!     let backend = name
//!         .fit(&training, rm, DiagnoserConfig::default(), RefitStrategy::FullSvd)
//!         .unwrap();
//!     let mut engine =
//!         StreamingEngine::with_backend(backend, &training, StreamConfig::new(288)).unwrap();
//!     let report = engine.process(&next).unwrap();
//!     assert!(report.detected, "{name}: a 50 MB spike must fire");
//! }
//! ```

use netanom_core::method::{DetectionBackend, MethodState, SubspaceBackend};
use netanom_core::{
    CoreError, DiagnoserConfig, DiagnosisReport, RefitStrategy, Result, RingWindow,
};
use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::ewma::{Ewma, EwmaStream};
use crate::fourier::{FourierModel, FourierStream};
use crate::holt_winters::{HoltWinters, HoltWintersStream};

/// Default Holt–Winters season length: one day of 10-minute bins
/// (clamped to half the training length when the window is shorter).
pub const DEFAULT_HW_PERIOD: usize = 144;
/// Default Haar decomposition depth (`2^5` bins ≈ 5.3 h at 10-minute
/// bins).
pub const DEFAULT_WAVELET_LEVELS: usize = 5;

/// Which temporal method a [`TemporalBackend`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalKind {
    /// Per-link EWMA with grid-searched α (re-searched at every refit).
    Ewma,
    /// Per-link additive Holt–Winters with the given season length
    /// (clamped to half the training length at fit time).
    HoltWinters {
        /// Requested season length in bins.
        period: usize,
    },
    /// Per-link eight-period Fourier model (periods longer than twice
    /// the training window are dropped, as in the batch fit).
    Fourier,
    /// Per-link Haar pyramid: the prediction for a bin is the previous
    /// completed `2^levels`-block's approximation value.
    Wavelet {
        /// Decomposition depth.
        levels: usize,
    },
}

impl TemporalKind {
    fn name(&self) -> &'static str {
        match self {
            TemporalKind::Ewma => "ewma",
            TemporalKind::HoltWinters { .. } => "holt-winters",
            TemporalKind::Fourier => "fourier",
            TemporalKind::Wavelet { .. } => "wavelet",
        }
    }
}

/// Causal Haar predictor: holds the previous completed block's
/// approximation value; residual = arrival − held value.
#[derive(Debug, Clone)]
struct HaarPredictor {
    levels: usize,
    held: f64,
    buf: Vec<f64>,
}

impl HaarPredictor {
    fn new(levels: usize, initial: f64) -> Self {
        HaarPredictor {
            levels,
            held: initial,
            buf: Vec::with_capacity(1usize << levels),
        }
    }

    fn block_len(&self) -> usize {
        1usize << self.levels
    }

    /// Reduce a full block to its approximation value: pairwise
    /// averages, level by level, an odd tail carried up unaveraged.
    fn pyramid_value(block: &[f64]) -> f64 {
        let mut cur = block.to_vec();
        while cur.len() > 1 {
            let mut next = Vec::with_capacity(cur.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < cur.len() {
                next.push(0.5 * (cur[i] + cur[i + 1]));
                i += 2;
            }
            if i < cur.len() {
                next.push(cur[i]);
            }
            cur = next;
        }
        cur[0]
    }

    fn observe(&mut self, z: f64) {
        self.buf.push(z);
        if self.buf.len() == self.block_len() {
            self.held = Self::pyramid_value(&self.buf);
            self.buf.clear();
        }
    }
}

/// One link's streaming forecaster state.
#[derive(Debug, Clone)]
enum LinkState {
    Ewma(EwmaStream),
    Hw(HoltWintersStream),
    Fourier(FourierStream),
    Haar(HaarPredictor),
}

impl LinkState {
    /// One-step-ahead forecast for the next arrival `z` (only a fresh
    /// EWMA state needs `z` itself, for the `out[0] = z` convention).
    fn forecast(&self, z: f64) -> f64 {
        match self {
            LinkState::Ewma(s) => s.forecast_next().unwrap_or(z),
            LinkState::Hw(s) => s.forecast_next(),
            LinkState::Fourier(s) => s.forecast_next(),
            LinkState::Haar(s) => s.held,
        }
    }

    fn advance(&mut self, z: f64) {
        match self {
            LinkState::Ewma(s) => {
                s.step(z);
            }
            LinkState::Hw(s) => {
                s.step(z);
            }
            LinkState::Fourier(s) => {
                s.step(z);
            }
            LinkState::Haar(s) => s.observe(z),
        }
    }
}

/// Empirical `confidence`-quantile of a residual-energy sample — the
/// temporal backends' detection threshold.
fn energy_threshold(energies: &[f64], confidence: f64) -> Result<f64> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(CoreError::InvalidConfidence { value: confidence });
    }
    let mut v: Vec<f64> = energies.iter().copied().filter(|e| e.is_finite()).collect();
    if v.is_empty() {
        return Err(CoreError::TooFewSamples { got: 0, need: 1 });
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("filtered finite"));
    let n = v.len();
    let idx = ((confidence * n as f64).ceil() as usize).clamp(1, n) - 1;
    Ok(v[idx])
}

/// A per-link temporal filter as a [`DetectionBackend`]: EWMA,
/// Holt–Winters, Fourier, or Haar wavelet across every link, scored by
/// per-bin residual energy against a training-calibrated threshold.
///
/// See the [module docs](self) for the scoring semantics. Refits
/// ([`DetectionBackend::refit`]) re-run the full calibration — parameter
/// search, forecaster replay, threshold quantile — on the engine's
/// retained window.
#[derive(Debug, Clone)]
pub struct TemporalBackend {
    kind: TemporalKind,
    confidence: f64,
    threshold: f64,
    links: Vec<LinkState>,
}

impl TemporalBackend {
    /// Fit on a `t × m` training matrix: per-link parameter search +
    /// forecaster replay, threshold at the `confidence` quantile of the
    /// training residual energies.
    pub fn fit(kind: TemporalKind, training: &Matrix, confidence: f64) -> Result<Self> {
        let (links, threshold) = Self::calibrate(kind, training, confidence)?;
        Ok(TemporalBackend {
            kind,
            confidence,
            threshold,
            links,
        })
    }

    /// Reconstruct a backend over `m` links from an exported
    /// [`MethodState`] without recalibrating — the restore half of a
    /// service-session checkpoint. The state carries the complete
    /// per-link forecaster states (levels, seasonals, coefficients,
    /// pending wavelet buffers), so scoring after a restore is bitwise
    /// the scoring of the exporting process.
    /// A threshold that is negative or not finite (it would alarm always
    /// or never) or a confidence outside `(0, 1)` is refused here, not at
    /// the next refit, with [`CoreError::InvalidState`].
    pub fn from_state(kind: TemporalKind, m: usize, state: &MethodState) -> Result<Self> {
        state.expect_method(kind.name())?;
        let bad = |reason: &'static str| CoreError::InvalidState { reason };
        let [threshold, confidence, rest @ ..] = &state.scalars[..] else {
            return Err(bad(
                "temporal state needs [threshold, confidence, ...] scalars",
            ));
        };
        if !(threshold.is_finite() && *threshold >= 0.0) {
            return Err(bad("temporal state threshold is negative or not finite"));
        }
        if !(*confidence > 0.0 && *confidence < 1.0) {
            return Err(bad("temporal state confidence is outside (0, 1)"));
        }
        let mut links = Vec::with_capacity(m);
        match kind {
            TemporalKind::Ewma => {
                let [alphas, smoothed] = &state.vectors[..] else {
                    return Err(bad("ewma state needs [alphas, smoothed] vectors"));
                };
                if alphas.len() != m || smoothed.len() != m {
                    return Err(bad("ewma state has the wrong link count"));
                }
                for l in 0..m {
                    if !(0.0..=1.0).contains(&alphas[l]) {
                        return Err(bad("ewma state carries an alpha outside [0, 1]"));
                    }
                    let mut s = EwmaStream::new(alphas[l]);
                    if smoothed[l].is_finite() {
                        s.set_level(smoothed[l]);
                    }
                    links.push(LinkState::Ewma(s));
                }
            }
            TemporalKind::HoltWinters { .. } => {
                let [period, t_obs] = rest else {
                    return Err(bad("holt-winters state needs [period, observed] scalars"));
                };
                let ([levels, trends], [seasonal]) = (&state.vectors[..], &state.matrices[..])
                else {
                    return Err(bad(
                        "holt-winters state needs [levels, trends] vectors and [seasonal]",
                    ));
                };
                let period = *period as usize;
                if levels.len() != m || trends.len() != m || seasonal.rows() != m {
                    return Err(bad("holt-winters state has the wrong link count"));
                }
                if period == 0 || seasonal.cols() != period {
                    return Err(bad("holt-winters state has an inconsistent period"));
                }
                let params = HoltWinters {
                    period,
                    ..HoltWinters::daily()
                };
                for l in 0..m {
                    links.push(LinkState::Hw(HoltWintersStream::from_components(
                        params,
                        levels[l],
                        trends[l],
                        seasonal.row(l).to_vec(),
                        *t_obs as usize,
                    )));
                }
            }
            TemporalKind::Fourier => {
                let [t_next] = rest else {
                    return Err(bad("fourier state needs a [time] scalar"));
                };
                let ([periods], [coeffs]) = (&state.vectors[..], &state.matrices[..]) else {
                    return Err(bad("fourier state needs [periods] and [coefficients]"));
                };
                if coeffs.rows() != m {
                    return Err(bad("fourier state has the wrong link count"));
                }
                if coeffs.cols() != 1 + 2 * periods.len() {
                    return Err(bad("fourier state coefficients do not match its periods"));
                }
                for l in 0..m {
                    let model =
                        FourierModel::from_coefficients(periods.clone(), coeffs.row(l).to_vec());
                    links.push(LinkState::Fourier(model.stream(*t_next as usize)));
                }
            }
            TemporalKind::Wavelet { levels } => {
                let [state_levels] = rest else {
                    return Err(bad("wavelet state needs a [levels] scalar"));
                };
                // A state exported at a different decomposition depth
                // would restore cleanly but complete blocks on the wrong
                // cadence, silently diverging from the exporter.
                if *state_levels as usize != levels {
                    return Err(bad("wavelet state has a different decomposition depth"));
                }
                let ([held], [buf]) = (&state.vectors[..], &state.matrices[..]) else {
                    return Err(bad("wavelet state needs [held] and [buffer]"));
                };
                if held.len() != m || buf.rows() != m {
                    return Err(bad("wavelet state has the wrong link count"));
                }
                if buf.cols() >= (1usize << levels) {
                    return Err(bad("wavelet state buffer exceeds a block"));
                }
                for (l, &h) in held.iter().enumerate() {
                    let mut p = HaarPredictor::new(levels, h);
                    p.buf.extend_from_slice(buf.row(l));
                    links.push(LinkState::Haar(p));
                }
            }
        }
        Ok(TemporalBackend {
            kind,
            confidence: *confidence,
            threshold: *threshold,
            links,
        })
    }

    /// Calibrate per-link forecasters and the energy threshold on a
    /// training matrix.
    fn calibrate(
        kind: TemporalKind,
        training: &Matrix,
        confidence: f64,
    ) -> Result<(Vec<LinkState>, f64)> {
        let bins = training.rows();
        let m = training.cols();
        if bins < 2 {
            return Err(CoreError::TooFewSamples { got: bins, need: 2 });
        }
        for t in 0..bins {
            if let Some(link) = training.row(t).iter().position(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteMeasurement { link });
            }
        }
        let mut energies = vec![0.0; bins];
        let mut links = Vec::with_capacity(m);
        let warmup;
        match kind {
            TemporalKind::Ewma => {
                // The first bin's forecast is the observation itself.
                warmup = 1;
                for l in 0..m {
                    let col = training.col(l);
                    let alpha = Ewma::grid_search(&col).alpha;
                    let mut stream = EwmaStream::new(alpha);
                    for (t, &z) in col.iter().enumerate() {
                        let r = z - stream.step(z);
                        energies[t] += r * r;
                    }
                    links.push(LinkState::Ewma(stream));
                }
            }
            TemporalKind::HoltWinters { period } => {
                // Clamp the season so two full seasons fit the window.
                let period_eff = period.clamp(1, bins / 2);
                warmup = 2 * period_eff;
                let params = HoltWinters {
                    period: period_eff,
                    ..HoltWinters::daily()
                };
                for l in 0..m {
                    let col = training.col(l);
                    // One replay yields both the fitted stream and the
                    // calibration forecasts (bitwise the batch
                    // `forecasts` of the same column).
                    let (stream, forecasts) = HoltWintersStream::fit_collecting(params, &col);
                    debug_assert_eq!(stream.observed(), bins);
                    for (t, (z, f)) in col.iter().zip(forecasts).enumerate() {
                        let r = z - f;
                        energies[t] += r * r;
                    }
                    links.push(LinkState::Hw(stream));
                }
            }
            TemporalKind::Fourier => {
                warmup = 0;
                // Mirror FourierModel::fit's period-dropping rule to
                // turn its panic into a clean error.
                let usable = crate::fourier::PAPER_PERIODS_BINS
                    .iter()
                    .filter(|&&p| p > 0.0 && p <= 2.0 * bins as f64)
                    .count();
                let ncoef = 1 + 2 * usable;
                if bins < ncoef {
                    return Err(CoreError::TooFewSamples {
                        got: bins,
                        need: ncoef,
                    });
                }
                for l in 0..m {
                    let col = training.col(l);
                    let model = FourierModel::fit_paper_basis(&col);
                    for (t, r) in model.residuals(&col).into_iter().enumerate() {
                        energies[t] += r * r;
                    }
                    links.push(LinkState::Fourier(model.stream(bins)));
                }
            }
            TemporalKind::Wavelet { levels } => {
                if levels == 0 {
                    return Err(CoreError::TooFewSamples { got: 0, need: 1 });
                }
                warmup = 0;
                for l in 0..m {
                    let col = training.col(l);
                    let mut pred = HaarPredictor::new(levels, col[0]);
                    for (t, &z) in col.iter().enumerate() {
                        let r = z - pred.held;
                        energies[t] += r * r;
                        pred.observe(z);
                    }
                    links.push(LinkState::Haar(pred));
                }
            }
        }
        let usable = if warmup < energies.len() {
            &energies[warmup..]
        } else {
            &energies[..]
        };
        let threshold = energy_threshold(usable, confidence)?;
        Ok((links, threshold))
    }

    /// Refit: rerun the calibration on the retained window.
    fn recalibrate(&mut self, window: &Matrix) -> Result<()> {
        (self.links, self.threshold) = Self::calibrate(self.kind, window, self.confidence)?;
        Ok(())
    }

    fn check_vector(&self, y: &[f64]) -> Result<()> {
        if y.len() != self.links.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.links.len(),
                got: y.len(),
            });
        }
        if let Some(link) = y.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteMeasurement { link });
        }
        Ok(())
    }

    /// Residual energy of `y` against the given per-link states
    /// (summation is in link order).
    fn energy_of(states: &[LinkState], y: &[f64]) -> f64 {
        let mut e = 0.0;
        for (state, &z) in states.iter().zip(y) {
            let r = z - state.forecast(z);
            e += r * r;
        }
        e
    }

    /// [`energy_of`](Self::energy_of) `y`, advancing every state past it
    /// — one step of `score_matrix`'s block loop.
    fn step_energy(states: &mut [LinkState], y: &[f64]) -> f64 {
        let mut e = 0.0;
        for (state, &z) in states.iter_mut().zip(y) {
            let r = z - state.forecast(z);
            e += r * r;
            state.advance(z);
        }
        e
    }

    fn report(&self, score: f64) -> DiagnosisReport {
        DiagnosisReport {
            time: 0,
            spe: score,
            threshold: self.threshold,
            detected: score > self.threshold,
            identification: None,
            estimated_bytes: None,
        }
    }
}

impl DetectionBackend for TemporalBackend {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn dim(&self) -> usize {
        self.links.len()
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn score_vector(&self, y: &[f64]) -> Result<DiagnosisReport> {
        self.check_vector(y)?;
        Ok(self.report(Self::energy_of(&self.links, y)))
    }

    fn score_matrix(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        if links.cols() != self.links.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.links.len(),
                got: links.cols(),
            });
        }
        // Step a *clone* of the per-link states through the block: the
        // score of row t must see the state after rows < t, exactly as
        // the sequential process path would, without mutating self.
        let mut sim = self.links.clone();
        let mut out = Vec::with_capacity(links.rows());
        for t in 0..links.rows() {
            let row = links.row(t);
            self.check_vector(row)?;
            out.push(self.report(Self::step_energy(&mut sim, row)));
        }
        Ok(out)
    }

    fn observe(&mut self, _evicted: Option<&[f64]>, y: &[f64]) -> Result<()> {
        self.check_vector(y)?;
        for (state, &z) in self.links.iter_mut().zip(y) {
            state.advance(z);
        }
        Ok(())
    }

    fn refit(&mut self, window: &RingWindow) -> Result<()> {
        self.recalibrate(&window.to_matrix())
    }

    fn export_state(&self) -> MethodState {
        let m = self.links.len();
        let mut scalars = vec![self.threshold, self.confidence];
        let mut vectors: Vec<Vec<f64>> = Vec::new();
        let mut matrices: Vec<Matrix> = Vec::new();
        match self.kind {
            TemporalKind::Ewma => {
                let mut alphas = Vec::with_capacity(m);
                let mut smoothed = Vec::with_capacity(m);
                for s in &self.links {
                    let LinkState::Ewma(e) = s else {
                        unreachable!()
                    };
                    alphas.push(e.alpha());
                    // NaN encodes "no observation yet".
                    smoothed.push(e.forecast_next().unwrap_or(f64::NAN));
                }
                vectors.push(alphas);
                vectors.push(smoothed);
            }
            TemporalKind::HoltWinters { .. } => {
                let mut period = 0usize;
                let mut t_obs = 0usize;
                let mut levels = Vec::with_capacity(m);
                let mut trends = Vec::with_capacity(m);
                let mut seasonal_rows: Vec<Vec<f64>> = Vec::with_capacity(m);
                for s in &self.links {
                    let LinkState::Hw(h) = s else { unreachable!() };
                    period = h.params().period;
                    t_obs = h.observed();
                    let (lv, tr, se) = h.components();
                    levels.push(lv);
                    trends.push(tr);
                    seasonal_rows.push(se.to_vec());
                }
                scalars.push(period as f64);
                scalars.push(t_obs as f64);
                vectors.push(levels);
                vectors.push(trends);
                matrices.push(Matrix::from_fn(m, period, |i, j| seasonal_rows[i][j]));
            }
            TemporalKind::Fourier => {
                let mut t_next = 0usize;
                let mut periods: Vec<f64> = Vec::new();
                let mut coeff_rows: Vec<Vec<f64>> = Vec::with_capacity(m);
                for s in &self.links {
                    let LinkState::Fourier(f) = s else {
                        unreachable!()
                    };
                    t_next = f.time();
                    periods = f.model().periods().to_vec();
                    coeff_rows.push(f.model().coefficients().to_vec());
                }
                scalars.push(t_next as f64);
                vectors.push(periods);
                let ncoef = coeff_rows.first().map_or(0, Vec::len);
                matrices.push(Matrix::from_fn(m, ncoef, |i, j| coeff_rows[i][j]));
            }
            TemporalKind::Wavelet { levels } => {
                scalars.push(levels as f64);
                let mut held = Vec::with_capacity(m);
                let mut buf_rows: Vec<Vec<f64>> = Vec::with_capacity(m);
                for s in &self.links {
                    let LinkState::Haar(h) = s else {
                        unreachable!()
                    };
                    held.push(h.held);
                    buf_rows.push(h.buf.clone());
                }
                vectors.push(held);
                let pending = buf_rows.first().map_or(0, Vec::len);
                matrices.push(Matrix::from_fn(m, pending, |i, j| buf_rows[i][j]));
            }
        }
        MethodState {
            method: self.kind.name().to_string(),
            scalars,
            vectors,
            matrices,
        }
    }
}

/// Registry of every runnable detection method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodName {
    /// The paper's network-wide subspace/Q-statistic method.
    Subspace,
    /// Per-link EWMA residual energy.
    Ewma,
    /// Per-link additive Holt–Winters residual energy.
    HoltWinters,
    /// Per-link eight-period Fourier residual energy.
    Fourier,
    /// Per-link Haar-pyramid residual energy.
    Wavelet,
}

/// The method names accepted by [`MethodName::parse`] (and the CLI's
/// `--method`), in registry order.
pub const METHOD_NAMES: [&str; 5] = ["subspace", "ewma", "holt-winters", "fourier", "wavelet"];

impl MethodName {
    /// Every registered method, in registry order.
    pub const ALL: [MethodName; 5] = [
        MethodName::Subspace,
        MethodName::Ewma,
        MethodName::HoltWinters,
        MethodName::Fourier,
        MethodName::Wavelet,
    ];

    /// The stable name (`"subspace"`, `"ewma"`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            MethodName::Subspace => "subspace",
            MethodName::Ewma => "ewma",
            MethodName::HoltWinters => "holt-winters",
            MethodName::Fourier => "fourier",
            MethodName::Wavelet => "wavelet",
        }
    }

    /// Resolve a user-supplied name; the error lists the valid set.
    pub fn parse(name: &str) -> std::result::Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.as_str() == name)
            .ok_or_else(|| {
                format!(
                    "unknown method {name:?}; available methods: {}",
                    METHOD_NAMES.join(" ")
                )
            })
    }

    /// Fit this method on a training matrix, ready to drive through the
    /// streaming engine.
    ///
    /// The routing matrix and refit `strategy` are consumed by the
    /// subspace method (identification needs routing); the temporal
    /// methods ignore them and calibrate from `config.confidence` alone.
    pub fn fit(
        self,
        training: &Matrix,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
    ) -> Result<MethodBackend> {
        Ok(match self.temporal_kind() {
            None => MethodBackend::Subspace(SubspaceBackend::fit(training, rm, config, strategy)?),
            Some(kind) => {
                MethodBackend::Temporal(TemporalBackend::fit(kind, training, config.confidence)?)
            }
        })
    }

    /// The [`TemporalKind`] this name selects (with the registry's
    /// default parameters), or `None` for the subspace method.
    pub fn temporal_kind(self) -> Option<TemporalKind> {
        match self {
            MethodName::Subspace => None,
            MethodName::Ewma => Some(TemporalKind::Ewma),
            MethodName::HoltWinters => Some(TemporalKind::HoltWinters {
                period: DEFAULT_HW_PERIOD,
            }),
            MethodName::Fourier => Some(TemporalKind::Fourier),
            MethodName::Wavelet => Some(TemporalKind::Wavelet {
                levels: DEFAULT_WAVELET_LEVELS,
            }),
        }
    }

    /// Reconstruct a fitted backend from an exported [`MethodState`]
    /// without training data — the restore half of a service-session
    /// checkpoint ([`SubspaceBackend::from_state`] /
    /// [`TemporalBackend::from_state`]).
    ///
    /// `stats` reinstalls the subspace method's sliding sufficient
    /// statistics when `strategy` maintains them; the temporal methods
    /// carry their complete state in the [`MethodState`] itself and
    /// reject a statistics payload as a corrupt checkpoint.
    pub fn backend_from_state(
        self,
        state: &MethodState,
        dim: usize,
        rm: &RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
        stats: Option<netanom_core::incremental::IncrementalCovariance>,
    ) -> Result<MethodBackend> {
        match self.temporal_kind() {
            None => Ok(MethodBackend::Subspace(SubspaceBackend::from_state(
                state, rm, config, strategy, stats,
            )?)),
            Some(kind) => {
                if stats.is_some() {
                    return Err(CoreError::InvalidState {
                        reason: "temporal methods carry no covariance statistics",
                    });
                }
                Ok(MethodBackend::Temporal(TemporalBackend::from_state(
                    kind, dim, state,
                )?))
            }
        }
    }
}

/// Fit `cfg`'s method on `training` and assemble the streaming engine —
/// the single construction path behind `netanom stream` (and `netanom
/// shard` for a temporal method), the `serve` sessions, and the eval
/// scenarios.
///
/// The method name is resolved against the registry here (unknown names
/// error with the valid set); every other knob was validated when `cfg`
/// was built.
pub fn build_streaming(
    cfg: &netanom_core::EngineConfig,
    training: &Matrix,
    rm: &RoutingMatrix,
) -> std::result::Result<netanom_core::StreamingEngine<MethodBackend>, String> {
    let method = MethodName::parse(cfg.method())?;
    let backend = method
        .fit(training, rm, cfg.diagnoser_config(), cfg.strategy())
        .map_err(|e| format!("fitting {method} model: {e}"))?;
    netanom_core::StreamingEngine::with_backend(backend, training, cfg.stream_config())
        .map_err(|e| format!("assembling {method} engine: {e}"))
}

impl std::fmt::Display for MethodName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any registered detection method behind one concrete
/// [`DetectionBackend`] — what `stream`, `serve` and the eval scenarios
/// instantiate `StreamingEngine<MethodBackend>` with.
// The subspace variant is much larger than the temporal one, but a
// process holds a handful of backends (one per engine), never bulk
// collections — boxing would tax every score call for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum MethodBackend {
    /// The subspace reference implementation.
    Subspace(SubspaceBackend),
    /// One of the per-link temporal comparators.
    Temporal(TemporalBackend),
}

impl MethodBackend {
    /// The subspace backend, if that is the selected method (the CLI
    /// uses this to reach identification-specific reporting).
    pub fn as_subspace(&self) -> Option<&SubspaceBackend> {
        match self {
            MethodBackend::Subspace(b) => Some(b),
            MethodBackend::Temporal(_) => None,
        }
    }

    /// The subspace method's sliding sufficient statistics, when the
    /// active strategy maintains them — what a service-session
    /// checkpoint serializes alongside
    /// [`DetectionBackend::export_state`]. Temporal backends carry
    /// their whole state in the exported [`MethodState`] and return
    /// `None`.
    pub fn statistics(&self) -> Option<&netanom_core::incremental::IncrementalCovariance> {
        match self {
            MethodBackend::Subspace(b) => b.statistics(),
            MethodBackend::Temporal(_) => None,
        }
    }
}

impl DetectionBackend for MethodBackend {
    fn name(&self) -> &'static str {
        match self {
            MethodBackend::Subspace(b) => b.name(),
            MethodBackend::Temporal(b) => b.name(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            MethodBackend::Subspace(b) => b.dim(),
            MethodBackend::Temporal(b) => b.dim(),
        }
    }

    fn threshold(&self) -> f64 {
        match self {
            MethodBackend::Subspace(b) => b.threshold(),
            MethodBackend::Temporal(b) => b.threshold(),
        }
    }

    fn score_vector(&self, y: &[f64]) -> Result<DiagnosisReport> {
        match self {
            MethodBackend::Subspace(b) => b.score_vector(y),
            MethodBackend::Temporal(b) => b.score_vector(y),
        }
    }

    fn score_matrix(&self, links: &Matrix) -> Result<Vec<DiagnosisReport>> {
        match self {
            MethodBackend::Subspace(b) => b.score_matrix(links),
            MethodBackend::Temporal(b) => b.score_matrix(links),
        }
    }

    fn observe(&mut self, evicted: Option<&[f64]>, y: &[f64]) -> Result<()> {
        match self {
            MethodBackend::Subspace(b) => b.observe(evicted, y),
            MethodBackend::Temporal(b) => b.observe(evicted, y),
        }
    }

    fn observe_block(&mut self, evicted: &[Option<&[f64]>], block: &Matrix) -> Result<()> {
        match self {
            MethodBackend::Subspace(b) => b.observe_block(evicted, block),
            MethodBackend::Temporal(b) => b.observe_block(evicted, block),
        }
    }

    fn refit(&mut self, window: &RingWindow) -> Result<()> {
        match self {
            MethodBackend::Subspace(b) => b.refit(window),
            MethodBackend::Temporal(b) => b.refit(window),
        }
    }

    fn export_state(&self) -> MethodState {
        match self {
            MethodBackend::Subspace(b) => b.export_state(),
            MethodBackend::Temporal(b) => b.export_state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_core::stream::RefitStrategy;
    use netanom_core::SeparationPolicy;
    use netanom_topology::builtin;

    /// `MethodBackend::Subspace` hands a block to the subspace backend's
    /// own `observe_block`, not the trait's per-row default. The two
    /// leave the same statistics on good input, so the test tells them
    /// apart by a refused block: the subspace backend checks the whole
    /// block before touching its statistics, while the default would
    /// have observed the first push before meeting the short row.
    #[test]
    fn subspace_forwards_observe_block() {
        let net = builtin::ring(5);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = Matrix::from_fn(40, m, |i, l| ((i * m + l) % 13) as f64 + 1.0);
        let config = DiagnoserConfig {
            separation: SeparationPolicy::FixedCount(2),
            ..DiagnoserConfig::default()
        };
        let fitted = SubspaceBackend::fit(&train, rm, config, RefitStrategy::Incremental).unwrap();
        let mut backend = MethodBackend::Subspace(fitted);
        let before = backend.statistics().unwrap().to_bytes();
        let block = train.row_block(0, 2).unwrap();
        let short = vec![1.0; m - 1];
        assert!(backend
            .observe_block(&[None, Some(&short)], &block)
            .is_err());
        assert_eq!(backend.statistics().unwrap().to_bytes(), before);
        backend.observe_block(&[None, None], &block).unwrap();
        assert_eq!(backend.statistics().unwrap().count(), 42);
    }
}
