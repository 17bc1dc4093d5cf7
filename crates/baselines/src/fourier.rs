//! Fourier-basis seasonal modeling.

use netanom_linalg::decomposition::Qr;
use netanom_linalg::Matrix;

/// The paper's eight basis periods, expressed in 10-minute bins:
/// 7 days, 5 days, 3 days, 24 h, 12 h, 6 h, 3 h, 1.5 h.
pub const PAPER_PERIODS_BINS: [f64; 8] = [1008.0, 720.0, 432.0, 144.0, 72.0, 36.0, 18.0, 9.0];

/// A least-squares seasonal model: a DC term plus a sine/cosine pair per
/// period (17 coefficients for the paper's 8 periods).
///
/// The paper approximates "the timeseries of each OD flow as a weighted
/// sum of eight Fourier basis functions" and measures anomalies as
/// `|z_t − ẑ_t|` against the fitted model. Because 5-day and 3-day periods
/// are not harmonics of the one-week window, the basis is not orthogonal
/// — the fit uses Householder QR rather than plain projections.
#[derive(Debug, Clone)]
pub struct FourierModel {
    periods: Vec<f64>,
    /// Fitted coefficients: `[dc, (sin, cos) per period…]`.
    coefficients: Vec<f64>,
    fitted: Vec<f64>,
}

impl FourierModel {
    /// Fit the paper's eight-period model to a series.
    pub fn fit_paper_basis(series: &[f64]) -> Self {
        Self::fit(series, &PAPER_PERIODS_BINS)
    }

    /// Fit with explicit periods (in bins). Periods longer than twice the
    /// series are dropped (they are indistinguishable from trend on such
    /// a short window and make the basis ill-conditioned).
    ///
    /// # Panics
    /// Panics if the series is shorter than the resulting coefficient
    /// count (cannot fit more parameters than samples).
    pub fn fit(series: &[f64], periods: &[f64]) -> Self {
        let t = series.len();
        let usable: Vec<f64> = periods
            .iter()
            .copied()
            .filter(|&p| p > 0.0 && p <= 2.0 * t as f64)
            .collect();
        let ncoef = 1 + 2 * usable.len();
        assert!(
            t >= ncoef,
            "series of {t} bins cannot support {ncoef} coefficients"
        );

        let basis = Self::basis_matrix(t, &usable);
        let qr = Qr::new(&basis).expect("basis is tall by construction");
        let coefficients = qr
            .solve_least_squares(series)
            .expect("trig + DC columns are independent for t >= ncoef");
        let fitted = basis
            .matvec(&coefficients)
            .expect("shape consistent by construction");
        FourierModel {
            periods: usable,
            coefficients,
            fitted,
        }
    }

    /// Value of basis function `j` at (possibly fractional, possibly
    /// beyond-the-window) time index `t`.
    fn basis_value(periods: &[f64], t: f64, j: usize) -> f64 {
        if j == 0 {
            1.0
        } else {
            let p = periods[(j - 1) / 2];
            let w = std::f64::consts::TAU / p * t;
            if (j - 1).is_multiple_of(2) {
                w.sin()
            } else {
                w.cos()
            }
        }
    }

    fn basis_matrix(t: usize, periods: &[f64]) -> Matrix {
        let ncoef = 1 + 2 * periods.len();
        Matrix::from_fn(t, ncoef, |i, j| Self::basis_value(periods, i as f64, j))
    }

    /// The periods actually used (in bins).
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// Fitted coefficients `[dc, (sin, cos) per period…]`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The modeled (seasonal) series `ẑ`.
    pub fn fitted(&self) -> &[f64] {
        &self.fitted
    }

    /// Residuals `z_t − ẑ_t` against the series the model was fit on.
    ///
    /// # Panics
    /// Panics if `series` has a different length than the fit data.
    pub fn residuals(&self, series: &[f64]) -> Vec<f64> {
        assert_eq!(series.len(), self.fitted.len(), "length mismatch");
        series
            .iter()
            .zip(&self.fitted)
            .map(|(z, f)| z - f)
            .collect()
    }

    /// Absolute anomaly sizes `|z_t − ẑ_t|`.
    pub fn spike_sizes(&self, series: &[f64]) -> Vec<f64> {
        self.residuals(series).iter().map(|r| r.abs()).collect()
    }

    /// Evaluate the fitted seasonal model at an arbitrary time index —
    /// inside the fit window (`predict_at(i)` matches `fitted()[i]`) or
    /// beyond it (trigonometric extrapolation), which is how the
    /// streaming port scores arrivals after the training window.
    pub fn predict_at(&self, t: f64) -> f64 {
        let ncoef = self.coefficients.len();
        let mut acc = 0.0;
        for j in 0..ncoef {
            acc += Self::basis_value(&self.periods, t, j) * self.coefficients[j];
        }
        acc
    }

    /// The streaming-stateful port: score arrivals one at a time against
    /// this frozen model, starting at time index `t0` (use the fit
    /// length to continue immediately after the training window).
    pub fn stream(self, t0: usize) -> FourierStream {
        FourierStream { model: self, t: t0 }
    }

    /// Reassemble a model from exported parts (periods + coefficients,
    /// `coefficients.len() == 1 + 2 * periods.len()`), e.g. from a
    /// serialized method state. The reassembled model predicts
    /// ([`FourierModel::predict_at`]) but carries no fitted series
    /// (`fitted()` is empty).
    ///
    /// # Panics
    /// Panics if the coefficient count does not match the periods.
    pub fn from_coefficients(periods: Vec<f64>, coefficients: Vec<f64>) -> Self {
        assert_eq!(
            coefficients.len(),
            1 + 2 * periods.len(),
            "need one DC + a sin/cos pair per period"
        );
        FourierModel {
            periods,
            coefficients,
            fitted: Vec::new(),
        }
    }
}

/// Incremental scorer over a frozen [`FourierModel`]: each
/// [`FourierStream::step`] returns the residual `z_t − ẑ_t` against the
/// model's extrapolated seasonal prediction and advances the time index.
///
/// Inside the fit window the predictions match the batch
/// [`FourierModel::fitted`] values (pinned by the unit tests), so the
/// stream is the exact incremental counterpart of
/// [`FourierModel::residuals`].
#[derive(Debug, Clone)]
pub struct FourierStream {
    model: FourierModel,
    /// Time index of the next arrival.
    t: usize,
}

impl FourierStream {
    /// The frozen model being scored against.
    pub fn model(&self) -> &FourierModel {
        &self.model
    }

    /// Time index the next [`FourierStream::step`] scores at.
    pub fn time(&self) -> usize {
        self.t
    }

    /// The prediction the next step will subtract.
    pub fn forecast_next(&self) -> f64 {
        self.model.predict_at(self.t as f64)
    }

    /// Score one arrival: residual `z − ẑ_t`, then advance the clock.
    pub fn step(&mut self, z: f64) -> f64 {
        let r = z - self.model.predict_at(self.t as f64);
        self.t += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_pure_daily_sinusoid() {
        let t = 1008;
        let s: Vec<f64> = (0..t)
            .map(|i| 50.0 + 10.0 * (std::f64::consts::TAU / 144.0 * i as f64).sin())
            .collect();
        let m = FourierModel::fit_paper_basis(&s);
        let resid = m.residuals(&s);
        let max = resid.iter().cloned().fold(0.0_f64, |a, b| a.max(b.abs()));
        assert!(max < 1e-8, "max residual {max}");
        // DC coefficient is the mean.
        assert!((m.coefficients()[0] - 50.0).abs() < 1e-8);
    }

    #[test]
    fn recovers_multi_period_mixture() {
        let t = 1008;
        let s: Vec<f64> = (0..t)
            .map(|i| {
                let x = i as f64;
                100.0
                    + 8.0 * (std::f64::consts::TAU / 1008.0 * x).cos()
                    + 5.0 * (std::f64::consts::TAU / 144.0 * x).sin()
                    + 2.0 * (std::f64::consts::TAU / 72.0 * x).cos()
            })
            .collect();
        let m = FourierModel::fit_paper_basis(&s);
        let resid = m.residuals(&s);
        assert!(resid.iter().all(|r| r.abs() < 1e-7));
    }

    #[test]
    fn isolates_a_spike() {
        let t = 1008;
        let mut s: Vec<f64> = (0..t)
            .map(|i| 100.0 + 20.0 * (std::f64::consts::TAU / 144.0 * i as f64).sin())
            .collect();
        s[500] += 300.0;
        let m = FourierModel::fit_paper_basis(&s);
        let sizes = m.spike_sizes(&s);
        // The spike dominates; the seasonal fit absorbs almost nothing of
        // a single-bin impulse (1/1008 of its energy per basis function).
        assert!(sizes[500] > 280.0, "spike size {}", sizes[500]);
        let median = {
            let mut v = sizes.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[t / 2]
        };
        assert!(median < 5.0, "background residual {median}");
    }

    #[test]
    fn non_harmonic_periods_do_not_break_the_fit() {
        // 720 and 432 bins are not divisors of 1008; the QR fit must still
        // reproduce signals built from them.
        let t = 1008;
        let s: Vec<f64> = (0..t)
            .map(|i| 10.0 * (std::f64::consts::TAU / 720.0 * i as f64).sin())
            .collect();
        let m = FourierModel::fit_paper_basis(&s);
        assert!(m.residuals(&s).iter().all(|r| r.abs() < 1e-7));
    }

    #[test]
    fn long_periods_dropped_for_short_series() {
        let s: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin()).collect();
        let m = FourierModel::fit_paper_basis(&s);
        // 1008-, 720- and 432-bin periods exceed 2×200 and are dropped.
        assert_eq!(m.periods(), &[144.0, 72.0, 36.0, 18.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "cannot support")]
    fn too_short_series_panics() {
        FourierModel::fit(&[1.0, 2.0, 3.0], &[2.0, 3.0]);
    }

    #[test]
    fn fitted_length_matches() {
        let s: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let m = FourierModel::fit_paper_basis(&s);
        assert_eq!(m.fitted().len(), 300);
        assert_eq!(m.spike_sizes(&s).len(), 300);
    }

    #[test]
    fn predict_at_matches_fitted_inside_the_window() {
        let t = 1008;
        let s: Vec<f64> = (0..t)
            .map(|i| 100.0 + 20.0 * (std::f64::consts::TAU / 144.0 * i as f64).sin())
            .collect();
        let m = FourierModel::fit_paper_basis(&s);
        for (i, &f) in m.fitted().iter().enumerate() {
            let p = m.predict_at(i as f64);
            assert!(
                (p - f).abs() <= 1e-12 * f.abs().max(1.0),
                "bin {i}: {p} vs {f}"
            );
        }
    }

    #[test]
    fn stream_extrapolates_the_seasonal_pattern() {
        // Fit on one week; stream the next day of the same clean
        // pattern: residuals stay tiny because the basis is periodic.
        let gen = |i: usize| 50.0 + 10.0 * (std::f64::consts::TAU / 144.0 * i as f64).sin();
        let s: Vec<f64> = (0..1008).map(gen).collect();
        let m = FourierModel::fit_paper_basis(&s);
        let mut stream = m.clone().stream(m.fitted().len());
        assert_eq!(stream.time(), 1008);
        for i in 1008..1152 {
            let r = stream.step(gen(i));
            // The non-harmonic 720/432-bin periods extrapolate with some
            // error, but a clean daily signal stays well-modeled.
            assert!(r.abs() < 1.0, "bin {i}: residual {r}");
        }
        // A spike stands out by its full height.
        let r = stream.step(gen(1152) + 300.0);
        assert!(r > 299.0, "spike residual {r}");
    }

    #[test]
    fn stream_inside_window_matches_batch_residuals() {
        let s: Vec<f64> = (0..300)
            .map(|i| 10.0 + (i as f64 * 0.2).cos() * 3.0 + ((i * 31) % 7) as f64)
            .collect();
        let m = FourierModel::fit_paper_basis(&s);
        let batch = m.residuals(&s);
        let mut stream = m.clone().stream(0);
        for (t, &z) in s.iter().enumerate() {
            let r = stream.step(z);
            assert!(
                (r - batch[t]).abs() <= 1e-12 * batch[t].abs().max(1.0),
                "bin {t}: {r} vs {}",
                batch[t]
            );
        }
    }
}
