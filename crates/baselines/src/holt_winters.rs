//! Additive Holt–Winters seasonal forecasting.
//!
//! One of the forecasting-family baselines the paper cites (used by
//! Brutlag's aberrant-behaviour detector [5]). Included for the ablation
//! experiments comparing temporal detectors on link data.

/// Additive Holt–Winters: level + trend + seasonal components with
/// exponential updates.
#[derive(Debug, Clone, Copy)]
pub struct HoltWinters {
    /// Level smoothing weight.
    pub alpha: f64,
    /// Trend smoothing weight.
    pub beta: f64,
    /// Seasonal smoothing weight.
    pub gamma: f64,
    /// Season length in bins (144 for daily seasonality at 10-minute
    /// bins).
    pub period: usize,
}

impl HoltWinters {
    /// A sensible default for daily-seasonal 10-minute traffic, in the
    /// spirit of Brutlag's recommended smoothing constants.
    pub fn daily() -> Self {
        HoltWinters {
            alpha: 0.2,
            beta: 0.01,
            gamma: 0.15,
            period: 144,
        }
    }

    /// One-step-ahead forecasts. `out[t]` predicts `series[t]` using data
    /// up to `t − 1`. The first two seasons initialize the components
    /// (classical initialization), so forecasts there equal the
    /// initialization values.
    ///
    /// Implemented as the initialization plus a [`HoltWintersStream`]
    /// stepped over the series, so the batch and streaming paths cannot
    /// drift.
    ///
    /// # Panics
    /// Panics if the series is shorter than two periods, or parameters
    /// are outside `[0, 1]`.
    pub fn forecasts(&self, series: &[f64]) -> Vec<f64> {
        let mut stream = HoltWintersStream::init(*self, series);
        series.iter().map(|&z| stream.step(z)).collect()
    }

    /// Forecast residuals `z_t − ẑ_t`.
    pub fn residuals(&self, series: &[f64]) -> Vec<f64> {
        self.forecasts(series)
            .iter()
            .zip(series)
            .map(|(f, z)| z - f)
            .collect()
    }

    /// The streaming-stateful port: initialize from (and replay) a
    /// training history, ready to [`HoltWintersStream::step`] fresh
    /// arrivals. See [`HoltWintersStream::fit`].
    pub fn stream(&self, history: &[f64]) -> HoltWintersStream {
        HoltWintersStream::fit(*self, history)
    }
}

/// Incremental Holt–Winters state: the streaming port of
/// [`HoltWinters`].
///
/// The level/trend/seasonal components are initialized from a training
/// history (which needs at least two seasons, exactly like the batch
/// fit) and then advanced one observation at a time:
/// [`HoltWintersStream::step`] returns the one-step-ahead forecast of
/// its argument *before* folding it in. Because the update is the
/// identical arithmetic expression, `fit(params, &series[..k])` followed
/// by stepping `series[k..]` reproduces
/// `params.forecasts(&series)[k..]` **bitwise** — the restart-mid-series
/// contract the property tests pin.
#[derive(Debug, Clone)]
pub struct HoltWintersStream {
    params: HoltWinters,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Observations consumed so far (seasonal phase = `t % period`).
    t: usize,
}

impl HoltWintersStream {
    /// Initialize components from the first two seasons of `history`
    /// *without* consuming any observation (the batch
    /// [`HoltWinters::forecasts`] entry point).
    ///
    /// # Panics
    /// Panics if the history is shorter than two periods, or parameters
    /// are outside `[0, 1]`.
    fn init(params: HoltWinters, history: &[f64]) -> Self {
        for (name, v) in [
            ("alpha", params.alpha),
            ("beta", params.beta),
            ("gamma", params.gamma),
        ] {
            assert!(
                (0.0..=1.0).contains(&v) && v.is_finite(),
                "{name} {v} outside [0, 1]"
            );
        }
        let m = params.period;
        assert!(m >= 1, "period must be at least 1");
        assert!(
            history.len() >= 2 * m,
            "need at least two seasons ({} bins), got {}",
            2 * m,
            history.len()
        );

        // Initialization from the first two seasons; seasonal indices are
        // detrended so a pure linear ramp initializes them to zero.
        let s1_mean = history[..m].iter().sum::<f64>() / m as f64;
        let s2_mean = history[m..2 * m].iter().sum::<f64>() / m as f64;
        let level = s1_mean;
        let trend = (s2_mean - s1_mean) / m as f64;
        let mid = (m as f64 - 1.0) / 2.0;
        let seasonal: Vec<f64> = (0..m)
            .map(|i| history[i] - (s1_mean + (i as f64 - mid) * trend))
            .collect();
        HoltWintersStream {
            params,
            level,
            trend,
            seasonal,
            t: 0,
        }
    }

    /// Initialize from `history` and replay it, leaving the state ready
    /// to forecast the first bin *after* the history.
    ///
    /// # Panics
    /// Panics under the same conditions as [`HoltWinters::forecasts`].
    pub fn fit(params: HoltWinters, history: &[f64]) -> Self {
        Self::fit_collecting(params, history).0
    }

    /// [`HoltWintersStream::fit`] that also returns the one-step
    /// forecasts produced while replaying the history — bitwise
    /// [`HoltWinters::forecasts`] of the same series, without a second
    /// pass. Calibration paths that need both the fitted stream and the
    /// training residuals use this to pay one replay instead of two.
    pub fn fit_collecting(params: HoltWinters, history: &[f64]) -> (Self, Vec<f64>) {
        let mut s = Self::init(params, history);
        let forecasts = history.iter().map(|&z| s.step(z)).collect();
        (s, forecasts)
    }

    /// The parameters the stream runs with.
    pub fn params(&self) -> HoltWinters {
        self.params
    }

    /// The current components `(level, trend, seasonal)` — the
    /// serializable snapshot of the stream.
    pub fn components(&self) -> (f64, f64, &[f64]) {
        (self.level, self.trend, &self.seasonal)
    }

    /// Reassemble a stream from snapshotted components (the counterpart
    /// of [`HoltWintersStream::components`]): `observed` restores the
    /// seasonal phase.
    ///
    /// # Panics
    /// Panics if `seasonal.len() != params.period` or the period is 0.
    pub fn from_components(
        params: HoltWinters,
        level: f64,
        trend: f64,
        seasonal: Vec<f64>,
        observed: usize,
    ) -> Self {
        assert!(params.period >= 1, "period must be at least 1");
        assert_eq!(
            seasonal.len(),
            params.period,
            "seasonal table must match the period"
        );
        HoltWintersStream {
            params,
            level,
            trend,
            seasonal,
            t: observed,
        }
    }

    /// Observations consumed so far (including the replayed history).
    pub fn observed(&self) -> usize {
        self.t
    }

    /// The forecast the next [`HoltWintersStream::step`] will return.
    pub fn forecast_next(&self) -> f64 {
        self.level + self.trend + self.seasonal[self.t % self.params.period]
    }

    /// Observe `z`: returns its one-step-ahead forecast, then updates
    /// the level, trend, and seasonal components.
    pub fn step(&mut self, z: f64) -> f64 {
        let s_idx = self.t % self.params.period;
        let forecast = self.level + self.trend + self.seasonal[s_idx];
        let prev_level = self.level;
        self.level = self.params.alpha * (z - self.seasonal[s_idx])
            + (1.0 - self.params.alpha) * (self.level + self.trend);
        self.trend =
            self.params.beta * (self.level - prev_level) + (1.0 - self.params.beta) * self.trend;
        self.seasonal[s_idx] =
            self.params.gamma * (z - self.level) + (1.0 - self.params.gamma) * self.seasonal[s_idx];
        self.t += 1;
        forecast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(t: usize, period: usize) -> Vec<f64> {
        (0..t)
            .map(|i| {
                1000.0 + 100.0 * (std::f64::consts::TAU * (i % period) as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn tracks_a_clean_seasonal_signal() {
        let hw = HoltWinters {
            alpha: 0.3,
            beta: 0.05,
            gamma: 0.3,
            period: 48,
        };
        let s = seasonal_series(480, 48);
        let resid = hw.residuals(&s);
        // After the burn-in seasons the forecast should be tight.
        let late = &resid[96..];
        let rms = (late.iter().map(|r| r * r).sum::<f64>() / late.len() as f64).sqrt();
        assert!(rms < 10.0, "late-series RMS residual {rms}");
    }

    #[test]
    fn spike_stands_out() {
        let hw = HoltWinters {
            alpha: 0.3,
            beta: 0.05,
            gamma: 0.3,
            period: 48,
        };
        let mut s = seasonal_series(480, 48);
        s[300] += 600.0;
        let resid = hw.residuals(&s);
        assert!(resid[300] > 500.0, "spike residual {}", resid[300]);
    }

    #[test]
    fn linear_trend_is_followed() {
        let hw = HoltWinters {
            alpha: 0.3,
            beta: 0.2,
            gamma: 0.1,
            period: 10,
        };
        let s: Vec<f64> = (0..200).map(|i| 10.0 + 2.0 * i as f64).collect();
        let resid = hw.residuals(&s);
        let late = &resid[100..];
        assert!(late.iter().all(|r| r.abs() < 5.0), "trend not tracked");
    }

    #[test]
    fn daily_default_parameters() {
        let hw = HoltWinters::daily();
        assert_eq!(hw.period, 144);
        let s = seasonal_series(2 * 144 + 50, 144);
        assert_eq!(hw.forecasts(&s).len(), s.len());
    }

    #[test]
    #[should_panic(expected = "two seasons")]
    fn short_series_rejected() {
        HoltWinters::daily().forecasts(&[1.0; 100]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_parameters_rejected() {
        HoltWinters {
            alpha: 1.2,
            beta: 0.1,
            gamma: 0.1,
            period: 4,
        }
        .forecasts(&[0.0; 8]);
    }

    #[test]
    fn stream_fit_then_step_reproduces_batch_bitwise() {
        let hw = HoltWinters {
            alpha: 0.3,
            beta: 0.05,
            gamma: 0.3,
            period: 48,
        };
        let mut s = seasonal_series(400, 48);
        s[250] += 700.0; // one spike so the states diverge if buggy
        let batch = hw.forecasts(&s);
        let k = 120; // restart point: past the two init seasons
        let mut stream = hw.stream(&s[..k]);
        assert_eq!(stream.observed(), k);
        for (t, &z) in s.iter().enumerate().skip(k) {
            assert_eq!(stream.forecast_next(), batch[t], "lookahead at bin {t}");
            assert_eq!(stream.step(z), batch[t], "bin {t}");
        }
    }

    #[test]
    #[should_panic(expected = "two seasons")]
    fn stream_rejects_short_history() {
        HoltWinters::daily().stream(&[1.0; 100]);
    }
}
