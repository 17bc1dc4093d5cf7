//! Order statistics for lap values and latency samples.

/// Median and quartiles of a set of lap values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Which order statistic of a run's laps a metric is reported at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LapStatistic {
    LowerQuartile,
    Median,
    UpperQuartile,
}

impl Summary {
    pub fn at(&self, statistic: LapStatistic) -> f64 {
        match statistic {
            LapStatistic::LowerQuartile => self.q1,
            LapStatistic::Median => self.median,
            LapStatistic::UpperQuartile => self.q3,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median plus first and third quartile, the quartiles computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method), so a spread reported here is the spread the acceptance
/// check computes. A single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let m = v.len();
    let median = median(&v);
    if m < 2 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n: m,
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: cut(1),
        q3: cut(3),
        n: m,
    }
}

/// The `p`-th percentile (`0 < p ≤ 1`) of `values` by nearest rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no values");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail is reported at.
const PERCENTILE_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least ten of `n` samples beyond it; `None` below twenty samples,
/// where not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(210), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(30_240), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        assert_eq!(s.at(LapStatistic::LowerQuartile), 1.0);
        assert_eq!(s.at(LapStatistic::Median), 2.0);
        assert_eq!(s.at(LapStatistic::UpperQuartile), 4.0);
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }
}
