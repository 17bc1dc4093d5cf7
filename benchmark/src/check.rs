//! The correctness gate: alarm rows against the staged truth and
//! against a reference computation of the same rows.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The anomalies staged into a series' streamed tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    /// Each staged anomaly as its run of consecutive bins.
    pub anomalies: Vec<Vec<usize>>,
}

/// Counts that must repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectCounts {
    pub staged: usize,
    pub caught: usize,
    pub false_alarms: usize,
    pub alarms: usize,
}

impl DetectCounts {
    /// Every staged anomaly raised an alarm while it was active, and at
    /// most 0.5 % of the streamed bins alarmed with nothing staged.
    pub fn passes(&self, stream_bins: usize) -> bool {
        self.caught == self.staged && self.false_alarms * 200 <= stream_bins
    }
}

impl Truth {
    /// Parse `truth.csv` (`time,flow,delta_bytes`): consecutive bins on
    /// one flow are one anomaly.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut anomalies: Vec<Vec<usize>> = Vec::new();
        let mut last: Option<(usize, &str)> = None;
        for (i, line) in text.lines().enumerate().skip(1) {
            let mut fields = line.split(',');
            let time: usize = fields
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("truth line {}: bad time", i + 1))?;
            let flow = fields
                .next()
                .ok_or_else(|| format!("truth line {}: no flow", i + 1))?;
            match (last, anomalies.last_mut()) {
                (Some((t, f)), Some(run)) if t + 1 == time && f == flow => run.push(time),
                _ => anomalies.push(vec![time]),
            }
            last = Some((time, flow));
        }
        Ok(Truth { anomalies })
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Truth::parse(&text)
    }

    /// Score alarm rows (`bin,spe,…`) against the staged anomalies.
    pub fn score(&self, alarms: &[String]) -> Result<DetectCounts, String> {
        let bins: BTreeSet<usize> = alarms
            .iter()
            .map(|row| bin_of(row))
            .collect::<Result<_, _>>()?;
        let staged_bins: BTreeSet<usize> = self.anomalies.iter().flatten().copied().collect();
        Ok(DetectCounts {
            staged: self.anomalies.len(),
            caught: self
                .anomalies
                .iter()
                .filter(|run| run.iter().any(|t| bins.contains(t)))
                .count(),
            false_alarms: bins.difference(&staged_bins).count(),
            alarms: alarms.len(),
        })
    }
}

fn bin_of(row: &str) -> Result<usize, String> {
    row.split(',')
        .next()
        .and_then(|b| b.parse().ok())
        .ok_or_else(|| format!("alarm row {row:?} does not start with a bin"))
}

/// Number of bins whose alarm row differs between `got` and `want`: a
/// row present on one side only, or present on both with other bytes.
pub fn differing_rows(got: &[String], want: &[String]) -> Result<usize, String> {
    fn index(rows: &[String]) -> Result<BTreeMap<usize, Vec<&str>>, String> {
        let mut map: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for row in rows {
            map.entry(bin_of(row)?).or_default().push(row);
        }
        Ok(map)
    }
    let (got, want) = (index(got)?, index(want)?);
    let bins: BTreeSet<&usize> = got.keys().chain(want.keys()).collect();
    Ok(bins
        .into_iter()
        .filter(|b| got.get(b) != want.get(b))
        .count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(bins: &[usize]) -> Vec<String> {
        bins.iter()
            .map(|b| format!("{b},1.0e3,5.0e2,3,1.0e7,0.9"))
            .collect()
    }

    #[test]
    fn truth_groups_consecutive_bins_per_flow() {
        let truth = Truth::parse(
            "time,flow,delta_bytes\n10,3,5e7\n11,3,5e7\n12,3,5e7\n13,4,5e7\n40,3,5e7\n",
        )
        .unwrap();
        assert_eq!(truth.anomalies, [vec![10, 11, 12], vec![13], vec![40]]);
        assert!(Truth::parse("time,flow,delta_bytes\nx,3,5e7\n").is_err());
    }

    #[test]
    fn scoring_counts_caught_and_false_alarms() {
        let truth = Truth::parse("time,flow,delta_bytes\n10,3,5e7\n11,3,5e7\n40,3,5e7\n").unwrap();
        let counts = truth.score(&rows(&[11, 20, 21])).unwrap();
        assert_eq!(
            counts,
            DetectCounts {
                staged: 2,
                caught: 1,
                false_alarms: 2,
                alarms: 3
            }
        );
        assert!(!counts.passes(1000));
        let all = truth.score(&rows(&[10, 11, 40, 77])).unwrap();
        assert_eq!((all.caught, all.false_alarms), (2, 1));
        assert!(all.passes(200));
        assert!(!all.passes(199));
        assert!(truth.score(&["oops".to_string()]).is_err());
    }

    #[test]
    fn differing_rows_counts_missing_extra_and_changed() {
        let want = rows(&[1, 2, 3]);
        assert_eq!(differing_rows(&want, &want).unwrap(), 0);
        let mut got = rows(&[1, 3, 4]);
        got[1] = "3,9.9e9,5.0e2,3,1.0e7,0.9".to_string();
        // 2 is missing, 3 changed, 4 is extra.
        assert_eq!(differing_rows(&got, &want).unwrap(), 3);
    }
}
