//! The replay every deployment scenario shares: train on the head of a
//! link series, stage persistent anomalies of known onset into the
//! tail, push the tail through an engine in poll-cycle chunks under a
//! wall clock, and score the alarms against the staged ground truth.
//!
//! [`crate::streaming`], [`crate::methods`], [`crate::sharded`] and
//! [`crate::scale`] differ in which engine they build and what they
//! sweep; what a staged anomaly is, how a stream is timed, and what
//! counts as caught, late or false is decided here once.

use std::time::Instant;

use netanom_core::{CoreError, DiagnosisReport};
use netanom_linalg::{vector, Matrix};
use netanom_topology::RoutingMatrix;

/// A link series split for replay: the clean training head and the
/// tail with anomalies staged into it.
pub(crate) struct Staged {
    /// The first `train_bins` rows, untouched.
    pub(crate) training: Matrix,
    /// The remaining rows with the staged anomalies added.
    pub(crate) streamed: Matrix,
    /// `(onset, flow)` of every staged anomaly, onsets counted from the
    /// start of `streamed`.
    pub(crate) onsets: Vec<(usize, usize)>,
}

impl Staged {
    /// Split `links` at `train_bins` and contaminate the tail: every
    /// `anomaly_every` bins, a spike of `anomaly_bytes` is added to a
    /// (cycling) OD flow for `anomaly_len` consecutive bins.
    ///
    /// Returns [`CoreError::TooFewSamples`] unless the tail holds at
    /// least `anomaly_every + anomaly_len` bins, so that at least one
    /// anomaly fits.
    pub(crate) fn split(
        links: &Matrix,
        rm: &RoutingMatrix,
        train_bins: usize,
        anomaly_every: usize,
        anomaly_len: usize,
        anomaly_bytes: f64,
    ) -> Result<Staged, CoreError> {
        let need = train_bins + anomaly_every + anomaly_len;
        if links.rows() < need {
            return Err(CoreError::TooFewSamples {
                got: links.rows(),
                need,
            });
        }
        let training = links.row_block(0, train_bins).expect("length checked");
        let mut streamed = links
            .row_block(train_bins, links.rows() - train_bins)
            .expect("length checked");
        let mut onsets = Vec::new();
        let mut k = 0usize;
        loop {
            let onset = (k + 1) * anomaly_every;
            if onset + anomaly_len > streamed.rows() {
                break;
            }
            let flow = (k * 7 + 3) % rm.num_flows();
            for t in onset..onset + anomaly_len {
                let mut row = streamed.row(t).to_vec();
                vector::axpy(anomaly_bytes, &rm.column(flow), &mut row);
                streamed.set_row(t, &row);
            }
            onsets.push((onset, flow));
            k += 1;
        }
        Ok(Staged {
            training,
            streamed,
            onsets,
        })
    }
}

/// One timed pass over a staged tail.
pub(crate) struct Replay {
    /// One report per streamed row, in arrival order.
    pub(crate) reports: Vec<DiagnosisReport>,
    /// Wall-clock seconds for the whole stream (diagnosis + refits).
    pub(crate) wall_seconds: f64,
}

impl Replay {
    /// `arrivals / wall_seconds`.
    pub(crate) fn arrivals_per_sec(&self) -> f64 {
        self.reports.len() as f64 / self.wall_seconds.max(1e-12)
    }
}

/// Push `streamed` through `process_batch` (an engine's, whichever kind)
/// `chunk_rows` rows at a time — the SNMP-poll-cycle shape — timing the
/// whole stream.
pub(crate) fn replay(
    chunk_rows: usize,
    streamed: &Matrix,
    mut process_batch: impl FnMut(&Matrix) -> Result<Vec<DiagnosisReport>, CoreError>,
) -> Result<Replay, CoreError> {
    let start = Instant::now();
    let mut reports = Vec::with_capacity(streamed.rows());
    let mut next = 0;
    while next < streamed.rows() {
        let take = chunk_rows.min(streamed.rows() - next);
        let block = streamed.row_block(next, take).expect("range checked");
        reports.extend(process_batch(&block)?);
        next += take;
    }
    Ok(Replay {
        reports,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Alarms scored against the staged ground truth.
pub(crate) struct Score {
    /// Staged anomalies that raised at least one alarm while active.
    pub(crate) caught: usize,
    /// Bins from onset to first alarm, summed over the caught anomalies.
    pub(crate) latency_sum: usize,
    /// Detections at bins no staged anomaly was active in.
    pub(crate) false_alarms: usize,
}

impl Score {
    /// Mean bins from onset to first alarm over the caught anomalies;
    /// NaN when none was caught.
    pub(crate) fn mean_latency_bins(&self) -> f64 {
        if self.caught == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.caught as f64
        }
    }
}

/// Score one replay: an anomaly staged at `onset` is caught by the
/// first detection in `onset..onset + anomaly_len`; a detection outside
/// every such lifetime is a false alarm.
pub(crate) fn score(
    reports: &[DiagnosisReport],
    onsets: &[(usize, usize)],
    anomaly_len: usize,
) -> Score {
    let mut caught = 0usize;
    let mut latency_sum = 0usize;
    for &(onset, _) in onsets {
        if let Some(t) = (onset..onset + anomaly_len).find(|&t| reports[t].detected) {
            caught += 1;
            latency_sum += t - onset;
        }
    }
    let active = |t: usize| {
        onsets
            .iter()
            .any(|&(onset, _)| t >= onset && t < onset + anomaly_len)
    };
    let false_alarms = reports
        .iter()
        .enumerate()
        .filter(|(t, r)| r.detected && !active(*t))
        .count();
    Score {
        caught,
        latency_sum,
        false_alarms,
    }
}
