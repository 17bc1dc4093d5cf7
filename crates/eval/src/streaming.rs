//! Streaming-deployment scenario: detection latency and ingestion
//! throughput of the [`StreamingEngine`] across refit cadences and refit
//! strategies.
//!
//! The scenario trains on the head of a link series, then replays the
//! tail in micro-batches (one [`StreamingEngine::process_batch`] call
//! per chunk, the SNMP-poll-cycle shape) with persistent anomalies
//! staged at known onsets. For every `(refit cadence, strategy)` pair it
//! measures:
//!
//! * **arrivals/sec** — wall-clock ingestion rate including refits;
//! * **detection latency** — bins from each staged onset to the first
//!   alarm inside the anomaly's lifetime, with misses reported
//!   separately.
//!
//! This quantifies the engine's deployment trade-off: frequent refits
//! track drift but cost model rebuilds, and the incremental
//! sufficient-statistics strategy collapses that cost to one `m × m`
//! eigen-solve, independent of the window length.

use std::path::Path;

use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{CoreError, DiagnoserConfig};
use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::experiments::ExperimentOutput;
use crate::lab::Lab;
use crate::report;
use crate::scenario::{self, Staged};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Bins used to bootstrap the model (also the window capacity).
    pub train_bins: usize,
    /// Rows per `process_batch` call (the poll-cycle micro-batch).
    pub chunk_rows: usize,
    /// Refit cadences (arrivals between refits) to sweep.
    pub refit_cadences: Vec<usize>,
    /// Bins between staged anomaly onsets in the streamed tail.
    pub anomaly_every: usize,
    /// Lifetime of each staged anomaly in bins.
    pub anomaly_len: usize,
    /// Size of each staged anomaly in bytes.
    pub anomaly_bytes: f64,
    /// Detection confidence level.
    pub confidence: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            train_bins: 1008,
            chunk_rows: 36,
            refit_cadences: vec![72, 144, 504],
            anomaly_every: 60,
            anomaly_len: 4,
            anomaly_bytes: 4e7,
            confidence: 0.999,
        }
    }
}

/// One `(cadence, strategy)` measurement.
#[derive(Debug, Clone)]
pub struct CadenceMeasurement {
    /// Arrivals between refits.
    pub refit_every: usize,
    /// Refit route measured.
    pub strategy: RefitStrategy,
    /// Streamed arrivals.
    pub arrivals: usize,
    /// Refits performed during the stream.
    pub refits: usize,
    /// Wall-clock seconds for the whole stream (diagnosis + refits).
    pub wall_seconds: f64,
    /// `arrivals / wall_seconds`.
    pub arrivals_per_sec: f64,
    /// Staged anomalies in the streamed tail.
    pub staged: usize,
    /// Staged anomalies that raised at least one alarm while active.
    pub caught: usize,
    /// Mean bins from onset to first alarm, over the caught anomalies.
    pub mean_latency_bins: f64,
}

/// Run the scenario on a link series: sweep every cadence in
/// `cfg.refit_cadences` under both refit strategies.
///
/// `links` must hold at least `cfg.train_bins + cfg.anomaly_every +
/// cfg.anomaly_len` bins so at least one anomaly fits in the tail.
pub fn run_scenario(
    links: &Matrix,
    rm: &RoutingMatrix,
    cfg: &ScenarioConfig,
) -> Result<Vec<CadenceMeasurement>, CoreError> {
    let staged = Staged::split(
        links,
        rm,
        cfg.train_bins,
        cfg.anomaly_every,
        cfg.anomaly_len,
        cfg.anomaly_bytes,
    )?;
    let diag_config = DiagnoserConfig {
        confidence: cfg.confidence,
        ..DiagnoserConfig::default()
    };

    let mut out = Vec::new();
    for &cadence in &cfg.refit_cadences {
        for strategy in [RefitStrategy::FullSvd, RefitStrategy::Incremental] {
            let mut engine = StreamingEngine::new(
                &staged.training,
                rm,
                diag_config,
                StreamConfig::new(cfg.train_bins)
                    .refit_every(cadence)
                    .strategy(strategy),
            )?;
            let run = scenario::replay(cfg.chunk_rows, &staged.streamed, |block| {
                engine.process_batch(block)
            })?;
            let score = scenario::score(&run.reports, &staged.onsets, cfg.anomaly_len);
            out.push(CadenceMeasurement {
                refit_every: cadence,
                strategy,
                arrivals: run.reports.len(),
                refits: engine.refits(),
                wall_seconds: run.wall_seconds,
                arrivals_per_sec: run.arrivals_per_sec(),
                staged: staged.onsets.len(),
                caught: score.caught,
                mean_latency_bins: score.mean_latency_bins(),
            });
        }
    }
    Ok(out)
}

fn strategy_label(s: RefitStrategy) -> &'static str {
    crate::scale::strategy_label(s)
}

/// The `streaming` experiment driver: the scenario on the Abilene week
/// (the canned dataset whose tail is long enough to stage a day of
/// anomalies) rendered as a table and a CSV.
pub fn experiment(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let ds = &lab.abilene;
    let rm = &ds.network.routing_matrix;
    let cfg = ScenarioConfig {
        train_bins: 864, // 6 days; stream the rest of the week
        refit_cadences: vec![36, 72, 144],
        anomaly_every: 24,
        anomaly_len: 3,
        // Abilene is the noisiest canned dataset; stage spikes around
        // its own ground-truth anomaly scale so latency is measurable.
        anomaly_bytes: 3e8,
        ..ScenarioConfig::default()
    };
    let rows_data =
        run_scenario(ds.links.matrix(), rm, &cfg).expect("canned dataset fits the scenario");

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|m| {
            vec![
                m.refit_every.to_string(),
                strategy_label(m.strategy).to_string(),
                m.refits.to_string(),
                report::fmt_num(m.arrivals_per_sec),
                format!("{}/{}", m.caught, m.staged),
                if m.mean_latency_bins.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2}", m.mean_latency_bins)
                },
            ]
        })
        .collect();
    let headers = [
        "refit_every",
        "strategy",
        "refits",
        "arrivals_per_sec",
        "caught",
        "latency_bins",
    ];
    let rendered = format!(
        "Streaming ingestion on {} ({} links): detection latency and\n\
         throughput across refit cadences, full-window vs incremental\n\
         refits (`full-svd` is the strategy's historical key: a two-pass\n\
         refit over the whole window with 3σ re-run, not an SVD).\n\n{}",
        ds.name,
        rm.num_links(),
        report::ascii_table(&headers, &rows)
    );
    let csv = report::write_csv(&out_dir.join("streaming.csv"), &headers, &rows)
        .expect("output directory is writable");
    ExperimentOutput {
        id: "streaming",
        title: "Streaming engine: latency/throughput vs refit cadence",
        rendered,
        files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_traffic::datasets;

    #[test]
    fn scenario_measures_all_cadence_strategy_pairs() {
        let ds = datasets::mini(3);
        let rm = &ds.network.routing_matrix;
        let cfg = ScenarioConfig {
            train_bins: 216,
            chunk_rows: 16,
            refit_cadences: vec![24, 48],
            anomaly_every: 18,
            anomaly_len: 3,
            anomaly_bytes: 8e7,
            confidence: 0.999,
        };
        let rows = run_scenario(ds.links.matrix(), rm, &cfg).unwrap();
        assert_eq!(rows.len(), 4); // 2 cadences × 2 strategies
        for m in &rows {
            assert!(m.arrivals > 0);
            assert!(m.arrivals_per_sec > 0.0);
            assert!(m.staged >= 1);
            assert!(m.refits >= 1, "cadence {} never refitted", m.refit_every);
            assert!(
                m.caught * 2 >= m.staged,
                "cadence {} {}: caught only {}/{}",
                m.refit_every,
                strategy_label(m.strategy),
                m.caught,
                m.staged
            );
            if m.caught > 0 {
                assert!(m.mean_latency_bins >= 0.0);
                assert!(m.mean_latency_bins <= cfg.anomaly_len as f64);
            }
        }
    }

    #[test]
    fn scenario_rejects_short_series() {
        let ds = datasets::mini(3);
        let rm = &ds.network.routing_matrix;
        let cfg = ScenarioConfig {
            train_bins: ds.links.num_bins(),
            ..ScenarioConfig::default()
        };
        assert!(run_scenario(ds.links.matrix(), rm, &cfg).is_err());
    }
}
