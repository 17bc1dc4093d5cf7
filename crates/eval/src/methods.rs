//! Methods head-to-head scenario: every registered detection backend —
//! the network-wide subspace method and the per-link temporal
//! comparators — through the *same* streaming engine, on the *same*
//! contaminated stream.
//!
//! This is the deployment-shaped version of the paper's Section 6 /
//! Figure 10 comparison: instead of offline residual plots, each method
//! is trained on the head of a link series and then drives the
//! [`StreamingEngine`] over a tail with persistent anomalies staged at
//! known onsets (the ground truth). For every method it measures:
//!
//! * **detection quality** — staged anomalies caught, mean bins from
//!   onset to first alarm, and false alarms (detections outside every
//!   staged anomaly's lifetime);
//! * **arrivals/sec** — wall-clock ingestion rate including refits,
//!   so the cost of each method's model upkeep is part of the picture.
//!
//! Registered in the experiment registry as `"methods"`.

use std::path::Path;

use netanom_baselines::methods::{MethodBackend, MethodName};
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
pub struct MethodsConfig {
    /// Bins used to bootstrap each method (also the window capacity).
    pub train_bins: usize,
    /// Rows per `process_batch` call (the poll-cycle micro-batch).
    pub chunk_rows: usize,
    /// Refit cadence (arrivals between refits).
    pub refit_every: usize,
    /// Bins between staged anomaly onsets in the streamed tail.
    pub anomaly_every: usize,
    /// Lifetime of each staged anomaly in bins.
    pub anomaly_len: usize,
    /// Size of each staged anomaly in bytes.
    pub anomaly_bytes: f64,
    /// Detection confidence level.
    pub confidence: f64,
}

impl Default for MethodsConfig {
    fn default() -> Self {
        MethodsConfig {
            train_bins: 864,
            chunk_rows: 36,
            refit_every: 144,
            anomaly_every: 24,
            anomaly_len: 3,
            anomaly_bytes: 3e8,
            confidence: 0.999,
        }
    }
}

/// One method's measurement.
#[derive(Debug, Clone)]
pub struct MethodMeasurement {
    /// The method measured.
    pub method: MethodName,
    /// Streamed arrivals.
    pub arrivals: usize,
    /// Refits performed during the stream.
    pub refits: usize,
    /// Wall-clock seconds for the whole stream (scoring + refits).
    pub wall_seconds: f64,
    /// `arrivals / wall_seconds`.
    pub arrivals_per_sec: f64,
    /// Staged anomalies in the streamed tail (the ground truth).
    pub staged: usize,
    /// Staged anomalies that raised at least one alarm while active.
    pub caught: usize,
    /// Mean bins from onset to first alarm, over the caught anomalies.
    pub mean_latency_bins: f64,
    /// Detections at bins no staged anomaly was active in.
    pub false_alarms: usize,
}

/// Run the head-to-head on a link series: every registered method over
/// the identical contaminated stream.
pub fn run_scenario(
    links: &Matrix,
    rm: &RoutingMatrix,
    cfg: &MethodsConfig,
) -> Result<Vec<MethodMeasurement>, CoreError> {
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
    for method in MethodName::ALL {
        let backend: MethodBackend =
            method.fit(&staged.training, rm, diag_config, RefitStrategy::FullSvd)?;
        let mut engine = StreamingEngine::with_backend(
            backend,
            &staged.training,
            StreamConfig::new(cfg.train_bins).refit_every(cfg.refit_every),
        )?;
        let run = scenario::replay(cfg.chunk_rows, &staged.streamed, |block| {
            engine.process_batch(block)
        })?;
        let score = scenario::score(&run.reports, &staged.onsets, cfg.anomaly_len);
        out.push(MethodMeasurement {
            method,
            arrivals: run.reports.len(),
            refits: engine.refits(),
            wall_seconds: run.wall_seconds,
            arrivals_per_sec: run.arrivals_per_sec(),
            staged: staged.onsets.len(),
            caught: score.caught,
            mean_latency_bins: score.mean_latency_bins(),
            false_alarms: score.false_alarms,
        });
    }
    Ok(out)
}

/// The `methods` experiment driver: the head-to-head on the Abilene
/// week, rendered as a table and a CSV.
pub fn experiment(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let ds = &lab.abilene;
    let rm = &ds.network.routing_matrix;
    let cfg = MethodsConfig::default();
    let rows_data =
        run_scenario(ds.links.matrix(), rm, &cfg).expect("canned dataset fits the scenario");

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|m| {
            vec![
                m.method.to_string(),
                format!("{}/{}", m.caught, m.staged),
                if m.mean_latency_bins.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2}", m.mean_latency_bins)
                },
                m.false_alarms.to_string(),
                m.refits.to_string(),
                report::fmt_num(m.arrivals_per_sec),
            ]
        })
        .collect();
    let headers = [
        "method",
        "caught",
        "latency_bins",
        "false_alarms",
        "refits",
        "arrivals_per_sec",
    ];
    let rendered = format!(
        "Detection methods head-to-head on {} ({} links): every backend\n\
         through the same streaming engine over the same contaminated\n\
         stream ({} staged anomalies of {:.0e} bytes).\n\n{}",
        ds.name,
        rm.num_links(),
        rows_data.first().map_or(0, |m| m.staged),
        cfg.anomaly_bytes,
        report::ascii_table(&headers, &rows)
    );
    let csv = report::write_csv(&out_dir.join("methods.csv"), &headers, &rows)
        .expect("output directory is writable");
    ExperimentOutput {
        id: "methods",
        title: "Pluggable backends: detection quality and throughput per method",
        rendered,
        files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_traffic::datasets;

    #[test]
    fn scenario_measures_every_registered_method() {
        let ds = datasets::mini(5);
        let rm = &ds.network.routing_matrix;
        // The mini training prefix embeds its own ground-truth
        // anomalies, which inflates the temporal methods' calibrated
        // thresholds (their training residuals contain the spikes); the
        // staged anomalies must stand clear of that.
        let cfg = MethodsConfig {
            train_bins: 216,
            chunk_rows: 16,
            refit_every: 36,
            anomaly_every: 18,
            anomaly_len: 3,
            anomaly_bytes: 2.5e8,
            confidence: 0.999,
        };
        let rows = run_scenario(ds.links.matrix(), rm, &cfg).unwrap();
        assert_eq!(rows.len(), MethodName::ALL.len());
        for m in &rows {
            assert!(m.arrivals > 0);
            assert!(m.arrivals_per_sec > 0.0);
            assert!(m.staged >= 2);
            assert!(m.refits >= 1, "{}: never refitted", m.method);
            // Every method must catch at least one staged 250 MB spike.
            // The harness measures the methods; it does not referee the
            // quality trade-off (bigger spikes contaminate the subspace
            // refit window while smaller ones hide under the temporal
            // thresholds the mini dataset's own embedded anomalies
            // inflate — that tension is exactly what the rendered
            // comparison shows).
            assert!(
                m.caught >= 1,
                "{}: caught {}/{}",
                m.method,
                m.caught,
                m.staged
            );
            if m.caught > 0 {
                assert!(m.mean_latency_bins >= 0.0);
                assert!(m.mean_latency_bins <= cfg.anomaly_len as f64);
            }
        }
        // The subspace row is present and first (registry order).
        assert_eq!(rows[0].method, MethodName::Subspace);
    }

    #[test]
    fn scenario_rejects_short_series() {
        let ds = datasets::mini(5);
        let rm = &ds.network.routing_matrix;
        let cfg = MethodsConfig {
            train_bins: ds.links.num_bins(),
            ..MethodsConfig::default()
        };
        assert!(run_scenario(ds.links.matrix(), rm, &cfg).is_err());
    }
}
