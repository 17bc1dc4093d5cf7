//! Scale scenario: the streaming engine on synthetic thousand-link
//! topologies — throughput, refit latency, and detection quality vs `m`.
//!
//! For every target link count the scenario manufactures a fresh
//! workload ([`netanom_traffic::synth::workload`]: exact-`m` synthetic
//! backbone + gravity-model traffic), bootstraps a
//! [`StreamingEngine`], and replays a contaminated tail (staged, timed
//! and scored exactly as the streaming/sharded scenarios' is, so
//! detection quality is measured against known ground truth). Each size
//! runs under both statistics-maintaining refit strategies:
//!
//! * [`RefitStrategy::Incremental`] — the full `m × m` symmetric
//!   eigensolve per refit (`O(m³)`);
//! * [`RefitStrategy::Truncated`] — blocked subspace iteration in a
//!   block sized for `k` (`O(m²k)` per sweep) that locks the `r` pairs
//!   the model keeps, with the exact-moment threshold.
//!
//! Reported per `(m, strategy)`: the engine bootstrap (`fit_ms`: first
//! fit on the default two-pass Gram route, identifier, statistics —
//! what a verb pays before its first arrival), arrivals/sec over the
//! stream, the latency of one isolated refit, and caught/staged,
//! identified (the first alarm named the staged flow) and false
//! alarms —
//! the figures that show the truncated solver is a pure cost
//! transform, not a detection trade-off. Besides the usual table + CSV,
//! the driver writes a machine-readable `scale.jsonl` (one object per
//! row) — the artifact the CI scale-smoke job uploads.
//!
//! The `scale` experiment id runs a moderate default sweep; the
//! `NETANOM_SCALE_LINKS` environment variable (comma-separated target
//! link counts, e.g. `61,121`) overrides it — that is how CI keeps its
//! smoke run tiny.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{CoreError, DiagnoserConfig};
use netanom_traffic::synth::{workload, ScaleConfig};

use crate::experiments::ExperimentOutput;
use crate::lab::Lab;
use crate::report;
use crate::scenario::{self, Staged};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Target link counts to sweep (each becomes one synthetic network).
    pub sizes: Vec<usize>,
    /// Minimum bins used to bootstrap the model (also the window
    /// capacity); raised to `m + 8` per size, because a full-rank
    /// covariance fit needs at least as many samples as links.
    pub train_bins: usize,
    /// Bins streamed after the training prefix (the contaminated tail).
    pub stream_bins: usize,
    /// Rows per `process_batch` call.
    pub chunk_rows: usize,
    /// Arrivals between refits.
    pub refit_every: usize,
    /// Bins between staged anomaly onsets in the streamed tail.
    pub anomaly_every: usize,
    /// Lifetime of each staged anomaly in bins.
    pub anomaly_len: usize,
    /// Size of each staged anomaly in bytes.
    pub anomaly_bytes: f64,
    /// Detection confidence level.
    pub confidence: f64,
    /// Block-sizing `k` of the truncated strategy.
    pub truncated_k: usize,
    /// Residual tolerance of the truncated strategy.
    pub truncated_tol: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            sizes: vec![121, 242, 484],
            train_bins: 288,
            stream_bins: 144,
            chunk_rows: 36,
            refit_every: 48,
            anomaly_every: 24,
            anomaly_len: 3,
            anomaly_bytes: 5e7,
            confidence: 0.999,
            truncated_k: netanom_core::stream::DEFAULT_TRUNCATED_K,
            truncated_tol: netanom_core::stream::DEFAULT_TRUNCATED_TOL,
            seed: 20,
        }
    }
}

/// One `(m, strategy)` measurement.
#[derive(Debug, Clone)]
pub struct ScaleMeasurement {
    /// Total link count of the synthetic network.
    pub links: usize,
    /// OD-flow count (`P²`).
    pub flows: usize,
    /// Refit strategy measured.
    pub strategy: RefitStrategy,
    /// Normal-subspace dimension the bootstrap fit chose.
    pub normal_dim: usize,
    /// Streamed arrivals.
    pub arrivals: usize,
    /// Refits performed during the stream.
    pub refits: usize,
    /// Wall-clock seconds of the engine bootstrap
    /// ([`StreamingEngine::new`]): the initial fit over the training
    /// rows, the identifier, and the strategy's sufficient statistics.
    pub fit_seconds: f64,
    /// Wall-clock seconds for the whole stream.
    pub wall_seconds: f64,
    /// `arrivals / wall_seconds`.
    pub arrivals_per_sec: f64,
    /// Wall-clock seconds of one isolated refit at the end of the
    /// stream (model rebuild only, measured on a clone).
    pub refit_seconds: f64,
    /// Staged anomalies in the streamed tail.
    pub staged: usize,
    /// Staged anomalies that raised at least one alarm while active.
    pub caught: usize,
    /// Caught anomalies whose first alarm named the staged flow.
    pub identified: usize,
    /// Alarms raised outside every staged anomaly's lifetime.
    pub false_alarms: usize,
}

/// Human-readable label of a strategy (the JSONL/CSV key).
pub fn strategy_label(s: RefitStrategy) -> &'static str {
    match s {
        RefitStrategy::FullSvd => "full-svd",
        RefitStrategy::Incremental => "incremental",
        RefitStrategy::Truncated { .. } => "truncated",
    }
}

/// Run the scenario: one synthetic workload per size, streamed under
/// the incremental (dense refit) and truncated strategies.
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<Vec<ScaleMeasurement>, CoreError> {
    let diag_config = DiagnoserConfig {
        confidence: cfg.confidence,
        ..DiagnoserConfig::default()
    };
    let strategies = [
        RefitStrategy::Incremental,
        RefitStrategy::Truncated {
            k: cfg.truncated_k,
            tol: cfg.truncated_tol,
        },
    ];

    let mut out = Vec::new();
    for &m in &cfg.sizes {
        // The bootstrap covariance fit needs more samples than links.
        let train_bins = cfg.train_bins.max(m + 8);
        let bins = train_bins + cfg.stream_bins;
        let (network, links) = workload(&ScaleConfig::new(m, bins, cfg.seed))
            .map_err(|_| CoreError::TooFewSamples { got: m, need: 7 })?;
        let rm = &network.routing_matrix;
        let staged = Staged::split(
            links.matrix(),
            rm,
            train_bins,
            cfg.anomaly_every,
            cfg.anomaly_len,
            cfg.anomaly_bytes,
        )?;

        for strategy in strategies {
            let fit_start = Instant::now();
            let mut engine = StreamingEngine::new(
                &staged.training,
                rm,
                diag_config,
                StreamConfig::new(train_bins)
                    .refit_every(cfg.refit_every)
                    .strategy(strategy),
            )?;
            let fit_seconds = fit_start.elapsed().as_secs_f64();
            let run = scenario::replay(cfg.chunk_rows, &staged.streamed, |block| {
                engine.process_batch(block)
            })?;

            // One isolated refit on a clone: the model-rebuild latency
            // the strategy pays on every cadence tick.
            let mut probe = engine.clone();
            let t0 = Instant::now();
            probe.refit()?;
            let refit_seconds = t0.elapsed().as_secs_f64();

            let score = scenario::score(&run.reports, &staged.onsets, cfg.anomaly_len);
            out.push(ScaleMeasurement {
                links: m,
                flows: rm.num_flows(),
                strategy,
                normal_dim: engine.diagnoser().model().normal_dim(),
                arrivals: run.reports.len(),
                refits: engine.refits(),
                fit_seconds,
                wall_seconds: run.wall_seconds,
                arrivals_per_sec: run.arrivals_per_sec(),
                refit_seconds,
                staged: staged.onsets.len(),
                caught: score.caught,
                identified: score.identified,
                false_alarms: score.false_alarms,
            });
        }
    }
    Ok(out)
}

/// Parse a `NETANOM_SCALE_LINKS`-style override (`"61,121"`). The
/// generator needs at least 7 links per network, so smaller (or
/// unparseable) values invalidate the whole override — the caller
/// falls back to the default sweep instead of panicking mid-driver.
fn parse_sizes(raw: &str) -> Option<Vec<usize>> {
    let sizes: Vec<usize> = raw
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .ok()?;
    (!sizes.is_empty() && sizes.iter().all(|&m| m >= 7)).then_some(sizes)
}

/// Serialize the measurements as one JSON object per line.
fn to_jsonl(rows: &[ScaleMeasurement]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{{\"links\":{},\"flows\":{},\"strategy\":\"{}\",\"normal_dim\":{},\
             \"arrivals\":{},\"refits\":{},\"fit_ms\":{:.3},\"arrivals_per_sec\":{:.1},\
             \"refit_ms\":{:.3},\"staged\":{},\"caught\":{},\"identified\":{},\"false_alarms\":{}}}\n",
            r.links,
            r.flows,
            strategy_label(r.strategy),
            r.normal_dim,
            r.arrivals,
            r.refits,
            r.fit_seconds * 1e3,
            r.arrivals_per_sec,
            r.refit_seconds * 1e3,
            r.staged,
            r.caught,
            r.identified,
            r.false_alarms,
        ));
    }
    out
}

/// The `scale` experiment driver: the sweep above, rendered as a table
/// plus `scale.csv` and `scale.jsonl`. Honors `NETANOM_SCALE_LINKS`.
pub fn experiment(_lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let mut cfg = ScenarioConfig::default();
    if let Ok(raw) = std::env::var("NETANOM_SCALE_LINKS") {
        match parse_sizes(&raw) {
            Some(sizes) => cfg.sizes = sizes,
            None => eprintln!(
                "# NETANOM_SCALE_LINKS={raw:?} ignored: need comma-separated integers >= 7"
            ),
        }
    }
    let rows_data = run_scenario(&cfg).expect("synthetic workloads always fit");

    let headers = [
        "links",
        "flows",
        "strategy",
        "r",
        "refits",
        "fit_ms",
        "arrivals_per_sec",
        "refit_ms",
        "caught",
        "identified",
        "false_alarms",
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.links.to_string(),
                r.flows.to_string(),
                strategy_label(r.strategy).to_string(),
                r.normal_dim.to_string(),
                r.refits.to_string(),
                format!("{:.1}", r.fit_seconds * 1e3),
                report::fmt_num(r.arrivals_per_sec),
                format!("{:.1}", r.refit_seconds * 1e3),
                format!("{}/{}", r.caught, r.staged),
                r.identified.to_string(),
                r.false_alarms.to_string(),
            ]
        })
        .collect();
    let rendered = format!(
        "Streaming diagnosis on synthetic networks (gravity traffic,\n\
         staged ground-truth anomalies): set-up (fit_ms), throughput and\n\
         refit latency vs link count, dense (incremental) vs truncated\n\
         refits (block sized for k = {}).\n\n{}",
        cfg.truncated_k,
        report::ascii_table(&headers, &rows)
    );
    let csv = report::write_csv(&out_dir.join("scale.csv"), &headers, &rows)
        .expect("output directory is writable");
    let jsonl_path = out_dir.join("scale.jsonl");
    let mut files: Vec<PathBuf> = vec![csv];
    let mut f = std::fs::File::create(&jsonl_path).expect("output directory is writable");
    f.write_all(to_jsonl(&rows_data).as_bytes())
        .expect("output directory is writable");
    files.push(jsonl_path);
    ExperimentOutput {
        id: "scale",
        title: "Scale: synthetic networks, truncated vs full refits",
        rendered,
        files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_measures_both_strategies() {
        let cfg = ScenarioConfig {
            sizes: vec![61],
            train_bins: 144,
            stream_bins: 72,
            chunk_rows: 24,
            refit_every: 24,
            anomaly_every: 12,
            anomaly_len: 3,
            ..ScenarioConfig::default()
        };
        let rows = run_scenario(&cfg).unwrap();
        assert_eq!(rows.len(), 2);
        let caught0 = rows[0].caught;
        for r in &rows {
            assert_eq!(r.links, 61);
            assert!(r.arrivals > 0);
            assert!(r.arrivals_per_sec > 0.0);
            assert!(
                r.refits >= 2,
                "{}: never refitted",
                strategy_label(r.strategy)
            );
            assert!(r.refit_seconds > 0.0);
            assert!(r.fit_seconds > 0.0);
            assert!(r.staged >= 3);
            // The staged spikes are large; every strategy must catch
            // them all, and truncation must not change what is caught.
            assert_eq!(r.caught, r.staged, "{}", strategy_label(r.strategy));
            assert_eq!(r.caught, caught0);
            // ... and name the staged flow at the first alarm.
            assert_eq!(r.identified, r.caught, "{}", strategy_label(r.strategy));
            assert!(
                r.false_alarms <= r.arrivals / 20,
                "{}: {} false alarms",
                strategy_label(r.strategy),
                r.false_alarms
            );
        }
        let jsonl = to_jsonl(&rows);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"strategy\":\"truncated\""));
        assert!(jsonl.contains("\"strategy\":\"incremental\""));
        assert!(jsonl.lines().all(|line| line.contains("\"fit_ms\":")));
        assert!(jsonl.lines().all(|line| line.contains("\"identified\":")));
    }

    #[test]
    fn scenario_rejects_short_series_and_parses_sizes() {
        let cfg = ScenarioConfig {
            stream_bins: 10,
            ..ScenarioConfig::default()
        };
        assert!(run_scenario(&cfg).is_err());
        assert_eq!(parse_sizes("61, 121"), Some(vec![61, 121]));
        assert_eq!(parse_sizes(""), None);
        assert_eq!(parse_sizes("61,abc"), None);
        // Sizes the generator cannot build invalidate the override
        // instead of panicking the driver later.
        assert_eq!(parse_sizes("5"), None);
        assert_eq!(parse_sizes("61,5"), None);
    }
}
