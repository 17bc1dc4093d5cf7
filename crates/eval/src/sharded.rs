//! Sharded-deployment scenario: merge overhead and ingestion throughput
//! of the [`ShardedEngine`] as the link set is partitioned across
//! `K ∈ {1, 2, 4, 8}` shards.
//!
//! The scenario trains on the head of a link series, then replays the
//! tail (with staged anomalies, the same contamination the streaming
//! scenario uses) through a round-robin-partitioned [`ShardedEngine`]
//! for each shard count, measuring per `K`:
//!
//! * **arrivals/sec** — wall-clock ingestion rate including merges and
//!   refits;
//! * **merge overhead** — seconds spent in merge + refit + broadcast
//!   ([`ShardedEngine::refit_seconds`]) and its share of the wall clock;
//! * **detections and caught anomalies** — which must not vary with `K`:
//!   sharding is a pure scale transform, and the table makes that parity
//!   visible next to the throughput numbers.
//!
//! On a single hardware thread the shards run serially, so arrivals/sec
//! is flat in `K` (the interesting number is then the merge overhead the
//! global view costs); with one thread per shard the per-arrival
//! `O(m²)` statistics upkeep and `O(m·r)` projections split `K` ways.

use std::path::Path;

use netanom_core::shard::ShardedEngine;
use netanom_core::stream::{RefitStrategy, StreamConfig};
use netanom_core::{CoreError, DiagnoserConfig};
use netanom_linalg::Matrix;
use netanom_topology::{LinkPartition, RoutingMatrix};

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
    /// Shard counts to sweep (each via a round-robin partition).
    pub shard_counts: Vec<usize>,
    /// Arrivals between merge-and-refit cycles.
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

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            train_bins: 1008,
            chunk_rows: 72,
            shard_counts: vec![1, 2, 4, 8],
            refit_every: 144,
            anomaly_every: 60,
            anomaly_len: 4,
            anomaly_bytes: 4e7,
            confidence: 0.999,
        }
    }
}

/// One shard-count measurement.
#[derive(Debug, Clone)]
pub struct ShardMeasurement {
    /// Number of shards `K`.
    pub shards: usize,
    /// Smallest and largest shard link counts.
    pub min_links: usize,
    /// See [`ShardMeasurement::min_links`].
    pub max_links: usize,
    /// Streamed arrivals.
    pub arrivals: usize,
    /// Merge-and-refit cycles performed.
    pub refits: usize,
    /// Wall-clock seconds for the whole stream.
    pub wall_seconds: f64,
    /// `arrivals / wall_seconds`.
    pub arrivals_per_sec: f64,
    /// Seconds inside merge + refit + broadcast.
    pub merge_seconds: f64,
    /// Total alarms raised over the stream (must not vary with `K`).
    pub detections: usize,
    /// Staged anomalies in the streamed tail.
    pub staged: usize,
    /// Staged anomalies that raised at least one alarm while active.
    pub caught: usize,
    /// Caught anomalies whose first alarm named the staged flow.
    pub identified: usize,
}

/// Run the scenario on a link series, sweeping every shard count in
/// `cfg.shard_counts` under incremental refits.
///
/// `links` must hold at least `cfg.train_bins + cfg.anomaly_every +
/// cfg.anomaly_len` bins so at least one anomaly fits in the tail, and
/// every shard count must be at most the link count.
pub fn run_scenario(
    links: &Matrix,
    rm: &RoutingMatrix,
    cfg: &ScenarioConfig,
) -> Result<Vec<ShardMeasurement>, CoreError> {
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
    for &k in &cfg.shard_counts {
        let partition = LinkPartition::round_robin(rm.num_links(), k).map_err(|_| {
            CoreError::ShardMismatch {
                reason: "shard count exceeds the link count",
            }
        })?;
        let mut engine = ShardedEngine::new(
            &staged.training,
            rm,
            diag_config,
            StreamConfig::new(cfg.train_bins)
                .refit_every(cfg.refit_every)
                .strategy(RefitStrategy::Incremental),
            &partition,
        )?;
        let run = scenario::replay(cfg.chunk_rows, &staged.streamed, |block| {
            engine.process_batch(block)
        })?;
        let score = scenario::score(&run.reports, &staged.onsets, cfg.anomaly_len);
        let sizes: Vec<usize> = (0..k).map(|s| engine.shard_links(s).len()).collect();
        out.push(ShardMeasurement {
            shards: k,
            min_links: sizes.iter().copied().min().unwrap_or(0),
            max_links: sizes.iter().copied().max().unwrap_or(0),
            arrivals: run.reports.len(),
            refits: engine.refits(),
            wall_seconds: run.wall_seconds,
            arrivals_per_sec: run.arrivals_per_sec(),
            merge_seconds: engine.refit_seconds(),
            detections: run.reports.iter().filter(|r| r.detected).count(),
            staged: staged.onsets.len(),
            caught: score.caught,
            identified: score.identified,
        });
    }
    Ok(out)
}

/// The `sharded` experiment driver: the scenario on the Abilene week,
/// rendered as a table and a CSV.
pub fn experiment(lab: &Lab, out_dir: &Path) -> ExperimentOutput {
    let ds = &lab.abilene;
    let rm = &ds.network.routing_matrix;
    let cfg = ScenarioConfig {
        train_bins: 864, // 6 days; stream the rest of the week
        refit_every: 72,
        anomaly_every: 24,
        anomaly_len: 3,
        // Match the streaming scenario's staging on the noisy Abilene
        // data so the two tables are comparable.
        anomaly_bytes: 3e8,
        ..ScenarioConfig::default()
    };
    let rows_data =
        run_scenario(ds.links.matrix(), rm, &cfg).expect("canned dataset fits the scenario");

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|m| {
            vec![
                m.shards.to_string(),
                format!("{}-{}", m.min_links, m.max_links),
                m.refits.to_string(),
                report::fmt_num(m.arrivals_per_sec),
                format!("{:.1}", m.merge_seconds * 1e3),
                format!(
                    "{:.0}%",
                    100.0 * m.merge_seconds / m.wall_seconds.max(1e-12)
                ),
                m.detections.to_string(),
                format!("{}/{}", m.caught, m.staged),
                m.identified.to_string(),
            ]
        })
        .collect();
    let headers = [
        "shards",
        "links/shard",
        "refits",
        "arrivals_per_sec",
        "merge_ms",
        "merge_share",
        "detections",
        "caught",
        "identified",
    ];
    let rendered = format!(
        "Sharded ingestion on {} ({} links, round-robin partitions):\n\
         merge overhead and throughput vs shard count; detections are\n\
         K-invariant because the merged statistics are bitwise the\n\
         single-process statistics.\n\n{}",
        ds.name,
        rm.num_links(),
        report::ascii_table(&headers, &rows)
    );
    let csv = report::write_csv(&out_dir.join("sharded.csv"), &headers, &rows)
        .expect("output directory is writable");
    ExperimentOutput {
        id: "sharded",
        title: "Sharded engine: merge overhead and throughput vs K",
        rendered,
        files: vec![csv],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netanom_traffic::datasets;

    #[test]
    fn scenario_sweeps_shard_counts_with_invariant_detections() {
        let ds = datasets::mini(3);
        let rm = &ds.network.routing_matrix;
        let cfg = ScenarioConfig {
            train_bins: 216,
            chunk_rows: 24,
            shard_counts: vec![1, 2, 4],
            refit_every: 48,
            anomaly_every: 18,
            anomaly_len: 3,
            anomaly_bytes: 8e7,
            confidence: 0.999,
        };
        let rows = run_scenario(ds.links.matrix(), rm, &cfg).unwrap();
        assert_eq!(rows.len(), 3);
        for m in &rows {
            assert!(m.arrivals > 0);
            assert!(m.arrivals_per_sec > 0.0);
            assert!(m.refits >= 1, "K={} never refitted", m.shards);
            assert!(m.merge_seconds > 0.0);
            assert!(m.staged >= 1);
            assert!(m.min_links >= 1);
            assert!(m.min_links <= m.max_links);
            // Sharding must not change what is detected.
            assert_eq!(
                m.detections, rows[0].detections,
                "K={} changed the detections",
                m.shards
            );
            assert_eq!(m.caught, rows[0].caught);
        }
    }

    #[test]
    fn scenario_rejects_short_series_and_oversharding() {
        let ds = datasets::mini(3);
        let rm = &ds.network.routing_matrix;
        let cfg = ScenarioConfig {
            train_bins: ds.links.num_bins(),
            ..ScenarioConfig::default()
        };
        assert!(run_scenario(ds.links.matrix(), rm, &cfg).is_err());
        let cfg = ScenarioConfig {
            train_bins: 216,
            shard_counts: vec![rm.num_links() + 1],
            ..ScenarioConfig::default()
        };
        assert!(run_scenario(ds.links.matrix(), rm, &cfg).is_err());
    }
}
