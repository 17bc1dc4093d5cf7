//! The five pinned workloads and the metric vocabulary.
//!
//! `BENCHMARK.json` at the repo root repeats these names (with the one
//! line of *why* per workload); a unit test keeps the two in step.

use std::path::Path;

use netanom_core::stream::RefitStrategy;
use netanom_core::EngineConfig;

use crate::gen::{SeriesFiles, SeriesSpec};
use crate::stats::LapStatistic;

/// Which verb of the binary a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `netanom stream`: the single-process ingest loop.
    Stream,
    /// `netanom shard --shards 2`: the sharded ingest loop.
    Shard,
    /// `netanom serve` over stdio, one `obs` line per bin, closed loop.
    Serve,
}

/// Shards of the `shard` verb, in the workload and as the reference.
pub const SHARDS: usize = 2;
/// Rows per micro-batch (`--chunk`), a six-hour poll cycle.
pub const CHUNK: usize = 36;
/// Arrivals between refits (`--refit-every`), one day.
pub const REFIT_EVERY: usize = 144;

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub verb: Verb,
    /// Index into [`Sizes`].
    pub series: usize,
    /// `--refit`, with [`REFIT_EVERY`]; `None` never refits.
    pub refit: Option<&'static str>,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "refit121",
        verb: Verb::Stream,
        series: 0,
        refit: Some("incremental"),
    },
    Workload {
        name: "scan121",
        verb: Verb::Stream,
        series: 0,
        refit: None,
    },
    Workload {
        name: "shard121",
        verb: Verb::Shard,
        series: 0,
        refit: Some("incremental"),
    },
    Workload {
        name: "serve121",
        verb: Verb::Serve,
        series: 0,
        refit: Some("incremental"),
    },
    Workload {
        name: "wide256",
        verb: Verb::Stream,
        series: 1,
        refit: Some("truncated"),
    },
];

pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One training week of ten-minute bins — everywhere: with 576 bins at
/// m = 512 the sizing run raised 130 false alarms in 2016 bins, with
/// 1008 none.
pub const TRAIN_BINS: usize = 1008;

/// The shapes of the two generated series.
pub type Sizes = [SeriesSpec; 2];

/// The pinned sizes: four streamed weeks at m = 121 (28 daily refits, 83
/// staged anomalies) and two at m = 256 (2500 candidate flows, 14
/// refits). Laps stay under two seconds, so a twenty-second run takes
/// its quartiles over ten laps or more.
pub const FULL_SIZES: Sizes = [
    SeriesSpec {
        name: "series121",
        links: 121,
        train_bins: TRAIN_BINS,
        stream_bins: 4 * 1008,
    },
    SeriesSpec {
        name: "series256",
        links: 256,
        train_bins: TRAIN_BINS,
        stream_bins: 2 * 1008,
    },
];

/// `--smoke`: the same five commands on m = 61 (and m = 121 in place of
/// 256) with two streamed days, to check the harness.
pub const SMOKE_SIZES: Sizes = [
    SeriesSpec {
        name: "smoke61",
        links: 61,
        train_bins: TRAIN_BINS,
        stream_bins: 288,
    },
    SeriesSpec {
        name: "smoke121",
        links: 121,
        train_bins: TRAIN_BINS,
        stream_bins: 288,
    },
];

impl Workload {
    /// The engine configuration the CLI derives from this workload's
    /// flags (`engine_config_of` + `note_downgrade` in `cli`).
    pub fn engine_config(&self, verb: Verb) -> EngineConfig {
        let default = match verb {
            Verb::Shard => RefitStrategy::Incremental,
            Verb::Stream | Verb::Serve => RefitStrategy::FullSvd,
        };
        let mut cfg = EngineConfig::new(TRAIN_BINS)
            .expect("a training week is a valid length")
            .with_refit(default)
            .with_chunk(CHUNK)
            .expect("the chunk is positive");
        if let Some(refit) = self.refit {
            cfg = cfg
                .with_refit_str(refit)
                .and_then(|c| c.with_refit_every(REFIT_EVERY))
                .expect("pinned refit flags are valid");
        }
        cfg.normalize();
        cfg
    }

    /// Arguments of `netanom` for `verb` on this workload's series: the
    /// workload's own command with its own verb, the reference command
    /// with the other ingest loop's. `routing` passes `--paths`.
    pub fn stream_args(&self, verb: Verb, files: &SeriesFiles, routing: bool) -> Vec<String> {
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let mut args: Vec<String> = match verb {
            Verb::Stream => vec!["stream".into()],
            Verb::Shard => vec!["shard".into(), "--shards".into(), SHARDS.to_string()],
            Verb::Serve => unreachable!("serve takes its configuration on the open line"),
        };
        args.extend(["--links".into(), path(&files.links)]);
        if routing {
            args.extend(["--paths".into(), path(&files.paths)]);
        }
        args.extend(["--train-bins".into(), TRAIN_BINS.to_string()]);
        if let Some(refit) = self.refit {
            args.extend([
                "--refit-every".into(),
                REFIT_EVERY.to_string(),
                "--refit".into(),
                refit.into(),
            ]);
        }
        args.extend(["--chunk".into(), CHUNK.to_string()]);
        args
    }

    /// The `open` line of the serve session.
    pub fn open_line(&self, dim: usize) -> String {
        let mut line = format!("open s dim={dim} train-bins={TRAIN_BINS}");
        if let Some(refit) = self.refit {
            line.push_str(&format!(" refit={refit} refit-every={REFIT_EVERY}"));
        }
        line
    }

    /// Whether the workload identifies against `paths.csv` (serve has
    /// no routing: every link is its own candidate flow).
    pub fn routing(&self) -> bool {
        self.verb != Verb::Serve
    }

    /// The verb whose output this workload's alarm rows must equal: the
    /// other ingest loop for `stream` and `shard`, `stream` without
    /// `--paths` for `serve`.
    pub fn reference_verb(&self) -> Verb {
        match self.verb {
            Verb::Stream => Verb::Shard,
            Verb::Shard | Verb::Serve => Verb::Stream,
        }
    }
}

/// `(name, unit, statistic over a run's laps)` of every end-to-end
/// metric, reported for every workload from untraced runs of the binary.
///
/// Timings and the rate are reported at the quartile of the *faster*
/// laps, not the median: on a shared host the noise is one-sided — a
/// neighbour slows a lap, nothing speeds one up — and comes in spells
/// that outlast a run. Over 20-second windows of the same command the
/// median's run-to-run spread was 2 % in a quiet hour and 25–36 % in a
/// busy one, the quartile's 3 % and 17–20 % (the minimum's 12–18 %
/// in both: it flips between a rare fast state and the usual one). The
/// quartile is still a typical lap, not a best case.
pub const END_TO_END: [(&str, &str, LapStatistic); 4] = [
    ("setup_s", "s", LapStatistic::LowerQuartile),
    ("run_s", "s", LapStatistic::LowerQuartile),
    ("arrivals_per_s", "1/s", LapStatistic::UpperQuartile),
    ("peak_rss_mb", "MB", LapStatistic::Median),
];

/// `(name, unit)` of every per-layer metric, reported for every
/// workload from the traced run; a metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("traffic.io.parse_s", "s"),
    ("traffic.io.parse_mb_per_s", "MB/s"),
    ("traffic.io.rows", "count"),
    ("traffic.io.bytes", "count"),
    ("traffic.io.train_parse_s", "s"),
    ("traffic.io.scatter_s", "s"),
    ("core.subspace.fit_s", "s"),
    ("core.subspace.detect_s", "s"),
    ("core.identify.build_s", "s"),
    ("core.identify.build_ms_p50", "ms"),
    ("core.identify.candidates", "count"),
    ("core.identify.identify_s", "s"),
    ("core.identify.alarms", "count"),
    ("core.incremental.solve_s", "s"),
    ("core.incremental.solve_ms_p50", "ms"),
    ("core.incremental.bootstrap_s", "s"),
    ("core.incremental.observe_s", "s"),
    ("core.incremental.observe_ns_per_row", "ns/row"),
    ("core.method.fit_s", "s"),
    ("core.method.refit_s", "s"),
    ("core.method.refits", "count"),
    ("core.method.refit_ms_p50", "ms"),
    ("core.method.score_s", "s"),
    ("core.method.score_us_per_row", "us/row"),
    ("core.method.score_vector_us_p50", "us"),
    ("core.stream.push_s", "s"),
    ("core.stream.batch_s", "s"),
    ("core.stream.overhead_share", "ratio"),
    ("core.shard.batch_s", "s"),
    ("core.shard.refit_s", "s"),
    ("core.shard.merge_s", "s"),
    ("core.shard.skew", "ratio"),
    ("core.shard.vs_stream_ratio", "ratio"),
    ("linalg.eigen.jacobi_ms", "ms"),
    ("linalg.eigen.truncated_ms", "ms"),
    ("linalg.kernel.gemm_gflops", "GFLOP/s"),
    ("serve.reply_p50_us", "us"),
    ("serve.reply_p99_us", "us"),
    ("serve.stall_p50_ms", "ms"),
    ("serve.stall_p90_ms", "ms"),
    ("serve.protocol.parse_us_p50", "us"),
    ("serve.protocol.emit_s", "s"),
    ("serve.protocol.emit_bytes", "count"),
    ("serve.service.handle_us_p50", "us"),
    ("serve.service.handle_us_p99", "us"),
    ("serve.service.busy", "count"),
    ("serve.service.errs", "count"),
    ("serve.transport.pipe_us_p50", "us"),
    ("serve.checkpoint.save_ms", "ms"),
    ("serve.checkpoint.restore_ms", "ms"),
    ("serve.checkpoint.bytes", "count"),
    ("net.wire.encode_mb_per_s", "MB/s"),
    ("net.wire.decode_mb_per_s", "MB/s"),
    ("net.wire.round_bytes", "count"),
    ("process.cpu_s", "s"),
    ("process.cpu_over_wall", "ratio"),
    ("detect.staged", "count"),
    ("detect.caught", "count"),
    ("detect.false_alarms", "count"),
    ("detect.alarms", "count"),
    ("trace.pipeline_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer counts that must repeat exactly from run to run.
pub const EXACT_COUNTS: [&str; 12] = [
    "traffic.io.rows",
    "traffic.io.bytes",
    "core.identify.candidates",
    "core.identify.alarms",
    "core.method.refits",
    "serve.protocol.emit_bytes",
    "serve.checkpoint.bytes",
    "net.wire.round_bytes",
    "detect.staged",
    "detect.caught",
    "detect.false_alarms",
    "detect.alarms",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, valid_name, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|item| {
                let text = |k: &str| match item.get(k) {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                (text("name").expect("a name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<String> = names(&doc, "workloads").into_iter().map(|n| n.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect();
        for (key, table) in [
            ("end_to_end", &end_to_end[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = names(&doc, key);
            let ours: Vec<(String, Option<String>)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let end_to_end = END_TO_END.iter().map(|(n, u, _)| (n, u));
        for (name, unit) in end_to_end.chain(PER_LAYER.iter().map(|(n, u)| (n, u))) {
            assert!(valid_name(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name));
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn flags_and_engine_config_agree() {
        let refit = &WORKLOADS[0];
        let cfg = refit.engine_config(Verb::Stream);
        assert_eq!(cfg.refit_every(), Some(REFIT_EVERY));
        assert_eq!(cfg.strategy(), RefitStrategy::Incremental);
        assert_eq!(cfg.chunk(), CHUNK);
        // Without a cadence `stream` keeps no statistics at all.
        let scan = &WORKLOADS[1];
        let cfg = scan.engine_config(Verb::Stream);
        assert_eq!(cfg.refit_every(), None);
        assert_eq!(cfg.strategy(), RefitStrategy::FullSvd);
        assert_eq!(
            scan.engine_config(Verb::Shard).strategy(),
            RefitStrategy::FullSvd
        );
        assert_eq!(
            WORKLOADS[3].open_line(121),
            "open s dim=121 train-bins=1008 refit=incremental refit-every=144"
        );
    }
}
