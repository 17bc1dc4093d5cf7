//! The subcommands.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

use netanom_baselines::methods::{build_streaming, MethodName, METHOD_NAMES};
use netanom_core::method::DetectionBackend;
use netanom_core::stream::RefitStrategy;
use netanom_core::{
    Diagnoser, DiagnoserConfig, DiagnosisReport, EngineConfig, PartitionSpec, ShardedEngine,
    SubspaceBackend,
};
use netanom_topology::{LinkPartition, RoutingMatrix};
use netanom_traffic::datasets::{self, Dataset};
use netanom_traffic::io as traffic_io;

use crate::paths_csv;

/// Parse `--key value` pairs; returns an error on stray positionals or
/// repeated keys.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        if out.insert(name, value.as_str()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(out)
}

fn require<'a>(flags: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .copied()
        .ok_or_else(|| format!("--{name} is required"))
}

/// Resolve `--method` (default: the paper's subspace method); unknown
/// names error with the valid set, mirroring `netanom eval`'s
/// unknown-id errors.
fn method_of(flags: &HashMap<&str, &str>) -> Result<MethodName, String> {
    match flags.get("method") {
        None => Ok(MethodName::Subspace),
        Some(name) => MethodName::parse(name),
    }
}

/// `netanom --list-methods`: one registered detection method per line.
pub fn list_methods() {
    for name in METHOD_NAMES {
        println!("{name}");
    }
}

/// `netanom --version`: the crate version.
pub fn version() {
    println!("netanom {}", env!("CARGO_PKG_VERSION"));
}

fn confidence_of(flags: &HashMap<&str, &str>) -> Result<f64, String> {
    match flags.get("confidence") {
        None => Ok(0.999),
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|c| *c > 0.0 && *c < 1.0)
            .ok_or_else(|| format!("--confidence must be in (0,1), got {s:?}")),
    }
}

/// Resolve a `--dataset` name into the canned dataset it names.
fn dataset_of(name: &str) -> Result<Dataset, String> {
    match name {
        "sprint1" => Ok(datasets::sprint1()),
        "sprint2" => Ok(datasets::sprint2()),
        "abilene" => Ok(datasets::abilene()),
        "mini" => Ok(datasets::mini(1)),
        other => Err(format!(
            "unknown dataset {other:?}; must be sprint1|sprint2|abilene|mini"
        )),
    }
}

/// `netanom simulate --dataset NAME --out-dir DIR`
pub fn simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["dataset", "out-dir"])?;
    let name = require(&flags, "dataset")?;
    let out_dir = PathBuf::from(require(&flags, "out-dir")?);

    let ds: Dataset = dataset_of(name)?;

    fs::create_dir_all(&out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    // links.csv with human-readable link names.
    let topo = &ds.network.topology;
    let names: Vec<String> = (0..topo.num_links())
        .map(|l| {
            topo.link_label(netanom_topology::LinkId(l))
                .replace(',', "_")
        })
        .collect();
    traffic_io::link_series_to_csv(&ds.links, Some(&names), &out_dir.join("links.csv"))
        .map_err(|e| format!("writing links.csv: {e}"))?;

    // paths.csv for identification.
    let rm = &ds.network.routing_matrix;
    let paths: Vec<Vec<usize>> = (0..rm.num_flows())
        .map(|f| rm.flow(f).path.iter().map(|l| l.0).collect())
        .collect();
    fs::write(out_dir.join("paths.csv"), paths_csv::serialize(&paths))
        .map_err(|e| format!("writing paths.csv: {e}"))?;

    // truth.csv — the generator's exact ground truth.
    let mut truth = String::from("time,flow,delta_bytes\n");
    for e in &ds.truth {
        let _ = writeln!(truth, "{},{},{}", e.time, e.flow, e.delta_bytes);
    }
    fs::write(out_dir.join("truth.csv"), truth).map_err(|e| format!("writing truth.csv: {e}"))?;

    println!(
        "wrote {}/links.csv ({} bins x {} links), paths.csv ({} flows), truth.csv ({} anomalies)",
        out_dir.display(),
        ds.links.num_bins(),
        ds.links.num_links(),
        rm.num_flows(),
        ds.truth.len(),
    );
    Ok(())
}

fn load_links(path: &str) -> Result<(netanom_traffic::LinkSeries, Vec<String>), String> {
    traffic_io::link_series_from_csv(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

/// `netanom detect --links FILE [--confidence C] [--train-bins N]`
pub fn detect(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["links", "confidence", "train-bins"])?;
    let (links, names) = load_links(require(&flags, "links")?)?;
    let confidence = confidence_of(&flags)?;
    let train_bins = train_bins_of(&flags, links.num_bins())?;

    // Detection needs no routing information: fit the model directly.
    let training = links
        .matrix()
        .row_block(0, train_bins)
        .map_err(|e| e.to_string())?;
    let model = netanom_core::SubspaceModel::fit(
        &training,
        netanom_core::SeparationPolicy::default(),
        netanom_core::PcaMethod::default(),
    )
    .map_err(|e| format!("fitting model: {e}"))?;
    let detector =
        netanom_core::Detector::new(model, confidence).map_err(|e| format!("threshold: {e}"))?;

    let detections = detector
        .detect_matrix(links.matrix())
        .map_err(|e| e.to_string())?;
    let q = detector.threshold();
    println!(
        "# {} links, {} bins; r = {}, delta^2({:.2}%) = {:.6e}",
        names.len(),
        links.num_bins(),
        detector.model().normal_dim(),
        confidence * 100.0,
        q.delta_sq,
    );
    println!("time,spe,threshold,anomalous");
    let mut alarms = 0usize;
    for d in &detections {
        if d.anomalous {
            alarms += 1;
            println!("{},{:.6e},{:.6e},1", d.time, d.spe, d.threshold);
        }
    }
    eprintln!("{alarms} anomalous bins of {}", detections.len());
    Ok(())
}

fn train_bins_of(flags: &HashMap<&str, &str>, total: usize) -> Result<usize, String> {
    match flags.get("train-bins") {
        None => Ok(total),
        Some(s) => {
            let n: usize = s
                .parse()
                .map_err(|_| format!("--train-bins must be an integer, got {s:?}"))?;
            if n == 0 || n > total {
                return Err(format!("--train-bins must be in 1..={total}"));
            }
            Ok(n)
        }
    }
}

/// `netanom diagnose --links FILE --paths FILE [--method NAME]
/// [--confidence C] [--train-bins N] [--out FILE]`
///
/// Offline diagnosis of a whole series. The default subspace method
/// scores every bin (including the training prefix) and identifies and
/// quantifies each detection; any other method (`--method`, see
/// `netanom --list-methods`) trains on the prefix and scores the bins
/// after it in sequence — temporal forecasters have no meaningful score
/// for bins they trained on — with `-` in the identification columns.
pub fn diagnose(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "links",
            "paths",
            "confidence",
            "train-bins",
            "out",
            "method",
        ],
    )?;
    let (links, _names) = load_links(require(&flags, "links")?)?;
    let confidence = confidence_of(&flags)?;
    let train_bins = train_bins_of(&flags, links.num_bins())?;
    let method = method_of(&flags)?;

    let rm = load_paths(require(&flags, "paths")?, links.num_links())?;

    let training = links
        .matrix()
        .row_block(0, train_bins)
        .map_err(|e| e.to_string())?;
    let diag_cfg = DiagnoserConfig {
        confidence,
        ..DiagnoserConfig::default()
    };

    // (reports, the bin index their `time` counts from, model label)
    let (reports, first_bin, model_label) = if method == MethodName::Subspace {
        let diagnoser =
            Diagnoser::fit(&training, &rm, diag_cfg).map_err(|e| format!("fitting model: {e}"))?;
        let reports = diagnoser
            .diagnose_series(links.matrix())
            .map_err(|e| e.to_string())?;
        let label = format!("r = {}", diagnoser.model().normal_dim());
        (reports, 0, label)
    } else {
        // Temporal forecasters only score the bins *after* their
        // training prefix; without a prefix split there is nothing to
        // score, so a full-series default would silently emit an empty
        // report.
        if train_bins >= links.num_bins() {
            return Err(format!(
                "--method {method} scores the bins after the training prefix; \
                 pass --train-bins smaller than the {} bins in the series",
                links.num_bins()
            ));
        }
        let backend = method
            .fit(&training, &rm, diag_cfg, RefitStrategy::FullSvd)
            .map_err(|e| format!("fitting {method} model: {e}"))?;
        let tail = links
            .matrix()
            .row_block(train_bins, links.num_bins() - train_bins)
            .map_err(|e| e.to_string())?;
        let reports = backend.score_matrix(&tail).map_err(|e| e.to_string())?;
        let label = format!("method = {method}");
        // Stamp each row with its offset into the scored tail.
        let reports = reports
            .into_iter()
            .enumerate()
            .map(|(time, r)| DiagnosisReport { time, ..r })
            .collect();
        (reports, train_bins, label)
    };
    let scored_bins = reports.len();

    let mut csv = String::from("time,spe,threshold,flow,estimated_bytes,explained_fraction\n");
    let mut alarms = 0usize;
    for rep in reports.iter().filter(|r| r.detected) {
        alarms += 1;
        let _ = writeln!(csv, "{}", netanom_serve::alarm_csv_row(rep, first_bin));
    }

    match flags.get("out") {
        Some(out) => {
            fs::write(out, &csv).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!(
                "{alarms} anomalies in {scored_bins} bins ({model_label}); report written to {out}"
            );
        }
        None => {
            print!("{csv}");
            eprintln!("{alarms} anomalies in {scored_bins} bins ({model_label})");
        }
    }
    Ok(())
}

fn load_paths(paths_file: &str, num_links: usize) -> Result<RoutingMatrix, String> {
    let paths_content =
        fs::read_to_string(paths_file).map_err(|e| format!("reading {paths_file}: {e}"))?;
    let paths =
        paths_csv::parse(&paths_content, "flow").map_err(|e| format!("{paths_file}: {e}"))?;
    RoutingMatrix::try_from_paths(num_links, &paths)
        .map_err(|e| format!("{paths_file}: {e} in the links CSV"))
}

/// Parse the shared engine options (`--train-bins`, `--method`,
/// `--refit*`, `--window`, `--chunk`, `--confidence`) into the one
/// [`EngineConfig`] builder every deployment verb (and the `serve`
/// daemon's `open` command) constructs its engine from.
/// `default_strategy` applies when `--refit` is absent. The method name
/// is validated eagerly so a typo errors with the registry's valid set
/// before any file is opened, and a statistics-maintaining `--refit`
/// with no `--refit-every` to consume it is downgraded with the note
/// `stream`/`shard` historically printed.
fn engine_config_of(
    flags: &HashMap<&str, &str>,
    default_strategy: RefitStrategy,
) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::new(required_train_bins(flags)?)?.with_refit(default_strategy);
    // A fixed order makes the first error reported the same on every run.
    for key in ["method", "refit", "refit-every", "window", "confidence"] {
        if let Some(value) = flags.get(key) {
            cfg.set(key, value).map_err(|e| format!("--{e}"))?;
        }
    }
    MethodName::parse(cfg.method())?;
    if let Some(s) = flags.get("chunk") {
        let n: usize = s
            .parse()
            .map_err(|_| format!("--chunk must be a positive integer, got {s:?}"))?;
        cfg = cfg.with_chunk(n).map_err(|e| format!("--{e}"))?;
    }
    if let Some(requested) = cfg.normalize() {
        eprintln!(
            "# note: --refit {requested} maintains statistics that are never consumed \
             without --refit-every; using full refits"
        );
    }
    Ok(cfg)
}

/// The mandatory `--train-bins` of the online verbs.
fn required_train_bins(flags: &HashMap<&str, &str>) -> Result<usize, String> {
    require(flags, "train-bins")?
        .parse()
        .ok()
        .filter(|&n| n >= 2)
        .ok_or_else(|| "--train-bins must be an integer ≥ 2".to_string())
}

/// Resolve the partition flags (`--partition round-robin|per-pop|explicit`,
/// with `--dataset` supplying the topology for `per-pop` and
/// `--partition-file` the link groups for `explicit`) into a
/// [`PartitionSpec`]. `shards` is the `--shards`/`--workers` count when
/// one was given; `round-robin` requires it, and the resolved kinds
/// must agree with it — every process of a distributed deployment must
/// mean the same partition, or the tracker rejects the join.
fn partition_spec_of(
    flags: &HashMap<&str, &str>,
    shards: Option<usize>,
    shards_flag: &str,
) -> Result<PartitionSpec, String> {
    let spec = match flags.get("partition").copied().unwrap_or("round-robin") {
        "round-robin" => PartitionSpec::RoundRobin {
            shards: shards.ok_or_else(|| format!("--{shards_flag} is required"))?,
        },
        "per-pop" => {
            let name = flags
                .get("dataset")
                .ok_or("--partition per-pop needs --dataset to supply the topology")?;
            let topo = dataset_of(name)?.network.topology;
            PartitionSpec::Groups(LinkPartition::per_pop(&topo).groups().to_vec())
        }
        "explicit" => {
            let file = flags
                .get("partition-file")
                .ok_or("--partition explicit needs --partition-file FILE")?;
            let text = fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            PartitionSpec::Groups(
                paths_csv::parse(&text, "shard").map_err(|e| format!("{file}: {e}"))?,
            )
        }
        other => {
            return Err(format!(
                "unknown partition kind {other:?}; must be round-robin|per-pop|explicit"
            ))
        }
    };
    if let Some(k) = shards {
        if k != spec.num_shards() {
            return Err(format!(
                "--{shards_flag} {k} disagrees with the {}-shard partition",
                spec.num_shards()
            ));
        }
    }
    Ok(spec)
}

/// The chunked `--links` reader of the online verbs; `Send`, so
/// [`run_streaming`] reads its blocks on a thread of their own.
type LinkChunks = traffic_io::CsvChunks<Box<dyn BufRead + Send>>;

/// Open `--links` as a buffered reader (`-` reads stdin).
fn open_links_reader(links_arg: &str) -> Result<Box<dyn BufRead + Send>, String> {
    Ok(if links_arg == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        Box::new(BufReader::new(
            fs::File::open(links_arg).map_err(|e| format!("opening {links_arg}: {e}"))?,
        ))
    })
}

/// Identification candidates: supplied routing, or one flow per link
/// (the `flow` column then degenerates to "most anomalous link").
fn routing_of(flags: &HashMap<&str, &str>, num_links: usize) -> Result<RoutingMatrix, String> {
    match flags.get("paths") {
        Some(p) => load_paths(p, num_links),
        None => Ok(RoutingMatrix::identity(num_links)),
    }
}

/// Human-readable refit schedule for the online banners.
fn refit_label(refit_every: Option<usize>, strategy: RefitStrategy) -> String {
    match (refit_every, strategy) {
        (None, _) => "never".to_string(),
        (Some(k), RefitStrategy::FullSvd) => format!("every {k} (full)"),
        (Some(k), RefitStrategy::Incremental) => format!("every {k} (incremental)"),
        (Some(k), RefitStrategy::Truncated { k: top, .. }) => {
            format!("every {k} (truncated top-{top})")
        }
    }
}

/// The alarm CSV the online verbs print on stdout: the header row when
/// it opens, then one line per detected report, bins offset by the
/// training prefix length. Each block's lines go out in one write and
/// one flush; a failed write (a closed pipe, a full disk) is a
/// `writing stdout: …` error, not a panic.
///
/// Detection-only methods (the temporal backends) carry no
/// identification — their flow/bytes/fraction columns print `-`.
struct AlarmCsv<'a> {
    out: &'a mut dyn Write,
    train_bins: usize,
    alarms: usize,
    /// The lines of the block being printed, reused from block to block.
    rows: String,
}

impl<'a> AlarmCsv<'a> {
    /// Print the header and flush it at once: it is a live consumer's
    /// sign that the model is trained.
    fn open(out: &'a mut dyn Write, train_bins: usize) -> Result<Self, String> {
        let mut csv = AlarmCsv {
            out,
            train_bins,
            alarms: 0,
            rows: "bin,spe,threshold,flow,estimated_bytes,explained_fraction\n".to_string(),
        };
        csv.write_rows()?;
        Ok(csv)
    }

    /// Print the alarms among one block's reports.
    fn emit(&mut self, reports: &[DiagnosisReport]) -> Result<(), String> {
        for rep in reports.iter().filter(|r| r.detected) {
            self.alarms += 1;
            // The shared payload formatter keeps these lines byte-identical
            // to the `alarm` events `netanom serve` emits.
            self.rows
                .push_str(&netanom_serve::alarm_csv_row(rep, self.train_bins));
            self.rows.push('\n');
        }
        if self.rows.is_empty() {
            return Ok(());
        }
        self.write_rows()
    }

    /// Write and flush the buffered lines, and empty the buffer.
    fn write_rows(&mut self) -> Result<(), String> {
        let written = self
            .out
            .write_all(self.rows.as_bytes())
            .and_then(|()| self.out.flush());
        self.rows.clear();
        written.map_err(|e| format!("writing stdout: {e}"))
    }
}

/// The `# trained …` banner of the online commands: the subspace method
/// (`normal_dim` is `Some`) reports its normal dimension and Q-statistic
/// threshold; every other method reports its calibrated residual-energy
/// threshold. `deployment` names the shards or workers, if any.
fn online_banner(
    backend: &dyn DetectionBackend,
    normal_dim: Option<usize>,
    cfg: &EngineConfig,
    deployment: &str,
) {
    let suffix = format!(
        "{deployment}, refit = {}",
        refit_label(cfg.refit_every(), cfg.strategy())
    );
    let (train_bins, m) = (cfg.train_bins(), backend.dim());
    let percent = cfg.confidence() * 100.0;
    let threshold = backend.threshold();
    match normal_dim {
        Some(r) => eprintln!(
            "# trained on {train_bins} bins x {m} links; method = subspace, r = {r}, \
             delta^2({percent:.2}%) = {threshold:.6e}{suffix}",
        ),
        None => eprintln!(
            "# trained on {train_bins} bins x {m} links; method = {}, \
             energy threshold({percent:.2}%) = {threshold:.6e}{suffix}",
            backend.name(),
        ),
    }
}

/// The banner's `; K shards (a/b/c links each)` clause.
fn deployment_label(noun: &str, partition: &LinkPartition) -> String {
    let sizes: Vec<String> = partition
        .groups()
        .iter()
        .map(|g| g.len().to_string())
        .collect();
    format!(
        "; {} {noun} ({} links each)",
        partition.num_shards(),
        sizes.join("/")
    )
}

/// The engine flags of the online verbs, shared by `stream`, `shard`
/// and `tracker`: the input, the routing, and the [`EngineConfig`]
/// options but `--method` (the tracker runs the subspace method only).
const ENGINE_FLAGS: [&str; 8] = [
    "links",
    "paths",
    "confidence",
    "train-bins",
    "window",
    "refit-every",
    "refit",
    "chunk",
];

/// The engine flags plus a verb's own.
fn flags_with(own: &[&'static str]) -> Vec<&'static str> {
    [&ENGINE_FLAGS[..], own].concat()
}

/// Read the training prefix of `--links`.
fn training_rows(
    chunks: &mut LinkChunks,
    cfg: &EngineConfig,
    links_arg: &str,
) -> Result<netanom_linalg::Matrix, String> {
    chunks
        .take_rows(cfg.train_bins())
        .map_err(|e| format!("reading {links_arg} training rows: {e}"))
}

/// `netanom stream --links FILE|- --train-bins N [--method NAME]
/// [--paths FILE] [--confidence C] [--window N] [--refit-every K]
/// [--refit full|incremental|truncated] [--chunk B]`
///
/// Consume a link-measurement CSV (a file, or stdin with `--links -`) in
/// chunks: train the selected method (default: subspace; see
/// `netanom --list-methods`) on the first `--train-bins` rows, then
/// stream the rest through the
/// [`StreamingEngine`](netanom_core::stream::StreamingEngine), printing one CSV
/// line per alarm *as the chunk containing it is processed* — the whole
/// series is never materialized.
///
/// Without `--paths`, each link is treated as its own candidate flow, so
/// the `flow` column degenerates to "most anomalous link". The temporal
/// methods detect but do not identify; their flow columns print `-`.
/// The alarm CSV goes to `out` (the binary's stdout).
pub fn stream(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = parse_flags(args, &flags_with(&["method"]))?;
    let links_arg = require(&flags, "links")?;
    let cfg = engine_config_of(&flags, RefitStrategy::FullSvd)?;

    let chunks = traffic_io::CsvChunks::new(open_links_reader(links_arg)?, cfg.chunk())
        .map_err(|e| format!("reading {links_arg}: {e}"))?;
    let rm = routing_of(&flags, chunks.num_links())?;
    stream_engine(&cfg, chunks, &rm, links_arg, out)
}

/// `netanom stream`'s engine, and `netanom shard`'s for a method with
/// nothing to merge: train on the first `--train-bins` rows, print the
/// banner, run the
/// [`StreamingEngine`](netanom_core::stream::StreamingEngine) over the
/// rest and print the summary.
fn stream_engine(
    cfg: &EngineConfig,
    mut chunks: LinkChunks,
    rm: &RoutingMatrix,
    links_arg: &str,
    out: &mut dyn Write,
) -> Result<(), String> {
    // The boundary chunk's overflow stays buffered inside `chunks` and
    // streams first.
    let training = training_rows(&mut chunks, cfg, links_arg)?;
    let mut engine = build_streaming(cfg, &training, rm)?;
    online_banner(
        engine.backend(),
        engine
            .backend()
            .as_subspace()
            .map(|b| b.diagnoser().model().normal_dim()),
        cfg,
        "",
    );
    let (alarms, elapsed) = run_streaming(chunks, cfg.train_bins(), links_arg, out, |block| {
        engine.process_batch(block)
    })?;
    let arrivals = engine.arrivals();
    eprintln!(
        "{alarms} alarms in {arrivals} streamed bins; {} refits; {:.0} arrivals/sec",
        engine.refits(),
        arrivals as f64 / elapsed.max(1e-9),
    );
    Ok(())
}

/// The one ingest loop of the online verbs: print the alarm CSV's
/// header on `out`, then hand every block `chunks` has left to `step`
/// (an engine's batch call) and print its alarms. Returns the alarm
/// count and the loop's seconds.
///
/// The blocks are read one ahead on a thread named `csv-read`, so block
/// k+1 is cut and converted (on two cores, where `CsvChunks` splits a
/// round) while `step` runs block k. Each block, or the read error that
/// ends them, crosses a rendezvous channel in file order, so the reader
/// holds at most one converted block and hands it over the moment this
/// loop asks: a live feed's block is never held back. The engine, the
/// alarm rows and every error message stay on this thread; a bad row's
/// error arrives after the alarms of every block before it. Over
/// alternated `benchmark/run.sh --seed 7 --seconds 8` pairs against the
/// serial loop on a 2-vCPU Xeon, the median `arrivals_per_s` rose 15 %
/// on `wide256` (10 of 10 pairs won) and 13 % on `refit121` (8 of 8);
/// `scan121` and `shard121` stayed within noise. One-row blocks
/// (`--chunk 1`) pay a thread handoff per row and ran 4–13 % slower.
///
/// An engine or write error returns at once without joining the reader,
/// which may be parked on a live stdin; it ends when its next send finds
/// the receiver gone, or with the process. The normal end of input
/// joins it.
fn run_streaming(
    chunks: LinkChunks,
    train_bins: usize,
    links_arg: &str,
    out: &mut dyn Write,
    mut step: impl FnMut(&netanom_linalg::Matrix) -> netanom_core::Result<Vec<DiagnosisReport>>,
) -> Result<(usize, f64), String> {
    let mut csv = AlarmCsv::open(out, train_bins)?;
    let start = std::time::Instant::now();
    let (send, blocks) = mpsc::sync_channel(0);
    let reader = thread::Builder::new()
        .name("csv-read".to_string())
        .spawn(move || {
            // `CsvChunks` is fused: its iteration ends after an error.
            for block in chunks {
                if send.send(block).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| format!("reading {links_arg}: starting the reader thread: {e}"))?;
    for block in blocks {
        let block = block.map_err(|e| format!("reading {links_arg}: {e}"))?;
        csv.emit(&step(&block).map_err(|e| e.to_string())?)?;
    }
    reader
        .join()
        .map_err(|_| format!("reading {links_arg}: the reader thread panicked"))?;
    Ok((csv.alarms, start.elapsed().as_secs_f64()))
}

/// Parse an optional shard/worker-count flag (`--shards`, `--workers`).
fn shard_count_of(flags: &HashMap<&str, &str>, name: &str) -> Result<Option<usize>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&k| k > 0)
            .map(Some)
            .ok_or_else(|| format!("--{name} must be a positive integer")),
    }
}

/// What `shard` and `tracker` set up alike before they differ: the
/// engine configuration (defaulting to incremental refits — mergeable
/// statistics are the point of a partitioned deployment), the chunked
/// `--links` reader, the partition resolved over its link count, and
/// the routing. `count` is the `--{count_flag}` shard count, if given.
fn open_partitioned(
    flags: &HashMap<&str, &str>,
    count: Option<usize>,
    count_flag: &str,
) -> Result<(EngineConfig, LinkChunks, LinkPartition, RoutingMatrix), String> {
    let links_arg = require(flags, "links")?;
    let spec = partition_spec_of(flags, count, count_flag)?;
    let cfg = engine_config_of(flags, RefitStrategy::Incremental)?;
    let chunks = traffic_io::CsvChunks::new(open_links_reader(links_arg)?, cfg.chunk())
        .map_err(|e| format!("reading {links_arg}: {e}"))?;
    let m = chunks.num_links();
    if spec.num_shards() > m {
        return Err(format!(
            "--{count_flag} {} exceeds the {m} links in the CSV",
            spec.num_shards()
        ));
    }
    let partition = spec.resolve(m).map_err(|e| format!("partitioning: {e}"))?;
    let rm = routing_of(flags, m)?;
    Ok((cfg, chunks, partition, rm))
}

/// `netanom shard --links FILE|- --train-bins N --shards K
/// [--method NAME] [--paths FILE] [--confidence C] [--window N]
/// [--refit-every K] [--refit full|incremental|truncated]
/// [--chunk B] [--partition round-robin|per-pop|explicit]
/// [--dataset NAME] [--partition-file FILE]`
///
/// The sharded online path of the subspace method: the link set is
/// partitioned into shards (`--partition round-robin` over `--shards K`
/// by default; `per-pop` groups by the `--dataset` topology's PoPs;
/// `explicit` reads a `shard,links` CSV), the link CSV is consumed in
/// the chunks `netanom stream` reads, and each shard ingests its links'
/// columns of every chunk — statistics rows and partial SPEs — while the
/// coordinator keeps the window, merges, detects, identifies, and (on
/// the refit cadence) rebuilds the global model from the merged shard
/// statistics. Detections are bitwise the ones `netanom stream` would
/// print.
///
/// A temporal `--method` scores each link on its own, so a partition
/// gives it nothing to merge: the flags are validated as for the
/// subspace method, a `# note:` says so, and the series runs through
/// `netanom stream`'s engine and loop, printing exactly what `stream`
/// prints.
///
/// Defaults to `--refit incremental`: mergeable sufficient statistics
/// are the point of the sharded deployment. The alarm CSV goes to `out`.
pub fn shard(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &flags_with(&["shards", "method", "partition", "dataset", "partition-file"]),
    )?;
    let links_arg = require(&flags, "links")?;
    let (cfg, mut chunks, partition, rm) =
        open_partitioned(&flags, shard_count_of(&flags, "shards")?, "shards")?;
    if MethodName::parse(cfg.method())? != MethodName::Subspace {
        eprintln!(
            "# note: --method {} has nothing to merge across shards; \
             running it unsharded on the streaming engine",
            cfg.method()
        );
        return stream_engine(&cfg, chunks, &rm, links_arg, out);
    }

    let training = training_rows(&mut chunks, &cfg, links_arg)?;
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, cfg.diagnoser_config(), cfg.strategy())
            .map_err(|e| format!("fitting subspace model: {e}"))?;
    online_banner(
        &backend,
        Some(backend.diagnoser().model().normal_dim()),
        &cfg,
        &deployment_label("shards", &partition),
    );
    let mut engine =
        ShardedEngine::with_backend(backend, &training, cfg.stream_config(), &partition)
            .map_err(|e| format!("assembling subspace engine: {e}"))?;
    let (alarms, elapsed) = run_streaming(chunks, cfg.train_bins(), links_arg, out, |block| {
        engine.process_batch(block)
    })?;
    let arrivals = engine.arrivals();
    eprintln!(
        "{alarms} alarms in {arrivals} streamed bins; {} merges+refits ({:.1} ms); {:.0} arrivals/sec",
        engine.refits(),
        engine.refit_seconds() * 1e3,
        arrivals as f64 / elapsed.max(1e-9),
    );
    Ok(())
}

/// The mandatory `--workers` of the distributed verbs.
fn required_workers(flags: &HashMap<&str, &str>) -> Result<usize, String> {
    shard_count_of(flags, "workers")?.ok_or_else(|| "--workers is required".to_string())
}

/// Parse a positive whole-second duration flag with a default.
fn seconds_of(
    flags: &HashMap<&str, &str>,
    name: &str,
    default_secs: u64,
) -> Result<std::time::Duration, String> {
    match flags.get(name) {
        None => Ok(std::time::Duration::from_secs(default_secs)),
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .map(std::time::Duration::from_secs)
            .ok_or_else(|| {
                format!("--{name} must be a positive whole number of seconds, got {s:?}")
            }),
    }
}

/// `netanom tracker --listen ADDR --links FILE|- --train-bins N
/// --workers K [--paths FILE] [--confidence C] [--window N]
/// [--refit-every K] [--refit full|incremental|truncated]
/// [--chunk B] [--join-timeout S] [--read-timeout S]
/// [--partition round-robin|per-pop|explicit] [--dataset NAME]
/// [--partition-file FILE]`
///
/// The tracker side of the distributed deployment: fit the subspace
/// method on the first `--train-bins` rows of `--links` (every worker
/// reads the same series locally), bind `--listen`, wait for all
/// `--workers` shards to join, then run the join-and-dispatch loop —
/// phase-A partials in, merged coefficients out, refits on the cadence,
/// model broadcasts back. Alarm output is byte-identical to
/// `netanom shard --shards K` over the same series and options, because
/// the protocol is bitwise-parity with the in-process engine by
/// construction (the distributed method is subspace-only).
///
/// The partition (default round-robin over `--workers`) must be the
/// same at every worker: a worker joining with a different link set is
/// rejected at the join handshake.
///
/// The bound address is announced as `# listening on ADDR` on stderr
/// before any worker is awaited, so `--listen 127.0.0.1:0` runs can
/// discover the ephemeral port. The alarm CSV goes to `out`; a write
/// that fails there is reported once the workers are released.
pub fn tracker(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &flags_with(&[
            "listen",
            "workers",
            "join-timeout",
            "read-timeout",
            "partition",
            "dataset",
            "partition-file",
        ]),
    )?;
    let listen = require(&flags, "listen")?;
    let links_arg = require(&flags, "links")?;
    let workers = required_workers(&flags)?;
    let (engine_cfg, mut chunks, partition, rm) =
        open_partitioned(&flags, Some(workers), "workers")?;
    // Only the training prefix is read here — the streamed rows live at
    // the workers; the tracker never sees a measurement row again.
    let training = training_rows(&mut chunks, &engine_cfg, links_arg)?;

    let backend = netanom_core::SubspaceBackend::fit_sharded(
        &training,
        &rm,
        engine_cfg.diagnoser_config(),
        engine_cfg.strategy(),
    )
    .map_err(|e| format!("fitting model: {e}"))?;

    let mut cfg =
        netanom_net::TrackerConfig::new(engine_cfg.train_bins(), engine_cfg.stream_config());
    cfg.chunk = engine_cfg.chunk();
    cfg.join_timeout = seconds_of(&flags, "join-timeout", 30)?;
    cfg.read_timeout = seconds_of(&flags, "read-timeout", 30)?;
    let mut tracker = netanom_net::Tracker::bind(listen, backend, &partition, cfg)
        .map_err(|e| format!("binding {listen}: {e}"))?;

    let addr = tracker.local_addr().map_err(|e| e.to_string())?;
    eprintln!("# listening on {addr}");
    online_banner(
        tracker.backend_ref(),
        Some(tracker.backend_ref().diagnoser().model().normal_dim()),
        &engine_cfg,
        &deployment_label("workers", &partition),
    );
    let mut csv = AlarmCsv::open(out, engine_cfg.train_bins())?;

    let start = std::time::Instant::now();
    let mut written = Ok(());
    let summary = tracker
        .run(|block| {
            if written.is_ok() {
                written = csv.emit(block);
            }
        })
        .map_err(|e| format!("tracker run: {e}"))?;
    written?;
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "{} alarms in {} streamed bins; {} merges+refits; {} worker rejoins; {:.0} arrivals/sec",
        csv.alarms,
        summary.arrivals,
        summary.refits,
        summary.rejoins.len(),
        summary.arrivals as f64 / elapsed.max(1e-9),
    );
    Ok(())
}

/// `netanom worker --connect ADDR --links FILE|- --train-bins N
/// --workers K --shard S [--checkpoint FILE] [--retries N]
/// [--read-timeout S] [--partition round-robin|per-pop|explicit]
/// [--dataset NAME] [--partition-file FILE]`
///
/// One shard of the distributed deployment: read the measurement series
/// locally (the training prefix warms the shard state, the rest streams
/// on the tracker's cadence), own shard `S` of the partition of `K`
/// (round-robin by default; the `--partition` flags must match the
/// tracker's, or the join handshake rejects this worker's link set),
/// and serve phase A/B rounds until the tracker says done. With
/// `--checkpoint`, every completed round is persisted atomically, so a
/// killed worker restarted with the same flags resumes mid-stream and
/// rejoins without warmup.
pub fn worker(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "connect",
            "links",
            "train-bins",
            "workers",
            "shard",
            "checkpoint",
            "retries",
            "read-timeout",
            "partition",
            "dataset",
            "partition-file",
        ],
    )?;
    let connect = require(&flags, "connect")?;
    let links_arg = require(&flags, "links")?;
    let train_bins = required_train_bins(&flags)?;
    let workers = required_workers(&flags)?;
    let shard: usize = require(&flags, "shard")?
        .parse()
        .map_err(|_| "--shard must be an integer".to_string())?;
    if shard >= workers {
        return Err(format!(
            "--shard {shard} out of range for --workers {workers}"
        ));
    }
    let spec = partition_spec_of(&flags, Some(workers), "workers")?;

    let chunks = traffic_io::CsvChunks::new(open_links_reader(links_arg)?, 144)
        .map_err(|e| format!("reading {links_arg}: {e}"))?;
    let m = chunks.num_links();
    if workers > m {
        return Err(format!(
            "--workers {workers} exceeds the {m} links in the CSV"
        ));
    }
    let partition = spec.resolve(m).map_err(|e| format!("partitioning: {e}"))?;

    let mut cfg = netanom_net::WorkerConfig::new(shard, workers, train_bins);
    cfg.read_timeout = seconds_of(&flags, "read-timeout", 30)?;
    if let Some(path) = flags.get("checkpoint") {
        cfg.checkpoint = Some(PathBuf::from(path));
    }
    if let Some(s) = flags.get("retries") {
        cfg.retries = s
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--retries must be a positive integer, got {s:?}"))?;
    }

    let summary = netanom_net::run_worker(connect, chunks, partition.group(shard), &cfg)
        .map_err(|e| format!("worker {shard}/{workers}: {e}"))?;
    eprintln!(
        "# worker {shard}/{workers}: {} streamed bins in {} rounds; {} rejoins",
        summary.arrivals, summary.rounds, summary.rejoins,
    );
    Ok(())
}

/// `netanom serve [--listen ADDR] [--read-timeout S] [--max-conns N]`
///
/// The persistent diagnosis daemon: a long-running engine speaking the
/// newline-framed session protocol (see `netanom-serve`) over
/// stdin/stdout, or — with `--listen` — over a TCP socket. Clients
/// `open` named engine configurations, feed interleaved `obs` rows
/// through bounded per-session queues (a full queue answers `busy`),
/// receive `alarm` events as they fire, and may `checkpoint`/`restore`
/// sessions bitwise mid-stream. `stats` reports per-session arrival
/// rates and alarm counts.
///
/// TCP clients are served sequentially and sessions persist across
/// connections; `--max-conns N` exits after `N` clients (for scripted
/// runs), and `--read-timeout S` disconnects a client idle for `S`
/// seconds. The bound address is announced as `# listening on ADDR` on
/// stderr, so `--listen 127.0.0.1:0` runs can discover the ephemeral
/// port.
pub fn serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["listen", "read-timeout", "max-conns"])?;
    let mut service = netanom_serve::Service::new();
    match flags.get("listen") {
        None => {
            if flags.contains_key("read-timeout") || flags.contains_key("max-conns") {
                return Err("--read-timeout and --max-conns apply only with --listen".to_string());
            }
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            netanom_serve::serve_lines(&mut service, stdin.lock(), stdout.lock())
                .map_err(|e| format!("stdio transport: {e}"))
        }
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("# listening on {local}");
            let mut options = netanom_serve::TcpServeOptions::default();
            if flags.contains_key("read-timeout") {
                options.read_timeout = Some(seconds_of(&flags, "read-timeout", 30)?);
            }
            if let Some(s) = flags.get("max-conns") {
                options.max_connections =
                    Some(s.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--max-conns must be a positive integer, got {s:?}")
                    })?);
            }
            netanom_serve::serve_tcp(&mut service, &listener, &options)
                .map_err(|e| format!("serving {local}: {e}"))
        }
    }
}

/// `netanom eval (--list | ID... ) [--out DIR]`
///
/// The experiment registry from `netanom-eval`: `--list` enumerates
/// every table/figure/scenario id (including `streaming` and `sharded`);
/// naming ids (or `all`) regenerates them under `--out`
/// (default `target/paper`).
pub fn eval(args: &[String]) -> Result<(), String> {
    use netanom_eval::experiments::{self, EXPERIMENT_IDS};
    use netanom_eval::lab::Lab;

    let mut out_dir = PathBuf::from("target/paper");
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                return Ok(());
            }
            "--out" => {
                out_dir = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--out requires a directory".to_string())?,
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return Err("eval needs --list or at least one experiment id (or `all`)".to_string());
    }
    let ids = experiments::resolve_ids(&ids)?;
    // The drivers assume a writable output directory; validate it here
    // so a bad --out is a clean CLI error, not a driver panic.
    fs::create_dir_all(&out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let probe = out_dir.join(".netanom-eval-writable");
    fs::write(&probe, b"").map_err(|e| format!("writing to {}: {e}", out_dir.display()))?;
    fs::remove_file(&probe).ok();
    eprintln!("loading datasets and fitting models…");
    let lab = Lab::load();
    for id in &ids {
        let output = experiments::run_by_id(id, &lab, &out_dir).expect("id validated above");
        println!("=== {} ({}) ===", output.title, output.id);
        println!("{}", output.rendered);
        for f in &output.files {
            eprintln!("  wrote {}", f.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::io;

    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// `stream` with its alarm CSV dropped.
    fn stream(args: &[String]) -> Result<(), String> {
        super::stream(args, &mut io::sink())
    }

    /// `shard` with its alarm CSV dropped.
    fn shard(args: &[String]) -> Result<(), String> {
        super::shard(args, &mut io::sink())
    }

    #[test]
    fn flag_parsing_basics() {
        let args = s(&["--links", "a.csv", "--confidence", "0.99"]);
        let flags = parse_flags(&args, &["links", "confidence"]).unwrap();
        assert_eq!(flags["links"], "a.csv");
        assert_eq!(confidence_of(&flags).unwrap(), 0.99);
    }

    #[test]
    fn flag_errors() {
        assert!(parse_flags(&s(&["stray"]), &["links"]).is_err());
        assert!(parse_flags(&s(&["--nope", "x"]), &["links"]).is_err());
        assert!(parse_flags(&s(&["--links"]), &["links"]).is_err());
        assert!(parse_flags(&s(&["--links", "a", "--links", "b"]), &["links"]).is_err());
    }

    #[test]
    fn confidence_validation() {
        for bad in ["0", "1", "1.5", "abc", "-0.1"] {
            let args = s(&["--confidence", bad]);
            let flags = parse_flags(&args, &["confidence"]).unwrap();
            assert!(confidence_of(&flags).is_err(), "accepted {bad}");
        }
        let empty: Vec<String> = vec![];
        let flags = parse_flags(&empty, &["confidence"]).unwrap();
        assert_eq!(confidence_of(&flags).unwrap(), 0.999);
    }

    #[test]
    fn train_bins_validation() {
        let args = s(&["--train-bins", "50"]);
        let flags = parse_flags(&args, &["train-bins"]).unwrap();
        assert_eq!(train_bins_of(&flags, 100).unwrap(), 50);
        assert!(train_bins_of(&flags, 40).is_err());
        let bad = s(&["--train-bins", "0"]);
        let flags = parse_flags(&bad, &["train-bins"]).unwrap();
        assert!(train_bins_of(&flags, 100).is_err());
    }

    #[test]
    fn simulate_then_diagnose_end_to_end() {
        let dir = std::env::temp_dir().join("netanom-cli-test");
        let _ = fs::remove_dir_all(&dir);
        simulate(&s(&[
            "--dataset",
            "mini",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(dir.join("links.csv").exists());
        assert!(dir.join("paths.csv").exists());
        assert!(dir.join("truth.csv").exists());

        // Full diagnose on the exported files.
        let out = dir.join("report.csv");
        diagnose(&s(&[
            "--links",
            dir.join("links.csv").to_str().unwrap(),
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let report = fs::read_to_string(&out).unwrap();
        assert!(report.starts_with("time,spe,threshold,flow"));
        // The mini dataset embeds anomalies; at least one should be found.
        assert!(report.lines().count() > 1, "no anomalies reported");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_runs_chunked_over_simulated_data() {
        let dir = std::env::temp_dir().join("netanom-cli-stream");
        let _ = fs::remove_dir_all(&dir);
        simulate(&s(&[
            "--dataset",
            "mini",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let links = dir.join("links.csv");
        let paths = dir.join("paths.csv");
        // Full routing, incremental refits, chunk smaller than the
        // refit cadence so refits land mid-stream.
        stream(&s(&[
            "--links",
            links.to_str().unwrap(),
            "--paths",
            paths.to_str().unwrap(),
            "--train-bins",
            "216",
            "--refit-every",
            "24",
            "--refit",
            "incremental",
            "--chunk",
            "17",
        ]))
        .unwrap();
        // Detection-only fallback: no --paths, full refits.
        stream(&s(&[
            "--links",
            links.to_str().unwrap(),
            "--train-bins",
            "216",
            "--refit-every",
            "48",
        ]))
        .unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_runs_chunked_over_simulated_data() {
        let dir = std::env::temp_dir().join("netanom-cli-shard");
        let _ = fs::remove_dir_all(&dir);
        simulate(&s(&[
            "--dataset",
            "mini",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let links = dir.join("links.csv");
        let paths = dir.join("paths.csv");
        // Full routing, merged incremental refits landing mid-chunk.
        shard(&s(&[
            "--links",
            links.to_str().unwrap(),
            "--paths",
            paths.to_str().unwrap(),
            "--train-bins",
            "216",
            "--shards",
            "3",
            "--refit-every",
            "24",
            "--chunk",
            "17",
        ]))
        .unwrap();
        // Detection-only fallback with full refits.
        shard(&s(&[
            "--links",
            links.to_str().unwrap(),
            "--train-bins",
            "216",
            "--shards",
            "2",
            "--refit",
            "full",
            "--refit-every",
            "48",
        ]))
        .unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_and_shard_run_truncated_refits() {
        let dir = std::env::temp_dir().join("netanom-cli-truncated");
        let _ = fs::remove_dir_all(&dir);
        simulate(&s(&[
            "--dataset",
            "mini",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let links = dir.join("links.csv");
        let l = links.to_str().unwrap();
        stream(&s(&[
            "--links",
            l,
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
            "--train-bins",
            "216",
            "--refit-every",
            "24",
            "--refit",
            "truncated",
            "--chunk",
            "17",
        ]))
        .unwrap();
        shard(&s(&[
            "--links",
            l,
            "--train-bins",
            "216",
            "--shards",
            "3",
            "--refit-every",
            "24",
            "--refit",
            "truncated",
        ]))
        .unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_validates_flags() {
        let dir = std::env::temp_dir().join("netanom-cli-shard-bad");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let links = dir.join("links.csv");
        fs::write(&links, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let l = links.to_str().unwrap();

        let err = shard(&s(&["--links", l, "--train-bins", "2"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = shard(&s(&["--links", l, "--train-bins", "2", "--shards", "0"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = shard(&s(&["--links", l, "--train-bins", "2", "--shards", "5"])).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let err = shard(&s(&[
            "--links",
            l,
            "--train-bins",
            "2",
            "--shards",
            "2",
            "--refit",
            "sometimes",
        ]))
        .unwrap_err();
        assert!(err.contains("full|incremental"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_and_shard_run_every_method_over_simulated_data() {
        let dir = std::env::temp_dir().join("netanom-cli-methods");
        let _ = fs::remove_dir_all(&dir);
        simulate(&s(&[
            "--dataset",
            "mini",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let links = dir.join("links.csv");
        let l = links.to_str().unwrap();
        for method in METHOD_NAMES {
            stream(&s(&[
                "--links",
                l,
                "--train-bins",
                "216",
                "--method",
                method,
                "--refit-every",
                "36",
                "--chunk",
                "17",
            ]))
            .unwrap_or_else(|e| panic!("stream --method {method}: {e}"));
            shard(&s(&[
                "--links",
                l,
                "--train-bins",
                "216",
                "--shards",
                "3",
                "--method",
                method,
                "--refit-every",
                "36",
            ]))
            .unwrap_or_else(|e| panic!("shard --method {method}: {e}"));
        }
        // Offline diagnosis with a temporal method writes `-` id columns.
        let out = dir.join("ewma-report.csv");
        diagnose(&s(&[
            "--links",
            l,
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
            "--train-bins",
            "216",
            "--method",
            "ewma",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let report = fs::read_to_string(&out).unwrap();
        assert!(report.starts_with("time,spe,threshold,flow"));
        for line in report.lines().skip(1) {
            assert!(line.ends_with(",-,-,-"), "temporal line: {line}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diagnose_with_temporal_method_requires_a_training_split() {
        let dir = std::env::temp_dir().join("netanom-cli-temporal-split");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let links = dir.join("links.csv");
        fs::write(&links, "a,b\n1,2\n3,4\n5,6\n7,8\n").unwrap();
        fs::write(dir.join("paths.csv"), "flow,links\n0,0\n1,1\n").unwrap();
        // Without --train-bins the prefix would swallow the whole
        // series, leaving nothing for a temporal forecaster to score —
        // that must be a clear error, not an empty report.
        let err = diagnose(&s(&[
            "--links",
            links.to_str().unwrap(),
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
            "--method",
            "ewma",
        ]))
        .unwrap_err();
        assert!(err.contains("--train-bins"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_method_errors_with_the_valid_set() {
        let dir = std::env::temp_dir().join("netanom-cli-badmethod");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let links = dir.join("links.csv");
        fs::write(&links, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let l = links.to_str().unwrap();
        for cmd in [stream, diagnose] as [fn(&[String]) -> Result<(), String>; 2] {
            let err = cmd(&s(&[
                "--links",
                l,
                "--paths",
                l, // unused before method validation
                "--train-bins",
                "2",
                "--method",
                "kalman",
            ]))
            .unwrap_err();
            assert!(err.contains("kalman"), "{err}");
            for known in METHOD_NAMES {
                assert!(err.contains(known), "error must list {known}: {err}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_lists_ids_and_rejects_unknown_ones() {
        // --list is cheap (no Lab construction).
        eval(&s(&["--list"])).unwrap();
        let err = eval(&s(&["fig99"])).unwrap_err();
        assert!(err.contains("unknown experiment id"), "{err}");
        assert!(
            err.contains("sharded"),
            "unknown-id error must list ids: {err}"
        );
        assert!(err.contains("streaming"), "{err}");
        let err = eval(&s(&[])).unwrap_err();
        assert!(err.contains("--list"), "{err}");
        let err = eval(&s(&["--out"])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = eval(&s(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn stream_validates_flags_and_input_length() {
        let dir = std::env::temp_dir().join("netanom-cli-stream-bad");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let links = dir.join("links.csv");
        fs::write(&links, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let l = links.to_str().unwrap();

        let err = stream(&s(&["--links", l, "--train-bins", "10"])).unwrap_err();
        assert!(err.contains("training rows"), "{err}");
        let err = stream(&s(&["--links", l])).unwrap_err();
        assert!(err.contains("train-bins"), "{err}");
        let err = stream(&s(&[
            "--links",
            l,
            "--train-bins",
            "2",
            "--refit",
            "sometimes",
        ]))
        .unwrap_err();
        assert!(err.contains("full|incremental"), "{err}");
        let err = stream(&s(&["--links", l, "--train-bins", "2", "--chunk", "0"])).unwrap_err();
        assert!(err.contains("--chunk"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A live feed: the bytes the test sends, then a read that waits
    /// until the test drops its sender.
    struct Feed {
        bytes: mpsc::Receiver<Vec<u8>>,
        unread: io::Cursor<Vec<u8>>,
    }

    impl io::Read for Feed {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            while self.unread.position() == self.unread.get_ref().len() as u64 {
                match self.bytes.recv() {
                    Ok(bytes) => self.unread = io::Cursor::new(bytes),
                    Err(_) => return Ok(0),
                }
            }
            self.unread.read(buf)
        }
    }

    #[test]
    fn an_engine_error_returns_while_the_reader_waits_on_a_live_feed() {
        let (feed, bytes) = mpsc::channel();
        feed.send(b"a,b\n1,2\n3,4\n".to_vec()).unwrap();
        let reader: Box<dyn BufRead + Send> = Box::new(BufReader::new(Feed {
            bytes,
            unread: io::Cursor::default(),
        }));
        let chunks = traffic_io::CsvChunks::new(reader, 1).unwrap();
        let (done, result) = mpsc::channel();
        let runner = thread::spawn(move || {
            let mut out = Vec::new();
            let mut steps = 0;
            let ran = run_streaming(chunks, 0, "feed", &mut out, |_| {
                steps += 1;
                match steps {
                    1 => Ok(Vec::new()),
                    _ => Err(netanom_core::CoreError::DimensionMismatch {
                        expected: 3,
                        got: 2,
                    }),
                }
            });
            done.send((ran, steps, out)).unwrap();
        });
        // Once it has sent the second block the reader waits for a third
        // row that never comes; the loop must not wait for it.
        let (ran, steps, out) = result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_streaming returned while its reader was blocked");
        runner.join().unwrap();
        let want = netanom_core::CoreError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert_eq!(ran.unwrap_err(), want.to_string());
        assert_eq!(steps, 2);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "bin,spe,threshold,flow,estimated_bytes,explained_fraction\n"
        );
        // Ending the feed lets the reader finish.
        drop(feed);
    }

    #[test]
    fn diagnose_rejects_out_of_range_paths() {
        let dir = std::env::temp_dir().join("netanom-cli-badpaths");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("links.csv"), "a,b\n1,2\n3,4\n5,6\n").unwrap();
        fs::write(dir.join("paths.csv"), "flow,links\n0,5\n").unwrap();
        let err = diagnose(&s(&[
            "--links",
            dir.join("links.csv").to_str().unwrap(),
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("references link"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
