//! `ledger` — the performance ledger of the netanom workspace.
//!
//! ```text
//! ledger gen --seed N [--smoke] --out DIR
//! ledger run --workload W --seed N --seconds S --trace 0|1 --bin NETANOM --out DIR
//! ledger all [--seed N] [--laps N] [--smoke] --bin NETANOM --out DIR
//! ```
//!
//! `run` measures one workload for `--seconds` and prints one JSON
//! object as its last line: the end-to-end metrics from untraced laps
//! of the release binary (`--trace 0`), or the per-layer metrics from
//! the traced in-process run (`--trace 1`). `all` runs every workload,
//! laps interleaved round-robin, then one traced run each, prints every
//! metric as `workload metric value unit` and writes the results file.
//! `benchmark/run.sh` builds both binaries and calls one or the other.

mod check;
mod e2e;
mod gen;
mod host;
mod json;
mod span;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{differing_rows, DetectCounts, Truth};
use e2e::{serve_lap, stream_lap, Lap, ServeScript};
use gen::{ensure_series, SeriesFiles};
use json::Json;
use stats::{highest_supported_percentile, median, percentile, summarize};
use traced::{traced_run, Metrics, Traced};
use workload::{
    workload_named, Sizes, Verb, Workload, END_TO_END, EXACT_COUNTS, FULL_SIZES, PER_LAYER,
    SMOKE_SIZES, WORKLOADS,
};

/// Laps per workload in `all` unless `--laps` says otherwise: every
/// lap is under five seconds, where five laps are the minimum.
const DEFAULT_LAPS: usize = 7;
/// Binary laps beside each traced run: `serve` needs four for the 100
/// stall samples its p90 stands on.
const fn traced_binary_laps(verb: Verb) -> usize {
    match verb {
        Verb::Serve => 4,
        Verb::Stream | Verb::Shard => 1,
    }
}

struct Options {
    seed: u64,
    sizes: Sizes,
    smoke: bool,
    bin: PathBuf,
    out: PathBuf,
    threads: usize,
}

impl Options {
    fn data_dir(&self) -> PathBuf {
        self.out.join("data").join(self.seed.to_string())
    }
}

/// One workload with its inputs generated and its reference computed.
struct Prepared {
    w: &'static Workload,
    files: SeriesFiles,
    truth: Truth,
    /// The same alarm rows from the other verb (see
    /// [`Workload::reference_verb`]).
    reference: Vec<String>,
    script: Option<ServeScript>,
    log: PathBuf,
}

impl Prepared {
    fn new(w: &'static Workload, opt: &Options) -> Result<Self, String> {
        let files = ensure_series(&opt.data_dir(), &opt.sizes[w.series], opt.seed)?;
        let truth = Truth::load(&files.truth)?;
        let logs = opt.out.join("logs");
        fs::create_dir_all(&logs).map_err(|e| format!("creating {}: {e}", logs.display()))?;
        let args = w.stream_args(w.reference_verb(), &files, w.routing());
        let reference = stream_lap(
            &opt.bin,
            &args,
            opt.threads,
            &logs.join(format!("{}.reference.stderr", w.name)),
        )
        .map_err(|e| format!("{}: reference run: {e}", w.name))?;
        if !reference.exit_ok {
            return Err(format!("{}: the reference command exited non-zero", w.name));
        }
        let script = match w.verb {
            Verb::Serve => Some(
                ServeScript::load(
                    &files.links,
                    w.open_line(files.spec.links),
                    files.spec.train_bins,
                    w.engine_config(Verb::Serve).refit_every(),
                )
                .map_err(|e| format!("reading {}: {e}", files.links.display()))?,
            ),
            Verb::Stream | Verb::Shard => None,
        };
        Ok(Prepared {
            w,
            files,
            truth,
            reference: reference.alarms,
            script,
            log: logs.join(format!("{}.stderr", w.name)),
        })
    }

    fn stream_bins(&self) -> usize {
        self.files.spec.stream_bins
    }

    /// One untraced run of the release binary.
    fn lap(&self, opt: &Options) -> Result<Lap, String> {
        match &self.script {
            Some(script) => serve_lap(&opt.bin, script, opt.threads, &self.log),
            None => {
                let args = self
                    .w
                    .stream_args(self.w.verb, &self.files, self.w.routing());
                stream_lap(&opt.bin, &args, opt.threads, &self.log)
            }
        }
        .map_err(|e| format!("{}: {e}", self.w.name))
    }
}

/// The correctness verdict over a workload's laps.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    counts: Option<DetectCounts>,
    failures: Vec<String>,
}

impl Verdict {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// Judge one lap: rows answered `busy`/`err`, rows whose alarm line
    /// differs from the reference, all rows if the child failed; and the
    /// detection counts against the staged truth.
    fn judge(&mut self, p: &Prepared, lap: &Lap) -> Result<(), String> {
        let bins = p.stream_bins();
        self.attempted += bins;
        if !lap.exit_ok {
            self.failed += bins;
            self.fail("the binary exited non-zero".to_string());
            return Ok(());
        }
        let differing = differing_rows(&lap.alarms, &p.reference)?;
        if differing > 0 {
            self.fail(format!(
                "{differing} alarm rows differ from the {:?} reference",
                p.w.reference_verb()
            ));
        }
        if lap.busy + lap.errs > 0 {
            self.fail(format!("{} busy and {} err replies", lap.busy, lap.errs));
        }
        self.failed += (differing + (lap.busy + lap.errs) as usize).min(bins);
        let counts = p.truth.score(&lap.alarms)?;
        if !counts.passes(bins) {
            self.fail(format!(
                "caught {} of {} staged anomalies with {} false alarms in {bins} bins",
                counts.caught, counts.staged, counts.false_alarms
            ));
        }
        if self.counts.is_some_and(|c| c != counts) {
            self.fail("detection counts changed between laps".to_string());
        }
        self.counts = Some(counts);
        Ok(())
    }
}

/// The end-to-end values of one lap, in [`END_TO_END`] order.
fn end_to_end_of(lap: &Lap, stream_bins: usize) -> [f64; 4] {
    [
        lap.setup_s,
        lap.run_s,
        stream_bins as f64 / (lap.run_s - lap.setup_s),
        lap.peak_rss_kb as f64 / 1024.0,
    ]
}

/// Per-layer metrics of a workload: the medians of the traced runs'
/// in-process metrics, plus what only the binary's own (untraced) laps
/// can say — reply latencies, CPU time, detection counts, and the
/// traced pipeline's time against the binary's.
fn per_layer(p: &Prepared, traced: &[Traced], laps: &[Lap], verdict: &mut Verdict) -> Metrics {
    let mut out: Metrics = PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
    let names: Vec<&'static str> = traced
        .iter()
        .flat_map(|t| t.metrics.keys().copied())
        .collect();
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|t| t.metrics.get(name).copied())
            .collect();
        if EXACT_COUNTS.contains(&name) && values.iter().any(|v| *v != values[0]) {
            verdict.fail(format!("{name} did not repeat exactly: {values:?}"));
        }
        out.insert(name, median(&values));
    }

    let pooled = |f: fn(&Lap) -> &Vec<f64>| -> Vec<f64> {
        laps.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let mut tail = |name: &'static str, samples: &[f64], q: f64| {
        if samples.is_empty() {
            return;
        }
        if highest_supported_percentile(samples.len()).is_none_or(|best| best < q) {
            eprintln!(
                "note: {} {name} stands on {} samples, fewer than p{} needs",
                p.w.name,
                samples.len(),
                q * 100.0
            );
        }
        out.insert(name, percentile(samples, q));
    };
    let replies = pooled(|l| &l.reply_us);
    let stalls = pooled(|l| &l.stall_ms);
    tail("serve.reply_p50_us", &replies, 0.5);
    tail("serve.reply_p99_us", &replies, 0.99);
    tail("serve.stall_p50_ms", &stalls, 0.5);
    tail("serve.stall_p90_ms", &stalls, 0.9);
    if !replies.is_empty() {
        out.insert(
            "serve.transport.pipe_us_p50",
            out["serve.reply_p50_us"] - out["serve.service.handle_us_p50"],
        );
    }
    let lap_busy: u64 = laps.iter().map(|l| l.busy).sum();
    let lap_errs: u64 = laps.iter().map(|l| l.errs).sum();
    *out.get_mut("serve.service.busy").expect("listed") += lap_busy as f64;
    *out.get_mut("serve.service.errs").expect("listed") += lap_errs as f64;
    if out["serve.service.busy"] + out["serve.service.errs"] > 0.0 {
        verdict.fail("busy or err replies in the traced run".to_string());
    }

    let run_s = median(&laps.iter().map(|l| l.run_s).collect::<Vec<_>>());
    let cpu_s = median(&laps.iter().map(|l| l.cpu_s).collect::<Vec<_>>());
    out.insert("process.cpu_s", cpu_s);
    out.insert("process.cpu_over_wall", cpu_s / run_s);
    out.insert(
        "trace.overhead_share",
        (out["trace.pipeline_s"] - run_s) / run_s,
    );
    if let Some(c) = verdict.counts {
        out.insert("detect.staged", c.staged as f64);
        out.insert("detect.caught", c.caught as f64);
        out.insert("detect.false_alarms", c.false_alarms as f64);
        out.insert("detect.alarms", c.alarms as f64);
    }

    for t in traced {
        for failure in &t.failures {
            verdict.fail(failure.clone());
        }
        // The decomposition must be the computation it explains: its
        // alarm rows are the binary's stdout byte for byte.
        if laps.iter().any(|l| l.alarms != t.alarms) {
            verdict.fail("the traced run and the binary print different alarm rows".to_string());
        }
    }
    if out["trace.unattributed_share"] > 0.05 {
        verdict.fail(format!(
            "{:.1}% of the traced run is inside no span",
            out["trace.unattributed_share"] * 100.0
        ));
    }
    out
}

fn write_trace(opt: &Options, w: &Workload, t: &Traced) -> Result<(), String> {
    let path = opt.out.join(format!("trace-{}.jsonl", w.name));
    fs::write(&path, span::to_jsonl(&t.spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `ledger run`: one workload for `--seconds`, one JSON line out.
fn run_one(opt: &Options, w: &'static Workload, seconds: f64, trace: bool) -> Result<bool, String> {
    let setup = Instant::now();
    let p = Prepared::new(w, opt)?;
    eprintln!(
        "{}: inputs and reference ready in {:.2} s",
        w.name,
        setup.elapsed().as_secs_f64()
    );
    let mut verdict = Verdict::default();
    let started = Instant::now();
    // Measure for `seconds`, to the nearest whole round: another round
    // starts only if at least half of it fits.
    let mut round_began = started;
    let mut fits_another = move || {
        let now = Instant::now();
        let round = now.duration_since(round_began).as_secs_f64();
        round_began = now;
        now.duration_since(started).as_secs_f64() + round / 2.0 < seconds
    };
    let metrics: Vec<(&str, f64, &str)> = if trace {
        let (mut laps, mut runs) = (Vec::new(), Vec::new());
        loop {
            for _ in 0..traced_binary_laps(w.verb) {
                let lap = p.lap(opt)?;
                verdict.judge(&p, &lap)?;
                laps.push(lap);
            }
            runs.push(traced_run(w, &p.files, &opt.out.join("scratch"))?);
            if !fits_another() {
                break;
            }
        }
        write_trace(opt, w, runs.last().expect("at least one traced run"))?;
        let values = per_layer(&p, &runs, &laps, &mut verdict);
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, values[name], *unit))
            .collect()
    } else {
        let mut laps: Vec<[f64; 4]> = Vec::new();
        loop {
            let lap = p.lap(opt)?;
            verdict.judge(&p, &lap)?;
            laps.push(end_to_end_of(&lap, p.stream_bins()));
            eprintln!(
                "{} lap {}: setup {:.3} s, run {:.3} s",
                w.name,
                laps.len(),
                lap.setup_s,
                lap.run_s
            );
            // At least three laps, so a median is one.
            if !fits_another() && laps.len() >= 3 {
                break;
            }
        }
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit, statistic))| {
                let values: Vec<f64> = laps.iter().map(|l| l[i]).collect();
                (*name, summarize(&values).at(*statistic), *unit)
            })
            .collect()
    };
    for failure in &verdict.failures {
        eprintln!("{}: FAILED: {failure}", w.name);
    }
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(verdict.correct())),
            ("attempted", Json::Num(verdict.attempted as f64)),
            ("failed", Json::Num(verdict.failed as f64)),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|(name, value, unit)| json::metric(name, *value, unit))
                ),
            ),
        ])
    );
    Ok(verdict.correct())
}

/// `ledger all`: the whole ledger.
fn run_all(opt: &Options, laps: usize, repo: &Path) -> Result<bool, String> {
    let header = host::header(&opt.bin, repo);
    println!("# host {header}");
    let prepared: Vec<Prepared> = WORKLOADS
        .iter()
        .map(|w| Prepared::new(w, opt))
        .collect::<Result<_, _>>()?;
    let mut digests: BTreeMap<&str, Json> = BTreeMap::new();
    for p in &prepared {
        digests.insert(p.files.spec.name, Json::str(p.files.digest.clone()));
    }
    for (name, digest) in &digests {
        println!("# input {name} seed {} digest {digest}", opt.seed);
    }

    // Laps interleaved round-robin, so a slow minute on a shared host
    // lands on every workload alike.
    let mut verdicts: Vec<Verdict> = prepared.iter().map(|_| Verdict::default()).collect();
    let mut all_laps: Vec<Vec<Lap>> = prepared.iter().map(|_| Vec::new()).collect();
    for lap_no in 0..laps {
        for (i, p) in prepared.iter().enumerate() {
            let lap = p.lap(opt)?;
            verdicts[i].judge(p, &lap)?;
            eprintln!("lap {}/{laps} {}: {:.3} s", lap_no + 1, p.w.name, lap.run_s);
            all_laps[i].push(lap);
        }
    }

    let mut ok = true;
    let mut results = Vec::new();
    for ((p, verdict), laps) in prepared.iter().zip(&mut verdicts).zip(&all_laps) {
        let w = p.w;
        let mut e2e = Vec::new();
        for (i, (name, unit, statistic)) in END_TO_END.iter().enumerate() {
            let s = summarize(
                &laps
                    .iter()
                    .map(|l| end_to_end_of(l, p.stream_bins())[i])
                    .collect::<Vec<_>>(),
            );
            println!(
                "{} {name} {} {unit}  (q1 {} median {} q3 {} over {} laps)",
                w.name,
                s.at(*statistic),
                s.q1,
                s.median,
                s.q3,
                s.n
            );
            e2e.push((
                *name,
                Json::obj([
                    ("value", Json::Num(s.at(*statistic))),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("laps", Json::Num(s.n as f64)),
                    ("unit", Json::str(*unit)),
                ]),
            ));
        }
        let run = traced_run(w, &p.files, &opt.out.join("scratch"))?;
        write_trace(opt, w, &run)?;
        let layers = per_layer(p, std::slice::from_ref(&run), laps, verdict);
        for (name, unit) in &PER_LAYER {
            println!("{} {name} {} {unit}", w.name, layers[name]);
        }
        println!("{} ops {} count", w.name, verdict.attempted);
        println!("{} failed {} count", w.name, verdict.failed);
        for failure in &verdict.failures {
            println!("{} FAILED: {failure}", w.name);
        }
        ok &= verdict.correct();
        results.push((
            w.name,
            Json::obj([
                ("ops", Json::Num(verdict.attempted as f64)),
                ("failed", Json::Num(verdict.failed as f64)),
                ("correct", Json::Bool(verdict.correct())),
                ("end_to_end", Json::obj(e2e)),
                (
                    "per_layer",
                    Json::obj(
                        PER_LAYER
                            .iter()
                            .map(|(name, unit)| json::metric(name, layers[name], unit)),
                    ),
                ),
            ]),
        ));
    }

    let doc = Json::obj([
        ("host", header),
        ("seed", Json::Num(opt.seed as f64)),
        ("smoke", Json::Bool(opt.smoke)),
        ("inputs", Json::obj(digests)),
        ("workloads", Json::obj(results)),
    ]);
    let path = opt.out.join(format!(
        "BENCH_{}_seed{}{}.json",
        host::today(),
        opt.seed,
        if opt.smoke { "_smoke" } else { "" }
    ));
    fs::write(&path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# results {}", path.display());
    println!("# gate {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn usage() -> String {
    "usage: ledger gen --seed N [--smoke] --out DIR\n       \
     ledger run --workload W --seed N --seconds S --trace 0|1 --bin NETANOM --out DIR\n       \
     ledger all [--seed N] [--laps N] [--smoke] --bin NETANOM --out DIR"
        .to_string()
}

fn main_inner() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or_else(usage)?;
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut smoke = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--bin" | "--out" | "--laps" => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))?;
                flags.insert(arg[2..].to_string(), value);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let number = |key: &str, default: Option<f64>| -> Result<f64, String> {
        match flags.get(key) {
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("--{key} must be a number, got {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required\n{}", usage())),
        }
    };
    let path = |key: &str| {
        flags
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{key} is required\n{}", usage()))
    };
    let out = path("out")?;
    fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let out = out
        .canonicalize()
        .map_err(|e| format!("resolving {}: {e}", out.display()))?;
    let mut opt = Options {
        seed: number("seed", Some(7.0))? as u64,
        sizes: if smoke { SMOKE_SIZES } else { FULL_SIZES },
        smoke,
        bin: PathBuf::new(),
        out,
        threads: host::threads(),
    };
    if mode == "gen" {
        for spec in &opt.sizes {
            let files = ensure_series(&opt.data_dir(), spec, opt.seed)?;
            println!(
                "{} seed {} digest {} ({})",
                spec.name,
                opt.seed,
                files.digest,
                files.links.display()
            );
        }
        return Ok(true);
    }
    opt.bin = path("bin")?
        .canonicalize()
        .map_err(|e| format!("the release binary: {e}"))?;
    match mode.as_str() {
        "run" => {
            let name = flags
                .get("workload")
                .ok_or_else(|| format!("--workload is required\n{}", usage()))?;
            let w = workload_named(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {name:?}; must be one of {}",
                    known.join(" ")
                )
            })?;
            run_one(
                &opt,
                w,
                number("seconds", None)?,
                number("trace", Some(0.0))? != 0.0,
            )
        }
        "all" => {
            let default_laps = if smoke { 3 } else { DEFAULT_LAPS };
            let laps = number("laps", Some(default_laps as f64))? as usize;
            let repo = std::env::current_dir().map_err(|e| e.to_string())?;
            run_all(&opt, laps.max(1), &repo)
        }
        other => Err(format!("unknown mode {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
