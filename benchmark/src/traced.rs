//! The traced run: the workload's computation repeated in this
//! process, a span around each call into a layer's public functions.
//!
//! The pipeline spans re-implement the dozen lines of
//! `StreamingEngine::process_batch` on a public `SubspaceBackend` and
//! `RingWindow` (score → per-row observe + push → refit when due), so
//! each step has its own span; `verify.*` spans then run the real
//! engine over the same blocks and require bitwise-equal reports, so
//! the decomposition is checked to be the computation it explains.
//! `probe.*` spans time a public function the pipeline only reaches
//! through another call (the eigen-solve inside a refit, detection
//! inside scoring) on the same data; they cost extra time, which is
//! why end-to-end values never come from this run.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufReader, Cursor};
use std::path::Path;
use std::time::Instant;

use netanom_core::incremental::IncrementalCovariance;
use netanom_core::stream::DEFAULT_TRUNCATED_TOL;
use netanom_core::{
    DetectionBackend, DiagnosisReport, EngineConfig, Identifier, RefitStrategy, RingWindow,
    SeparationPolicy, ShardedEngine, StreamingEngine, SubspaceBackend, SubspaceModel,
};
use netanom_linalg::decomposition::{SymmetricEigen, TruncatedEigen};
use netanom_linalg::Matrix;
use netanom_net::wire::Message;
use netanom_net::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use netanom_serve::protocol::{parse_line, Request};
use netanom_serve::{alarm_csv_row, Service};
use netanom_topology::{LinkPartition, RoutingMatrix};
use netanom_traffic::io::{CsvChunks, ShardedChunks};

use crate::gen::SeriesFiles;
use crate::span::{durations_of, seconds_by_name, self_times_ns, Span, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{Verb, Workload, SHARDS};

/// Metric name → value, for the names this run measured.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one traced run gave.
pub struct Traced {
    /// In-process per-layer metrics (the caller adds those that come
    /// from the binary's own laps).
    pub metrics: Metrics,
    /// Alarm rows of the traced computation, in output order.
    pub alarms: Vec<String>,
    pub spans: Vec<Span>,
    /// Each way the traced computation disagreed with the engine.
    pub failures: Vec<String>,
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn open_chunks(files: &SeriesFiles, chunk: usize) -> Res<CsvChunks<BufReader<File>>> {
    let file = File::open(&files.links).map_err(err("opening links.csv"))?;
    CsvChunks::new(BufReader::new(file), chunk).map_err(err("reading links.csv"))
}

/// `paths.csv` as a routing matrix (the `cli` crate's own parser is
/// private to it; the format is `flow,l0;l1;…` with flows in order).
fn load_routing(files: &SeriesFiles, m: usize) -> Res<RoutingMatrix> {
    let text = fs::read_to_string(&files.paths).map_err(err("reading paths.csv"))?;
    let paths: Vec<Vec<usize>> = text
        .lines()
        .skip(1)
        .map(|line| {
            let links = line.split_once(',').map_or("", |(_, l)| l);
            links
                .split(';')
                .map(|l| l.parse().map_err(err("paths.csv link")))
                .collect()
        })
        .collect::<Res<_>>()?;
    Ok(RoutingMatrix::from_paths(m, &paths))
}

fn identity_routing(m: usize) -> RoutingMatrix {
    let paths: Vec<Vec<usize>> = (0..m).map(|l| vec![l]).collect();
    RoutingMatrix::from_paths(m, &paths)
}

/// Bytes of `links.csv` after the header and the training rows.
fn streamed_bytes(files: &SeriesFiles) -> Res<u64> {
    let bytes = fs::read(&files.links).map_err(err("reading links.csv"))?;
    let skip = 1 + files.spec.train_bins;
    let start = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(skip - 1)
        .map_or(bytes.len(), |(i, _)| i + 1);
    Ok((bytes.len() - start) as u64)
}

/// The policy a statistics refit separates with: under 3σ the normal
/// dimension of the last full fit is frozen (`SubspaceBackend` does the
/// same; sufficient statistics carry no temporal projections).
fn refit_policy(cfg: &EngineConfig, normal_dim: usize) -> SeparationPolicy {
    match cfg.diagnoser_config().separation {
        SeparationPolicy::ThreeSigma { .. } => SeparationPolicy::FixedCount(normal_dim),
        other => other,
    }
}

/// Time the public pieces of a fit on the training week.
fn probe_fit(
    tr: &mut Tracer,
    training: &Matrix,
    rm: &RoutingMatrix,
    cfg: &EngineConfig,
) -> Res<()> {
    let dcfg = cfg.diagnoser_config();
    let model = tr
        .span("probe.core.subspace.fit", 0, || {
            SubspaceModel::fit(training, dcfg.separation, dcfg.pca_method)
        })
        .map_err(err("probe fit"))?;
    tr.span("probe.core.identify.build", 0, || {
        Identifier::new(&model, rm).map(|_| ())
    })
    .map_err(err("probe identifier"))?;
    if cfg.strategy().maintains_statistics() {
        tr.span("probe.core.incremental.bootstrap", 0, || {
            IncrementalCovariance::from_matrix(training)
        });
    }
    Ok(())
}

/// Time the public pieces of a refit on the statistics it ran on.
fn probe_refit(
    tr: &mut Tracer,
    stats: &IncrementalCovariance,
    cfg: &EngineConfig,
    normal_dim: usize,
    rm: &RoutingMatrix,
    chunk: u64,
) -> Res<()> {
    let policy = refit_policy(cfg, normal_dim);
    let model = tr
        .span("probe.core.incremental.solve", chunk, || {
            match cfg.strategy() {
                RefitStrategy::Truncated { k, tol } => stats.to_model_truncated(policy, k, tol),
                _ => stats.to_model(policy),
            }
        })
        .map_err(err("probe solve"))?;
    tr.span("probe.core.identify.build", chunk, || {
        Identifier::new(&model, rm).map(|_| ())
    })
    .map_err(err("probe identifier"))
}

/// `StreamingEngine<SubspaceBackend>` rebuilt from its public parts.
struct TracedEngine {
    backend: SubspaceBackend,
    window: RingWindow,
    refit_every: Option<usize>,
    since_fit: usize,
    total: usize,
    refits: usize,
}

impl TracedEngine {
    /// `StreamingEngine::new`: fit, then seed the window with the
    /// training rows.
    fn fit(
        tr: &mut Tracer,
        training: &Matrix,
        rm: &RoutingMatrix,
        cfg: &EngineConfig,
    ) -> Res<Self> {
        let backend = tr
            .span("core.method.fit", 0, || {
                SubspaceBackend::fit(training, rm, cfg.diagnoser_config(), cfg.strategy())
            })
            .map_err(err("fitting"))?;
        let stream = cfg.stream_config();
        let window = tr.span("core.stream.seed", 0, || {
            let capacity = stream.window_capacity.max(training.rows());
            let mut window = RingWindow::new(capacity, training.cols());
            for t in 0..training.rows() {
                window.push(training.row(t));
            }
            window
        });
        Ok(TracedEngine {
            backend,
            window,
            refit_every: stream.refit_every,
            since_fit: 0,
            total: 0,
            refits: 0,
        })
    }

    /// The refit probes on the statistics the last refit ran on.
    fn probe_refit(
        &self,
        tr: &mut Tracer,
        cfg: &EngineConfig,
        rm: &RoutingMatrix,
        chunk: u64,
    ) -> Res<()> {
        let stats = self
            .backend
            .statistics()
            .ok_or("a refitting backend keeps statistics")?;
        let r = self.backend.diagnoser().model().normal_dim();
        probe_refit(tr, stats, cfg, r, rm, chunk)
    }

    /// `StreamingEngine::process_batch`, a span at each call.
    fn process_batch(
        &mut self,
        tr: &mut Tracer,
        links: &Matrix,
        chunk: u64,
    ) -> Res<Vec<DiagnosisReport>> {
        let mut out = Vec::with_capacity(links.rows());
        let mut next = 0;
        while next < links.rows() {
            let until_refit = match self.refit_every {
                Some(k) => k.saturating_sub(self.since_fit).max(1),
                None => links.rows() - next,
            };
            let take = until_refit.min(links.rows() - next);
            let block = links.row_block(next, take).expect("range checked");
            let mut reports = tr
                .span("core.method.score", chunk, || {
                    self.backend.score_matrix(&block)
                })
                .map_err(err("scoring"))?;
            for rep in &mut reports {
                rep.time = self.total;
                self.total += 1;
                self.since_fit += 1;
            }
            out.append(&mut reports);
            for t in 0..take {
                let y = block.row(t);
                tr.span("core.incremental.observe", chunk, || {
                    self.backend.observe(self.window.oldest(), y)
                })
                .map_err(err("observing"))?;
                tr.span("core.stream.push", chunk, || self.window.push(y));
            }
            next += take;
            if self.refit_every.is_some_and(|k| self.since_fit >= k) {
                tr.span("core.method.refit", chunk, || {
                    self.backend.refit(&self.window)
                })
                .map_err(err("refitting"))?;
                self.since_fit = 0;
                self.refits += 1;
            }
        }
        Ok(out)
    }
}

/// What the pipeline loops hand to verification and metric derivation.
#[derive(Default)]
struct Pipeline {
    blocks: Vec<Matrix>,
    reports: Vec<DiagnosisReport>,
    alarms: Vec<String>,
    emit_bytes: u64,
    metrics: Metrics,
    failures: Vec<String>,
}

impl Pipeline {
    /// Format the alarm rows of one block's reports, as the verbs do.
    fn emit(
        &mut self,
        tr: &mut Tracer,
        reports: &[DiagnosisReport],
        train_bins: usize,
        chunk: u64,
    ) {
        tr.enter("serve.protocol.emit", chunk);
        for rep in reports.iter().filter(|r| r.detected) {
            let row = alarm_csv_row(rep, train_bins);
            self.emit_bytes += row.len() as u64 + 1;
            self.alarms.push(row);
        }
        tr.exit();
    }
}

/// Run the real `StreamingEngine` over the blocks the pipeline saw;
/// returns its total `process_batch` time and its reports.
fn verify_engine(
    tr: &mut Tracer,
    backend: SubspaceBackend,
    training: &Matrix,
    cfg: &EngineConfig,
    blocks: &[Matrix],
) -> Res<(f64, Vec<DiagnosisReport>)> {
    tr.enter("verify.engine", 0);
    let mut engine = StreamingEngine::with_backend(backend, training, cfg.stream_config())
        .map_err(err("assembling the engine"))?;
    let mut reports = Vec::new();
    let mut batch_s = 0.0;
    for block in blocks {
        let t = Instant::now();
        let mut r = engine.process_batch(block).map_err(err("engine batch"))?;
        batch_s += t.elapsed().as_secs_f64();
        reports.append(&mut r);
    }
    tr.exit();
    Ok((batch_s, reports))
}

/// `stream`: parse → batch → emit per chunk.
fn trace_stream(tr: &mut Tracer, w: &Workload, files: &SeriesFiles) -> Res<Pipeline> {
    let cfg = w.engine_config(Verb::Stream);
    let train = cfg.train_bins();
    let mut p = Pipeline::default();

    tr.enter("traffic.io.open", 0);
    let mut chunks = open_chunks(files, cfg.chunk())?;
    tr.exit();
    let m = chunks.num_links();
    let rm = tr.span("harness.routing", 0, || load_routing(files, m))?;
    let training = tr
        .span("traffic.io.take_rows", 0, || chunks.take_rows(train))
        .map_err(err("training rows"))?;
    let mut engine = TracedEngine::fit(tr, &training, &rm, &cfg)?;
    probe_fit(tr, &training, &rm, &cfg)?;
    let reference = tr.span("verify.clone", 0, || engine.backend.clone());

    let mut chunk = 0u64;
    loop {
        chunk += 1;
        let Some(block) = tr
            .span("traffic.io.parse", chunk, || chunks.next_chunk())
            .map_err(err("parsing"))?
        else {
            break;
        };
        tr.span("probe.core.subspace.detect", chunk, || {
            engine
                .backend
                .diagnoser()
                .detector()
                .detect_matrix(&block)
                .map(|_| ())
        })
        .map_err(err("probe detect"))?;
        let refits = engine.refits;
        tr.enter("core.stream.batch", chunk);
        let reports = engine.process_batch(tr, &block, chunk)?;
        tr.exit();
        p.emit(tr, &reports, train, chunk);
        if engine.refits > refits {
            engine.probe_refit(tr, &cfg, &rm, chunk)?;
        }
        tr.enter("harness.keep", chunk);
        p.reports.extend(reports);
        p.blocks.push(block);
        tr.exit();
    }

    let (batch_s, want) = verify_engine(tr, reference, &training, &cfg, &p.blocks)?;
    if want != p.reports {
        let differing = want.iter().zip(&p.reports).filter(|(a, b)| a != b).count();
        p.failures.push(format!(
            "traced loop and StreamingEngine disagree on {differing} of {} reports",
            want.len().max(p.reports.len())
        ));
    }
    p.metrics.insert("core.stream.batch_s", batch_s);
    p.metrics.insert("core.method.refits", engine.refits as f64);
    p.metrics.insert(
        "core.identify.candidates",
        engine.backend.diagnoser().identifier().num_candidates() as f64,
    );
    probe_linalg(
        tr,
        &mut p.metrics,
        &training,
        &window_covariance(&engine.window)?,
    )?;
    probe_wire(tr, &mut p.metrics, &engine.backend, p.blocks.last())?;
    Ok(p)
}

/// `shard`: scatter → sharded batch → emit per chunk; the real
/// `StreamingEngine` over the same rows is both the check and the
/// denominator of `core.shard.vs_stream_ratio`.
fn trace_shard(tr: &mut Tracer, w: &Workload, files: &SeriesFiles) -> Res<Pipeline> {
    let cfg = w.engine_config(Verb::Shard);
    let train = cfg.train_bins();
    let mut p = Pipeline::default();

    tr.enter("traffic.io.open", 0);
    let chunks = open_chunks(files, cfg.chunk())?;
    let m = chunks.num_links();
    let partition = LinkPartition::round_robin(m, SHARDS).map_err(err("partitioning"))?;
    let mut feeds = ShardedChunks::new(chunks, &partition).map_err(err("sharding"))?;
    tr.exit();
    let rm = tr.span("harness.routing", 0, || load_routing(files, m))?;
    let training = tr
        .span("traffic.io.take_rows", 0, || feeds.take_rows(train))
        .map_err(err("training rows"))?;
    let mut engine = tr
        .span("core.method.fit", 0, || {
            ShardedEngine::new(
                &training,
                &rm,
                cfg.diagnoser_config(),
                cfg.stream_config(),
                &partition,
            )
        })
        .map_err(err("fitting"))?;
    probe_fit(tr, &training, &rm, &cfg)?;
    // The single-process engine over the same rows.
    let stream_cfg = w.engine_config(Verb::Stream);
    let reference = tr
        .span("verify.fit", 0, || {
            SubspaceBackend::fit(
                &training,
                &rm,
                stream_cfg.diagnoser_config(),
                stream_cfg.strategy(),
            )
        })
        .map_err(err("fitting the reference"))?;

    let mut chunk = 0u64;
    let mut refit_ms = Vec::new();
    loop {
        chunk += 1;
        // `next_slices` is this call with the full block dropped; the
        // block is kept for the reference engine.
        let Some((block, slices)) = tr
            .span("traffic.io.slices", chunk, || feeds.next_block_and_slices())
            .map_err(err("scattering"))?
        else {
            break;
        };
        // The scatter on its own: the column selection the call above
        // did after parsing.
        tr.span("probe.traffic.io.scatter", chunk, || {
            for group in partition.groups() {
                std::hint::black_box(block.select_columns(group));
            }
        });
        tr.span("probe.core.subspace.detect", chunk, || {
            engine
                .diagnoser()
                .detector()
                .detect_matrix(&block)
                .map(|_| ())
        })
        .map_err(err("probe detect"))?;
        let (refits, refit_s) = (engine.refits(), engine.refit_seconds());
        let reports = tr
            .span("core.shard.batch", chunk, || {
                engine.process_batch_slices(&slices)
            })
            .map_err(err("sharded batch"))?;
        p.emit(tr, &reports, train, chunk);
        if engine.refits() > refits {
            refit_ms
                .push((engine.refit_seconds() - refit_s) * 1e3 / (engine.refits() - refits) as f64);
            let stats = tr
                .span("probe.core.shard.merge", chunk, || {
                    engine.merged_statistics()
                })
                .map_err(err("merging statistics"))?;
            let r = engine.diagnoser().model().normal_dim();
            probe_refit(tr, &stats, &cfg, r, &rm, chunk)?;
        }
        tr.enter("harness.keep", chunk);
        p.reports.extend(reports);
        p.blocks.push(block);
        tr.exit();
    }

    probe_wire(tr, &mut p.metrics, &reference, p.blocks.last())?;
    let (stream_batch_s, want) = verify_engine(tr, reference, &training, &stream_cfg, &p.blocks)?;
    // Shard partial sums reassociate additions, so SPEs agree to 1e-9
    // relative, not bitwise: the printed rows are what must be equal.
    let want_rows: Vec<String> = want
        .iter()
        .filter(|r| r.detected)
        .map(|r| alarm_csv_row(r, train))
        .collect();
    if want_rows != p.alarms {
        p.failures
            .push("ShardedEngine and StreamingEngine print different alarm rows".to_string());
    }
    let sizes: Vec<f64> = (0..engine.num_shards())
        .map(|s| engine.shard_links(s).len() as f64)
        .collect();
    let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
    p.metrics.insert(
        "core.shard.skew",
        sizes.iter().copied().fold(0.0, f64::max) / mean,
    );
    p.metrics
        .insert("core.shard.refit_s", engine.refit_seconds());
    p.metrics
        .insert("core.method.refit_s", engine.refit_seconds());
    p.metrics
        .insert("core.method.refits", engine.refits() as f64);
    if !refit_ms.is_empty() {
        p.metrics
            .insert("core.method.refit_ms_p50", median(&refit_ms));
    }
    p.metrics.insert("core.stream.batch_s", stream_batch_s);
    p.metrics.insert(
        "core.identify.candidates",
        engine.diagnoser().identifier().num_candidates() as f64,
    );
    let cov = engine
        .merged_statistics()
        .and_then(|stats| stats.covariance())
        .map_err(err("final covariance"))?;
    probe_linalg(tr, &mut p.metrics, &training, &cov)?;
    Ok(p)
}

/// `serve`: every request line through `Service::handle_line`, with the
/// traced loop in lockstep on one-row blocks (the daemon drains each
/// `obs` through `process_batch` on a `1 × m` block) to say where a
/// reply's time goes.
fn trace_serve(
    tr: &mut Tracer,
    w: &Workload,
    files: &SeriesFiles,
    scratch: &Path,
) -> Res<Pipeline> {
    let cfg = w.engine_config(Verb::Serve);
    let train = cfg.train_bins();
    let mut p = Pipeline::default();

    tr.enter("harness.inputs", 0);
    let text = fs::read_to_string(&files.links).map_err(err("reading links.csv"))?;
    let m = text.lines().next().map_or(0, |h| h.split(',').count());
    let lines: Vec<String> = text
        .lines()
        .skip(1)
        .map(|row| format!("obs s {row}"))
        .collect();
    let rm = identity_routing(m);
    tr.exit();

    let mut service = Service::new();
    let opened = tr.span("serve.service.open", 0, || {
        service.handle_line(&w.open_line(m))
    });
    let mut errs = u64::from(!opened.lines.last().is_some_and(|l| l.starts_with("ok ")));
    let mut busy = 0u64;
    let mut served: Vec<String> = Vec::new();
    let mut training_rows: Vec<Vec<f64>> = Vec::with_capacity(train);
    let mut lockstep: Option<(TracedEngine, Matrix, SubspaceBackend)> = None;

    for (i, line) in lines.iter().enumerate() {
        let chunk = i as u64 + 1;
        let row = match tr.span("probe.serve.protocol.parse", chunk, || parse_line(line)) {
            Ok(Some(Request::Obs { row, .. })) => row,
            other => return Err(format!("obs line {chunk} parsed as {other:?}")),
        };
        let response = tr.span("serve.service.handle", chunk, || service.handle_line(line));
        for out in &response.lines {
            match out.split(' ').next() {
                Some("alarm") => served.push(out.trim_start_matches("alarm s ").to_string()),
                Some("busy") => busy += 1,
                Some("err") => errs += 1,
                _ => {}
            }
        }
        tr.enter("probe.lockstep", chunk);
        match &mut lockstep {
            None => {
                training_rows.push(row);
                if training_rows.len() == train {
                    let training = Matrix::from_rows(&training_rows);
                    let engine = TracedEngine::fit(tr, &training, &rm, &cfg)?;
                    probe_fit(tr, &training, &rm, &cfg)?;
                    let reference = engine.backend.clone();
                    lockstep = Some((engine, training, reference));
                }
            }
            Some((engine, _, _)) => {
                tr.span("probe.core.method.score_vector", chunk, || {
                    engine.backend.score_vector(&row).map(|_| ())
                })
                .map_err(err("probe score_vector"))?;
                let block = Matrix::from_rows(std::slice::from_ref(&row));
                let refits = engine.refits;
                let reports = engine.process_batch(tr, &block, chunk)?;
                p.emit(tr, &reports, train, chunk);
                if engine.refits > refits {
                    engine.probe_refit(tr, &cfg, &rm, chunk)?;
                }
                p.reports.extend(reports);
                p.blocks.push(block);
            }
        }
        tr.exit();
    }

    // Snapshot cost and state size, through the protocol's own verbs.
    fs::create_dir_all(scratch).map_err(err("creating the scratch directory"))?;
    let cp = scratch.join("serve121.nasc");
    let saved = tr.span("serve.checkpoint.save", 0, || {
        service.handle_line(&format!("checkpoint s {}", cp.display()))
    });
    let restored = tr.span("serve.checkpoint.restore", 0, || {
        service.handle_line(&format!("restore s {}", cp.display()))
    });
    let bytes = saved
        .lines
        .last()
        .and_then(|l| l.rsplit_once("bytes="))
        .and_then(|(_, b)| b.parse::<f64>().ok());
    match (
        bytes,
        restored
            .lines
            .last()
            .is_some_and(|l| l.starts_with("ok restore")),
    ) {
        (Some(bytes), true) => {
            p.metrics.insert("serve.checkpoint.bytes", bytes);
        }
        _ => p.failures.push(format!(
            "checkpoint/restore answered {:?} / {:?}",
            saved.lines, restored.lines
        )),
    }
    let _ = fs::remove_file(&cp);

    let (engine, training, reference) =
        lockstep.ok_or("the series is shorter than the training week")?;
    if served != p.alarms {
        p.failures
            .push("Service and the traced loop print different alarm rows".to_string());
    }
    let (batch_s, want) = verify_engine(tr, reference, &training, &cfg, &p.blocks)?;
    if want != p.reports {
        p.failures
            .push("traced loop and StreamingEngine disagree on one-row blocks".to_string());
    }
    p.metrics.insert("core.stream.batch_s", batch_s);
    p.metrics.insert("core.method.refits", engine.refits as f64);
    p.metrics.insert(
        "core.identify.candidates",
        engine.backend.diagnoser().identifier().num_candidates() as f64,
    );
    p.metrics.insert("serve.service.busy", busy as f64);
    p.metrics.insert("serve.service.errs", errs as f64);
    probe_linalg(
        tr,
        &mut p.metrics,
        &training,
        &window_covariance(&engine.window)?,
    )?;
    probe_wire(tr, &mut p.metrics, &engine.backend, p.blocks.last())?;
    Ok(p)
}

/// Covariance of the rows a window holds at the end of the stream.
fn window_covariance(window: &RingWindow) -> Res<Matrix> {
    IncrementalCovariance::from_matrix(&window.to_matrix())
        .covariance()
        .map_err(err("final covariance"))
}

/// The eigen-solvers and the GEMM kernel on this workload's shapes:
/// the covariance of the final window, and the Gram matrix of the
/// training week (`2·t·m²` flops).
fn probe_linalg(
    tr: &mut Tracer,
    metrics: &mut Metrics,
    training: &Matrix,
    cov: &Matrix,
) -> Res<()> {
    let jacobi = timed(tr, "probe.linalg.eigen.jacobi", || {
        SymmetricEigen::of_covariance(cov).map(|_| ())
    })
    .map_err(err("jacobi"))?;
    let k = netanom_core::stream::DEFAULT_TRUNCATED_K;
    let truncated = timed(tr, "probe.linalg.eigen.truncated", || {
        TruncatedEigen::of_covariance(cov, k, DEFAULT_TRUNCATED_TOL).map(|_| ())
    })
    .map_err(err("truncated eigen"))?;
    let gram = timed(tr, "probe.linalg.kernel.gram", || {
        std::hint::black_box(training.gram());
        Ok::<(), String>(())
    })?;
    let flops = 2.0 * training.rows() as f64 * (training.cols() as f64).powi(2);
    metrics.insert("linalg.eigen.jacobi_ms", jacobi * 1e3);
    metrics.insert("linalg.eigen.truncated_ms", truncated * 1e3);
    metrics.insert("linalg.kernel.gemm_gflops", flops / gram / 1e9);
    Ok(())
}

/// Run `f` in a span and return its duration in seconds.
fn timed<E>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<(), E>,
) -> Result<f64, E> {
    tr.enter(name, 0);
    let out = f();
    let s = tr.exit();
    out.map(|()| s)
}

/// The frame codec on the messages of one micro-batch round between a
/// tracker and [`SHARDS`] workers — PhaseA, Merged and PhaseB per
/// worker, plus the Model broadcast a refit round adds — at this
/// workload's shapes, through in-memory buffers.
fn probe_wire(
    tr: &mut Tracer,
    metrics: &mut Metrics,
    backend: &SubspaceBackend,
    block: Option<&Matrix>,
) -> Res<()> {
    const REPEATS: usize = 50;
    let block = block.ok_or("no streamed block to shape the wire messages on")?;
    let r = backend.diagnoser().model().normal_dim().max(1);
    let partition =
        LinkPartition::round_robin(block.cols(), SHARDS).map_err(err("partitioning"))?;
    let coeffs = block.select_columns(&(0..r).collect::<Vec<_>>());
    let state = backend.export_state().to_bytes();
    let mut round = Vec::new();
    for group in partition.groups() {
        round.push(Message::PhaseA {
            round: 1,
            rows: block.rows() as u64,
            coeffs: coeffs.clone(),
        });
        round.push(Message::Merged {
            round: 1,
            coeffs: coeffs.clone(),
        });
        round.push(Message::PhaseB {
            round: 1,
            scores: block.row(0)[..1].repeat(block.rows()),
            residual: block.select_columns(group),
        });
        round.push(Message::Model {
            round: 1,
            state: state.clone(),
        });
    }

    let mut wire = Vec::new();
    let encode = timed(tr, "probe.net.wire.encode", || {
        for _ in 0..REPEATS {
            wire.clear();
            for msg in &round {
                write_frame(&mut wire, &msg.to_bytes())?;
            }
        }
        Ok::<(), netanom_net::NetError>(())
    })
    .map_err(err("encoding"))?;
    let decode = timed(tr, "probe.net.wire.decode", || {
        for _ in 0..REPEATS {
            let mut cursor = Cursor::new(&wire);
            let mut back = Vec::with_capacity(round.len());
            while let Some(payload) =
                read_frame(&mut cursor, DEFAULT_MAX_FRAME).map_err(err("reading a frame"))?
            {
                back.push(Message::from_bytes(&payload).map_err(err("decoding"))?);
            }
            if back != round {
                return Err("a round did not survive the codec".to_string());
            }
        }
        Ok(())
    })?;
    let mb = (wire.len() * REPEATS) as f64 / 1e6;
    metrics.insert("net.wire.round_bytes", wire.len() as f64);
    metrics.insert("net.wire.encode_mb_per_s", mb / encode);
    metrics.insert("net.wire.decode_mb_per_s", mb / decode);
    Ok(())
}

/// Run the workload's computation in this process under the tracer and
/// derive the in-process per-layer metrics from the spans.
pub fn traced_run(w: &Workload, files: &SeriesFiles, scratch: &Path) -> Res<Traced> {
    let mut tr = Tracer::new();
    tr.enter("trace", 0);
    let stream_bytes = tr.span("harness.inputs", 0, || streamed_bytes(files))?;
    let mut p = match w.verb {
        Verb::Stream => trace_stream(&mut tr, w, files)?,
        Verb::Shard => trace_shard(&mut tr, w, files)?,
        Verb::Serve => trace_serve(&mut tr, w, files, scratch)?,
    };
    tr.exit();
    let spans = tr.into_spans();
    let mut metrics = std::mem::take(&mut p.metrics);
    derive(&mut metrics, &spans, w, &p, stream_bytes);
    Ok(Traced {
        metrics,
        alarms: p.alarms,
        spans,
        failures: p.failures,
    })
}

/// Per-layer metrics that are sums, counts and medians over spans.
fn derive(metrics: &mut Metrics, spans: &[Span], w: &Workload, p: &Pipeline, stream_bytes: u64) {
    let totals = seconds_by_name(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let p50_of = |name: &str, scale: f64| {
        let d = durations_of(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * scale
        }
    };
    let rows = p.reports.len() as f64;
    let per_row = |s: f64| if rows > 0.0 { s / rows } else { 0.0 };

    // traffic.io: on `shard` the reader parses and scatters in one call.
    let scatter_s = total("probe.traffic.io.scatter");
    let parse_s = total("traffic.io.parse") + total("traffic.io.slices") - scatter_s;
    if w.verb != Verb::Serve {
        metrics.insert("traffic.io.parse_s", parse_s);
        if parse_s > 0.0 {
            metrics.insert(
                "traffic.io.parse_mb_per_s",
                stream_bytes as f64 / 1e6 / parse_s,
            );
        }
        metrics.insert("traffic.io.rows", rows);
        metrics.insert("traffic.io.bytes", stream_bytes as f64);
        metrics.insert("traffic.io.train_parse_s", total("traffic.io.take_rows"));
    }
    metrics.insert("traffic.io.scatter_s", scatter_s);

    metrics.insert("core.subspace.fit_s", total("probe.core.subspace.fit"));
    metrics.insert(
        "core.subspace.detect_s",
        total("probe.core.subspace.detect"),
    );
    metrics.insert("core.identify.build_s", total("probe.core.identify.build"));
    metrics.insert(
        "core.identify.build_ms_p50",
        p50_of("probe.core.identify.build", 1e3),
    );
    metrics.insert("core.identify.alarms", p.alarms.len() as f64);
    metrics.insert(
        "core.incremental.solve_s",
        total("probe.core.incremental.solve"),
    );
    metrics.insert(
        "core.incremental.solve_ms_p50",
        p50_of("probe.core.incremental.solve", 1e3),
    );
    metrics.insert(
        "core.incremental.bootstrap_s",
        total("probe.core.incremental.bootstrap"),
    );
    metrics.insert("core.method.fit_s", total("core.method.fit"));
    metrics.insert("serve.protocol.emit_s", total("serve.protocol.emit"));
    metrics.insert("serve.protocol.emit_bytes", p.emit_bytes as f64);
    metrics.insert("core.shard.batch_s", total("core.shard.batch"));
    metrics.insert("core.shard.merge_s", total("probe.core.shard.merge"));

    if w.verb != Verb::Shard {
        // The four calls of the re-implemented process_batch.
        let (score, observe, push, refit) = (
            total("core.method.score"),
            total("core.incremental.observe"),
            total("core.stream.push"),
            total("core.method.refit"),
        );
        metrics.insert("core.method.score_s", score);
        metrics.insert("core.method.score_us_per_row", per_row(score) * 1e6);
        // With one block per chunk the detection probe saw exactly the
        // rows `score_matrix` did; the rest of scoring is identification.
        if w.verb == Verb::Stream {
            metrics.insert(
                "core.identify.identify_s",
                score - total("probe.core.subspace.detect"),
            );
        }
        metrics.insert("core.incremental.observe_s", observe);
        metrics.insert(
            "core.incremental.observe_ns_per_row",
            per_row(observe) * 1e9,
        );
        metrics.insert("core.stream.push_s", push);
        metrics.insert("core.method.refit_s", refit);
        metrics.insert("core.method.refit_ms_p50", p50_of("core.method.refit", 1e3));
        let batch_s = metrics.get("core.stream.batch_s").copied().unwrap_or(0.0);
        if batch_s > 0.0 {
            metrics.insert(
                "core.stream.overhead_share",
                (batch_s - (score + observe + push + refit)) / batch_s,
            );
        }
    } else if let Some(stream) = metrics
        .get("core.stream.batch_s")
        .copied()
        .filter(|s| *s > 0.0)
    {
        metrics.insert(
            "core.shard.vs_stream_ratio",
            total("core.shard.batch") / stream,
        );
    }

    if w.verb == Verb::Serve {
        let train = w.engine_config(Verb::Serve).train_bins() as u64;
        let handled: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.service.handle" && s.chunk > train)
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect();
        if !handled.is_empty() {
            metrics.insert("serve.service.handle_us_p50", median(&handled));
            metrics.insert("serve.service.handle_us_p99", percentile(&handled, 0.99));
        }
        metrics.insert(
            "serve.protocol.parse_us_p50",
            p50_of("probe.serve.protocol.parse", 1e6),
        );
        metrics.insert(
            "core.method.score_vector_us_p50",
            p50_of("probe.core.method.score_vector", 1e6),
        );
        metrics.insert(
            "serve.checkpoint.save_ms",
            total("serve.checkpoint.save") * 1e3,
        );
        metrics.insert(
            "serve.checkpoint.restore_ms",
            total("serve.checkpoint.restore") * 1e3,
        );
    }

    // The trace itself: the pipeline is the root minus what only the
    // harness adds (probes and verification), and time inside no span
    // is the root's self time.
    let root = &spans[0];
    let root_s = root.duration_ns() as f64 * 1e-9;
    let extra_s: f64 = spans
        .iter()
        .filter(|s| {
            s.parent == Some(0) && (s.name.starts_with("probe.") || s.name.starts_with("verify."))
        })
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    metrics.insert("trace.pipeline_s", root_s - extra_s);
    metrics.insert("trace.probe_s", extra_s);
    metrics.insert(
        "trace.unattributed_share",
        self_times_ns(spans)[0] as f64 * 1e-9 / root_s,
    );
    metrics.insert("trace.spans", spans.len() as f64);
}
