//! Benchmarks of the streaming ingestion engine: the numbers behind the
//! refit-strategy trade-off (ISSUE 2's acceptance gate is incremental
//! refits ≥ 3× faster than full-SVD refits at `m = 121`). The config
//! pins `PcaMethod::Svd` so the committed `stream/*` series keeps
//! measuring that route — the seed loop's — and its gate; on the default
//! Gram route a full refit is within ≈ 1.4× of an incremental one
//! (DESIGN.md, *Parity and performance gates*).
//!
//! `stream/ingest_m121_*` replay two days of arrivals (288 bins, one
//! `process_batch` per 36-bin poll cycle) against a one-week window
//! (1008 × 121) with a refit every 72 arrivals — four refits per
//! iteration, so the refit cost dominates exactly as it would in a
//! deployment that tracks drift aggressively. `stream/refit_m121_*`
//! isolate a single refit of each flavor.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{DiagnoserConfig, PcaMethod, SeparationPolicy};
use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

const M: usize = 121;
const WINDOW: usize = 1008;
const STREAM_BINS: usize = 288;
const CHUNK: usize = 36;
const REFIT_EVERY: usize = 72;

fn links(bins: usize, seed: usize) -> Matrix {
    Matrix::from_fn(bins, M, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 7) as f64 + 1.0);
        let noise = (((i * M + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    })
}

fn engine(strategy: RefitStrategy) -> StreamingEngine {
    let training = links(WINDOW, 0);
    // One candidate flow per link: identification stays in the loop
    // without needing a topology at this width.
    let identity: Vec<Vec<usize>> = (0..M).map(|l| vec![l]).collect();
    let rm = RoutingMatrix::from_paths(M, &identity);
    let config = DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(6),
        pca_method: PcaMethod::Svd,
        confidence: 0.999,
    };
    StreamingEngine::new(
        &training,
        &rm,
        config,
        StreamConfig::new(WINDOW)
            .refit_every(REFIT_EVERY)
            .strategy(strategy),
    )
    .expect("synthetic data fits")
}

/// Two streamed days in poll-cycle chunks; refits included.
fn ingest(base: &StreamingEngine, stream: &Matrix) -> usize {
    let mut engine = base.clone();
    let mut alarms = 0usize;
    let mut next = 0;
    while next < stream.rows() {
        let take = CHUNK.min(stream.rows() - next);
        let block = stream.row_block(next, take).expect("range checked");
        alarms += engine
            .process_batch(&block)
            .expect("dims match")
            .iter()
            .filter(|r| r.detected)
            .count();
        next += take;
    }
    alarms
}

fn bench_streaming(c: &mut Criterion) {
    let stream = links(STREAM_BINS, WINDOW);
    let full = engine(RefitStrategy::FullSvd);
    let incremental = engine(RefitStrategy::Incremental);

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.bench_function("ingest_m121_fullsvd", |b| {
        b.iter(|| ingest(black_box(&full), black_box(&stream)))
    });
    group.bench_function("ingest_m121_incremental", |b| {
        b.iter(|| ingest(black_box(&incremental), black_box(&stream)))
    });

    // A single refit of each flavor, isolated from diagnosis.
    group.bench_function("refit_m121_fullsvd", |b| {
        b.iter(|| {
            let mut e = full.clone();
            e.refit().expect("window is fit-able");
            e.refits()
        })
    });
    group.bench_function("refit_m121_incremental", |b| {
        b.iter(|| {
            let mut e = incremental.clone();
            e.refit().expect("window is fit-able");
            e.refits()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
