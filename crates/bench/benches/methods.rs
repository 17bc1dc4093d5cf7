//! Benchmarks of the pluggable detection backends: the ingestion cost
//! of each method through the *same* streaming engine.
//!
//! `methods/ingest_m121_*` replay two days of arrivals (288 bins, one
//! `process_batch` per 36-bin poll cycle) against a one-week window
//! (1008 × 121) with a refit every 72 arrivals — four refits per
//! iteration, so each method's model upkeep (eigen-solve refit, per-link
//! grid search, Holt–Winters replay, pyramid rebuild) is part of its
//! number. The committed reference baseline is
//! `scripts/bench-baseline-methods.jsonl`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_baselines::methods::{MethodBackend, TemporalBackend, TemporalKind};
use netanom_core::method::SubspaceBackend;
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

fn engine(backend: MethodBackend, training: &Matrix) -> StreamingEngine<MethodBackend> {
    StreamingEngine::with_backend(
        backend,
        training,
        StreamConfig::new(WINDOW).refit_every(REFIT_EVERY),
    )
    .expect("synthetic data fits")
}

/// Two streamed days in poll-cycle chunks; refits included.
fn ingest(base: &StreamingEngine<MethodBackend>, stream: &Matrix) -> usize {
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

fn bench_methods(c: &mut Criterion) {
    let training = links(WINDOW, 0);
    let stream = links(STREAM_BINS, WINDOW);
    // One candidate flow per link: identification stays in the subspace
    // loop without needing a topology at this width.
    let identity: Vec<Vec<usize>> = (0..M).map(|l| vec![l]).collect();
    let rm = RoutingMatrix::from_paths(M, &identity);
    let config = DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(6),
        pca_method: PcaMethod::Svd,
        confidence: 0.999,
    };

    let subspace = engine(
        MethodBackend::Subspace(
            SubspaceBackend::fit(&training, &rm, config, RefitStrategy::Incremental)
                .expect("synthetic data fits"),
        ),
        &training,
    );
    let temporal = |kind| {
        engine(
            MethodBackend::Temporal(
                TemporalBackend::fit(kind, &training, 0.999).expect("synthetic data fits"),
            ),
            &training,
        )
    };
    let ewma = temporal(TemporalKind::Ewma);
    let holt_winters = temporal(TemporalKind::HoltWinters { period: 144 });
    let wavelet = temporal(TemporalKind::Wavelet { levels: 5 });

    let mut group = c.benchmark_group("methods");
    group.sample_size(10);
    for (name, eng) in [
        ("ingest_m121_subspace", &subspace),
        ("ingest_m121_ewma", &ewma),
        ("ingest_m121_holt_winters", &holt_winters),
        ("ingest_m121_wavelet", &wavelet),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| ingest(black_box(eng), black_box(&stream)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
