//! Benchmarks of the sharded diagnosis engine: the numbers behind the
//! "sharding is a pure scale transform" claim.
//!
//! `shard/ingest_m121_k{1,2,4,8}` replay two days of arrivals (288 bins,
//! one `process_batch` per 72-bin chunk) against a one-week window
//! (1008 × 121) with incremental statistics maintained and no refits —
//! isolating the per-arrival cost the shards split: the `O(m²)`
//! sufficient-statistic upkeep plus the `O(m·r)` SPE work.
//! `shard/refit_m121_k4` isolates one merge + dense refit + broadcast
//! cycle, the coordination overhead the global view costs.
//!
//! Interpreting the committed baseline
//! (`scripts/bench-baseline-shard.jsonl`): shard phases fan out over
//! scoped worker threads only when more than one hardware thread is
//! available. On a single-core host (where the committed baseline was
//! recorded) the engine runs the shards serially, so `k4` vs `k1`
//! measures the *overhead* of sharding — the gate there is that `k4`
//! stays within a few percent of `k1`. With ≥ 4 hardware threads the
//! same ids measure the speedup; the ≥ 2× `k4`-vs-`k1` ingestion gate
//! applies to multi-core hosts (`RAYON_NUM_THREADS` caps the fan-out).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_core::shard::ShardedEngine;
use netanom_core::stream::{RefitStrategy, StreamConfig};
use netanom_core::{DiagnoserConfig, PcaMethod, SeparationPolicy};
use netanom_linalg::Matrix;
use netanom_topology::{LinkPartition, RoutingMatrix};

const M: usize = 121;
const WINDOW: usize = 1008;
const STREAM_BINS: usize = 288;
const CHUNK: usize = 72;

fn links(bins: usize, seed: usize) -> Matrix {
    Matrix::from_fn(bins, M, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 7) as f64 + 1.0);
        let noise = (((i * M + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    })
}

fn engine(shards: usize, refit_every: Option<usize>) -> ShardedEngine {
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
    let partition = LinkPartition::round_robin(M, shards).expect("valid shard count");
    let mut stream = StreamConfig::new(WINDOW).strategy(RefitStrategy::Incremental);
    stream.refit_every = refit_every;
    ShardedEngine::new(&training, &rm, config, stream, &partition).expect("synthetic data fits")
}

/// Two streamed days in poll-cycle chunks (no refits: pure ingestion).
fn ingest(base: &ShardedEngine, stream: &Matrix) -> usize {
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

fn bench_sharding(c: &mut Criterion) {
    let stream = links(STREAM_BINS, WINDOW);

    let mut group = c.benchmark_group("shard");
    group.sample_size(10);
    for k in [1usize, 2, 4, 8] {
        let base = engine(k, None);
        let id = format!("ingest_m121_k{k}");
        group.bench_function(&id, |b| {
            b.iter(|| ingest(black_box(&base), black_box(&stream)))
        });
    }

    // One merge + refit + broadcast cycle, isolated from diagnosis.
    let refit_base = engine(4, Some(100_000));
    group.bench_function("refit_m121_k4", |b| {
        b.iter(|| {
            let mut e = refit_base.clone();
            e.refit().expect("window is fit-able");
            e.refits()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
