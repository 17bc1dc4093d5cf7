//! Benchmarks of the large-topology refit path: the numbers behind the
//! truncated-eigensolver trade-off (the truncated refit against the
//! dense one at `m = 1024`; DESIGN.md states the gate).
//!
//! `scale/refit_m{512,1024}_{jacobi,truncated}` rebuild a
//! [`SubspaceModel`](netanom_core::SubspaceModel) from the same
//! sufficient statistics (`IncrementalCovariance` over a synthetic
//! diurnal window): the `jacobi` ids run the full `m × m` eigensolve
//! (`to_model`, the [`RefitStrategy::Incremental`] route — tridiagonal
//! QL since the cyclic Jacobi solver they were named for retired; the
//! ids stay so the baseline file keeps one series per route), the
//! `truncated` ids the blocked top-k subspace iteration plus the
//! exact-moment threshold traces (`to_model_truncated`, the
//! [`RefitStrategy::Truncated`] route).
//!
//! [`RefitStrategy::Incremental`]: netanom_core::RefitStrategy::Incremental
//! [`RefitStrategy::Truncated`]: netanom_core::RefitStrategy::Truncated

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_core::incremental::IncrementalCovariance;
use netanom_core::SeparationPolicy;
use netanom_linalg::Matrix;

const TRAIN_BINS: usize = 288;
const R: usize = 6;
const K: usize = 8;
const TOL: f64 = 1e-10;

/// Sufficient statistics of a synthetic diurnal window at width `m`:
/// the same structural shape the streaming benches use, so the
/// covariance has a realistic few-dominant-axes spectrum with a noisy
/// tail.
fn stats(m: usize) -> IncrementalCovariance {
    let data = Matrix::from_fn(TRAIN_BINS, m, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 7) as f64 + 1.0)
            + 1e5 * (2.0 * phase).cos() * ((l % 5) as f64)
            + 5e4 * (3.0 * phase).sin() * ((l % 11) as f64);
        let noise = (((i * m + l).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    });
    IncrementalCovariance::from_matrix(&data)
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    // A dense iteration nears a second of wall clock at m = 1024; keep
    // the sample counts minimal.
    group.sample_size(2);
    for m in [512usize, 1024] {
        let acc = stats(m);
        group.bench_function(&format!("refit_m{m}_jacobi"), |b| {
            b.iter(|| {
                black_box(&acc)
                    .to_model(SeparationPolicy::FixedCount(R))
                    .expect("synthetic stats fit")
                    .normal_dim()
            })
        });
        group.bench_function(&format!("refit_m{m}_truncated"), |b| {
            b.iter(|| {
                black_box(&acc)
                    .to_model_truncated(SeparationPolicy::FixedCount(R), K, TOL)
                    .expect("synthetic stats fit")
                    .normal_dim()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
