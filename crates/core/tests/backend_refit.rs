//! `SubspaceBackend::refit` through the public API when the backend was
//! fitted without streaming statistics: a typed error, not a panic.

use netanom_core::{
    CoreError, DiagnoserConfig, RefitStrategy, SeparationPolicy, StreamConfig, StreamingEngine,
    SubspaceBackend,
};
use netanom_linalg::Matrix;
use netanom_topology::builtin;

fn measurements(t: usize, m: usize) -> Matrix {
    Matrix::from_fn(t, m, |i, j| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 1e5 * (phase + j as f64).sin();
        let h = (i * m + j).wrapping_mul(2654435761) % 8192;
        1e6 + smooth + (h as f64 - 4096.0)
    })
}

#[test]
fn streaming_refit_of_a_sharded_fit_is_a_typed_error() {
    let net = builtin::line(3);
    let rm = &net.routing_matrix;
    let training = measurements(200, rm.num_links());
    let config = DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(2),
        ..DiagnoserConfig::default()
    };
    for strategy in [RefitStrategy::Incremental, RefitStrategy::truncated()] {
        // `fit_sharded` leaves the statistics to the shards; a streaming
        // engine has no shards to ask.
        let backend = SubspaceBackend::fit_sharded(&training, rm, config, strategy).unwrap();
        let stream = StreamConfig::new(200).refit_every(5).strategy(strategy);
        let mut engine = StreamingEngine::with_backend(backend, &training, stream).unwrap();
        let result = engine.process_batch(&measurements(12, rm.num_links()));
        assert!(
            matches!(result, Err(CoreError::ShardMismatch { .. })),
            "{strategy:?}: {result:?}"
        );
    }
    // Full refits rebuild from the window and never needed them.
    let backend =
        SubspaceBackend::fit_sharded(&training, rm, config, RefitStrategy::FullSvd).unwrap();
    let stream = StreamConfig::new(200).refit_every(5);
    let mut engine = StreamingEngine::with_backend(backend, &training, stream).unwrap();
    engine
        .process_batch(&measurements(12, rm.num_links()))
        .unwrap();
    assert_eq!(engine.refits(), 2);
}
