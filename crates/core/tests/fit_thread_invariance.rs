//! The default route passes through the packed GEMM kernel
//! ([`Matrix::gram`](netanom_linalg::Matrix::gram)), whose row and
//! packing fan-outs follow the thread count while its per-entry
//! operation order does not: a fitted backend — model, threshold and
//! bootstrapped statistics — must be the same bits at one worker and at
//! eight.
//!
//! The fit runs on three weeks of the Sprint-1 network (3,024 bins ×
//! 49 links), so that its Gram product (3,024 · 49² / 2 ≈ 3.6 M
//! multiply-adds) and the seeding of its statistics (3,024 · 1,225 ≈
//! 3.7 M) each pass twice the kernels' per-worker floor of 1.5 M and
//! fan out at eight threads; one week would stay on one worker.
//!
//! The one test here changes `RAYON_NUM_THREADS`, which the `rayon` stub
//! reads at call time, so it has a test binary to itself: nothing else
//! runs in the process while the variable is not what the caller (CI's
//! determinism job, say) set it to, and it is put back afterwards.

use netanom_core::method::{DetectionBackend, SubspaceBackend};
use netanom_core::stream::RefitStrategy;
use netanom_core::{DiagnoserConfig, PcaMethod};
use netanom_traffic::datasets;

const THREADS: &str = "RAYON_NUM_THREADS";

#[test]
fn default_route_fit_is_bitwise_thread_count_invariant() {
    let ds = datasets::sprint1_extended(3 * 1008);
    let given = std::env::var_os(THREADS);
    let fit = |threads: &str| {
        std::env::set_var(THREADS, threads);
        let backend = SubspaceBackend::fit(
            ds.links.matrix(),
            &ds.network.routing_matrix,
            DiagnoserConfig::default(),
            RefitStrategy::Incremental,
        )
        .unwrap();
        assert_eq!(backend.config().pca_method, PcaMethod::Covariance);
        (
            backend.export_state().to_bytes(),
            backend.threshold().to_bits(),
            backend.statistics().expect("incremental").to_bytes(),
        )
    };
    let (one, eight) = (fit("1"), fit("8"));
    match given {
        Some(value) => std::env::set_var(THREADS, value),
        None => std::env::remove_var(THREADS),
    }
    assert_eq!(one, eight);
}
