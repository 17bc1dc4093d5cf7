//! Parity of the sharded engine against the single-process
//! [`StreamingEngine`]: sharding must be a pure scale transform.
//!
//! For K ∈ {1, 2, 4, 8} (round-robin) and the per-PoP partition, both
//! refit strategies, streamed across several refit boundaries with
//! staged anomalies:
//!
//! * detections are **bitwise equal** (same booleans at every bin);
//! * identifications are **bitwise equal** (same flow index at every
//!   detected bin);
//! * merged SPEs agree within `1e-9` relative;
//! * post-refit thresholds are bitwise equal — the merged statistics
//!   (incremental) and the reassembled window (full-SVD) reproduce the
//!   single-process model exactly;
//! * the merged covariance matches the two-pass covariance of the
//!   retained window within `1e-9` relative.

use netanom_core::method::SubspaceBackend;
use netanom_core::shard::ShardedEngine;
use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::{DiagnoserConfig, PcaMethod, SeparationPolicy};
use netanom_linalg::{vector, Matrix};
use netanom_topology::{builtin, LinkPartition, Network};

fn training(m: usize, bins: usize, seed: usize) -> Matrix {
    Matrix::from_fn(bins, m, |i, l| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 2e5 * phase.sin() * ((l % 5) as f64 + 1.0);
        let noise = (((i * m + l + seed).wrapping_mul(2654435761)) % 8192) as f64 - 4096.0;
        2e6 + smooth + noise
    })
}

/// Every case below runs once per PCA route; `Covariance`, the one every verb
/// ships with, is the only one.
const ROUTES: [PcaMethod; 1] = [PcaMethod::Covariance];

fn config(pca_method: PcaMethod) -> DiagnoserConfig {
    DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(3),
        pca_method,
        confidence: 0.999,
    }
}

/// A streamed tail with anomalies staged on a few flows so the parity
/// check exercises the identification path.
fn staged_stream(net: &Network, bins: usize, seed: usize) -> Matrix {
    let rm = &net.routing_matrix;
    let mut stream = training(rm.num_links(), bins, seed);
    let mut k = 0usize;
    let mut t = 20;
    while t < bins {
        let flow = (k * 11 + 5) % rm.num_flows();
        let mut row = stream.row(t).to_vec();
        vector::axpy(2.5e7, &rm.column(flow), &mut row);
        stream.set_row(t, &row);
        k += 1;
        t += 25;
    }
    stream
}

/// Drive both engines over the same stream (streaming per row, sharded
/// in chunks) and assert decision-level bitwise parity.
fn assert_parity(net: &Network, partition: &LinkPartition, strategy: RefitStrategy, label: &str) {
    for pca_method in ROUTES {
        let label = &format!("{label} {pca_method:?}");
        let rm = &net.routing_matrix;
        let train = training(rm.num_links(), 300, 0);
        let stream_cfg = StreamConfig::new(300).refit_every(48).strategy(strategy);
        let mut single = StreamingEngine::new(&train, rm, config(pca_method), stream_cfg).unwrap();
        let mut sharded =
            ShardedEngine::new(&train, rm, config(pca_method), stream_cfg, partition).unwrap();

        let stream = staged_stream(net, 150, 300);
        let mut detected_bins = 0usize;
        let mut next = 0;
        while next < stream.rows() {
            let take = 36.min(stream.rows() - next);
            let block = stream.row_block(next, take).unwrap();
            let sharded_reports = sharded.process_batch(&block).unwrap();
            for (i, sh) in sharded_reports.iter().enumerate() {
                let t = next + i;
                let si = single.process(stream.row(t)).unwrap();
                assert_eq!(sh.time, si.time, "{label}: time at bin {t}");
                assert_eq!(
                    sh.detected, si.detected,
                    "{label}: detection diverged at bin {t} (sharded spe {} vs single {})",
                    sh.spe, si.spe
                );
                assert_eq!(
                    sh.threshold, si.threshold,
                    "{label}: threshold diverged at bin {t} — refitted models differ"
                );
                let rel = (sh.spe - si.spe).abs() / si.spe.max(1.0);
                assert!(rel <= 1e-9, "{label}: SPE rel {rel:.2e} at bin {t}");
                match (sh.identification, si.identification) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        detected_bins += 1;
                        assert_eq!(a.flow, b.flow, "{label}: identification at bin {t}");
                        let fr = (a.f_hat - b.f_hat).abs() / b.f_hat.abs().max(1.0);
                        assert!(fr <= 1e-9, "{label}: f_hat rel {fr:.2e} at bin {t}");
                        let eb = (sh.estimated_bytes.unwrap() - si.estimated_bytes.unwrap()).abs()
                            / si.estimated_bytes.unwrap().abs().max(1.0);
                        assert!(eb <= 1e-9, "{label}: bytes rel {eb:.2e} at bin {t}");
                    }
                    other => panic!("{label}: identification presence diverged at {t}: {other:?}"),
                }
            }
            next += take;
        }
        assert_eq!(single.refits(), sharded.refits(), "{label}: refit counts");
        assert!(single.refits() >= 3, "{label}: stream must cross refits");
        assert!(detected_bins >= 3, "{label}: staged anomalies must fire");
    }
}

#[test]
fn round_robin_parity_k1_k2_k4_k8_incremental() {
    let net = builtin::sprint_europe();
    let m = net.routing_matrix.num_links();
    for k in [1usize, 2, 4, 8] {
        let partition = LinkPartition::round_robin(m, k).unwrap();
        assert_parity(
            &net,
            &partition,
            RefitStrategy::Incremental,
            &format!("incremental k={k}"),
        );
    }
}

#[test]
fn round_robin_parity_k4_full_svd() {
    let net = builtin::sprint_europe();
    let m = net.routing_matrix.num_links();
    let partition = LinkPartition::round_robin(m, 4).unwrap();
    assert_parity(&net, &partition, RefitStrategy::FullSvd, "full-svd k=4");
}

#[test]
fn per_pop_parity_incremental() {
    let net = builtin::abilene();
    let partition = LinkPartition::per_pop(&net.topology);
    assert_eq!(partition.num_shards(), 11);
    assert_parity(
        &net,
        &partition,
        RefitStrategy::Incremental,
        "per-pop abilene",
    );
}

/// Forcing the scoped-thread fan-out (via `RAYON_NUM_THREADS`) must
/// produce bitwise the same reports as the serial path: partials are
/// merged in shard order, so the thread count can only change
/// wall-clock, never values.
#[test]
fn parallel_fanout_is_bitwise_serial() {
    for pca_method in ROUTES {
        let net = builtin::sprint_europe();
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 300, 0);
        let partition = LinkPartition::round_robin(m, 4).unwrap();
        let stream_cfg = StreamConfig::new(300)
            .refit_every(40)
            .strategy(RefitStrategy::Incremental);
        let stream = staged_stream(&net, 100, 300);

        let run = |threads: Option<&str>| {
            match threads {
                Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
            let mut engine =
                ShardedEngine::new(&train, rm, config(pca_method), stream_cfg, &partition).unwrap();
            let reports = engine.process_batch(&stream).unwrap();
            std::env::remove_var("RAYON_NUM_THREADS");
            reports
        };
        let serial = run(Some("1"));
        let parallel = run(Some("4"));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spe, b.spe, "SPE must be bitwise thread-count independent");
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.threshold, b.threshold);
            assert_eq!(
                a.identification.map(|i| i.flow),
                b.identification.map(|i| i.flow)
            );
        }
        assert!(serial.iter().any(|r| r.detected), "staged anomalies fire");
    }
}

/// The backend-generic construction path (`SubspaceBackend::fit` +
/// `ShardedEngine::with_backend`) must be bitwise identical to the
/// `ShardedEngine::new` sugar across refit boundaries — and therefore,
/// transitively, to the single-process engine the other tests pin
/// against.
#[test]
fn generic_backend_sharded_engine_is_bitwise_to_sugar() {
    for pca_method in ROUTES {
        let net = builtin::sprint_europe();
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let train = training(m, 300, 0);
        let partition = LinkPartition::round_robin(m, 4).unwrap();
        let stream = staged_stream(&net, 120, 300);

        for strategy in [RefitStrategy::FullSvd, RefitStrategy::Incremental] {
            let stream_cfg = StreamConfig::new(300).refit_every(48).strategy(strategy);
            let mut sugar =
                ShardedEngine::new(&train, rm, config(pca_method), stream_cfg, &partition).unwrap();
            let backend = SubspaceBackend::fit(&train, rm, config(pca_method), strategy).unwrap();
            let mut generic =
                ShardedEngine::with_backend(backend, &train, stream_cfg, &partition).unwrap();

            let a = sugar.process_batch(&stream).unwrap();
            let b = generic.process_batch(&stream).unwrap();
            assert_eq!(a, b, "{strategy:?}");
            assert_eq!(sugar.refits(), generic.refits());
            assert!(
                sugar.refits() >= 2,
                "{strategy:?}: stream must cross refits"
            );
            assert!(a.iter().any(|r| r.detected), "staged anomalies fire");
        }
    }
}

/// A window longer than the training set fills mid-stream: with 300
/// training rows and room for 320, the first 36-row block evicts nothing
/// for 20 pushes and a retained row on each push after, so
/// `RingWindow::evictions` returns `None` and then `Some` inside one
/// block. Every other case here sizes the window to the training set.
#[test]
fn a_window_that_fills_mid_block_keeps_parity() {
    let net = builtin::sprint_europe();
    let rm = &net.routing_matrix;
    let m = rm.num_links();
    let train = training(m, 300, 0);
    let stream = staged_stream(&net, 150, 300);
    for k in [2usize, 4] {
        let partition = LinkPartition::round_robin(m, k).unwrap();
        for strategy in [RefitStrategy::FullSvd, RefitStrategy::Incremental] {
            let label = format!("k={k} {strategy:?}");
            let cfg = config(PcaMethod::Covariance);
            let stream_cfg = StreamConfig::new(320).refit_every(48).strategy(strategy);
            let mut single = StreamingEngine::new(&train, rm, cfg, stream_cfg).unwrap();
            let mut sharded = ShardedEngine::new(&train, rm, cfg, stream_cfg, &partition).unwrap();
            let mut fired = 0;
            let mut next = 0;
            while next < stream.rows() {
                let take = 36.min(stream.rows() - next);
                let block = stream.row_block(next, take).unwrap();
                for (i, sh) in sharded.process_batch(&block).unwrap().iter().enumerate() {
                    let t = next + i;
                    let si = single.process(stream.row(t)).unwrap();
                    assert_eq!(sh.detected, si.detected, "{label}: detection at bin {t}");
                    assert_eq!(sh.threshold, si.threshold, "{label}: threshold at bin {t}");
                    let rel = (sh.spe - si.spe).abs() / si.spe.max(1.0);
                    assert!(rel <= 1e-9, "{label}: SPE rel {rel:.2e} at bin {t}");
                    let flow = |r: &netanom_core::DiagnosisReport| r.identification.map(|i| i.flow);
                    assert_eq!(flow(sh), flow(&si), "{label}: identification at bin {t}");
                    fired += usize::from(si.detected);
                }
                next += take;
            }
            assert_eq!(single.refits(), 3, "{label}: stream must cross refits");
            assert_eq!(sharded.refits(), 3, "{label}");
            assert!(fired >= 3, "{label}: staged anomalies must fire");
        }
    }
}

/// The merged covariance must match both the single-process accumulator
/// (bitwise) and the direct two-pass covariance of the retained window
/// (1e-9 relative).
#[test]
fn merged_covariance_matches_single_process_and_two_pass() {
    for pca_method in ROUTES {
        let net = builtin::line(4);
        let rm = &net.routing_matrix;
        let m = rm.num_links();
        let window = 120;
        let total = 300; // slides the window far past a full wrap
        let series = training(m, total, 7);
        let train = series.row_block(0, window).unwrap();
        let partition = LinkPartition::round_robin(m, 3).unwrap();
        let stream_cfg = StreamConfig::new(window).strategy(RefitStrategy::Incremental);
        let mut single = StreamingEngine::new(&train, rm, config(pca_method), stream_cfg).unwrap();
        let mut sharded =
            ShardedEngine::new(&train, rm, config(pca_method), stream_cfg, &partition).unwrap();
        let tail = series.row_block(window, total - window).unwrap();
        sharded.process_batch(&tail).unwrap();
        for t in 0..tail.rows() {
            single.process(tail.row(t)).unwrap();
        }

        let merged = sharded.merged_statistics().unwrap();
        let merged_cov = merged.covariance().unwrap();

        // Two-pass covariance over exactly the retained window rows.
        let retained = series.row_block(total - window, window).unwrap();
        let (centered, _) = retained.mean_centered_columns();
        let two_pass = centered.gram().scaled(1.0 / (window as f64 - 1.0));
        assert!(
            merged_cov.approx_eq(&two_pass, 1e-9 * two_pass.max_abs().max(1.0)),
            "merged covariance diverges from two-pass beyond 1e-9"
        );

        // And bitwise against the single-process incremental model: both
        // engines refit from their statistics and must produce identical
        // thresholds.
        single.refit().unwrap();
        sharded.refit().unwrap();
        assert_eq!(
            single.diagnoser().detector().threshold().delta_sq,
            sharded.diagnoser().detector().threshold().delta_sq,
            "refit from merged statistics must be bitwise identical"
        );
    }
}
