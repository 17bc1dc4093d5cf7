//! The tentpole contract: distributed tracker/worker diagnosis over
//! loopback TCP is **bitwise identical** to the in-process
//! [`ShardedEngine`] on the same partition — detections,
//! identifications, SPEs, thresholds, and byte estimates — for
//! K ∈ {2, 4} workers, across every refit strategy, and across refit
//! boundaries (rounds shrink to land refits on the same arrival
//! indices).

use std::io::Cursor;
use std::thread;

use netanom_core::{
    DiagnoserConfig, DiagnosisReport, RefitStrategy, SeparationPolicy, ShardedEngine, StreamConfig,
    SubspaceBackend,
};
use netanom_linalg::Matrix;
use netanom_net::{run_worker, Tracker, TrackerConfig, WorkerConfig, WorkerSummary};
use netanom_topology::{LinkPartition, RoutingMatrix};
use netanom_traffic::datasets;
use netanom_traffic::io::{link_series_to_csv_string, CsvChunks};
use netanom_traffic::LinkSeries;

const TRAIN_BINS: usize = 192;
const CHUNK: usize = 17;

fn config() -> DiagnoserConfig {
    DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(2),
        ..DiagnoserConfig::default()
    }
}

fn mini_data() -> (Matrix, RoutingMatrix) {
    let ds = datasets::mini(7);
    (ds.links.matrix().clone(), ds.network.routing_matrix)
}

/// A worker's copy of `data`: its CSV text, read back through the
/// reader a production worker runs.
fn csv_rows(data: &Matrix) -> CsvChunks<Cursor<Vec<u8>>> {
    let text = link_series_to_csv_string(&LinkSeries::new(data.clone()), None);
    CsvChunks::new(Cursor::new(text.into_bytes()), CHUNK).unwrap()
}

fn stream_config(strategy: RefitStrategy, refit_every: Option<usize>) -> StreamConfig {
    let mut stream = StreamConfig::new(TRAIN_BINS).strategy(strategy);
    stream.refit_every = refit_every;
    stream
}

/// Run the full distributed deployment on loopback: tracker on this
/// thread, `shards` workers on their own threads, every worker feeding
/// from its own copy of the same measurement matrix.
fn run_distributed(
    data: &Matrix,
    rm: &RoutingMatrix,
    partition: &LinkPartition,
    strategy: RefitStrategy,
    refit_every: Option<usize>,
) -> (Vec<DiagnosisReport>, Vec<WorkerSummary>) {
    let shards = partition.num_shards();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend = SubspaceBackend::fit_sharded(&training, rm, config(), strategy).unwrap();
    let mut cfg = TrackerConfig::new(TRAIN_BINS, stream_config(strategy, refit_every));
    cfg.chunk = CHUNK;
    cfg.read_timeout = std::time::Duration::from_secs(10);
    cfg.join_timeout = std::time::Duration::from_secs(10);
    let mut tracker = Tracker::bind("127.0.0.1:0", backend, partition, cfg).unwrap();
    let addr = tracker.local_addr().unwrap().to_string();

    let handles: Vec<_> = (0..shards)
        .map(|shard| {
            let addr = addr.clone();
            let links = partition.group(shard).to_vec();
            let feed = csv_rows(data);
            thread::spawn(move || {
                let mut wcfg = WorkerConfig::new(shard, shards, TRAIN_BINS);
                wcfg.read_timeout = std::time::Duration::from_secs(10);
                run_worker(&addr, feed, &links, &wcfg)
            })
        })
        .collect();

    let mut reports = Vec::new();
    let summary = tracker
        .run(|block| reports.extend_from_slice(block))
        .unwrap();
    let workers: Vec<WorkerSummary> = handles
        .into_iter()
        .map(|h| h.join().unwrap().unwrap())
        .collect();
    assert_eq!(summary.arrivals, data.rows() - TRAIN_BINS);
    assert!(summary.rejoins.is_empty(), "no faults injected here");
    for w in &workers {
        assert_eq!(w.arrivals as usize, summary.arrivals);
        assert_eq!(w.rejoins, 0);
    }
    (reports, workers)
}

/// The in-process reference on the same partition, fed the stream in
/// the same CLI-style chunks the tracker dispatches.
fn run_in_process(
    data: &Matrix,
    rm: &RoutingMatrix,
    partition: &LinkPartition,
    strategy: RefitStrategy,
    refit_every: Option<usize>,
    chunk: Option<usize>,
) -> Vec<DiagnosisReport> {
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend = SubspaceBackend::fit_sharded(&training, rm, config(), strategy).unwrap();
    let mut engine = ShardedEngine::with_backend(
        backend,
        &training,
        stream_config(strategy, refit_every),
        partition,
    )
    .unwrap();
    let mut reports = Vec::new();
    let mut next = TRAIN_BINS;
    while next < data.rows() {
        let take = chunk.unwrap_or(data.rows() - next).min(data.rows() - next);
        let block = data.row_block(next, take).unwrap();
        reports.extend(engine.process_batch(&block).unwrap());
        next += take;
    }
    reports
}

fn assert_bitwise(a: &[DiagnosisReport], b: &[DiagnosisReport], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: report counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{label}: report {i} differs");
    }
}

fn parity_case(shards: usize, strategy: RefitStrategy, refit_every: Option<usize>, label: &str) {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), shards).unwrap();
    let (dist, _) = run_distributed(&data, &rm, &partition, strategy, refit_every);
    let local = run_in_process(&data, &rm, &partition, strategy, refit_every, Some(CHUNK));
    assert_bitwise(&dist, &local, label);
    // The stream must actually exercise detections + identifications,
    // or the parity claim is vacuous.
    let detections = dist.iter().filter(|r| r.detected).count();
    assert!(detections > 0, "{label}: stream produced no detections");
    assert!(
        dist.iter().any(|r| r.identification.is_some()),
        "{label}: stream produced no identifications"
    );
}

#[test]
fn two_workers_incremental_refits_match_bitwise() {
    parity_case(2, RefitStrategy::Incremental, Some(24), "K=2 incremental");
}

#[test]
fn four_workers_incremental_refits_match_bitwise() {
    parity_case(4, RefitStrategy::Incremental, Some(24), "K=4 incremental");
}

#[test]
fn two_workers_truncated_refits_match_bitwise() {
    parity_case(2, RefitStrategy::truncated(), Some(25), "K=2 truncated");
}

#[test]
fn four_workers_full_svd_refits_match_bitwise() {
    parity_case(4, RefitStrategy::FullSvd, Some(30), "K=4 full-SVD");
}

#[test]
fn two_workers_no_refit_matches_bitwise() {
    parity_case(2, RefitStrategy::FullSvd, None, "K=2 frozen model");
}

/// Round regrouping is bitwise-safe: the distributed run (17-row
/// rounds) also matches the in-process engine fed the whole stream as
/// ONE batch (whose internal sub-blocks are refit-cadence-sized, not
/// chunk-sized) — per-row kernel contracts make block grouping
/// irrelevant to the bits.
#[test]
fn round_regrouping_is_bitwise_invisible() {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    let strategy = RefitStrategy::Incremental;
    let (dist, _) = run_distributed(&data, &rm, &partition, strategy, Some(24));
    let whole = run_in_process(&data, &rm, &partition, strategy, Some(24), None);
    assert_bitwise(&dist, &whole, "17-row rounds vs one whole batch");
}
