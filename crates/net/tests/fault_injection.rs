//! Fault-injection suite: severed connections are *classified*
//! (clean EOF vs mid-frame cut), the tracker's bounded retry/backoff
//! rejoin windows recover a restarted worker, and a worker killed and
//! restarted from its checkpoint produces a report stream **bitwise
//! identical** to a run where nothing ever failed.

use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use netanom_core::incremental::CovarianceShard;
use netanom_core::{
    CoreError, DetectionBackend, DiagnoserConfig, DiagnosisReport, MethodState, RefitStrategy,
    SeparationPolicy, ShardedEngine, StreamConfig, SubspaceBackend,
};
use netanom_linalg::Matrix;
use netanom_net::{
    run_worker, Checkpoint, FailureKind, FramedConn, InjectedFault, Message, NetError, Tracker,
    TrackerConfig, WorkerConfig, DEFAULT_MAX_FRAME,
};
use netanom_topology::{LinkPartition, RoutingMatrix};
use netanom_traffic::datasets;
use netanom_traffic::io::{link_series_to_csv_string, CsvChunks};
use netanom_traffic::LinkSeries;

const TRAIN_BINS: usize = 192;
const CHUNK: usize = 17;
const REFIT_EVERY: usize = 24;
const FAULT_SHARD: usize = 0;

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

fn stream_config() -> StreamConfig {
    let mut stream = StreamConfig::new(TRAIN_BINS).strategy(RefitStrategy::Incremental);
    stream.refit_every = Some(REFIT_EVERY);
    stream
}

fn tracker_config() -> TrackerConfig {
    let mut cfg = TrackerConfig::new(TRAIN_BINS, stream_config());
    cfg.chunk = CHUNK;
    cfg.read_timeout = Duration::from_secs(10);
    cfg.join_timeout = Duration::from_secs(10);
    cfg.rejoin_backoff = Duration::from_millis(100);
    cfg
}

fn worker_config(shard: usize) -> WorkerConfig {
    let mut cfg = WorkerConfig::new(shard, 2, TRAIN_BINS);
    cfg.read_timeout = Duration::from_secs(10);
    cfg
}

fn checkpoint_path(test: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("netanom_fault_{test}_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The fault-free in-process reference on the same partition and
/// chunking — what every faulted distributed run must match bitwise.
fn reference(data: &Matrix, rm: &RoutingMatrix, partition: &LinkPartition) -> Vec<DiagnosisReport> {
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, rm, config(), RefitStrategy::Incremental).unwrap();
    let mut engine =
        ShardedEngine::with_backend(backend, &training, stream_config(), partition).unwrap();
    let mut reports = Vec::new();
    let mut next = TRAIN_BINS;
    while next < data.rows() {
        let take = CHUNK.min(data.rows() - next);
        let block = data.row_block(next, take).unwrap();
        reports.extend(engine.process_batch(&block).unwrap());
        next += take;
    }
    reports
}

/// Run shard `FAULT_SHARD` with an injected fault: the first
/// `run_worker` call must die with [`NetError::Injected`], and the
/// restart — same checkpoint path, fault cleared, fresh feed — must
/// resume mid-stream and finish the run.
fn faulted_then_restarted(
    addr: String,
    data: Matrix,
    links: Vec<usize>,
    fault: InjectedFault,
    ckpt: PathBuf,
) -> thread::JoinHandle<(u64, usize)> {
    thread::spawn(move || {
        let mut cfg = worker_config(FAULT_SHARD);
        cfg.checkpoint = Some(ckpt.clone());
        cfg.fault = Some(fault);
        let first = run_worker(&addr, csv_rows(&data), &links, &cfg);
        assert!(
            matches!(first, Err(NetError::Injected)),
            "faulted run should die with Injected, got {first:?}"
        );
        assert!(ckpt.exists(), "the killed worker left no checkpoint");
        cfg.fault = None;
        let summary = run_worker(&addr, csv_rows(&data), &links, &cfg).unwrap();
        let _ = std::fs::remove_file(&ckpt);
        (summary.arrivals, summary.rejoins)
    })
}

/// Drive a 2-worker run where shard `FAULT_SHARD` dies with `fault`
/// after completing round `n` and is restarted from its checkpoint;
/// asserts the failure classification and bitwise parity with the
/// fault-free reference.
fn kill_and_rejoin_case(fault: InjectedFault, expected_kind: FailureKind, test: &str) {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    let want = reference(&data, &rm, &partition);

    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::Incremental).unwrap();
    let mut tracker = Tracker::bind("127.0.0.1:0", backend, &partition, tracker_config()).unwrap();
    let addr = tracker.local_addr().unwrap().to_string();

    let faulted = faulted_then_restarted(
        addr.clone(),
        data.clone(),
        partition.group(FAULT_SHARD).to_vec(),
        fault,
        checkpoint_path(test),
    );
    let healthy = {
        let links = partition.group(1).to_vec();
        let feed = csv_rows(&data);
        thread::spawn(move || run_worker(&addr, feed, &links, &worker_config(1)).unwrap())
    };

    let mut got = Vec::new();
    let summary = tracker.run(|block| got.extend_from_slice(block)).unwrap();
    let (restarted_arrivals, _) = faulted.join().unwrap();
    let healthy_summary = healthy.join().unwrap();

    // Classification: exactly one failure episode, on the faulted
    // shard, with the injected signature.
    assert_eq!(summary.rejoins.len(), 1, "expected one rejoin episode");
    let event = &summary.rejoins[0];
    assert_eq!(event.shard, FAULT_SHARD);
    assert_eq!(event.kind, expected_kind);
    assert!(event.attempts >= 1);

    // The restarted worker resumed mid-stream (no warmup): its final
    // arrival count covers the whole stream, like the healthy worker's.
    let total = (data.rows() - TRAIN_BINS) as u64;
    assert_eq!(restarted_arrivals, total);
    assert_eq!(healthy_summary.arrivals, total);

    // Bitwise parity with the fault-free reference, and non-vacuous.
    assert_eq!(got.len(), want.len());
    for (i, (x, y)) in got.iter().zip(&want).enumerate() {
        assert_eq!(x, y, "report {i} differs from the fault-free run");
    }
    assert!(got.iter().any(|r| r.detected && r.identification.is_some()));
}

#[test]
fn clean_drop_mid_stream_classifies_clean_eof_and_resumes_bitwise() {
    // Round 3 is mid-stream, one round past the first refit: the
    // restarted worker must carry refitted state and sliding
    // statistics out of its checkpoint.
    kill_and_rejoin_case(
        InjectedFault::DropAfterRounds(3),
        FailureKind::CleanEof,
        "drop_mid_stream",
    );
}

#[test]
fn clean_drop_at_refit_boundary_faults_inside_the_refit_collection() {
    // Round 2 completes exactly `refit_every` arrivals: the EOF lands
    // while the tracker is collecting refit statistics, so the rejoin
    // and the re-requested statistics must still merge bitwise.
    kill_and_rejoin_case(
        InjectedFault::DropAfterRounds(2),
        FailureKind::CleanEof,
        "drop_at_refit",
    );
}

#[test]
fn mid_frame_sever_classifies_severed_and_replays_the_round_bitwise() {
    // The tracker never received this worker's phase B for round 3, so
    // after the rejoin it re-drives the round and the worker replays
    // its checkpointed caches instead of recomputing.
    kill_and_rejoin_case(
        InjectedFault::SeverMidFrameAfterRounds(3),
        FailureKind::SeveredMidFrame,
        "sever_mid_stream",
    );
}

#[test]
fn unrecovered_worker_exhausts_bounded_rejoin_windows() {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::Incremental).unwrap();
    let mut cfg = tracker_config();
    cfg.rejoin_attempts = 2;
    cfg.rejoin_backoff = Duration::from_millis(50);
    let mut tracker = Tracker::bind("127.0.0.1:0", backend, &partition, cfg).unwrap();
    let addr = tracker.local_addr().unwrap().to_string();

    // Shard 0 dies after round 1 and is never restarted; shard 1 dies
    // with the tracker and must not hang (its own reconnects are
    // bounded too).
    let dead = {
        let addr = addr.clone();
        let links = partition.group(0).to_vec();
        let feed = csv_rows(&data);
        thread::spawn(move || {
            let mut cfg = worker_config(0);
            cfg.fault = Some(InjectedFault::DropAfterRounds(1));
            run_worker(&addr, feed, &links, &cfg)
        })
    };
    let orphan = {
        let links = partition.group(1).to_vec();
        let feed = csv_rows(&data);
        thread::spawn(move || {
            let mut cfg = worker_config(1);
            cfg.retries = 2;
            cfg.backoff = Duration::from_millis(10);
            run_worker(&addr, feed, &links, &cfg)
        })
    };

    let err = tracker.run(|_| {}).unwrap_err();
    match err {
        NetError::WorkerLost {
            shard,
            attempts,
            last,
        } => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 2);
            assert_eq!(last.kind(), FailureKind::CleanEof);
        }
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    drop(tracker);
    assert!(matches!(dead.join().unwrap(), Err(NetError::Injected)));
    assert!(orphan.join().unwrap().is_err(), "orphan must not finish");
}

#[test]
fn mismatched_checkpoint_is_refused() {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::Incremental).unwrap();
    let mut tracker = Tracker::bind("127.0.0.1:0", backend, &partition, tracker_config()).unwrap();
    let addr = tracker.local_addr().unwrap().to_string();
    let ckpt = checkpoint_path("mismatch");

    // Run shard 0 to completion with a checkpoint...
    let w0 = {
        let addr = addr.clone();
        let links = partition.group(0).to_vec();
        let feed = csv_rows(&data);
        let ckpt = ckpt.clone();
        thread::spawn(move || {
            let mut cfg = worker_config(0);
            cfg.checkpoint = Some(ckpt);
            run_worker(&addr, feed, &links, &cfg).unwrap()
        })
    };
    let w1 = {
        let addr = addr.clone();
        let links = partition.group(1).to_vec();
        let feed = csv_rows(&data);
        thread::spawn(move || run_worker(&addr, feed, &links, &worker_config(1)).unwrap())
    };
    tracker.run(|_| {}).unwrap();
    w0.join().unwrap();
    w1.join().unwrap();

    // ...then hand that checkpoint to a differently-configured worker:
    // it must refuse before touching the network.
    let mut cfg = worker_config(1);
    cfg.checkpoint = Some(ckpt.clone());
    let err = run_worker("127.0.0.1:1", csv_rows(&data), partition.group(1), &cfg).unwrap_err();
    assert!(
        matches!(err, NetError::Checkpoint { .. }),
        "expected a checkpoint refusal, got {err:?}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

/// A tracker that asks for a round of zero rows gets a protocol error
/// back from the worker.
#[test]
fn run_block_of_zero_rows_is_refused() {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let state = SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::FullSvd)
        .unwrap()
        .export_state()
        .to_bytes();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let tracker = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FramedConn::new(stream, DEFAULT_MAX_FRAME);
        assert!(matches!(conn.recv().unwrap(), Message::Join { .. }));
        conn.send(&Message::Welcome {
            state,
            strategy: RefitStrategy::FullSvd,
            window_capacity: TRAIN_BINS as u64,
            round: 0,
        })
        .unwrap();
        conn.send(&Message::RunBlock { round: 1, take: 0 }).unwrap();
        // The worker hangs up instead of replying.
        assert!(conn.recv_raw().unwrap().is_none());
    });
    let err = run_worker(
        &addr,
        csv_rows(&data),
        partition.group(0),
        &worker_config(0),
    )
    .unwrap_err();
    assert!(
        matches!(err, NetError::Protocol { .. }),
        "expected a protocol refusal, got {err:?}"
    );
    tracker.join().unwrap();
}

/// The full-SVD model state of the mini training prefix, and its
/// normal dimension `r`.
fn mini_state() -> (Vec<u8>, usize) {
    let (data, rm) = mini_data();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::FullSvd).unwrap();
    let r = backend.diagnoser().model().normal_dim();
    (backend.export_state().to_bytes(), r)
}

/// `state` cut down to a model over its first `keep` links.
fn narrowed(state: &[u8], keep: usize) -> Vec<u8> {
    let mut state = MethodState::from_bytes(state).unwrap();
    for v in &mut state.vectors {
        v.truncate(keep);
    }
    state.matrices[0] = state.matrices[0].row_block(0, keep).unwrap();
    state.to_bytes()
}

fn welcome(state: Vec<u8>, window_capacity: u64) -> Message {
    Message::Welcome {
        state,
        strategy: RefitStrategy::FullSvd,
        window_capacity,
        round: 0,
    }
}

/// A hand-driven tracker: accept one worker, read its `Join`, answer
/// `welcome`, then run `script` on the connection.
fn hand_driven_tracker(
    welcome: Message,
    script: impl FnOnce(&mut FramedConn<TcpStream>) + Send + 'static,
) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let tracker = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FramedConn::new(stream, DEFAULT_MAX_FRAME);
        assert!(matches!(conn.recv().unwrap(), Message::Join { .. }));
        conn.send(&welcome).unwrap();
        script(&mut conn);
    });
    (addr, tracker)
}

/// Run shard 0 of a 2-shard mini partition against `addr` and return
/// its error.
fn worker_error(addr: &str, cfg: &WorkerConfig) -> NetError {
    let (data, rm) = mini_data();
    let partition = LinkPartition::round_robin(rm.num_links(), 2).unwrap();
    run_worker(addr, csv_rows(&data), partition.group(0), cfg).unwrap_err()
}

/// A model that is not `dim` links wide, in a `Welcome` or in a later
/// `Model` broadcast, is refused instead of indexing past its mean.
#[test]
fn a_model_of_the_wrong_width_is_refused() {
    let (state, _) = mini_state();
    let m = mini_data().1.num_links();
    let narrow = narrowed(&state, m / 2);

    let (addr, tracker) = hand_driven_tracker(welcome(narrow.clone(), TRAIN_BINS as u64), |_| {});
    let err = worker_error(&addr, &worker_config(0));
    assert!(
        matches!(err, NetError::Protocol { .. }),
        "welcome: expected a protocol refusal, got {err:?}"
    );
    tracker.join().unwrap();

    let (addr, tracker) = hand_driven_tracker(welcome(state, TRAIN_BINS as u64), move |conn| {
        conn.send(&Message::Model {
            round: 0,
            state: narrow,
        })
        .unwrap();
        assert!(conn.recv_raw().unwrap().is_none());
    });
    let err = worker_error(&addr, &worker_config(0));
    assert!(
        matches!(err, NetError::Protocol { .. }),
        "model: expected a protocol refusal, got {err:?}"
    );
    tracker.join().unwrap();
}

/// Merged coefficients that are not `rows × r` are refused before phase
/// B touches any state.
#[test]
fn merged_coefficients_of_the_wrong_shape_are_refused() {
    let (state, r) = mini_state();
    let (addr, tracker) = hand_driven_tracker(welcome(state, TRAIN_BINS as u64), move |conn| {
        conn.send(&Message::RunBlock { round: 1, take: 5 }).unwrap();
        assert!(matches!(
            conn.recv().unwrap(),
            Message::PhaseA { rows: 5, .. }
        ));
        conn.send(&Message::Merged {
            round: 1,
            coeffs: Matrix::zeros(5, r + 1),
        })
        .unwrap();
        assert!(conn.recv_raw().unwrap().is_none());
    });
    let err = worker_error(&addr, &worker_config(0));
    assert!(
        matches!(err, NetError::Core(CoreError::DimensionMismatch { .. })),
        "expected a dimension refusal, got {err:?}"
    );
    tracker.join().unwrap();
}

/// A `Welcome` granting a window of zero rows is refused.
#[test]
fn a_zero_window_capacity_is_refused() {
    let (state, _) = mini_state();
    let (addr, tracker) = hand_driven_tracker(welcome(state, 0), |_| {});
    let err = worker_error(&addr, &worker_config(0));
    assert!(
        matches!(err, NetError::Protocol { .. }),
        "expected a protocol refusal, got {err:?}"
    );
    tracker.join().unwrap();
}

/// A checkpoint whose window is not `dim` links wide is refused before
/// the network is touched.
#[test]
fn a_checkpoint_window_of_the_wrong_width_is_refused() {
    let (state, _) = mini_state();
    let (data, rm) = mini_data();
    let m = rm.num_links();
    let partition = LinkPartition::round_robin(m, 2).unwrap();
    let ckpt = checkpoint_path("narrow_window");
    Checkpoint {
        shard: 0,
        shards: 2,
        dim: m as u64,
        links: partition.group(0).to_vec(),
        train_bins: TRAIN_BINS as u64,
        completed_round: 0,
        arrivals: 0,
        state: state.clone(),
        stats: None,
        window_capacity: TRAIN_BINS as u64,
        window: data.row_block(0, 3).unwrap().select_columns(&[0, 1]),
        cache: None,
    }
    .save(&ckpt)
    .unwrap();

    let (addr, tracker) = hand_driven_tracker(welcome(state, TRAIN_BINS as u64), |_| {});
    let mut cfg = worker_config(0);
    cfg.checkpoint = Some(ckpt.clone());
    let err = worker_error(&addr, &cfg);
    assert!(
        matches!(err, NetError::Checkpoint { .. }),
        "expected a checkpoint refusal, got {err:?}"
    );
    // The worker never joined: release the hand-driven tracker.
    let mut probe = FramedConn::new(TcpStream::connect(&addr).unwrap(), DEFAULT_MAX_FRAME);
    probe
        .send(&Message::Join {
            shard: 0,
            shards: 2,
            dim: m as u64,
            links: Vec::new(),
            train_bins: TRAIN_BINS as u64,
            completed_round: 0,
            arrivals: 0,
        })
        .unwrap();
    tracker.join().unwrap();
    let _ = std::fs::remove_file(&ckpt);
}

/// A checkpoint carrying another shard's statistics rows is refused at
/// load, before the network is touched, instead of surfacing rounds
/// later as the tracker's merge error or a phase-B dimension error.
#[test]
fn a_checkpoint_with_another_shards_statistics_is_refused() {
    let (state, _) = mini_state();
    let (data, rm) = mini_data();
    let m = rm.num_links();
    let partition = LinkPartition::round_robin(m, 2).unwrap();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let mut foreign = CovarianceShard::new(m, partition.group(1)).unwrap();
    for t in 0..training.rows() {
        foreign.add(training.row(t)).unwrap();
    }
    let ckpt = checkpoint_path("foreign_stats");
    Checkpoint {
        shard: 0,
        shards: 2,
        dim: m as u64,
        links: partition.group(0).to_vec(),
        train_bins: TRAIN_BINS as u64,
        completed_round: 0,
        arrivals: 0,
        state,
        stats: Some(foreign.to_bytes()),
        window_capacity: TRAIN_BINS as u64,
        window: training,
        cache: None,
    }
    .save(&ckpt)
    .unwrap();

    let mut cfg = worker_config(0);
    cfg.checkpoint = Some(ckpt.clone());
    let err = run_worker("127.0.0.1:1", csv_rows(&data), partition.group(0), &cfg).unwrap_err();
    assert!(
        matches!(err, NetError::Checkpoint { .. }),
        "expected a checkpoint refusal, got {err:?}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

/// A worker whose phase-A partial is not `rows × r` is a fatal protocol
/// error at the tracker, not a panic in the merge.
#[test]
fn a_phase_a_partial_of_the_wrong_width_is_a_protocol_error() {
    let (data, rm) = mini_data();
    let m = rm.num_links();
    let partition = LinkPartition::round_robin(m, 1).unwrap();
    let training = data.row_block(0, TRAIN_BINS).unwrap();
    let backend =
        SubspaceBackend::fit_sharded(&training, &rm, config(), RefitStrategy::FullSvd).unwrap();
    let r = backend.diagnoser().model().normal_dim();
    let mut cfg = tracker_config();
    cfg.stream = StreamConfig::new(TRAIN_BINS);
    let mut tracker = Tracker::bind("127.0.0.1:0", backend, &partition, cfg).unwrap();
    let addr = tracker.local_addr().unwrap().to_string();

    let worker = thread::spawn(move || {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut conn = FramedConn::new(stream, DEFAULT_MAX_FRAME);
        conn.send(&Message::Join {
            shard: 0,
            shards: 1,
            dim: m as u64,
            links: (0..m as u64).collect(),
            train_bins: TRAIN_BINS as u64,
            completed_round: 0,
            arrivals: 0,
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::Welcome { .. }));
        let Message::RunBlock { round, take } = conn.recv().unwrap() else {
            panic!("expected run-block");
        };
        conn.send(&Message::PhaseA {
            round,
            rows: take,
            coeffs: Matrix::zeros(take as usize, r + 1),
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::Fatal { .. }));
    });

    let err = tracker.run(|_| {}).unwrap_err();
    assert!(
        matches!(err, NetError::Protocol { .. }),
        "expected a protocol error, got {err:?}"
    );
    worker.join().unwrap();
}
