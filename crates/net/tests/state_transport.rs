//! Wire-transport tests for [`MethodState`]: every method's exported
//! model state must survive the framed byte transport **byte
//! identically** — through an in-memory duplex and through a real TCP
//! loopback socket — because the model broadcast is what keeps every
//! worker scoring against exactly the tracker's model.

use std::net::{TcpListener, TcpStream};
use std::thread;

use netanom_baselines::methods::MethodName;
use netanom_core::{
    DetectionBackend, DiagnoserConfig, MethodState, RefitStrategy, SeparationPolicy,
    SubspaceBackend,
};
use netanom_linalg::Matrix;
use netanom_net::{read_frame, write_frame, FramedConn, DEFAULT_MAX_FRAME};
use netanom_topology::builtin;

fn training(m: usize, bins: usize) -> Matrix {
    Matrix::from_fn(bins, m, |t, l| {
        let phase = t as f64 * std::f64::consts::TAU / 144.0;
        2e6 + 2e5 * phase.sin() * ((l % 3) as f64 + 1.0)
            + (((t * m + l).wrapping_mul(2654435761)) % 8192) as f64
    })
}

fn config() -> DiagnoserConfig {
    DiagnoserConfig {
        separation: SeparationPolicy::FixedCount(2),
        ..DiagnoserConfig::default()
    }
}

/// Every method's state, exported from a freshly fitted backend.
fn all_states() -> Vec<(&'static str, MethodState)> {
    let net = builtin::line(4);
    let rm = &net.routing_matrix;
    let train = training(rm.num_links(), 300);
    MethodName::ALL
        .into_iter()
        .map(|name| {
            let backend = name
                .fit(&train, rm, config(), RefitStrategy::FullSvd)
                .unwrap();
            (backend.name(), backend.export_state())
        })
        .collect()
}

#[test]
fn every_method_state_roundtrips_through_in_memory_frames() {
    for (name, state) in all_states() {
        let bytes = state.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).unwrap();
        let mut cursor = &buf[..];
        let shipped = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(shipped, bytes, "{name}: framed payload differs");
        let decoded = MethodState::from_bytes(&shipped).unwrap();
        assert_eq!(decoded, state, "{name}: decoded state differs");
        // Re-encoding is byte-identical: the codec is canonical, so a
        // relay (tracker → checkpoint → rejoin) cannot drift.
        assert_eq!(decoded.to_bytes(), bytes, "{name}: re-encoding differs");
    }
}

#[test]
fn every_method_state_roundtrips_over_tcp_loopback() {
    let states = all_states();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server_states = states.clone();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FramedConn::new(stream, DEFAULT_MAX_FRAME);
        // Echo each state back after a decode/re-encode cycle, so the
        // client observing byte identity proves decode ∘ encode is the
        // identity across a real socket.
        for (name, state) in &server_states {
            let payload = conn.recv_raw().unwrap().unwrap();
            let decoded = MethodState::from_bytes(&payload).unwrap();
            assert_eq!(&decoded, state, "{name}: server decode differs");
            conn.send_raw(&decoded.to_bytes()).unwrap();
        }
        assert!(conn.recv_raw().unwrap().is_none(), "client should close");
    });

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut conn = FramedConn::new(stream, DEFAULT_MAX_FRAME);
    for (name, state) in &states {
        let bytes = state.to_bytes();
        conn.send_raw(&bytes).unwrap();
        let echoed = conn.recv_raw().unwrap().unwrap();
        assert_eq!(echoed, bytes, "{name}: TCP echo differs");
    }
    drop(conn);
    server.join().unwrap();
}

#[test]
fn sharded_subspace_state_matches_streaming_state() {
    // fit vs fit_sharded differ only in streaming statistics, which are
    // not part of the exported model state — the wire unit is the same.
    let net = builtin::line(4);
    let rm = &net.routing_matrix;
    let train = training(rm.num_links(), 300);
    let a = MethodName::Subspace
        .fit(&train, rm, config(), RefitStrategy::Incremental)
        .unwrap()
        .export_state();
    let b = SubspaceBackend::fit_sharded(&train, rm, config(), RefitStrategy::Incremental)
        .unwrap()
        .export_state();
    assert_eq!(a.to_bytes(), b.to_bytes());
}
