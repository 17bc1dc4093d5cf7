//! Protocol state-machine suite: out-of-order commands answer typed
//! errors without killing the daemon, the reply grammar is stable, and
//! neither transport can be stopped or grown by the bytes a client sends.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use netanom_serve::{
    serve_lines, serve_tcp, ErrorCode, Service, SessionCheckpoint, TcpServeOptions,
};

/// Drive one line and return the response lines.
fn ask(service: &mut Service, line: &str) -> Vec<String> {
    service.handle_line(line).lines
}

/// The final reply line of a command.
fn reply(service: &mut Service, line: &str) -> String {
    ask(service, line).pop().expect("commands answer one reply")
}

fn row_csv(dim: usize, value: f64) -> String {
    (0..dim)
        .map(|j| format!("{}", value + j as f64))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn out_of_order_commands_answer_typed_errors_and_daemon_survives() {
    let mut service = Service::new();

    // obs before open.
    let r = reply(&mut service, "obs s1 1,2,3");
    assert!(r.starts_with("err no-session "), "{r}");
    // drain / checkpoint / stats / close before open.
    for cmd in [
        "drain s1",
        "checkpoint s1 /tmp/nowhere.bin",
        "restore s1 /tmp/nowhere.bin",
        "stats s1",
        "close s1",
    ] {
        let r = reply(&mut service, cmd);
        assert!(r.starts_with("err no-session "), "{cmd}: {r}");
    }

    // A malformed line and an unknown verb are parse-level errors.
    let r = reply(&mut service, "obs s1 1,zebra");
    assert!(r.starts_with("err parse "), "{r}");
    let r = reply(&mut service, "teleport s1");
    assert!(r.starts_with("err unknown-command "), "{r}");

    // The daemon is still alive and can open a session.
    let r = reply(&mut service, "open s1 dim=3 train-bins=4");
    assert_eq!(r, "ok open s1 phase=training queue=4096");

    // Double open is typed.
    let r = reply(&mut service, "open s1 dim=3 train-bins=4");
    assert!(r.starts_with("err session-exists "), "{r}");

    // Wrong-width rows are typed and do not advance the session.
    let r = reply(&mut service, "obs s1 1,2");
    assert!(r.starts_with("err dim-mismatch "), "{r}");
    let r = reply(&mut service, "stats s1");
    assert_eq!(r, "ok stats sessions=1");

    // Bad open parameters are typed, listing the valid sets.
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 method=kalman");
    assert!(r.starts_with("err bad-config "), "{r}");
    assert!(r.contains("subspace"), "must list valid methods: {r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 refit=sometimes");
    assert!(r.starts_with("err bad-config "), "{r}");
    assert!(r.contains("full|incremental|truncated"), "{r}");
    let r = reply(&mut service, "open s2 dim=0 train-bins=4");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 drain=later");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 cadence=7");
    assert!(r.starts_with("err bad-config "), "{r}");

    // Restoring from a file that does not exist is a checkpoint error.
    let r = reply(&mut service, "restore s1 /tmp/netanom-serve-noexist.bin");
    assert!(r.starts_with("err checkpoint "), "{r}");

    // After all of that, the daemon still works end to end (ewma fits
    // on any training rows, unlike the subspace method on a rank-1
    // ramp).
    let r = reply(&mut service, "open ok-sess dim=3 train-bins=4 method=ewma");
    assert!(r.starts_with("ok open ok-sess "), "{r}");
    for t in 0..5 {
        let r = reply(
            &mut service,
            &format!("obs ok-sess {}", row_csv(3, t as f64)),
        );
        assert!(r.starts_with("ok obs ok-sess "), "{r}");
    }
    let r = reply(&mut service, "close s1");
    assert_eq!(r, "ok close s1");
    let r = reply(&mut service, "ping");
    assert_eq!(r, "ok pong");
}

#[test]
fn restore_with_mismatched_dims_or_method_is_typed() {
    let dir = std::env::temp_dir().join("netanom-serve-restore-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("session.bin");
    let cp_arg = cp.to_str().unwrap();

    let mut service = Service::new();
    assert_eq!(
        reply(&mut service, "open a dim=3 train-bins=4"),
        "ok open a phase=training queue=4096"
    );
    for t in 0..2 {
        reply(&mut service, &format!("obs a {}", row_csv(3, t as f64)));
    }
    let r = reply(&mut service, &format!("checkpoint a {cp_arg}"));
    assert!(r.starts_with("ok checkpoint a bytes="), "{r}");

    // A 4-link session cannot adopt a 3-link checkpoint.
    reply(&mut service, "open wide dim=4 train-bins=4");
    let r = reply(&mut service, &format!("restore wide {cp_arg}"));
    assert!(r.starts_with("err dim-mismatch "), "{r}");

    // An ewma session cannot adopt a subspace checkpoint.
    reply(&mut service, "open other dim=3 train-bins=4 method=ewma");
    let r = reply(&mut service, &format!("restore other {cp_arg}"));
    assert!(r.starts_with("err state-mismatch "), "{r}");

    // A truncated checkpoint file is rejected with a checkpoint error.
    let bytes = std::fs::read(&cp).unwrap();
    std::fs::write(&cp, &bytes[..bytes.len() / 2]).unwrap();
    reply(&mut service, "open third dim=3 train-bins=4");
    let r = reply(&mut service, &format!("restore third {cp_arg}"));
    assert!(r.starts_with("err checkpoint "), "{r}");

    // A hostile file — zero links and a training-row count of 2^61 —
    // is a checkpoint error too, not a `capacity overflow` panic that
    // takes every session down with the daemon.
    reply(&mut service, "open tiny dim=1 train-bins=4");
    let r = reply(&mut service, &format!("checkpoint tiny {cp_arg}"));
    assert_eq!(r, "ok checkpoint tiny bytes=157");
    let mut hostile = std::fs::read(&cp).unwrap();
    // magic(4) version(4) method(8+8) | dim(8) … | three row counts, two tags.
    hostile[24..32].copy_from_slice(&0u64.to_le_bytes());
    hostile[131..139].copy_from_slice(&(1u64 << 61).to_le_bytes());
    assert_eq!(
        SessionCheckpoint::from_bytes(&hostile).unwrap_err().code,
        ErrorCode::Checkpoint
    );
    std::fs::write(&cp, &hostile).unwrap();
    let r = reply(&mut service, &format!("restore third {cp_arg}"));
    assert!(r.starts_with("err checkpoint "), "{r}");
    // So are a width the count overflows against, and a count the
    // buffer cannot hold.
    hostile[24..32].copy_from_slice(&8u64.to_le_bytes());
    assert!(SessionCheckpoint::from_bytes(&hostile).is_err());
    hostile[131..139].copy_from_slice(&3u64.to_le_bytes());
    assert!(SessionCheckpoint::from_bytes(&hostile).is_err());

    // The original session is untouched by the failed restores.
    let r = reply(&mut service, "stats a");
    assert_eq!(r, "ok stats sessions=1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backpressure_is_observable_with_manual_drain() {
    let mut service = Service::new();
    assert_eq!(
        reply(
            &mut service,
            "open q dim=2 train-bins=8 queue=4 drain=manual"
        ),
        "ok open q phase=training queue=4"
    );
    // Four rows fit; the fifth and sixth answer `busy` and are dropped.
    for t in 0..4 {
        let r = reply(&mut service, &format!("obs q {t},{t}"));
        assert_eq!(r, format!("ok obs q queued={} phase=training", t + 1));
    }
    for _ in 0..2 {
        let r = reply(&mut service, "obs q 9,9");
        assert_eq!(r, "busy q queued=4 capacity=4");
    }
    let lines = ask(&mut service, "stats q");
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("queued=4"), "{}", lines[0]);
    assert!(lines[0].contains("drops=2"), "{}", lines[0]);

    // Draining makes room again; a budgeted drain processes only that
    // many rows.
    let r = reply(&mut service, "drain q 3");
    assert_eq!(r, "ok drain q processed=3 queued=1");
    let r = reply(&mut service, "obs q 5,5");
    assert_eq!(r, "ok obs q queued=2 phase=training");
    let r = reply(&mut service, "drain q");
    assert_eq!(r, "ok drain q processed=2 queued=0");
}

#[test]
fn stats_orders_sessions_deterministically() {
    let mut service = Service::new();
    for sid in ["zeta", "alpha", "mid"] {
        reply(&mut service, &format!("open {sid} dim=2 train-bins=4"));
    }
    let lines = ask(&mut service, "stats");
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("stat alpha "), "{}", lines[0]);
    assert!(lines[1].starts_with("stat mid "), "{}", lines[1]);
    assert!(lines[2].starts_with("stat zeta "), "{}", lines[2]);
    assert_eq!(lines[3], "ok stats sessions=3");
}

#[test]
fn cadence_less_statistics_strategies_downgrade_with_a_note() {
    let mut service = Service::new();
    let lines = ask(&mut service, "open s dim=2 train-bins=4 refit=incremental");
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("note s "), "{}", lines[0]);
    assert!(lines[0].contains("incremental"), "{}", lines[0]);
    assert_eq!(lines[1], "ok open s phase=training queue=4096");
}

/// Reply lines without the `stat` line's two wall-clock fields.
fn timeless(lines: &[String]) -> Vec<String> {
    let timed =
        |tok: &&str| tok.starts_with("arrivals-per-sec=") || tok.starts_with("last-refit-ms=");
    lines
        .iter()
        .map(|l| {
            l.split(' ')
                .filter(|tok| !timed(tok))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// A daemon serving TCP clients on a loopback port until `quit`.
fn tcp_daemon() -> (SocketAddr, JoinHandle<netanom_net::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        let mut service = Service::new();
        serve_tcp(&mut service, &listener, &TcpServeOptions::default())
    });
    (addr, daemon)
}

/// Send `bytes` as one TCP client, half-close, and return every reply.
/// One thread writes while this one reads, so neither side of the
/// socket waits on a full buffer.
fn tcp_talk(addr: SocketAddr, bytes: Vec<u8>) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        writer.write_all(&bytes).unwrap();
        writer.shutdown(Shutdown::Write).unwrap();
    });
    let replies = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
    sender.join().unwrap();
    replies
}

/// A `drain=manual` conversation over the mini dataset (216 training
/// bins, then streaming with a refit every 24): every reply line, with
/// a `drain` every 12 rows. Before each row index in `poison`, the same
/// row is first sent with one value replaced by `bad`; those refusals
/// are returned separately.
fn manual_drain_transcript(poison: &[(usize, &str)]) -> (Vec<String>, Vec<String>) {
    let ds = netanom_traffic::datasets::mini(1);
    let links = ds.links.matrix();
    let mut service = Service::new();
    let open = format!(
        "open s dim={} train-bins=216 refit=incremental refit-every=24 drain=manual",
        links.cols()
    );
    let mut lines = ask(&mut service, &open);
    let mut refusals = Vec::new();
    for t in 0..links.rows() {
        let mut fields: Vec<String> = links.row(t).iter().map(|v| v.to_string()).collect();
        let good = format!("obs s {}", fields.join(","));
        if let Some((_, bad)) = poison.iter().find(|(at, _)| *at == t) {
            fields[1] = bad.to_string();
            refusals.extend(ask(&mut service, &format!("obs s {}", fields.join(","))));
        }
        lines.extend(ask(&mut service, &good));
        if (t + 1) % 12 == 0 {
            lines.extend(ask(&mut service, "drain s"));
        }
    }
    lines.extend(ask(&mut service, "stats s"));
    (lines, refusals)
}

/// A non-finite row is refused where it arrives, once, in either phase,
/// and the session carries on as if it had never been sent: the rows
/// queued around it are fitted on and scored, not wedged behind it.
#[test]
fn a_non_finite_row_is_refused_once_and_the_session_carries_on() {
    let (clean, none) = manual_drain_transcript(&[]);
    assert!(none.is_empty());
    assert!(clean.iter().any(|l| l.starts_with("fit s ")));
    assert!(clean.iter().any(|l| l.starts_with("alarm s ")));

    // One bad row while training (bin 100), one while streaming (250).
    let (lines, refusals) = manual_drain_transcript(&[(100, "nan"), (250, "-inf")]);
    assert_eq!(
        refusals,
        vec!["err parse measurement for link 1 is not finite"; 2]
    );
    // Same fit, same alarms, same queue depths and counters; only the
    // `stat` line's two wall-clock fields may differ.
    assert_eq!(timeless(&lines), timeless(&clean));
}

/// Every reply to `open`, then one `obs` per sprint-1 bin, then `ping`.
fn sprint1_transcript(open: &str) -> Vec<String> {
    let ds = netanom_traffic::datasets::sprint1();
    let links = ds.links.matrix();
    let mut service = Service::new();
    let mut lines = ask(&mut service, open);
    for t in 0..links.rows() {
        let fields: Vec<String> = links.row(t).iter().map(|v| v.to_string()).collect();
        lines.extend(ask(&mut service, &format!("obs s {}", fields.join(","))));
    }
    lines.extend(ask(&mut service, "ping"));
    lines
}

/// A client's `window=` far beyond any row count it will send used to
/// be allocated whole at the fit (39 PB here) and abort the daemon. The
/// window now holds only the rows it has been given.
#[test]
fn an_oversized_window_costs_only_the_rows_it_keeps() {
    let huge = sprint1_transcript("open s dim=49 train-bins=300 window=100000000000000");
    let plain = sprint1_transcript("open s dim=49 train-bins=300");
    assert!(huge.iter().any(|l| l.starts_with("fit s ")), "no fit");
    assert_eq!(huge.last().map(String::as_str), Some("ok pong"));
    let events = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.starts_with("fit s ") || l.starts_with("alarm s "))
            .cloned()
            .collect()
    };
    let alarms = events(&huge);
    assert!(
        alarms.iter().any(|l| l.starts_with("alarm s ")),
        "no alarms"
    );
    assert_eq!(alarms, events(&plain));
}

/// The same for a checkpoint: a decoded `window_capacity` of 2⁵⁰ rows is
/// a bound, not an allocation, so the restored session keeps serving.
#[test]
fn a_checkpoint_claiming_a_huge_window_restores_and_keeps_serving() {
    let dir = std::env::temp_dir().join("netanom-serve-huge-window");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("session.bin");
    let cp_arg = cp.to_str().unwrap();

    let mut service = Service::new();
    reply(&mut service, "open a dim=3 train-bins=4 method=ewma");
    for t in 0..6 {
        reply(&mut service, &format!("obs a {}", row_csv(3, t as f64)));
    }
    let r = reply(&mut service, &format!("checkpoint a {cp_arg}"));
    assert!(r.starts_with("ok checkpoint a bytes="), "{r}");
    let mut patched = SessionCheckpoint::from_bytes(&std::fs::read(&cp).unwrap()).unwrap();
    assert!(patched.streaming);
    patched.window_capacity = 1 << 50;
    std::fs::write(&cp, patched.to_bytes()).unwrap();

    reply(&mut service, "open b dim=3 train-bins=4 method=ewma");
    let r = reply(&mut service, &format!("restore b {cp_arg}"));
    assert!(r.starts_with("ok restore b "), "{r}");
    for t in 6..10 {
        let r = reply(&mut service, &format!("obs b {}", row_csv(3, t as f64)));
        assert!(r.starts_with("ok obs b "), "{r}");
    }
    assert_eq!(reply(&mut service, "ping"), "ok pong");
    std::fs::remove_dir_all(&dir).ok();
}

/// The transports' fixed line limit (1 MiB, terminator excluded), and
/// what they answer to a line of `len` bytes past it or to one that is
/// not UTF-8.
const MAX_LINE_BYTES: usize = 1 << 20;
const NOT_UTF8: &str = "err parse line is not UTF-8";
fn too_long(len: usize) -> String {
    format!("err line-too-long line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit")
}

#[test]
fn stdio_pump_refuses_bad_lines_and_carries_on() {
    let mut service = Service::new();
    let mut input = b"open s dim=2 train-bins=4\nobs s 1,\xff\n".to_vec();
    // A comment of exactly the limit is read (and ignored) like any
    // other; one byte more is refused.
    input.extend(vec![b'#'; MAX_LINE_BYTES]);
    input.push(b'\n');
    input.extend(vec![b'#'; MAX_LINE_BYTES + 1]);
    input.extend(b"\nobs s 1,2\nping\n");
    let mut out = Vec::new();
    serve_lines(&mut service, Cursor::new(input), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        vec![
            "ok open s phase=training queue=4096",
            NOT_UTF8,
            &too_long(MAX_LINE_BYTES + 1),
            // Neither refusal touched the session.
            "ok obs s queued=0 phase=training",
            "ok pong",
        ]
    );
}

#[test]
fn tcp_daemon_survives_bad_bytes_and_endless_lines() {
    let (addr, daemon) = tcp_daemon();
    // One stray byte used to be an `InvalidData` read error that
    // `serve_tcp` returned with, taking every session down.
    assert_eq!(
        tcp_talk(addr, b"open s dim=2 train-bins=4\n\xff\n".to_vec()),
        vec!["ok open s phase=training queue=4096", NOT_UTF8]
    );
    assert_eq!(tcp_talk(addr, b"ping\n".to_vec()), vec!["ok pong"]);
    // A line that never ends is cut off at the limit and the rest
    // discarded; what follows it is served.
    let mut endless = vec![b'x'; 2 * MAX_LINE_BYTES];
    endless.extend(b"\nstats\nquit\n");
    let replies = tcp_talk(addr, endless);
    assert_eq!(replies[0], too_long(2 * MAX_LINE_BYTES));
    assert!(replies[1].starts_with("stat s phase=training"));
    assert_eq!(&replies[2..], ["ok stats sessions=1", "ok bye"]);
    daemon.join().unwrap().unwrap();
}

/// A client that resets its connection used to end `serve_tcp` with
/// `Connection reset by peer`, and every session with it. It is now
/// dropped like an idle one, and the next client finds the daemon, and
/// its sessions, as they were.
#[test]
fn a_client_that_resets_its_connection_is_dropped_and_the_daemon_serves_on() {
    let (addr, daemon) = tcp_daemon();
    let before = tcp_talk(
        addr,
        b"open s dim=2 train-bins=4\nobs s 1,2\nstats\n".to_vec(),
    );
    assert_eq!(before.len(), 4, "{before:?}");

    // A burst of pings, then a close with all but the first `ok pong`
    // unread: the client's kernel resets the connection under the
    // daemon's writes. (Small enough that neither side's socket buffers
    // can fill while nobody reads.)
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&b"ping\n".repeat(2_000)).unwrap();
    let mut first = String::new();
    BufReader::new(&stream).read_line(&mut first).unwrap();
    assert_eq!(first, "ok pong\n");
    drop(stream);

    let after = tcp_talk(addr, b"ping\nstats\nquit\n".to_vec());
    assert_eq!(after[0], "ok pong");
    assert_eq!(timeless(&after[1..3]), timeless(&before[2..4]));
    assert_eq!(after[3], "ok bye");
    daemon.join().unwrap().unwrap();
}

/// Bytes that end of input cuts off before their newline are not a
/// request: `obs s 9,1`, cut from `obs s 9,1.25`, is refused on both
/// transports and never ingested.
#[test]
fn an_unterminated_trailing_obs_is_refused_not_ingested() {
    let cut = "err parse line of 9 bytes ends without a newline; not executed";
    let arrivals = |stat: &str| -> String {
        let tok = stat.split(' ').find(|t| t.starts_with("arrivals="));
        tok.expect("stat line carries arrivals").to_string()
    };

    // stdio: the fragment is answered, and the session counts only the
    // whole `obs`.
    let mut service = Service::new();
    let mut out = Vec::new();
    let input = "open s dim=2 train-bins=4\nobs s 9,1.25\nobs s 9,1";
    serve_lines(&mut service, Cursor::new(input), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[1..], ["ok obs s queued=0 phase=training", cut]);
    let stats = ask(&mut service, "stats s");
    assert_eq!(arrivals(&stats[0]), "arrivals=1", "{stats:?}");

    // TCP: the same refusal, and the next client sees one arrival.
    let (addr, daemon) = tcp_daemon();
    let replies = tcp_talk(addr, input.as_bytes().to_vec());
    assert_eq!(replies[1..], ["ok obs s queued=0 phase=training", cut]);
    let replies = tcp_talk(addr, b"stats s\nquit\n".to_vec());
    assert_eq!(arrivals(&replies[0]), "arrivals=1", "{replies:?}");
    assert_eq!(replies.last().map(String::as_str), Some("ok bye"));
    daemon.join().unwrap().unwrap();
}
