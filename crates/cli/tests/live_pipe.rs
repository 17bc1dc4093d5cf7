//! A live feed on stdin: `netanom stream --links -` and `netanom shard
//! --links -` print a block's alarms as soon as that block is in, while
//! stdin stays open and no later row has been written, and the finished
//! feed prints exactly what the same series prints from a file.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const TRAIN_BINS: usize = 216;
const CHUNK: usize = 24;
/// How long an alarm may take to appear once its block is written.
const PATIENCE: Duration = Duration::from_secs(30);

fn netanom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A fresh temp dir holding the mini dataset's `links.csv`.
fn simulated() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netanom-live-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    dir
}

/// `verb` with the run's flags but `--links` (`TRAIN_BINS`, `CHUNK`).
fn flags(verb: &[&'static str]) -> Vec<&'static str> {
    let mut args = verb.to_vec();
    args.extend([
        "--train-bins",
        "216",
        "--refit-every",
        "48",
        "--chunk",
        "24",
    ]);
    args
}

/// The next stdout line, or the child killed and the test failed.
fn next_line(lines: &mpsc::Receiver<String>, child: &mut Child, waiting_for: &str) -> String {
    lines.recv_timeout(PATIENCE).unwrap_or_else(|e| {
        let _ = child.kill();
        panic!("no {waiting_for} on stdout: {e}")
    })
}

/// Feed `links` to `verb --links -` up to the end of the block holding
/// the first alarm of `want` (the file run's stdout), read that alarm
/// with stdin still open, then write the rest and compare.
fn live_run(verb: &[&'static str], links: &str, want: &str) {
    let first_alarm = want.lines().nth(1).expect("the file run prints an alarm");
    let bin: usize = first_alarm.split(',').next().unwrap().parse().unwrap();
    // The data rows up to the end of the alarm's block.
    let rows = TRAIN_BINS + ((bin - TRAIN_BINS) / CHUNK + 1) * CHUNK;
    let lines: Vec<&str> = links.lines().collect();
    assert!(
        rows + 1 < lines.len(),
        "rows remain after the alarm's block"
    );

    let mut args = flags(verb);
    args.extend(["--links", "-"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let (send, printed) = mpsc::channel();
    let stdout = child.stdout.take().unwrap();
    let collector = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if send.send(line.unwrap()).is_err() {
                break;
            }
        }
    });

    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all((lines[..=rows].join("\n") + "\n").as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    let mut got = vec![next_line(&printed, &mut child, "header")];
    got.push(next_line(&printed, &mut child, "alarm"));
    assert_eq!(got[1], first_alarm, "{verb:?}: the first alarm");

    stdin
        .write_all((lines[rows + 1..].join("\n") + "\n").as_bytes())
        .unwrap();
    drop(stdin);
    let status = child.wait().unwrap();
    collector.join().unwrap();
    got.extend(printed.try_iter());
    assert!(status.success(), "{verb:?}: {status:?}");
    assert_eq!(got.join("\n") + "\n", want, "{verb:?}: live stdout");
}

#[test]
fn a_live_feed_gets_each_blocks_alarms_before_the_next_row() {
    let dir = simulated();
    let path = dir.join("links.csv");
    let links = std::fs::read_to_string(&path).unwrap();
    for verb in [
        &["stream", "--refit", "incremental"][..],
        &["shard", "--shards", "2"][..],
    ] {
        let mut args = flags(verb);
        args.extend(["--links", path.to_str().unwrap()]);
        let out = netanom(&args);
        assert!(out.status.success(), "{verb:?} file run: {:?}", out.status);
        live_run(verb, &links, &String::from_utf8(out.stdout).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}
