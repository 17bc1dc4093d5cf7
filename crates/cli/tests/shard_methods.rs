//! `netanom shard --method NAME` on the real binary
//! (`CARGO_BIN_EXE_netanom`) against `netanom stream --method NAME` over
//! the same simulated CSV, refits landing mid-chunk: the subspace method
//! runs the sharded engine, every temporal method runs `stream`'s own
//! engine and loop, and nothing else compares what either path prints.

use std::path::PathBuf;
use std::process::{Command, Output};

fn netanom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Simulate the mini dataset into a fresh temp dir named for `test`;
/// returns (dir, links.csv, paths.csv).
fn simulated(test: &str) -> (PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!(
        "netanom-shard-methods-{test}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    (dir.clone(), file("links.csv"), file("paths.csv"))
}

/// Run an online verb over the series and return its stdout (the alarm
/// CSV).
fn alarm_csv(verb: &[&str], links: &str, paths: &str, method: &str, confidence: &str) -> String {
    let mut args = verb.to_vec();
    args.extend([
        "--links",
        links,
        "--paths",
        paths,
        "--train-bins",
        "216",
        "--refit-every",
        "24",
        "--chunk",
        "17",
        "--method",
        method,
        "--confidence",
        confidence,
    ]);
    let out = netanom(&args);
    assert!(
        out.status.success(),
        "{verb:?} --method {method}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn shard_prints_what_stream_prints_for_each_method_family() {
    let (dir, links, paths) = simulated("methods");
    let stream = ["stream", "--refit", "incremental"];
    let shard = ["shard", "--shards", "2"];

    // Subspace: sharding is a pure scale transform. A temporal method
    // has nothing to merge and runs unsharded. Either way, the same
    // bytes. The temporal methods run at 0.95 so each prints alarms on
    // the mini dataset.
    for (method, confidence) in [
        ("subspace", "0.999"),
        ("ewma", "0.95"),
        ("holt-winters", "0.95"),
        ("fourier", "0.95"),
        ("wavelet", "0.95"),
    ] {
        let want = alarm_csv(&stream, &links, &paths, method, confidence);
        let got = alarm_csv(&shard, &links, &paths, method, confidence);
        assert!(want.lines().count() > 1, "{method}: {want:?} has no alarm");
        assert_eq!(got, want, "shard --method {method}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two finite rows of ±1.7e308 overflow the projection, and one bin's
/// summed shard score comes out NaN: `shard` reports it quiet (the
/// `spe > threshold` rule) and exits 0 instead of panicking, printing
/// the rows `stream` prints for every bin before them.
#[test]
fn shard_survives_rows_that_overflow_the_projection() {
    let (dir, links, paths) = simulated("overflow");
    let csv = std::fs::read_to_string(&links).unwrap();
    let first_appended = csv.lines().count() - 1;
    let row = |sign: f64| {
        (0..csv.lines().next().unwrap().split(',').count())
            .map(|l| format!("{:e}", if l % 2 == 0 { sign } else { -sign } * 1.7e308))
            .collect::<Vec<_>>()
            .join(",")
    };
    let big = dir.join("big.csv").to_str().unwrap().to_string();
    std::fs::write(&big, format!("{csv}{}\n{}\n", row(1.0), row(-1.0))).unwrap();

    let run = |verb: &[&str]| {
        let mut args = verb.to_vec();
        args.extend([
            "--links",
            &big,
            "--paths",
            &paths,
            "--train-bins",
            "216",
            "--refit-every",
            "1000",
            "--refit",
            "incremental",
        ]);
        netanom(&args)
    };
    let shard = run(&["shard", "--shards", "2"]);
    assert!(
        shard.status.success(),
        "shard on overflowing rows: {:?}\n{}",
        shard.status,
        String::from_utf8_lossy(&shard.stderr)
    );
    let stream = run(&["stream"]);
    assert!(stream.status.success());
    let before_appended = |out: &[u8]| -> Vec<String> {
        String::from_utf8(out.to_vec())
            .unwrap()
            .lines()
            .filter(|line| {
                line.split(',')
                    .next()
                    .and_then(|bin| bin.parse::<usize>().ok())
                    .is_none_or(|bin| bin < first_appended)
            })
            .map(str::to_string)
            .collect()
    };
    let want = before_appended(&stream.stdout);
    assert!(want.len() > 1, "the mini dataset stages anomalies");
    assert_eq!(before_appended(&shard.stdout), want);
    std::fs::remove_dir_all(&dir).ok();
}
