//! Exit-code contract of the `netanom` binary: success paths exit 0,
//! bad invocations exit non-zero with helpful stderr — pinned by
//! running the actual binary (`CARGO_BIN_EXE_netanom`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn netanom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_links_csv(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("links.csv");
    std::fs::write(&path, "a,b\n1,2\n3,4\n5,6\n").unwrap();
    path
}

#[test]
fn list_methods_exits_zero_and_prints_the_registry() {
    let out = netanom(&["--list-methods"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        listed,
        ["subspace", "ewma", "holt-winters", "fourier", "wavelet"],
        "registry order and content"
    );
}

#[test]
fn unknown_method_exits_nonzero_and_lists_the_valid_set() {
    let links = temp_links_csv("netanom-exit-badmethod");
    let out = netanom(&[
        "stream",
        "--links",
        links.to_str().unwrap(),
        "--train-bins",
        "2",
        "--method",
        "kalman",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("kalman"), "{stderr}");
    for known in ["subspace", "ewma", "holt-winters", "fourier", "wavelet"] {
        assert!(stderr.contains(known), "stderr must list {known}: {stderr}");
    }
    std::fs::remove_dir_all(links.parent().unwrap()).ok();
}

#[test]
fn unknown_command_and_missing_args_exit_nonzero() {
    assert_eq!(netanom(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(netanom(&[]).status.code(), Some(1));
    let out = netanom(&["stream"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--links"), "{stderr}");
}

/// The usage text answers a missing or unknown command only. A command's
/// own error — a flag, a bad row — ends with its `error: …` line alone.
#[test]
fn usage_follows_only_a_missing_or_unknown_command() {
    let stderr = |args: &[&str]| {
        let out = netanom(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        String::from_utf8(out.stderr).unwrap()
    };
    let err = stderr(&["frobnicate"]);
    assert!(
        err.starts_with("error: unknown command \"frobnicate\"\nusage:"),
        "{err}"
    );
    assert!(stderr(&[]).starts_with("usage:"));

    let err = stderr(&["stream", "--train-bins", "2"]);
    assert!(err.starts_with("error: "), "{err}");
    assert!(!err.contains("usage:"), "a flag error printed usage: {err}");

    let dir = std::env::temp_dir().join("netanom-exit-usage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let links = dir.join("links.csv");
    std::fs::write(&links, "a,b\n1,2\n3,4\n5,x\n").unwrap();
    let err = stderr(&[
        "stream",
        "--links",
        links.to_str().unwrap(),
        "--train-bins",
        "2",
    ]);
    assert!(err.contains("error: "), "{err}");
    assert!(!err.contains("usage:"), "a bad row printed usage: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A window shorter than training is refused with a typed message; the
/// engines would otherwise run the training length in its place.
#[test]
fn a_window_shorter_than_training_is_refused() {
    let links = temp_links_csv("netanom-exit-short-window");
    let run = |window: &str| {
        netanom(&[
            "stream",
            "--links",
            links.to_str().unwrap(),
            "--train-bins",
            "2",
            "--window",
            window,
            "--method",
            "ewma",
        ])
    };
    let out = run("1");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        "error: --window must be at least train-bins (2), got 1\n"
    );
    let out = run("2");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_dir_all(links.parent().unwrap()).ok();
}

#[test]
fn help_exits_zero_and_mentions_method_selection() {
    let out = netanom(&["--help"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--list-methods"), "{stderr}");
    assert!(stderr.contains("--method"), "{stderr}");
}

#[test]
fn help_lists_every_refit_strategy_and_refit_k() {
    let out = netanom(&["--help"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let refit = format!("[--refit {}]", netanom_core::service::REFIT_NAMES.join("|"));
    // One `--refit` line each for stream, shard and tracker.
    assert_eq!(stderr.matches(&refit).count(), 3, "{refit} in: {stderr}");
    // The truncated refit's block size is a constant, not a flag.
    assert!(!stderr.contains("--refit-k"), "{stderr}");
    let out = netanom(&["stream", "--refit-k", "8"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag --refit-k"), "{stderr}");
}

#[test]
fn diagnose_on_mini_routes_small_operands_through_the_reference_kernel() {
    // The mini dataset has 10 links and 16 flows, so every GEMM in the
    // fit/score pipeline sits below the packed-kernel crossover and
    // falls through to the reference kernels (`linalg::kernel`'s
    // graceful degradation on tiny operands). The detections and
    // identifications pinned here are the pre-kernel-layer decisions —
    // the crossover must never be observable in results.
    let dir = std::env::temp_dir().join("netanom-exit-diagnose");
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let out = netanom(&[
        "diagnose",
        "--links",
        dir.join("links.csv").to_str().unwrap(),
        "--paths",
        dir.join("paths.csv").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "diagnose: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .skip(1)
        .map(|l| {
            let mut f = l.split(',');
            (f.next().unwrap(), f.nth(2).unwrap())
        })
        .collect();
    assert_eq!(
        rows,
        [("181", "9"), ("198", "0"), ("221", "12")],
        "detected (bin, flow) pairs changed: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("3 anomalies in 288 bins"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_with_a_method_succeeds_end_to_end() {
    // A tiny but real run: simulate the mini dataset, then stream it
    // through a temporal backend.
    let dir = std::env::temp_dir().join("netanom-exit-stream");
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let links = dir.join("links.csv");
    let out = netanom(&[
        "stream",
        "--links",
        links.to_str().unwrap(),
        "--train-bins",
        "216",
        "--method",
        "wavelet",
    ]);
    assert!(out.status.success(), "stream: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("bin,spe,threshold,flow"),
        "csv header: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("method = wavelet"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_oversized_chunk_costs_only_the_rows_read() {
    // A `--chunk` of 10¹² rows once reserved that many rows of floats
    // before the first row was read, and the process aborted on the
    // allocation.
    let dir = std::env::temp_dir().join("netanom-exit-huge-chunk");
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let links = dir.join("links.csv");
    let alarms = |chunk: &str| {
        let out = netanom(&[
            "stream",
            "--links",
            links.to_str().unwrap(),
            "--paths",
            dir.join("paths.csv").to_str().unwrap(),
            "--train-bins",
            "216",
            "--chunk",
            chunk,
        ]);
        assert_eq!(out.status.code(), Some(0), "--chunk {chunk}: {:?}", out);
        String::from_utf8(out.stdout).unwrap()
    };
    let want = alarms("36");
    assert!(
        want.lines().count() > 1,
        "the mini dataset stages anomalies"
    );
    assert_eq!(alarms("1000000000000"), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_run_with_an_error_not_a_panic() {
    // `netanom stream … | head -1`: the reader of stdout goes away after
    // the header, and the next alarm's write fails. The run must end with
    // an error line and exit 1, not panic (exit 101).
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("netanom-exit-closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "mini",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let links = std::fs::read_to_string(dir.join("links.csv")).unwrap();
    let lines: Vec<&str> = links.lines().collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args([
            "stream",
            "--links",
            "-",
            "--train-bins",
            "216",
            "--chunk",
            "24",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The header and the training rows; the header is printed once the
    // model is trained.
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all((lines[..=216].join("\n") + "\n").as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut header = String::new();
    stdout.read_line(&mut header).unwrap();
    assert!(header.starts_with("bin,spe,threshold"), "{header}");
    drop(stdout);
    // The streamed rows hold the mini dataset's staged anomalies. The
    // run may end before it has read them all.
    let _ = stdin.write_all((lines[217..].join("\n") + "\n").as_bytes());
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: writing stdout: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
