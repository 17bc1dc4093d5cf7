//! The alarm CSV of `netanom stream --refit incremental` on the
//! simulated Abilene week, pinned byte for byte: seven dense refits land
//! in the streamed tail, so any change to the refit's spectrum or
//! threshold bits — or a basis change large enough to move a printed
//! SPE — shows here as a diff against the recorded output.
//!
//! To re-record after an intended change of output, run the two
//! commands below (`--confidence 0.999` and `0.995`) and write their
//! stdout over `tests/golden/stream_abilene_incremental_<C>.csv`.

use std::process::{Command, Output};

fn netanom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn abilene_incremental_stream_stdout_is_pinned() {
    let dir = std::env::temp_dir().join(format!("netanom-stream-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "abilene",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (links, paths) = (file("links.csv"), file("paths.csv"));

    let golden: [(&str, &[u8]); 2] = [
        (
            "0.999",
            include_bytes!("golden/stream_abilene_incremental_0.999.csv"),
        ),
        (
            "0.995",
            include_bytes!("golden/stream_abilene_incremental_0.995.csv"),
        ),
    ];
    for (confidence, want) in golden {
        let out = netanom(&[
            "stream",
            "--links",
            &links,
            "--paths",
            &paths,
            "--train-bins",
            "504",
            "--refit-every",
            "72",
            "--refit",
            "incremental",
            "--confidence",
            confidence,
        ]);
        assert!(
            out.status.success(),
            "stream at {confidence}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == want,
            "stream at {confidence} drifted from its golden output:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
