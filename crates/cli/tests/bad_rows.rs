//! One bad row, one refusal: the same defective link-count row — ragged,
//! an empty field, a word, `nan`, an overflowing number, bytes that are
//! not UTF-8 — placed in the training prefix or in the streamed tail
//! draws the same `CsvError` text from `netanom stream`, from `netanom
//! shard --shards 2`, and from the worker's `CsvChunks` reads (as
//! `NetError::Feed`). Both verbs exit 1; a refusal in the training prefix
//! prints nothing on stdout, and one in the tail prints the header and
//! exactly the alarms of the chunks before the one holding the bad row.
//!
//! The series is sprint-1's (49 links, ≈ 900 bytes a row), read in
//! 72-row chunks, so the chunk holding each tail defect and the training
//! prefix are large enough to convert on two threads where two cores are
//! usable, and each defect sits in the half the helper thread converts.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use netanom_net::NetError;
use netanom_traffic::io::CsvChunks;

const TRAIN_BINS: usize = 864;
const CHUNK: usize = 72;
/// Data rows (0-based) that get the defect: one in the training prefix,
/// one in the tail's second chunk (rows 936..1008).
const TRAINING_ROW: usize = 400;
const TAIL_ROW: usize = 1000;
/// The column a field defect replaces.
const COLUMN: usize = 3;

fn netanom(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netanom"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A fresh temp dir holding sprint-1's `links.csv`.
fn simulated() -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("netanom-bad-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = netanom(&[
        "simulate",
        "--dataset",
        "sprint1",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "simulate: {:?}", out.status);
    let links = std::fs::read(dir.join("links.csv")).unwrap();
    (dir, links)
}

/// How a row goes bad.
#[derive(Clone, Copy)]
enum Defect {
    /// The last field dropped.
    Ragged,
    /// Field `COLUMN` replaced by this text.
    Field(&'static str),
    /// A byte that is not UTF-8 inserted.
    NotUtf8,
}

const DEFECTS: [(&str, Defect); 6] = [
    ("ragged", Defect::Ragged),
    ("empty field", Defect::Field("")),
    ("word", Defect::Field("x")),
    ("nan", Defect::Field("nan")),
    ("overflow", Defect::Field("1e999")),
    ("not UTF-8", Defect::NotUtf8),
];

impl Defect {
    fn apply(self, row: &mut Vec<u8>) {
        match self {
            Defect::Ragged => {
                let cut = row.iter().rposition(|&b| b == b',').unwrap();
                row.truncate(cut);
            }
            Defect::Field(text) => {
                let mut fields: Vec<&[u8]> = row.split(|&b| b == b',').collect();
                fields[COLUMN] = text.as_bytes();
                *row = fields.join(&b',');
            }
            Defect::NotUtf8 => row.insert(5, 0xff),
        }
    }

    /// The `CsvError` text the defect draws at 1-based file line `line`.
    fn error(self, line: usize) -> String {
        match self {
            Defect::Ragged => format!("line {line}: 48 fields, expected 49"),
            Defect::Field(text) => {
                format!("line {line}, column {COLUMN}: {text:?} is not a finite number")
            }
            Defect::NotUtf8 => "io error: stream did not contain valid UTF-8".to_string(),
        }
    }
}

/// `links` with data row `row` (0-based) given `defect`.
fn with_defect(links: &[u8], row: usize, defect: Defect) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = links.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    defect.apply(&mut lines[row + 1]);
    lines.join(&b'\n')
}

/// `verb` over `links`: (exit code, stdout, stderr).
fn run(verb: &[&str], links: &Path) -> (Option<i32>, String, String) {
    let chunk = CHUNK.to_string();
    let train = TRAIN_BINS.to_string();
    let mut args = verb.to_vec();
    args.extend([
        "--links",
        links.to_str().unwrap(),
        "--train-bins",
        &train,
        "--refit-every",
        "144",
        "--chunk",
        &chunk,
    ]);
    let out = netanom(&args);
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// The error a worker meets reading `links` the way it does: the
/// training prefix, then the tail in chunk-sized demands, each read
/// error passed on as a `NetError`.
fn feed_error(links: &Path) -> String {
    let mut chunks = CsvChunks::new(BufReader::new(File::open(links).unwrap()), CHUNK).unwrap();
    let err: NetError = match chunks.take_rows(TRAIN_BINS) {
        Err(e) => e.into(),
        Ok(_) => loop {
            match chunks.take_up_to(CHUNK) {
                Err(e) => break e.into(),
                Ok(Some(_)) => {}
                Ok(None) => panic!("{}: the feed ended without an error", links.display()),
            }
        },
    };
    match err {
        NetError::Feed(e) => e.to_string(),
        other => panic!("{}: not a feed error: {other}", links.display()),
    }
}

#[test]
fn every_verb_refuses_a_bad_row_with_the_same_error() {
    let (dir, links) = simulated();
    let clean = dir.join("links.csv");
    let stream = ["stream", "--refit", "incremental"];
    let shard = ["shard", "--shards", "2"];
    let (code, clean_stdout, stderr) = run(&stream, &clean);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, shard_stdout, stderr) = run(&shard, &clean);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(shard_stdout, clean_stdout);

    // What a run that stops at the chunk holding TAIL_ROW has printed:
    // the header and the alarms of the bins before that chunk.
    let tail_chunk_start = TRAIN_BINS + (TAIL_ROW - TRAIN_BINS) / CHUNK * CHUNK;
    let mut lines = clean_stdout.lines();
    let mut before_tail = format!("{}\n", lines.next().unwrap());
    for line in lines {
        let bin: usize = line.split(',').next().unwrap().parse().unwrap();
        if bin < tail_chunk_start {
            before_tail.push_str(line);
            before_tail.push('\n');
        }
    }
    assert!(
        before_tail.lines().count() > 1,
        "an alarm precedes the tail defect's chunk"
    );

    for (name, defect) in DEFECTS {
        for (row, stdout) in [(TRAINING_ROW, ""), (TAIL_ROW, before_tail.as_str())] {
            let path = dir.join(format!("bad-{row}.csv"));
            std::fs::write(&path, with_defect(&links, row, defect)).unwrap();
            let want = defect.error(row + 2);
            let case = format!("{name} at data row {row}");
            for verb in [&stream[..], &shard[..]] {
                let (code, out, err) = run(verb, &path);
                assert_eq!(code, Some(1), "{case}, {verb:?}: {err}");
                let refusal = err.lines().find(|l| l.starts_with("error: reading "));
                assert!(
                    refusal.is_some_and(|l| l.ends_with(&format!(": {want}"))),
                    "{case}, {verb:?}: want {want:?}, got {err}"
                );
                assert_eq!(out, stdout, "{case}, {verb:?}: stdout");
            }
            assert_eq!(feed_error(&path), want, "{case}: worker feed");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
