//! `CsvChunks` against the line-at-a-time reader it replaced
//! (`support/csv_oracle.rs`): on random link-count CSVs — clean and
//! defective, narrow and wide — and random interleavings of
//! `next_chunk`, `take_rows` and `take_up_to`, every call returns the
//! same thing. Blocks are compared bit for bit; errors by variant,
//! fields, and `Display`.
//!
//! Large blocks convert on two threads where two cores are usable, so
//! running this suite under `taskset -c 0` covers the one-thread path.

#[path = "support/csv_oracle.rs"]
mod csv_oracle;

use std::io::{self, BufRead, Read};

use csv_oracle::OracleChunks;
use netanom_linalg::Matrix;
use netanom_traffic::io::{CsvChunks, CsvError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Padding that `str::trim` removes: ASCII whitespace (vertical tab and
/// form feed included) and Unicode spaces of two and three bytes.
const PADDING: &[&str] = &[
    " ", "  ", "\t", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{2028}", "\u{3000}",
];

/// Fields no finite number is spelled as: empty, words, non-finite
/// spellings, overflow, hex, and characters `trim` keeps.
const BAD: &[&str] = &[
    "",
    "x",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "+infinity",
    "1e999",
    "-1e999",
    "0x10",
    "1e",
    "--1",
    "1.2.3",
    "\u{feff}1",
    "1\u{1c}",
    "é",
    " ",
];

/// Bytes that make a line invalid UTF-8.
const NOT_UTF8: &[&[u8]] = &[b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"];

/// One finite number in one of the spellings `str::parse::<f64>` accepts.
fn number(rng: &mut StdRng) -> String {
    let mantissa = rng.random_range(0u64..1 << 53) as f64;
    let v = mantissa * 10f64.powi(rng.random_range(0u32..32) as i32 - 20);
    let v = if rng.random_range(0usize..4) == 0 {
        -v
    } else {
        v
    };
    match rng.random_range(0usize..12) {
        0 => format!("{v:e}"),
        1 => format!("{v:E}"),
        2 => format!("+{}", v.abs()),
        3 => format!("{}", v.trunc()),
        4 => ["-0", "0", ".5", "5.", "1e5", "1E-7", "+3", "007", "1e-320"]
            [rng.random_range(0usize..9)]
        .to_string(),
        _ => format!("{v}"),
    }
}

/// `text` with random trimmable padding on either side.
fn padded(rng: &mut StdRng, text: String) -> String {
    let pick = |rng: &mut StdRng| {
        if rng.random_range(0usize..6) == 0 {
            PADDING[rng.random_range(0usize..PADDING.len())]
        } else {
            ""
        }
    };
    let (front, back) = (pick(rng), pick(rng));
    format!("{front}{text}{back}")
}

/// What can be wrong with one row.
#[derive(Clone, Copy)]
enum Defect {
    Ragged,
    BadNumber,
    RaggedAndBad,
    NotUtf8,
}

/// A random CSV: a header of `width` links, then up to `rows` data
/// rows with blank lines between them, LF or CRLF endings, maybe no
/// final newline, and — in most files — one to three defective rows.
fn random_csv(rng: &mut StdRng, width: usize, rows: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let names: Vec<String> = (0..width).map(|l| format!("l{l}")).collect();
    out.extend_from_slice(names.join(",").as_bytes());
    out.push(b'\n');
    let mut defects: Vec<(usize, Defect)> = Vec::new();
    if rows > 0 && rng.random_range(0usize..3) != 0 {
        for _ in 0..rng.random_range(1usize..=3) {
            let defect = match rng.random_range(0usize..4) {
                0 => Defect::Ragged,
                1 => Defect::BadNumber,
                2 => Defect::RaggedAndBad,
                _ => Defect::NotUtf8,
            };
            defects.push((rng.random_range(0usize..rows), defect));
        }
    }
    let crlf = rng.random_range(0usize..3) == 0;
    for r in 0..rows {
        if rng.random_range(0usize..15) == 0 {
            let blank = ["", " ", "\t", "\r", "\u{a0}", " \u{3000} "][rng.random_range(0usize..6)];
            out.extend_from_slice(blank.as_bytes());
            out.push(b'\n');
        }
        let mut fields: Vec<String> = (0..width)
            .map(|_| {
                let n = number(rng);
                padded(rng, n)
            })
            .collect();
        let mut line_bytes: Option<Vec<u8>> = None;
        for &(_, defect) in defects.iter().filter(|(at, _)| *at == r) {
            let column = rng.random_range(0usize..width);
            match defect {
                Defect::Ragged => ragged(rng, &mut fields),
                Defect::BadNumber => {
                    fields[column] = BAD[rng.random_range(0usize..BAD.len())].into()
                }
                Defect::RaggedAndBad => {
                    fields[column] = BAD[rng.random_range(0usize..BAD.len())].into();
                    ragged(rng, &mut fields);
                }
                Defect::NotUtf8 => {
                    let mut bytes = fields.join(",").into_bytes();
                    let at = rng.random_range(0usize..=bytes.len());
                    let bad = NOT_UTF8[rng.random_range(0usize..NOT_UTF8.len())];
                    bytes.splice(at..at, bad.iter().copied());
                    line_bytes = Some(bytes);
                }
            }
        }
        out.extend(line_bytes.unwrap_or_else(|| fields.join(",").into_bytes()));
        let last = r + 1 == rows;
        if !last || rng.random_range(0usize..3) != 0 {
            out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
    }
    out
}

/// Drop a field, add one, or (for a one-field row) add one.
fn ragged(rng: &mut StdRng, fields: &mut Vec<String>) {
    if fields.len() > 1 && rng.random_range(0usize..2) == 0 {
        fields.remove(rng.random_range(0usize..fields.len()));
    } else {
        fields.push("1".to_string());
    }
}

/// A reader over `data` that hands out at most `step` bytes per fill and
/// fails every read from byte `fail_at` on.
struct Faulty<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
    fail_at: usize,
}

impl Read for Faulty<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Faulty<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.fail_at {
            return Err(io::Error::other("injected read failure"));
        }
        let end = self.data.len().min(self.fail_at).min(self.pos + self.step);
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What one call returned, in a form both readers' results compare in.
#[derive(Debug, PartialEq)]
enum Outcome {
    Block {
        rows: usize,
        cols: usize,
        bits: Vec<u64>,
    },
    End,
    /// `Debug` (variant and fields) and `Display` of the error.
    Failed(String, String),
}

fn outcome(result: Result<Option<Matrix>, CsvError>) -> Outcome {
    match result {
        Ok(Some(block)) => Outcome::Block {
            rows: block.rows(),
            cols: block.cols(),
            bits: block.as_slice().iter().map(|v| v.to_bits()).collect(),
        },
        Ok(None) => Outcome::End,
        Err(e) => Outcome::Failed(format!("{e:?}"), e.to_string()),
    }
}

/// One reader call.
#[derive(Debug, Clone, Copy)]
enum Call {
    NextChunk,
    TakeRows(usize),
    TakeUpTo(usize),
}

fn random_calls(rng: &mut StdRng) -> Vec<Call> {
    (0..rng.random_range(0usize..12))
        .map(|_| match rng.random_range(0usize..4) {
            0 => Call::TakeRows(rng.random_range(0usize..=400)),
            1 => Call::TakeUpTo(rng.random_range(1usize..=400)),
            _ => Call::NextChunk,
        })
        .collect()
}

/// Drive both readers over `data` through `calls`, then drain them with
/// `next_chunk` past their end, and require every result to agree.
fn agree(data: &[u8], chunk: usize, calls: &[Call], step: usize, fail_at: usize) {
    let faulty = || Faulty {
        data,
        pos: 0,
        step,
        fail_at,
    };
    let (mut got, mut want) = match (
        CsvChunks::new(faulty(), chunk),
        OracleChunks::new(faulty(), chunk),
    ) {
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => {
            let got = got.map(|_| None);
            let want = want.map(|_| None);
            assert_eq!(outcome(got), outcome(want), "construction");
            return;
        }
    };
    assert_eq!(got.header(), want.header());
    let mut drained = 0;
    for (i, call) in calls
        .iter()
        .copied()
        .chain(std::iter::repeat(Call::NextChunk))
        .enumerate()
    {
        let (g, w) = match call {
            Call::NextChunk => (outcome(got.next_chunk()), outcome(want.next_chunk())),
            Call::TakeRows(n) => (
                outcome(got.take_rows(n).map(Some)),
                outcome(want.take_rows(n).map(Some)),
            ),
            Call::TakeUpTo(n) => (outcome(got.take_up_to(n)), outcome(want.take_up_to(n))),
        };
        assert_eq!(g, w, "call {i}: {call:?} (chunk {chunk})");
        if i >= calls.len() && !matches!(w, Outcome::Block { .. }) {
            drained += 1;
            if drained == 3 {
                break;
            }
        }
    }
}

/// One case: a CSV drawn from `seed`, read at `chunk` rows per block.
fn check(seed: u64, width: usize, rows: usize, chunk: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = random_csv(&mut rng, width, rows);
    let calls = random_calls(&mut rng);
    agree(&data, chunk, &calls, data.len() + 1, usize::MAX);
    // The same bytes through a reader that fills a few bytes at a time
    // and fails part way.
    let step = rng.random_range(1usize..64);
    let fail_at = rng.random_range(0usize..=data.len());
    agree(&data, chunk, &calls, step, fail_at);
}

proptest! {
    /// Small blocks: any width, a few rows per chunk. These convert on
    /// the caller's thread.
    #[test]
    fn small_blocks_match_the_line_reader(
        seed in 0u64..=u64::MAX,
        width in 1usize..=40,
        rows in 0usize..=300,
        chunk in 1usize..=12,
    ) {
        check(seed, width, rows, chunk);
    }

    /// Large blocks: wide rows and chunks of 48 rows up to the whole
    /// file, most of them past the size at which a block is split
    /// between two threads.
    #[test]
    fn large_blocks_match_the_line_reader(
        seed in 0u64..=u64::MAX,
        width in 16usize..=40,
        rows in 0usize..=300,
        chunk in (0usize..4).prop_map(|i| [48, 100, 300, 1 << 24][i]),
    ) {
        check(seed, width, rows, chunk);
    }
}

/// A block split between two threads with a bad row in each half
/// reports the first half's; with one only in the second half, that
/// one; a line that is not UTF-8 loses to a bad row before it.
#[test]
fn the_first_bad_row_of_a_split_block_wins() {
    let row = vec!["123456.78901234567"; 40].join(",");
    let csv = |bad: &[(usize, &str)]| {
        let mut out = (0..40).map(|l| format!("l{l},")).collect::<String>();
        out.pop();
        out.push('\n');
        let mut lines: Vec<Vec<u8>> = (0..200).map(|_| row.clone().into_bytes()).collect();
        for &(at, text) in bad {
            lines[at] = text.as_bytes().to_vec();
        }
        let mut bytes = out.into_bytes();
        for line in lines {
            bytes.extend(line);
            bytes.push(b'\n');
        }
        bytes
    };
    let cases: Vec<Vec<u8>> = vec![
        csv(&[(20, "1,2"), (150, "x")]),
        csv(&[(150, "x")]),
        csv(&[(199, "1")]),
        {
            let mut bytes = csv(&[(10, "nan")]);
            let at = bytes.len() - 5;
            bytes[at] = 0xff;
            bytes
        },
        {
            let mut bytes = csv(&[]);
            let at = bytes.len() - 5;
            bytes[at] = 0xff;
            bytes
        },
    ];
    for data in &cases {
        for chunk in [200, 1 << 24] {
            agree(
                data,
                chunk,
                &[Call::TakeRows(100)],
                data.len() + 1,
                usize::MAX,
            );
            agree(data, chunk, &[], data.len() + 1, usize::MAX);
        }
    }
}

/// Blocks of more text than one conversion round holds (half a MiB):
/// the rows, the errors, and the rows left pending agree across the
/// rounds' seams.
#[test]
fn blocks_of_several_rounds_match_the_line_reader() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = random_csv(&mut rng, 40, 2000);
        let calls = random_calls(&mut rng);
        for chunk in [900, 1 << 24] {
            agree(&data, chunk, &calls, data.len() + 1, usize::MAX);
            agree(
                &data,
                chunk,
                &[Call::TakeRows(1500)],
                data.len() + 1,
                usize::MAX,
            );
        }
        let fail_at = rng.random_range(0usize..=data.len());
        agree(&data, 1 << 24, &calls, 4096, fail_at);
    }
}
