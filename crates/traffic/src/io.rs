//! CSV import/export for measurement series.
//!
//! The paper's method "can be applied in any network where link counts
//! are available"; these helpers move link measurements between this
//! library and the SNMP pollers / spreadsheets where such counts live.
//!
//! Format: one header row naming the links, then one row per time bin of
//! numeric byte counts. No external CSV crate is needed — the format is
//! plain numeric RFC-4180 without quoting.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::BufRead;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread;

use netanom_linalg::Matrix;
use netanom_topology::LinkPartition;

use crate::series::LinkSeries;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file had no header or no data rows.
    Empty,
    /// A row had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected from the header.
        expected: usize,
    },
    /// A field failed to parse as a finite number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// The offending text.
        text: String,
    },
    /// The input ended before a requested number of rows was read
    /// ([`CsvChunks::take_rows`]).
    Truncated {
        /// Data rows actually read.
        got: usize,
        /// Data rows requested.
        need: usize,
    },
    /// A link partition did not cover the CSV's link columns
    /// ([`ShardedChunks::new`]).
    PartitionMismatch {
        /// Links in the CSV header.
        links: usize,
        /// Links the partition covers.
        partition: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Empty => write!(f, "csv has no data rows"),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line}: {got} fields, expected {expected}")
            }
            CsvError::BadNumber { line, column, text } => {
                write!(
                    f,
                    "line {line}, column {column}: {text:?} is not a finite number"
                )
            }
            CsvError::Truncated { got, need } => {
                write!(f, "input ended after {got} data rows (needed {need})")
            }
            CsvError::PartitionMismatch { links, partition } => {
                write!(
                    f,
                    "link partition covers {partition} links but the csv has {links}"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Rounds of at least this many bytes of text convert on two threads.
///
/// Splitting a round saves half its conversion and costs one handoff to
/// the helper and back. `str::parse::<f64>` takes about 45 ns per field
/// on the 16–17-digit fields `link_series_to_csv_string` writes, about
/// 18 bytes with the comma, so conversion costs at least 2.5 ns per
/// byte. A handoff round trip to an idle helper measured a median of
/// 18–27 µs on a 2-vCPU Xeon VM. Half a round outweighs that from about
/// 2 × 27 µs / 2.5 ns ≈ 22 KB; 32 KiB keeps the helper off rounds whose
/// gain the host's scheduling noise would eat. A six-hour chunk of the
/// ledger's m = 121 series (36 rows, ≈ 80 KB) splits; a short `--chunk`
/// or a narrow network converts on the caller's thread alone.
const SPLIT_MIN_BYTES: usize = 32 * 1024;

/// A block is cut and converted in rounds that stop once this much text
/// is buffered (or the block's rows are in).
///
/// It bounds the text a block holds at once, however many rows it asks
/// for: a 1008-row training prefix at m = 121 is 2.2 MB of text, more
/// than its 0.98 MB of numbers, and a `--chunk` in the millions would
/// otherwise buffer a whole file. At 2.5 ns per byte a round of this
/// size converts in about 1.3 ms, so its one handoff costs about 2 %.
const ROUND_BYTES: usize = 512 * 1024;

/// One round of a block's data lines as read: their text, one line after
/// another in one buffer that [`CsvChunks`] reuses from round to round,
/// and where each data line sits in it.
#[derive(Debug, Default, Clone)]
struct Lines {
    text: String,
    cuts: Vec<Cut>,
}

/// One data line of a [`Lines`] buffer: its byte range with the line
/// ending left out, and its 1-based line number in the input.
#[derive(Debug, Clone, Copy)]
struct Cut {
    start: usize,
    end: usize,
    line: usize,
}

impl Lines {
    /// Convert the data lines numbered `rows` (block order) onto `out`,
    /// stopping at the first bad one.
    fn convert(&self, rows: Range<usize>, m: usize, out: &mut Vec<f64>) -> Result<(), CsvError> {
        for cut in &self.cuts[rows] {
            convert_row(&self.text[cut.start..cut.end], cut.line, m, out)?;
        }
        Ok(())
    }

    /// The numbers the data lines `rows` can hold: `m` each, but never
    /// more than their bytes of text — every field of a valid row takes
    /// at least one — so a wide header over short rows reserves only what
    /// the text allows.
    fn capacity(&self, rows: Range<usize>, m: usize) -> usize {
        let cuts = &self.cuts[rows];
        let bytes = match (cuts.first(), cuts.last()) {
            (Some(first), Some(last)) => last.end - first.start,
            _ => 0,
        };
        cuts.len().saturating_mul(m).min(bytes)
    }
}

/// Convert one data line (1-based `line` for error reporting) into `m`
/// finite numbers appended onto `out`. The fields are counted before any
/// is converted, so a row that is both ragged and holds a bad number
/// reports [`CsvError::RaggedRow`].
fn convert_row(text: &str, line: usize, m: usize, out: &mut Vec<f64>) -> Result<(), CsvError> {
    let got = text.bytes().filter(|&b| b == b',').count() + 1;
    if got != m {
        return Err(CsvError::RaggedRow {
            line,
            got,
            expected: m,
        });
    }
    for (column, field) in text.split(',').enumerate() {
        let field = trim_field(field);
        match field.parse::<f64>() {
            Ok(v) if v.is_finite() => out.push(v),
            _ => {
                return Err(CsvError::BadNumber {
                    line,
                    column,
                    text: field.to_string(),
                })
            }
        }
    }
    Ok(())
}

/// `field.trim()`, skipped when no edge byte can belong to a whitespace
/// character: ASCII whitespace is at most `b' '`, and every other
/// whitespace character is encoded in bytes of `0x80` and above.
fn trim_field(field: &str) -> &str {
    let maybe_space = |b: &u8| *b <= b' ' || *b >= 0x80;
    let bytes = field.as_bytes();
    if bytes.first().is_some_and(maybe_space) || bytes.last().is_some_and(maybe_space) {
        field.trim()
    } else {
        field
    }
}

/// Rows of one round for the helper thread to convert.
struct Job {
    lines: Arc<Lines>,
    rows: Range<usize>,
    m: usize,
    /// The buffer to convert into, sized by the caller so the helper
    /// never allocates; handed back in the [`Reply`].
    out: Vec<f64>,
}

/// The helper thread's answer to one [`Job`].
struct Reply {
    out: Vec<f64>,
    result: Result<(), CsvError>,
}

/// The second core of a [`CsvChunks`], started the first time a round is
/// large enough to split.
#[derive(Debug, Default)]
enum Helper {
    /// No block has needed it yet.
    #[default]
    Unstarted,
    Running(HelperThread),
    /// One usable core, a failed spawn, a helper that went away, or an
    /// input that has ended: every round converts on the caller's thread.
    Inline,
}

impl Helper {
    /// The running helper, started on first use where
    /// `available_parallelism` (which honours affinity masks) reports at
    /// least two cores.
    fn get(&mut self) -> Option<&HelperThread> {
        if matches!(self, Helper::Unstarted) {
            let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
            *self = match (cores >= 2).then(HelperThread::spawn).flatten() {
                Some(running) => Helper::Running(running),
                None => Helper::Inline,
            };
        }
        match self {
            Helper::Running(running) => Some(running),
            _ => None,
        }
    }
}

/// A thread that converts the rows it is sent until its job channel
/// closes. Dropping it closes the channel and joins the thread.
#[derive(Debug)]
struct HelperThread {
    jobs: Option<mpsc::Sender<Job>>,
    replies: mpsc::Receiver<Reply>,
    thread: Option<thread::JoinHandle<()>>,
}

impl HelperThread {
    fn spawn() -> Option<Self> {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, replies) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("csv-convert".to_string())
            .spawn(move || {
                for Job {
                    lines,
                    rows,
                    m,
                    mut out,
                } in inbox
                {
                    let result = lines.convert(rows, m, &mut out);
                    // Let go of the text before answering, so the caller
                    // holds the only reference again and reuses it.
                    drop(lines);
                    if outbox.send(Reply { out, result }).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(HelperThread {
            jobs: Some(jobs),
            replies,
            thread: Some(thread),
        })
    }

    /// Hand rows `rows` of `lines` to the thread; false if it has gone.
    fn send(&self, lines: Arc<Lines>, rows: Range<usize>, m: usize) -> bool {
        let out = Vec::with_capacity(lines.capacity(rows.clone(), m));
        self.jobs.as_ref().is_some_and(|jobs| {
            jobs.send(Job {
                lines,
                rows,
                m,
                out,
            })
            .is_ok()
        })
    }
}

impl Drop for HelperThread {
    fn drop(&mut self) {
        // A closed job channel ends the thread's loop.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Streaming CSV reader yielding row *blocks* (`≤ chunk_rows × m`
/// matrices) instead of materializing the whole series — the ingestion
/// front end for [`netanom_core::stream::StreamingEngine::process_batch`]
/// when replaying large files or consuming a live pipe. The feed is
/// method-agnostic: the same chunks drive whichever detection backend
/// the engine was instantiated with (`netanom stream --method …`).
///
/// The header is read eagerly on construction. Each
/// [`CsvChunks::next_chunk`] (or iterator step) then reads up to
/// `chunk_rows` data rows in two steps. It *cuts* the lines into one text
/// buffer that is reused from block to block, validating each line's
/// UTF-8 as it is read and skipping blank lines. It then *converts* each
/// cut line to `m` finite numbers in one flat matrix buffer sized from
/// the rows actually read. The two steps take turns in rounds of at most
/// 512 KiB of text, so a huge `chunk_rows` buffers no more text than
/// that. A round of at least 32 KiB converts on two cores: the caller's
/// thread takes the first half of its rows while a helper thread owned
/// by the reader takes the second. The helper starts with the first
/// such round on a host with two usable cores; the read that meets the
/// end of the input or an error joins it, as does dropping the reader
/// before then. The reader itself never leaves the caller's thread, so
/// `R` needs no `Send`.
///
/// Blocks, values and errors do not depend on which thread converted a
/// row: a block reports the error of its first bad line in file order
/// (ragged before bad number within a line), with 1-based file line
/// numbers exactly like [`link_series_from_csv_str`], and every later
/// call returns `Ok(None)`.
///
/// [`netanom_core::stream::StreamingEngine::process_batch`]:
/// https://docs.rs/netanom-core
#[derive(Debug)]
pub struct CsvChunks<R> {
    reader: R,
    names: Vec<String>,
    chunk_rows: usize,
    /// 1-based number of the last line read.
    line: usize,
    /// Set once EOF or an error has been delivered.
    done: bool,
    /// Leftover rows from a [`CsvChunks::take_rows`] boundary split,
    /// yielded before any further reading.
    pending: Option<Matrix>,
    /// The round being read; shared with the helper while it converts.
    lines: Arc<Lines>,
    helper: Helper,
}

impl<R: BufRead> CsvChunks<R> {
    /// Wrap a buffered reader, consuming the header line immediately.
    ///
    /// `chunk_rows` is the maximum rows per yielded block (≥ 1).
    /// Returns [`CsvError::Empty`] if the input has no header line.
    pub fn new(mut reader: R, chunk_rows: usize) -> Result<Self, CsvError> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(CsvError::Empty);
        }
        let names: Vec<String> = header
            .trim_end_matches(['\n', '\r'])
            .split(',')
            .map(|s| s.trim().to_string())
            .collect();
        Ok(CsvChunks {
            reader,
            names,
            chunk_rows,
            line: 1,
            done: false,
            pending: None,
            lines: Arc::default(),
            helper: Helper::default(),
        })
    }

    /// The link names from the header row.
    pub fn header(&self) -> &[String] {
        &self.names
    }

    /// Number of links `m` (header width).
    pub fn num_links(&self) -> usize {
        self.names.len()
    }

    /// Parse the next block of up to `chunk_rows` measurements.
    ///
    /// Returns `Ok(None)` at end of input. After an error or the final
    /// block, subsequent calls return `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<Matrix>, CsvError> {
        if let Some(p) = self.pending.take() {
            return Ok(Some(p));
        }
        self.read_block(self.chunk_rows)
    }

    /// Read and convert up to `max_rows` data rows as one block, in
    /// rounds of at most [`ROUND_BYTES`] of text.
    fn read_block(&mut self, max_rows: usize) -> Result<Option<Matrix>, CsvError> {
        let mut data = Vec::new();
        let mut rows = 0;
        let mut rounds = 0;
        let mut failed = None;
        while rows < max_rows && !self.done {
            let stopped = self.cut(max_rows - rows);
            rows += self.lines.cuts.len();
            rounds += 1;
            // A bad line before the one the cut stopped at came first.
            failed = self.convert(&mut data).err().or(stopped);
            self.done |= failed.is_some();
        }
        if self.done {
            // Nothing is left to convert: join the helper in the read that
            // found the end, not whenever the reader is dropped.
            self.helper = Helper::Inline;
        }
        if rounds > 1 {
            // A block of several rounds is a bulk read (the training
            // prefix); the steady state's blocks fit one round, so only a
            // buffer of their size stays resident.
            self.lines = Arc::default();
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(
            Matrix::from_vec(rows, self.names.len(), data).expect("sized to shape"),
        ))
    }

    /// Read up to `max_rows` data lines into the text buffer, stopping
    /// early once it holds [`ROUND_BYTES`]. Returns the read error that
    /// stopped it, if any; end of input or an error ends the reader.
    fn cut(&mut self, max_rows: usize) -> Option<CsvError> {
        let lines = Arc::make_mut(&mut self.lines);
        lines.text.clear();
        lines.cuts.clear();
        while lines.cuts.len() < max_rows && lines.text.len() < ROUND_BYTES {
            let start = lines.text.len();
            // `read_line` appends, and checks only the appended bytes'
            // UTF-8; a line that is not UTF-8 is left out of the buffer.
            match self.reader.read_line(&mut lines.text) {
                Ok(0) => {
                    self.done = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    lines.text.truncate(start);
                    return Some(e.into());
                }
            }
            self.line += 1;
            let row = lines.text[start..].trim_end_matches(['\n', '\r']);
            if row.trim().is_empty() {
                lines.text.truncate(start);
                continue;
            }
            let end = start + row.len();
            lines.cuts.push(Cut {
                start,
                end,
                line: self.line,
            });
        }
        None
    }

    /// Convert the cut lines onto `data`, `m` numbers each. The first half
    /// of a round of at least [`SPLIT_MIN_BYTES`] converts here while the
    /// helper converts the second; a bad line in the first half wins over
    /// one in the second, as it came first in the file.
    fn convert(&mut self, data: &mut Vec<f64>) -> Result<(), CsvError> {
        let m = self.names.len();
        let lines = &self.lines;
        let rows = lines.cuts.len();
        data.reserve(lines.capacity(0..rows, m));
        let helper = if lines.text.len() >= SPLIT_MIN_BYTES && rows >= 2 {
            self.helper.get()
        } else {
            None
        };
        let Some(helper) = helper else {
            return lines.convert(0..rows, m, data);
        };
        let head = rows / 2;
        let sent = helper.send(Arc::clone(lines), head..rows, m);
        let head_result = lines.convert(0..head, m, data);
        // The reply is received even when the head failed, so it cannot
        // be mistaken for the next round's.
        let reply = if sent {
            helper.replies.recv().ok()
        } else {
            None
        };
        head_result?;
        match reply {
            Some(Reply { out, result }) => {
                result?;
                data.extend_from_slice(&out);
            }
            None => {
                self.helper = Helper::Inline;
                self.lines.convert(head..rows, m, data)?;
            }
        }
        Ok(())
    }

    /// Read exactly `need` data rows as one `need × m` matrix —
    /// [`CsvChunks::take_up_to`], which splits the boundary chunk and
    /// buffers its overflow for the next read. This is the
    /// bootstrap-window reader: collect the training prefix, then keep
    /// iterating the same `CsvChunks` for the streamed remainder without
    /// losing or double-reading a row.
    ///
    /// Returns [`CsvError::Truncated`] if the input ends first.
    pub fn take_rows(&mut self, need: usize) -> Result<Matrix, CsvError> {
        let got = match self.take_up_to(need)? {
            Some(block) if block.rows() == need => return Ok(block),
            Some(block) => block.rows(),
            None => 0,
        };
        Err(CsvError::Truncated { got, need })
    }

    /// Read *up to* `need` data rows as one matrix — whole chunks through
    /// the one that holds row `need`, whose overflow is buffered and
    /// yielded first by the next read. The chunks are read and converted
    /// as one block, so every call sees the rows and errors a run of
    /// [`CsvChunks::next_chunk`] calls would. Returns the rows that were
    /// there when the input ends first, and `Ok(None)` once it is
    /// exhausted. This is also the demand-driven reader a distributed
    /// tracker's `RunBlock{take}` dispatch maps onto: every worker reads
    /// the same row count per round regardless of its local chunk size.
    /// A `need` of zero reads nothing and returns an empty `0 × m` block.
    pub fn take_up_to(&mut self, need: usize) -> Result<Option<Matrix>, CsvError> {
        if need == 0 {
            return Ok(Some(Matrix::zeros(0, self.names.len())));
        }
        let mut blocks: Vec<Matrix> = Vec::new();
        let got = match self.pending.take() {
            Some(block) => self.keep(block, need, &mut blocks),
            None => 0,
        };
        if got < need {
            let chunks = (need - got).div_ceil(self.chunk_rows);
            if let Some(block) = self.read_block(chunks.saturating_mul(self.chunk_rows))? {
                self.keep(block, need - got, &mut blocks);
            }
        }
        Ok(match blocks.len() {
            0 => None,
            1 => blocks.pop(),
            _ => Some(stack(self.names.len(), &blocks)),
        })
    }

    /// Push up to `want` rows of `block` onto `blocks`, buffering the rest
    /// as pending; returns the rows pushed.
    fn keep(&mut self, block: Matrix, want: usize, blocks: &mut Vec<Matrix>) -> usize {
        let take = want.min(block.rows());
        if take < block.rows() {
            self.pending = Some(
                block
                    .row_block(take, block.rows() - take)
                    .expect("within block"),
            );
            blocks.push(block.row_block(0, take).expect("within block"));
        } else {
            blocks.push(block);
        }
        take
    }
}

/// Concatenate row blocks, each `m` wide, into one matrix.
fn stack(m: usize, blocks: &[Matrix]) -> Matrix {
    let spans: Vec<&[f64]> = blocks.iter().map(Matrix::as_slice).collect();
    Matrix::from_segments(m, &spans).expect("blocks share the header width")
}

impl<R: BufRead> Iterator for CsvChunks<R> {
    type Item = Result<Matrix, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}

/// A [`CsvChunks`] stream scattered into the column slices of a
/// [`LinkPartition`], one `≤ chunk × mₛ` slice per shard in partition
/// order, all cut from the same rows.
///
/// No verb reads this way: `netanom shard` hands `ShardedEngine` the
/// full-width blocks of [`CsvChunks`] directly. It stays only because
/// the performance ledger's harness compiles against it, until the
/// harness next changes.
#[derive(Debug)]
pub struct ShardedChunks<R> {
    inner: CsvChunks<R>,
    groups: Vec<Vec<usize>>,
}

impl<R: BufRead> ShardedChunks<R> {
    /// Wrap a chunked reader; the partition must cover exactly the
    /// reader's header width.
    pub fn new(inner: CsvChunks<R>, partition: &LinkPartition) -> Result<Self, CsvError> {
        if partition.num_links() != inner.num_links() {
            return Err(CsvError::PartitionMismatch {
                links: inner.num_links(),
                partition: partition.num_links(),
            });
        }
        Ok(ShardedChunks {
            inner,
            groups: partition.groups().to_vec(),
        })
    }

    /// Read exactly `need` full-width rows (the global training prefix);
    /// see [`CsvChunks::take_rows`].
    pub fn take_rows(&mut self, need: usize) -> Result<Matrix, CsvError> {
        self.inner.take_rows(need)
    }

    /// Parse the next block and return it *both* full-width and
    /// scattered into per-shard column slices (partition order, all cut
    /// from the same rows).
    ///
    /// Returns `Ok(None)` at end of input.
    #[allow(clippy::type_complexity)]
    pub fn next_block_and_slices(&mut self) -> Result<Option<(Matrix, Vec<Matrix>)>, CsvError> {
        let Some(block) = self.inner.next_chunk()? else {
            return Ok(None);
        };
        let slices = self
            .groups
            .iter()
            .map(|g| block.select_columns(g))
            .collect();
        Ok(Some((block, slices)))
    }
}

/// Open a link-measurement CSV as a stream of row blocks.
pub fn link_series_chunks(
    path: &Path,
    chunk_rows: usize,
) -> Result<CsvChunks<io::BufReader<fs::File>>, CsvError> {
    let file = fs::File::open(path)?;
    CsvChunks::new(io::BufReader::new(file), chunk_rows)
}

/// Parse a link-measurement CSV: a header row of link names, then one
/// row of byte counts per bin. Returns the series and the header names.
///
/// One-shot form of [`CsvChunks`]; prefer the chunked reader for large
/// files or live input.
pub fn link_series_from_csv_str(content: &str) -> Result<(LinkSeries, Vec<String>), CsvError> {
    let mut chunks = CsvChunks::new(content.as_bytes(), 4096)?;
    let names = chunks.header().to_vec();
    let mut blocks: Vec<Matrix> = Vec::new();
    while let Some(block) = chunks.next_chunk()? {
        blocks.push(block);
    }
    if blocks.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok((LinkSeries::new(stack(names.len(), &blocks)), names))
}

/// Read a link-measurement CSV from disk.
pub fn link_series_from_csv(path: &Path) -> Result<(LinkSeries, Vec<String>), CsvError> {
    let content = fs::read_to_string(path)?;
    link_series_from_csv_str(&content)
}

/// Serialize a link series to CSV with the given link names (defaults to
/// `link_0..` when `names` is `None`).
///
/// # Panics
/// Panics if `names` is provided with the wrong length.
pub fn link_series_to_csv_string(series: &LinkSeries, names: Option<&[String]>) -> String {
    let m = series.num_links();
    let owned: Vec<String>;
    let names: &[String] = match names {
        Some(n) => {
            assert_eq!(n.len(), m, "need one name per link");
            n
        }
        None => {
            owned = (0..m).map(|l| format!("link_{l}")).collect();
            &owned
        }
    };
    let mut out = names.join(",");
    out.push('\n');
    for t in 0..series.num_bins() {
        let row = series.bin(t);
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push('\n');
    }
    out
}

/// Write a link series to a CSV file, creating parent directories.
pub fn link_series_to_csv(
    series: &LinkSeries,
    names: Option<&[String]>,
    path: &Path,
) -> Result<(), CsvError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, link_series_to_csv_string(series, names))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LinkSeries {
        LinkSeries::new(Matrix::from_rows(&[
            vec![1.0, 2.5, 3.0],
            vec![4.0, 5.0, 6.25],
        ]))
    }

    #[test]
    fn roundtrip_preserves_values_and_names() {
        let names = vec![
            "a-b".to_string(),
            "b-c".to_string(),
            "c (intra)".to_string(),
        ];
        let csv = link_series_to_csv_string(&sample(), Some(&names));
        let (parsed, parsed_names) = link_series_from_csv_str(&csv).unwrap();
        assert_eq!(parsed_names, names);
        assert!(parsed.matrix().approx_eq(sample().matrix(), 0.0));
    }

    #[test]
    fn default_names_generated() {
        let csv = link_series_to_csv_string(&sample(), None);
        assert!(csv.starts_with("link_0,link_1,link_2\n"));
    }

    #[test]
    fn ragged_row_reported_with_line() {
        let err = link_series_from_csv_str("a,b\n1,2\n3\n").unwrap_err();
        match err {
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                assert_eq!((line, got, expected), (3, 1, 2));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn bad_number_reported_with_position() {
        let err = link_series_from_csv_str("a,b\n1,x\n").unwrap_err();
        match err {
            CsvError::BadNumber { line, column, text } => {
                assert_eq!((line, column), (2, 1));
                assert_eq!(text, "x");
            }
            other => panic!("wrong error: {other}"),
        }
        // Non-finite numbers rejected too.
        assert!(link_series_from_csv_str("a\ninf\n").is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matches!(link_series_from_csv_str(""), Err(CsvError::Empty)));
        assert!(matches!(
            link_series_from_csv_str("a,b\n"),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn blank_lines_skipped() {
        let (s, _) = link_series_from_csv_str("a,b\n1,2\n\n3,4\n").unwrap();
        assert_eq!(s.num_bins(), 2);
    }

    #[test]
    fn chunked_reader_yields_row_blocks() {
        let csv = "a,b\n1,2\n3,4\n\n5,6\n7,8\n9,10\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), 2).unwrap();
        assert_eq!(chunks.header(), ["a", "b"]);
        assert_eq!(chunks.num_links(), 2);
        let c1 = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(c1.shape(), (2, 2));
        assert_eq!(c1.row(0), &[1.0, 2.0]);
        // Blank line skipped without shortening the block.
        let c2 = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(c2.shape(), (2, 2));
        assert_eq!(c2.row(0), &[5.0, 6.0]);
        let c3 = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(c3.shape(), (1, 2));
        assert_eq!(c3.row(0), &[9.0, 10.0]);
        assert!(chunks.next_chunk().unwrap().is_none());
        assert!(chunks.next_chunk().unwrap().is_none()); // fused after EOF
    }

    #[test]
    fn chunked_reader_matches_one_shot_parser() {
        let names = vec!["x".to_string(), "y".to_string(), "z".to_string()];
        let series = LinkSeries::new(Matrix::from_fn(37, 3, |i, j| (i * 3 + j) as f64 * 0.5));
        let csv = link_series_to_csv_string(&series, Some(&names));
        let (oneshot, oneshot_names) = link_series_from_csv_str(&csv).unwrap();

        let mut chunks = CsvChunks::new(csv.as_bytes(), 8).unwrap();
        assert_eq!(chunks.header(), &oneshot_names[..]);
        let mut rows = 0usize;
        while let Some(block) = chunks.next_chunk().unwrap() {
            for r in 0..block.rows() {
                assert_eq!(block.row(r), oneshot.matrix().row(rows + r));
            }
            rows += block.rows();
        }
        assert_eq!(rows, oneshot.num_bins());
    }

    #[test]
    fn chunked_reader_reports_errors_with_file_lines_and_fuses() {
        let csv = "a,b\n1,2\n3\n5,6\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), 10).unwrap();
        match chunks.next_chunk().unwrap_err() {
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => assert_eq!((line, got, expected), (3, 1, 2)),
            other => panic!("wrong error: {other}"),
        }
        // After an error the stream is terminated, not resumed mid-row.
        assert!(chunks.next_chunk().unwrap().is_none());

        let bad = CsvChunks::new("a,b\n1,nan\n".as_bytes(), 4)
            .unwrap()
            .next_chunk();
        assert!(matches!(bad, Err(CsvError::BadNumber { line: 2, .. })));

        assert!(matches!(
            CsvChunks::new("".as_bytes(), 4).err(),
            Some(CsvError::Empty)
        ));
        // Header-only input yields no chunks (the one-shot parser maps
        // this to `Empty`).
        let mut empty = CsvChunks::new("a,b\n".as_bytes(), 4).unwrap();
        assert!(empty.next_chunk().unwrap().is_none());
    }

    #[test]
    fn take_rows_splits_the_boundary_chunk_without_losing_rows() {
        let csv = "a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), 2).unwrap();
        // 3 rows straddles a chunk boundary: 2 + half of the next.
        let training = chunks.take_rows(3).unwrap();
        assert_eq!(training.shape(), (3, 2));
        assert_eq!(training.row(2), &[5.0, 6.0]);
        // The boundary overflow streams first, then the remainder.
        let next = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(next.row(0), &[7.0, 8.0]);
        let last = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(last.row(0), &[9.0, 10.0]);
        assert!(chunks.next_chunk().unwrap().is_none());

        // Truncation is reported with counts.
        let mut short = CsvChunks::new("a,b\n1,2\n".as_bytes(), 4).unwrap();
        match short.take_rows(5).unwrap_err() {
            CsvError::Truncated { got, need } => assert_eq!((got, need), (1, 5)),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn take_up_to_returns_short_tail_then_none() {
        let csv = "a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), 2).unwrap();
        // Exact-demand reads split chunk boundaries without loss.
        let b1 = chunks.take_up_to(3).unwrap().unwrap();
        assert_eq!(b1.shape(), (3, 2));
        assert_eq!(b1.row(2), &[5.0, 6.0]);
        // A demand past EOF yields the short tail, not an error.
        let b2 = chunks.take_up_to(10).unwrap().unwrap();
        assert_eq!(b2.shape(), (2, 2));
        assert_eq!(b2.row(1), &[9.0, 10.0]);
        // Exhausted input yields None, fused.
        assert!(chunks.take_up_to(1).unwrap().is_none());
        assert!(chunks.take_up_to(1).unwrap().is_none());
        // take_up_to and take_rows interleave through the same pending
        // buffer.
        let mut mixed = CsvChunks::new(csv.as_bytes(), 4).unwrap();
        let train = mixed.take_rows(1).unwrap();
        assert_eq!(train.row(0), &[1.0, 2.0]);
        let rest = mixed.take_up_to(2).unwrap().unwrap();
        assert_eq!(rest.row(0), &[3.0, 4.0]);
        assert_eq!(rest.rows(), 2);
    }

    #[test]
    fn take_up_to_zero_rows_reads_nothing() {
        let csv = "a,b\n1,2\n3,4\n5,6\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), 2).unwrap();
        let empty = chunks.take_up_to(0).unwrap().unwrap();
        assert_eq!(empty.shape(), (0, 2));
        // A partly read chunk keeps its overflow for the next read.
        assert_eq!(chunks.take_up_to(1).unwrap().unwrap().row(0), &[1.0, 2.0]);
        assert_eq!(chunks.take_up_to(0).unwrap().unwrap().shape(), (0, 2));
        assert_eq!(chunks.take_rows(0).unwrap().shape(), (0, 2));
        let rest = chunks.take_up_to(5).unwrap().unwrap();
        assert_eq!(rest.shape(), (2, 2));
        assert_eq!(rest.row(0), &[3.0, 4.0]);
        // Exhausted input still reads as an empty block, not as the end.
        assert_eq!(chunks.take_up_to(0).unwrap().unwrap().shape(), (0, 2));
        assert!(chunks.take_up_to(1).unwrap().is_none());
    }

    #[test]
    fn next_block_and_slices_returns_both_views_of_the_same_rows() {
        let csv = "a,b,c,d,e\n0,1,2,3,4\n10,11,12,13,14\n";
        let partition = LinkPartition::round_robin(5, 2).unwrap();
        let chunks = CsvChunks::new(csv.as_bytes(), 4).unwrap();
        let mut sharded = ShardedChunks::new(chunks, &partition).unwrap();
        let (block, slices) = sharded.next_block_and_slices().unwrap().unwrap();
        assert_eq!(block.shape(), (2, 5));
        assert_eq!(slices.len(), 2);
        for (group, slice) in partition.groups().iter().zip(&slices) {
            assert!(*slice == block.select_columns(group));
        }
        assert!(sharded.next_block_and_slices().unwrap().is_none());
    }

    #[test]
    fn sharded_chunks_scatter_column_slices_in_lockstep() {
        let csv = "a,b,c,d,e\n0,1,2,3,4\n10,11,12,13,14\n20,21,22,23,24\n30,31,32,33,34\n";
        let partition = LinkPartition::round_robin(5, 2).unwrap();
        let chunks = CsvChunks::new(csv.as_bytes(), 3).unwrap();
        let mut sharded = ShardedChunks::new(chunks, &partition).unwrap();

        // Training prefix stays full-width; the remainder streams as
        // per-shard slices of the same rows.
        let train = sharded.take_rows(1).unwrap();
        assert_eq!(train.shape(), (1, 5));
        let (_, slices) = sharded.next_block_and_slices().unwrap().unwrap();
        assert_eq!(slices.len(), 2);
        // Shard 0 owns links {0, 2, 4}; shard 1 owns {1, 3}.
        assert_eq!(slices[0].row(0), &[10.0, 12.0, 14.0]);
        assert_eq!(slices[1].row(0), &[11.0, 13.0]);
        assert_eq!(slices[0].rows(), slices[1].rows());
        let (_, last) = sharded.next_block_and_slices().unwrap().unwrap();
        assert_eq!(last[0].rows(), 1);
        assert!(sharded.next_block_and_slices().unwrap().is_none());
    }

    #[test]
    fn sharded_chunks_validate_partition_width() {
        let chunks = CsvChunks::new("a,b\n1,2\n".as_bytes(), 2).unwrap();
        let wrong = LinkPartition::round_robin(3, 2).unwrap();
        assert!(matches!(
            ShardedChunks::new(chunks, &wrong),
            Err(CsvError::PartitionMismatch {
                links: 2,
                partition: 3
            })
        ));
    }

    #[test]
    fn chunked_reader_iterator_interface() {
        let csv = "a\n1\n2\n3\n";
        let blocks: Vec<Matrix> = CsvChunks::new(csv.as_bytes(), 2)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].rows() + blocks[1].rows(), 3);
    }

    #[test]
    fn chunked_file_reader_streams_from_disk() {
        let dir = std::env::temp_dir().join("netanom-io-chunks");
        let path = dir.join("links.csv");
        link_series_to_csv(&sample(), None, &path).unwrap();
        let mut chunks = link_series_chunks(&path, 1).unwrap();
        assert_eq!(chunks.num_links(), 3);
        let mut rows = 0;
        while let Some(block) = chunks.next_chunk().unwrap() {
            assert_eq!(block.cols(), 3);
            rows += block.rows();
        }
        assert_eq!(rows, sample().num_bins());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_wide_header_and_a_huge_chunk_cost_only_the_rows_read() {
        let header: Vec<String> = (0..1000).map(|l| format!("l{l}")).collect();
        let row = vec!["1.5"; 1000].join(",");
        let csv = format!("{}\n{row}\n{row}\n", header.join(","));
        let mut chunks = CsvChunks::new(csv.as_bytes(), 1 << 24).unwrap();
        let block = chunks.next_chunk().unwrap().unwrap();
        assert_eq!(block.shape(), (2, 1000));
        assert!(block.as_slice().iter().all(|&v| v == 1.5));
        assert!(chunks.next_chunk().unwrap().is_none());
        // Rows too short for the header reserve nothing for it either.
        let short = format!("{}\n{}", header.join(","), "1\n".repeat(4096));
        let err = CsvChunks::new(short.as_bytes(), 1 << 24)
            .unwrap()
            .next_chunk()
            .unwrap_err();
        assert!(matches!(
            err,
            CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 1000
            }
        ));
    }

    #[test]
    fn large_blocks_convert_on_the_helper_where_two_cores_are_usable() {
        let series = LinkSeries::new(Matrix::from_fn(1500, 40, |i, j| {
            (i * 40 + j) as f64 * 1_234.567_890_123 + 0.123_456_789
        }));
        let csv = link_series_to_csv_string(&series, None);
        assert!(
            csv.len() > 2 * ROUND_BYTES,
            "the block takes several rounds"
        );
        let mut chunks = CsvChunks::new(csv.as_bytes(), 1000).unwrap();
        let block = chunks.next_chunk().unwrap().unwrap();
        assert!(block == series.matrix().row_block(0, 1000).unwrap());
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(matches!(chunks.helper, Helper::Running(_)), cores >= 2);
        let rest = chunks.next_chunk().unwrap().unwrap();
        assert!(rest == series.matrix().row_block(1000, 500).unwrap());
        // The read that found the end joined the helper.
        assert!(matches!(chunks.helper, Helper::Inline));
        assert!(chunks.next_chunk().unwrap().is_none());
        // A bad field in the second half of the first round, which the
        // helper converts, is reported as the caller's thread reports it.
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        let v = series.matrix()[(500, 4)];
        lines[501] = lines[501].replacen(&format!(",{v},"), ",x,", 1);
        let err = CsvChunks::new(lines.join("\n").as_bytes(), 1 << 24)
            .unwrap()
            .next_chunk()
            .unwrap_err();
        assert!(
            matches!(err, CsvError::BadNumber { line: 502, column: 4, ref text } if text == "x"),
            "{err}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("netanom-io-test");
        let path = dir.join("links.csv");
        link_series_to_csv(&sample(), None, &path).unwrap();
        let (parsed, names) = link_series_from_csv(&path).unwrap();
        assert_eq!(names.len(), 3);
        assert!(parsed.matrix().approx_eq(sample().matrix(), 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
