//! The line-at-a-time CSV reader: one `read_line` into a fresh `String`
//! per line, `split(',')` collected into a `Vec<&str>`, and
//! `str::parse::<f64>` per trimmed field. `netanom_traffic::io::CsvChunks`
//! did exactly this until it learned to cut a block's lines into one
//! buffer and convert them on two threads; kept as the oracle that
//! reader is held to, row for row and error for error.
//!
//! Test-only by construction: the `csv_oracle` suite compiles it by
//! `#[path]`; no library build contains it.

use std::io::BufRead;

use netanom_linalg::Matrix;
use netanom_traffic::io::CsvError;

/// Parse one data line (1-based `line` number for error reporting) into
/// `m` numeric fields appended onto `out`.
fn parse_row_into(
    line_text: &str,
    line: usize,
    m: usize,
    out: &mut Vec<f64>,
) -> Result<(), CsvError> {
    let fields: Vec<&str> = line_text.split(',').collect();
    if fields.len() != m {
        return Err(CsvError::RaggedRow {
            line,
            got: fields.len(),
            expected: m,
        });
    }
    for (column, field) in fields.iter().enumerate() {
        let trimmed = field.trim();
        let v: f64 = trimmed.parse().map_err(|_| CsvError::BadNumber {
            line,
            column,
            text: trimmed.to_string(),
        })?;
        if !v.is_finite() {
            return Err(CsvError::BadNumber {
                line,
                column,
                text: trimmed.to_string(),
            });
        }
        out.push(v);
    }
    Ok(())
}

/// The chunked reader as it was, with the same public surface.
#[derive(Debug)]
pub struct OracleChunks<R> {
    reader: R,
    names: Vec<String>,
    chunk_rows: usize,
    /// 1-based number of the last line read.
    line: usize,
    /// Set once EOF or an error has been delivered.
    done: bool,
    /// Leftover rows from a `take_rows` boundary split, yielded before
    /// any further reading.
    pending: Option<Matrix>,
}

impl<R: BufRead> OracleChunks<R> {
    /// Wrap a buffered reader, consuming the header line immediately.
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
        Ok(OracleChunks {
            reader,
            names,
            chunk_rows,
            line: 1,
            done: false,
            pending: None,
        })
    }

    /// The link names from the header row.
    pub fn header(&self) -> &[String] {
        &self.names
    }

    /// Parse the next block of up to `chunk_rows` measurements.
    pub fn next_chunk(&mut self) -> Result<Option<Matrix>, CsvError> {
        if let Some(p) = self.pending.take() {
            return Ok(Some(p));
        }
        if self.done {
            return Ok(None);
        }
        let m = self.names.len();
        let mut data: Vec<f64> = Vec::with_capacity(self.chunk_rows * m);
        let mut rows = 0usize;
        let mut buf = String::new();
        while rows < self.chunk_rows {
            buf.clear();
            let read = match self.reader.read_line(&mut buf) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Err(e.into());
                }
            };
            if read == 0 {
                self.done = true;
                break;
            }
            self.line += 1;
            let text = buf.trim_end_matches(['\n', '\r']);
            if text.trim().is_empty() {
                continue;
            }
            if let Err(e) = parse_row_into(text, self.line, m, &mut data) {
                self.done = true;
                return Err(e);
            }
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(
            Matrix::from_vec(rows, m, data).expect("sized to shape"),
        ))
    }

    /// Read exactly `need` data rows as one `need × m` matrix.
    pub fn take_rows(&mut self, need: usize) -> Result<Matrix, CsvError> {
        if need == 0 {
            return Ok(Matrix::zeros(0, self.names.len()));
        }
        let got = match self.take_up_to(need)? {
            Some(block) if block.rows() == need => return Ok(block),
            Some(block) => block.rows(),
            None => 0,
        };
        Err(CsvError::Truncated { got, need })
    }

    /// Read *up to* `need` data rows as one matrix.
    pub fn take_up_to(&mut self, need: usize) -> Result<Option<Matrix>, CsvError> {
        assert!(need > 0, "need must be positive");
        let mut blocks: Vec<Matrix> = Vec::new();
        let mut got = 0usize;
        while got < need {
            let Some(block) = self.next_chunk()? else {
                break;
            };
            let take = (need - got).min(block.rows());
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
            got += take;
        }
        if got == 0 {
            return Ok(None);
        }
        Ok(Some(stack(self.names.len(), &blocks)))
    }
}

/// Concatenate row blocks, each `m` wide, into one matrix.
fn stack(m: usize, blocks: &[Matrix]) -> Matrix {
    let spans: Vec<&[f64]> = blocks.iter().map(Matrix::as_slice).collect();
    Matrix::from_segments(m, &spans).expect("blocks share the header width")
}
