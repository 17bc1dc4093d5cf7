//! The worker's local measurement source.
//!
//! Workers never receive measurement rows over the wire — each one
//! reads its own link-count stream locally and ships only the
//! `O(rows × r)` projection partials. [`RowFeed`] abstracts that
//! source so production workers stream CSV ([`CsvRowFeed`]) while the
//! parity and fault-injection suites feed an in-memory matrix
//! ([`MatrixFeed`]) with exact replay positioning.

use std::io::BufRead;

use netanom_linalg::Matrix;
use netanom_traffic::io::CsvChunks;

use crate::error::{NetError, Result};

/// A forward-only source of full-width measurement rows.
///
/// Feeds yield *full-width* rows (all `m` links): the shard's phase A
/// reads its own columns, and the sliding statistics need full evicted
/// rows. The tracker dictates the row cadence, so a feed only
/// supports "give me the next ≤ n rows".
pub trait RowFeed {
    /// Row width `m` (global link count).
    fn dim(&self) -> usize;

    /// Read exactly `need` rows; errors if the feed ends first. Used
    /// for the training prefix, which must be complete.
    fn take_rows(&mut self, need: usize) -> Result<Matrix>;

    /// Read up to `need` rows (≥ 1 when `Some`); `Ok(None)` once the
    /// feed is exhausted.
    fn take_up_to(&mut self, need: usize) -> Result<Option<Matrix>>;

    /// Skip `rows` rows (checkpoint resume: the training prefix plus
    /// already-applied arrivals are consumed without processing).
    fn skip_rows(&mut self, rows: usize) -> Result<()> {
        let mut left = rows;
        while left > 0 {
            match self.take_up_to(left)? {
                Some(block) => left -= block.rows(),
                None => {
                    return Err(NetError::Checkpoint {
                        reason: format!("feed ended {left} rows before the checkpoint position"),
                    })
                }
            }
        }
        Ok(())
    }
}

/// [`RowFeed`] over a link-count CSV stream.
#[derive(Debug)]
pub struct CsvRowFeed<R> {
    inner: CsvChunks<R>,
}

impl<R: BufRead> CsvRowFeed<R> {
    /// Wrap a chunked CSV reader.
    pub fn new(inner: CsvChunks<R>) -> Self {
        CsvRowFeed { inner }
    }
}

impl<R: BufRead> RowFeed for CsvRowFeed<R> {
    fn dim(&self) -> usize {
        self.inner.num_links()
    }

    fn take_rows(&mut self, need: usize) -> Result<Matrix> {
        Ok(self.inner.take_rows(need)?)
    }

    fn take_up_to(&mut self, need: usize) -> Result<Option<Matrix>> {
        Ok(self.inner.take_up_to(need)?)
    }
}

/// [`RowFeed`] over an in-memory matrix — the test suites' feed, with
/// a settable cursor for replaying a kill-and-rejoin from an exact row.
#[derive(Debug, Clone)]
pub struct MatrixFeed {
    data: Matrix,
    at: usize,
}

impl MatrixFeed {
    /// Feed the rows of `data` from the top.
    pub fn new(data: Matrix) -> Self {
        MatrixFeed { data, at: 0 }
    }
}

impl RowFeed for MatrixFeed {
    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn take_rows(&mut self, need: usize) -> Result<Matrix> {
        if self.at + need > self.data.rows() {
            return Err(NetError::Protocol {
                reason: format!(
                    "feed has {} rows left, {need} required",
                    self.data.rows() - self.at
                ),
            });
        }
        let block = self
            .data
            .row_block(self.at, need)
            .expect("bounds checked above");
        self.at += need;
        Ok(block)
    }

    fn take_up_to(&mut self, need: usize) -> Result<Option<Matrix>> {
        assert!(need > 0, "take_up_to needs a positive row count");
        let left = self.data.rows() - self.at;
        if left == 0 {
            return Ok(None);
        }
        let take = need.min(left);
        let block = self
            .data
            .row_block(self.at, take)
            .expect("bounds checked above");
        self.at += take;
        Ok(Some(block))
    }
}
