//! Row-chunk parallelism for the dense kernels.
//!
//! Every batched kernel in this crate parallelizes the same way: the
//! output matrix is split into contiguous blocks of whole rows, and each
//! block is computed by an independent worker. Because a block's rows
//! are produced by exactly the same scalar loop regardless of how many
//! blocks exist, results are **bitwise independent of the thread
//! count** — the split only changes *who* computes a row, never the
//! order of floating-point operations within it. The packed
//! [`crate::kernel`] layer preserves this by accumulating every output
//! element in the same ascending-`k` order on all paths, so the
//! fan-out composes with packing without weakening the guarantee.

/// Multiply-adds each worker must have before a kernel fans out: the
/// share a spawned worker runs has to pay for its spawn. The `rayon`
/// stub starts a fresh OS thread per `spawn`, and scope + spawn + join
/// measured 33–47 µs on a 2-vCPU Xeon, where 1.5 M multiply-adds take
/// about 170 µs on one core — so a spawn costs at most a quarter of the
/// share it runs. (At 400 k, a truncated sweep's `A·Q` at `m = 256`,
/// 1 M multiply-adds, fanned out to two workers and took 144 µs
/// against 117 µs on one; a block's statistics update at `m = 256`,
/// 2.4 M, now stays on one core beside the engine's read-ahead thread.)
pub(crate) const MIN_PARALLEL_FLOPS: usize = 1_500_000;

/// Worker count for a kernel performing `flops` multiply-adds over
/// `rows` independent output rows: 1 (serial) when the work is small,
/// then scaling with the amount of work — one extra worker per
/// threshold's worth of flops — so a product just past the crossover
/// doesn't fan out to every hardware thread for microseconds of work
/// each. Capped by the hardware thread count and the row count.
pub(crate) fn workers_for(flops: usize, rows: usize) -> usize {
    if flops < 2 * MIN_PARALLEL_FLOPS || rows < 2 {
        1
    } else {
        (flops / MIN_PARALLEL_FLOPS)
            .min(rayon::current_num_threads())
            .min(rows)
            .max(1)
    }
}

/// Boundaries `[0, …, rows]` splitting `rows` into at most `chunks`
/// contiguous ranges of approximately equal total `weight` (per-row cost
/// estimate). Used by triangular kernels whose later rows are cheaper.
pub(crate) fn balanced_boundaries(
    rows: usize,
    chunks: usize,
    weight: impl Fn(usize) -> f64,
) -> Vec<usize> {
    let chunks = chunks.clamp(1, rows.max(1));
    let total: f64 = (0..rows).map(&weight).sum();
    let mut boundaries = vec![0];
    if total <= 0.0 {
        // Degenerate weights: fall back to an even split.
        for c in 1..chunks {
            boundaries.push(c * rows / chunks);
        }
    } else {
        let per_chunk = total / chunks as f64;
        let mut acc = 0.0;
        for (row, w) in (0..rows).map(|r| (r, weight(r))) {
            if acc >= per_chunk && boundaries.len() < chunks && boundaries.last() < Some(&row) {
                boundaries.push(row);
                acc = 0.0;
            }
            acc += w;
        }
    }
    boundaries.push(rows);
    boundaries.dedup();
    boundaries
}

/// Split the row-major buffer `data` (`rows × cols`) at `boundaries`
/// (ascending, starting at 0 and ending at `rows`) and run
/// `f(first_row, block)` on every block — in parallel when there is more
/// than one block.
pub(crate) fn for_row_blocks<F>(data: &mut [f64], cols: usize, boundaries: &[usize], f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
    if boundaries.len() <= 2 {
        f(0, data);
        return;
    }
    rayon::scope(|s| {
        let mut rest = data;
        // Spawn all blocks but the last; the caller's thread works the
        // last one instead of idling at the scope join.
        for w in boundaries[..boundaries.len() - 1].windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (block, tail) = rest.split_at_mut((hi - lo) * cols);
            rest = tail;
            let f = &f;
            s.spawn(move |_| f(lo, block));
        }
        f(boundaries[boundaries.len() - 2], rest);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_boundaries_cover_and_ascend() {
        for rows in [0usize, 1, 5, 100] {
            for chunks in [1usize, 2, 7, 200] {
                let b = balanced_boundaries(rows, chunks, |_| 1.0);
                assert_eq!(*b.first().unwrap(), 0);
                assert_eq!(*b.last().unwrap(), rows);
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
                assert!(b.len() <= chunks + 1);
            }
        }
    }

    #[test]
    fn balanced_boundaries_equalize_triangular_weights() {
        // weight(r) = rows - r (a gram-style triangle): the first chunk
        // must take fewer rows than the last.
        let rows = 100;
        let b = balanced_boundaries(rows, 4, |r| (rows - r) as f64);
        assert_eq!(b.len(), 5);
        let first = b[1] - b[0];
        let last = b[4] - b[3];
        assert!(first < last, "boundaries {b:?}");
    }

    #[test]
    fn for_row_blocks_visits_every_row_once() {
        let rows = 13;
        let cols = 3;
        let mut data = vec![0.0; rows * cols];
        let boundaries = balanced_boundaries(rows, 4, |_| 1.0);
        for_row_blocks(&mut data, cols, &boundaries, |first_row, block| {
            for (li, row) in block.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + li) as f64;
                }
            }
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(data[r * cols + c], r as f64);
            }
        }
    }

    #[test]
    fn workers_respect_threshold() {
        assert_eq!(workers_for(10, 1000), 1);
        assert_eq!(workers_for(MIN_PARALLEL_FLOPS, 1), 1);
        assert!(workers_for(MIN_PARALLEL_FLOPS, 1000) >= 1);
    }
}
