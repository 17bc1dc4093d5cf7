//! Panel packing: copy one cache block of an operand into the
//! contiguous, zero-padded layout the micro-kernel consumes.
//!
//! Packed `A` blocks are stored panel-major: `⌈mc/mr⌉` panels, each a
//! `kc × mr` slab laid out k-major (`buf[panel][k*mr + i]` holds
//! `A[row0 + panel*mr + i][k0 + k]`), where `mr`/`nr` are the
//! micro-tile dimensions being packed for (the fused product tile and
//! the unfused scoring tile differ in height). Packed `B` blocks mirror
//! that with `nr`-wide panels (`buf[panel][k*nr + j]` holds
//! `B[k0 + k][col0 + panel*nr + j]`). Rows/columns past the operand's
//! edge are padded with `0.0`, which contributes only to output lanes
//! the macro kernel discards — real elements see exactly their own
//! `a·b` terms.
//!
//! Each orientation gets its own loop nest so the *source* is always
//! walked along contiguous rows; the strided side of the copy lands in
//! the packed buffer, which is small enough to stay cache-resident
//! while being filled. [`rank_update`](super::rank_update) packs two
//! sources of its own that fit only their side: [`Multipliers`] as `A`,
//! [`Terms`] as `B`.
//!
//! # Parallel packing
//!
//! Packing is pure data movement, and a large block (a `KC × NC`
//! packed `B` is up to 2 MiB) serializes the calling thread on memcpy
//! before any flops run. Both entry points therefore fan the *panel
//! range* out across rayon workers once a block is past
//! [`MIN_PACK_ELEMS_PER_WORKER`] ×2: panels are disjoint,
//! fixed-length slices of the destination buffer, so the fan-out is
//! **placement-only** — each panel's bytes are produced by exactly
//! the same copies whichever worker owns it, making the packed block
//! bitwise identical to the serial pack (and therefore invisible to
//! every numeric contract above). Below the threshold (and on 1-thread
//! hosts) the loop nests run serially on the caller, unchanged.

use super::Operand;
use crate::parallel;

/// A source the packers lay out as a product's `A` side.
pub(crate) trait PackA: Sync {
    /// Pack panels `p0..p1` of [`pack_a`]'s block into `chunk`, which
    /// holds exactly those panels.
    #[allow(clippy::too_many_arguments)]
    fn pack_a_range<const MR: usize>(
        &self,
        row0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    );
}

/// A source the packers lay out as a product's `B` side.
pub(crate) trait PackB: Sync {
    /// Pack panels `p0..p1` of [`pack_b`]'s block into `chunk`, which
    /// holds exactly those panels.
    #[allow(clippy::too_many_arguments)]
    fn pack_b_range<const NR: usize>(
        &self,
        k0: usize,
        kc: usize,
        col0: usize,
        nc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    );
}

impl PackA for Operand<'_> {
    fn pack_a_range<const MR: usize>(
        &self,
        row0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    ) {
        pack_a_range(self, row0, mc, k0, kc, MR, p0, p1, chunk);
    }
}

impl PackB for Operand<'_> {
    fn pack_b_range<const NR: usize>(
        &self,
        k0: usize,
        kc: usize,
        col0: usize,
        nc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    ) {
        pack_b_range(self, k0, kc, col0, nc, NR, p0, p1, chunk);
    }
}

/// The terms of a rank update as its `B` side: depth `k` is the
/// borrowed row `self.0[k]`, read where it lies.
pub(crate) struct Terms<'a>(pub(crate) &'a [&'a [f64]]);

impl PackB for Terms<'_> {
    fn pack_b_range<const NR: usize>(
        &self,
        k0: usize,
        kc: usize,
        col0: usize,
        nc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    ) {
        for (k, src) in self.0[k0..k0 + kc].iter().enumerate() {
            for p in p0..p1 {
                let base = (p - p0) * kc * NR;
                let dst = &mut chunk[base + k * NR..base + (k + 1) * NR];
                let c0 = col0 + p * NR;
                let take = NR.min(nc - p * NR);
                if take == NR {
                    // A whole slice: a copy of constant width, no call.
                    dst.copy_from_slice(&src[c0..c0 + NR]);
                } else {
                    dst[..take].copy_from_slice(&src[c0..c0 + take]);
                    dst[take..].fill(0.0);
                }
            }
        }
    }
}

/// The multipliers of a rank update as its `A` side: logical row `r`
/// at depth `k` is `terms[k][cols[r]]`, negated where `negate[k]`; a
/// column past the terms' width reads zero.
pub(crate) struct Multipliers<'a> {
    /// The terms, one borrowed row per depth.
    pub(crate) terms: &'a [&'a [f64]],
    /// Each logical row's column of the terms.
    pub(crate) cols: &'a [usize],
    /// Which terms enter negated.
    pub(crate) negate: &'a [bool],
}

impl PackA for Multipliers<'_> {
    fn pack_a_range<const MR: usize>(
        &self,
        row0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        p0: usize,
        p1: usize,
        chunk: &mut [f64],
    ) {
        let depths = self.terms[k0..k0 + kc]
            .iter()
            .zip(&self.negate[k0..k0 + kc]);
        for (k, (src, &flip)) in depths.enumerate() {
            for p in p0..p1 {
                let base = (p - p0) * kc * MR;
                let dst = &mut chunk[base + k * MR..base + (k + 1) * MR];
                let r0 = row0 + p * MR;
                let picked = &self.cols[r0..r0 + MR.min(mc - p * MR)];
                let first = picked[0];
                let run = picked.len() == MR
                    && first + MR <= src.len()
                    && picked.windows(2).all(|w| w[1] == w[0] + 1);
                if run {
                    // Consecutive columns (every panel of an all-links
                    // update): a copy of constant width, no gather.
                    dst.copy_from_slice(&src[first..first + MR]);
                } else {
                    for (i, d) in dst.iter_mut().enumerate() {
                        let v = picked.get(i).and_then(|&c| src.get(c));
                        *d = v.copied().unwrap_or(0.0);
                    }
                }
                if flip {
                    dst.iter_mut().for_each(|d| *d = -*d);
                }
            }
        }
    }
}

/// Elements of packed output per additional packing worker. Packing
/// moves ~2 passes of memory per element (read + packed write), so a
/// worker's share should amortize an OS-thread spawn under the
/// `rayon` stub (~tens of µs): 64 Ki elements ≈ 512 KiB ≈ 50+ µs of
/// memcpy. Blocks under twice this stay serial.
const MIN_PACK_ELEMS_PER_WORKER: usize = 64 * 1024;

/// Worker count for packing `elems` elements into `panels` panels:
/// 1 (serial) below the crossover, then one worker per
/// [`MIN_PACK_ELEMS_PER_WORKER`], capped by the hardware thread count
/// and the panel count (a panel is the placement unit).
fn pack_workers(elems: usize, panels: usize) -> usize {
    if elems < 2 * MIN_PACK_ELEMS_PER_WORKER || panels < 2 {
        1
    } else {
        (elems / MIN_PACK_ELEMS_PER_WORKER)
            .min(rayon::current_num_threads())
            .min(panels)
            .max(1)
    }
}

/// Run `pack_range(p0, p1, chunk)` over the panel range `0..panels`,
/// serially or fanned across workers ([`pack_workers`]); `chunk` is
/// the sub-slice of `buf` holding panels `p0..p1`. The range split is
/// the only thing parallelism changes — every panel's contents are
/// computed by the same single-threaded loop nest either way.
fn for_panel_ranges(
    buf: &mut [f64],
    panel_len: usize,
    panels: usize,
    pack_range: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let used = &mut buf[..panels * panel_len];
    let workers = pack_workers(used.len(), panels);
    if workers <= 1 {
        pack_range(0, panels, used);
        return;
    }
    let boundaries = parallel::balanced_boundaries(panels, workers, |_| 1.0);
    parallel::for_row_blocks(used, panel_len, &boundaries, |p0, chunk| {
        pack_range(p0, p0 + chunk.len() / panel_len, chunk);
    });
}

/// Pack `mc` logical rows of `a` starting at `row0`, depth `k0..k0+kc`,
/// into `MR`-row panels (`MR` is the micro-tile height being packed
/// for). `buf` must hold at least `⌈mc/MR⌉·MR·kc` elements; only
/// that prefix is written. Large blocks fan the panel range across
/// rayon workers (see the module docs); the packed bytes are bitwise
/// identical either way.
pub(crate) fn pack_a<const MR: usize>(
    a: &impl PackA,
    row0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    buf: &mut [f64],
) {
    let panels = mc.div_ceil(MR);
    for_panel_ranges(buf, kc * MR, panels, |p0, p1, chunk| {
        a.pack_a_range::<MR>(row0, mc, k0, kc, p0, p1, chunk);
    });
}

/// The serial `A`-packing loop nests, restricted to panels `p0..p1`
/// (`chunk` holds exactly those panels). Each orientation walks its
/// *source* along contiguous rows within the range.
#[allow(clippy::too_many_arguments)]
fn pack_a_range(
    a: &Operand,
    row0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    mr: usize,
    p0: usize,
    p1: usize,
    chunk: &mut [f64],
) {
    match a {
        // Rows of `a` are logical rows: walk each source row once,
        // scattering into its panel's k-major slots.
        Operand::N(m) => {
            for p in p0..p1 {
                let panel = &mut chunk[(p - p0) * kc * mr..(p - p0 + 1) * kc * mr];
                for i in 0..mr {
                    let r = p * mr + i;
                    if r < mc {
                        let src = &m.row(row0 + r)[k0..k0 + kc];
                        for (k, &v) in src.iter().enumerate() {
                            panel[k * mr + i] = v;
                        }
                    } else {
                        for k in 0..kc {
                            panel[k * mr + i] = 0.0;
                        }
                    }
                }
            }
        }
        // `a` is the transpose of `m`: logical row `r` at depth `k` is
        // `m[k][r]`, so each source row yields one contiguous mr-slice
        // per panel — the natural layout for `Aᵀ` packing (gram,
        // matmul_tn).
        Operand::T(m) => {
            for (k, srow) in (k0..k0 + kc).enumerate() {
                let src = m.row(srow);
                for p in p0..p1 {
                    let base = (p - p0) * kc * mr;
                    let dst = &mut chunk[base + k * mr..base + (k + 1) * mr];
                    let c0 = row0 + p * mr;
                    let take = mr.min(mc - p * mr);
                    dst[..take].copy_from_slice(&src[c0..c0 + take]);
                    dst[take..].fill(0.0);
                }
            }
        }
    }
}

/// Pack `nc` logical columns of `b` starting at `col0`, depth
/// `k0..k0+kc`, into `NR`-column panels (`NR` is the micro-tile
/// width). `buf` must hold at least `⌈nc/NR⌉·NR·kc`
/// elements; only that prefix is written. Large blocks fan the panel
/// range across rayon workers (see the module docs); the packed bytes
/// are bitwise identical either way.
pub(crate) fn pack_b<const NR: usize>(
    b: &impl PackB,
    k0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
    buf: &mut [f64],
) {
    let panels = nc.div_ceil(NR);
    for_panel_ranges(buf, kc * NR, panels, |p0, p1, chunk| {
        b.pack_b_range::<NR>(k0, kc, col0, nc, p0, p1, chunk);
    });
}

/// The serial `B`-packing loop nests, restricted to panels `p0..p1`.
#[allow(clippy::too_many_arguments)]
fn pack_b_range(
    b: &Operand,
    k0: usize,
    kc: usize,
    col0: usize,
    nc: usize,
    nr: usize,
    p0: usize,
    p1: usize,
    chunk: &mut [f64],
) {
    match b {
        // Row-major `b`: each source row k yields contiguous nr-slices
        // for every panel.
        Operand::N(m) => {
            for (k, srow) in (k0..k0 + kc).enumerate() {
                let src = m.row(srow);
                for p in p0..p1 {
                    let base = (p - p0) * kc * nr;
                    let dst = &mut chunk[base + k * nr..base + (k + 1) * nr];
                    let c0 = col0 + p * nr;
                    let take = nr.min(nc - p * nr);
                    dst[..take].copy_from_slice(&src[c0..c0 + take]);
                    dst[take..].fill(0.0);
                }
            }
        }
        // `b` is the transpose of `m` (matmul_nt): logical column `j`
        // is `m`'s row `j`, walked contiguously along k.
        Operand::T(m) => {
            for p in p0..p1 {
                let panel = &mut chunk[(p - p0) * kc * nr..(p - p0 + 1) * kc * nr];
                for j in 0..nr {
                    let c = p * nr + j;
                    if c < nc {
                        let src = &m.row(col0 + c)[k0..k0 + kc];
                        for (k, &v) in src.iter().enumerate() {
                            panel[k * nr + j] = v;
                        }
                    } else {
                        for k in 0..kc {
                            panel[k * nr + j] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::micro::{MR, NR};
    use crate::Matrix;

    fn numbered(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64 + 1.0)
    }

    #[test]
    fn pack_a_normal_lays_out_k_major_panels() {
        let m = numbered(MR + 2, 5);
        let kc = 3;
        let mc = MR + 2; // one full panel + one padded panel
        let mut buf = vec![f64::NAN; mc.div_ceil(MR) * MR * kc];
        pack_a::<MR>(&Operand::normal(&m), 0, mc, 1, kc, &mut buf);
        // Panel 0, k-slice 0 holds column 1 of rows 0..MR.
        for i in 0..MR {
            assert_eq!(buf[i], m[(i, 1)]);
        }
        // Second panel's real lanes, then zero padding.
        let p1 = &buf[kc * MR..];
        assert_eq!(p1[0], m[(MR, 1)]);
        assert_eq!(p1[1], m[(MR + 1, 1)]);
        for i in 2..MR {
            assert_eq!(p1[i], 0.0);
        }
    }

    #[test]
    fn pack_a_transposed_matches_normal_of_transpose() {
        let m = numbered(7, MR * 2 + 1);
        let t = m.transpose();
        let (mc, kc) = (MR * 2 + 1, 6);
        let mut from_t = vec![f64::NAN; mc.div_ceil(MR) * MR * kc];
        let mut from_n = vec![f64::NAN; mc.div_ceil(MR) * MR * kc];
        pack_a::<MR>(&Operand::transposed(&m), 0, mc, 1, kc, &mut from_t);
        pack_a::<MR>(&Operand::normal(&t), 0, mc, 1, kc, &mut from_n);
        assert_eq!(from_t, from_n);
    }

    #[test]
    fn pack_b_transposed_matches_normal_of_transpose() {
        let m = numbered(NR + 3, 9);
        let t = m.transpose();
        let (nc, kc) = (NR + 3, 7);
        let mut from_t = vec![f64::NAN; nc.div_ceil(NR) * NR * kc];
        let mut from_n = vec![f64::NAN; nc.div_ceil(NR) * NR * kc];
        pack_b::<NR>(&Operand::transposed(&m), 2, kc, 0, nc, &mut from_t);
        pack_b::<NR>(&Operand::normal(&t), 2, kc, 0, nc, &mut from_n);
        assert_eq!(from_t, from_n);
    }

    #[test]
    fn pack_b_normal_pads_partial_panels_with_zeros() {
        let m = numbered(4, NR + 2);
        let (nc, kc) = (NR + 2, 4);
        let mut buf = vec![f64::NAN; nc.div_ceil(NR) * NR * kc];
        pack_b::<NR>(&Operand::normal(&m), 0, kc, 0, nc, &mut buf);
        // First panel k-slice 0 is row 0's first NR entries.
        assert_eq!(&buf[..NR], &m.row(0)[..NR]);
        // Second panel: 2 real lanes then zeros, for every k.
        let p1 = &buf[kc * NR..];
        for k in 0..kc {
            assert_eq!(p1[k * NR], m[(k, NR)]);
            assert_eq!(p1[k * NR + 1], m[(k, NR + 1)]);
            for j in 2..NR {
                assert_eq!(p1[k * NR + j], 0.0, "k={k} j={j}");
            }
        }
    }

    /// A block big enough to fan out (≥ 2 × [`MIN_PACK_ELEMS_PER_WORKER`]
    /// elements) must pack bitwise identically to the serial panel
    /// ranges — packing parallelism is placement-only. The workspace
    /// `rayon` stub reads `RAYON_NUM_THREADS` at call time and the CI
    /// determinism job reruns this suite at 1 and 8 threads, so both
    /// regimes are pinned whatever this host's core count.
    #[test]
    fn parallel_pack_is_bitwise_the_serial_pack() {
        let nr = 8usize;
        let kc = 192usize;
        let nc = 1000usize; // 125 panels ≥ 192k elements: past the crossover
        let panels = nc.div_ceil(nr);
        let m = Matrix::from_fn(kc + 3, nc + 5, |i, j| {
            let h = (i * (nc + 5) + j).wrapping_mul(2654435761) % 8192;
            h as f64 / 4096.0 - 1.0
        });
        let mut fanned = vec![f64::NAN; panels * nr * kc];
        pack_b::<8>(&Operand::normal(&m), 2, kc, 3, nc, &mut fanned);
        assert!(pack_workers(fanned.len(), panels) >= 1);
        // Serial reference: the same loop nest over the full range.
        let mut serial = vec![f64::NAN; panels * nr * kc];
        pack_b_range(
            &Operand::normal(&m),
            2,
            kc,
            3,
            nc,
            nr,
            0,
            panels,
            &mut serial,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fanned), bits(&serial));

        // Same for an A block (transposed orientation, ragged edge).
        let mr = 8usize;
        let mc = 999usize;
        let apanels = mc.div_ceil(mr);
        let mut a_fanned = vec![f64::NAN; apanels * mr * kc];
        pack_a::<8>(&Operand::transposed(&m), 1, mc, 0, kc, &mut a_fanned);
        let mut a_serial = vec![f64::NAN; apanels * mr * kc];
        pack_a_range(
            &Operand::transposed(&m),
            1,
            mc,
            0,
            kc,
            mr,
            0,
            apanels,
            &mut a_serial,
        );
        assert_eq!(bits(&a_fanned), bits(&a_serial));
    }

    #[test]
    fn pack_workers_stay_serial_below_the_crossover() {
        assert_eq!(pack_workers(MIN_PACK_ELEMS_PER_WORKER, 64), 1);
        assert_eq!(pack_workers(10 * MIN_PACK_ELEMS_PER_WORKER, 1), 1);
        let w = pack_workers(4 * MIN_PACK_ELEMS_PER_WORKER, 64);
        assert!((1..=4).contains(&w));
    }
}
