//! Packed, cache-blocked GEMM: the BLAS-class kernel layer.
//!
//! Every matrix product in this crate bottoms out here. The layer
//! follows the classic BLIS/GotoBLAS decomposition of a general matrix
//! multiply `C += A·B`:
//!
//! * **Panel packing** (`pack`). The operands are copied, one cache
//!   block at a time, into contiguous *panels*: `A` into `MR`-row
//!   panels laid out k-major (`[k][MR]`), `B` into `NR`-column panels
//!   (`[k][NR]`). Packing pays one pass of memory traffic to make every
//!   subsequent micro-kernel read perfectly sequential and
//!   stride-free, and it absorbs all four operand orientations
//!   (`A·B`, `A·Bᵀ`, `Aᵀ·B`, `AᵀA`) so a single micro-kernel serves
//!   every product in the crate.
//! * **Cache blocking.** Loops over `NC`-wide column blocks of `C`
//!   (packed `B` stays in L2/L3), `KC`-deep slices of the shared
//!   dimension (one packed `A` block stays in L2), and `MC`-tall row
//!   blocks, following [`Tiles`].
//! * **Register-blocked micro-kernel** (`micro`). The innermost unit
//!   computes an `MR × NR` tile of `C` held entirely in accumulator
//!   registers, reading one `MR`-slice of packed `A` and one
//!   `NR`-slice of packed `B` per `k` step. There is one tile source,
//!   generic over its shape and its rounding (loops over fixed-size
//!   arrays the compiler unrolls and vectorizes), and two
//!   instantiations of it, both compiled at the build target: the
//!   fused 6×8 product tile and the mul-then-add scoring tile (4×8, or
//!   2×8 without AVX).
//!
//! # Two roundings, chosen where each call is compiled
//!
//! Per output element, both tiles accumulate their `k`-terms in
//! strictly ascending order into a single accumulator; they differ
//! only in the rounding of each step, the `FUSED` parameter of the
//! entry points ([`matmul`], [`matmul_nt`], [`matmul_tn`], [`gram`]):
//!
//! * `FUSED = true` rounds each step once (`acc = a.mul_add(b, acc)`),
//!   making the product **bitwise identical to the [`f64::mul_add`]
//!   ascending-`k` triple loop**. [`Matrix`]'s product methods run it:
//!   every covariance, Gram and subspace-iteration product. On x86-64
//!   `.cargo/config.toml` builds for x86-64-v3, so each step is one
//!   hardware `vfmadd` lane.
//! * `FUSED = false` rounds the multiply and the add separately
//!   (`acc += a·b`), making the product **bitwise identical to the
//!   naive mul-then-add `i j k` triple loop**. The scoring kernels run
//!   it (the fused SPE, the batched projections), so a batch score is
//!   bitwise its per-vector route, which is plain mul-then-add
//!   arithmetic.
//!
//! The two agree to `≤ 1e-12` relative (one rounding per term). No
//! rounding is chosen at run time: each call site names its own.
//!
//! Three design choices guarantee the shared ascending-`k` order:
//!
//! 1. the `KC` loop sits *outside* the row/column tile loops, and each
//!    micro-kernel invocation loads the partial `C` tile, extends it,
//!    and stores it back — so `k`-blocks extend a running sum instead
//!    of being reduced pairwise;
//! 2. vectorization is across independent output elements (the `NR`
//!    lanes), never across `k`, so no reduction is reassociated;
//! 3. edge tiles are zero-padded in the *packed panels* (adding
//!    `+ 0·x` terms only to discarded padding lanes), not handled by a
//!    differently-ordered scalar loop.
//!
//! The crate-private `gemm_reference::<FUSED>` loop nest realizes both
//! orders (it is the fallback [`use_packed`] routes small shapes to).
//! Each packed tile is pinned bitwise against naive triple loops
//! written independently in `crates/linalg/tests/`. Because the
//! mul-then-add order also matches the pre-kernel row-axpy/dot
//! implementations, the scoring kernels keep the bits those had — with
//! one deliberate exception: the old kernels skipped `a[i][k] == 0.0`
//! terms, which made throughput data-dependent and silently dropped
//! NaN/∞ propagation from the skipped `B` row. Neither tile ever skips;
//! `0 × NaN` poisons the product on every path.
//!
//! # Shape routing
//!
//! [`use_packed`] routes a product to the packed path only when the
//! operand shapes amortize the packing traffic (roughly one tile of
//! useful work); tiny, skinny, or degenerate shapes fall through to
//! the reference kernel at the same rounding, which follows the same
//! per-element order, so routing is purely a performance decision and
//! never observable in results.

#[cfg(test)]
mod fma;
pub(crate) mod micro;
pub(crate) mod pack;

use crate::{parallel, LinalgError, Matrix, Result};

/// Cache-block sizes for one packed product, in elements (`f64`).
///
/// Chosen for the common 32 KiB L1d / 512 KiB–1 MiB L2 hierarchy:
/// one packed `B` panel (`KC × NR` = 16 KiB) lives in L1 across a whole
/// row of micro-tiles, one packed `A` block (`MC × KC` = 256 KiB) lives
/// in L2 across a whole `NC` sweep, and the packed `B` block
/// (`KC × NC` ≤ 2 MiB) streams from L3. All three clamp to the actual
/// operand dimensions, so small products never over-allocate.
#[derive(Debug, Clone, Copy)]
pub struct Tiles {
    /// Row-block height of packed `A` (`MC`).
    pub mc: usize,
    /// Depth of the shared dimension per packed block (`KC`).
    pub kc: usize,
    /// Column-block width of packed `B` (`NC`).
    pub nc: usize,
}

/// Default `MC` (rows of `A` packed per block).
const MC: usize = 128;
/// Default `KC` (shared-dimension depth per packed block).
const KC: usize = 256;
/// Default `NC` (columns of `B` packed per block).
const NC: usize = 1024;

/// Select cache-block sizes for an `m × k · k × n` product, clamped to
/// the operand dimensions (degenerate dimensions clamp to 1 so the
/// packing loops stay well-formed even for empty edge cases the callers
/// already short-circuit).
pub fn tiles_for(m: usize, k: usize, n: usize) -> Tiles {
    Tiles {
        mc: MC.min(m.max(1)),
        kc: KC.min(k.max(1)),
        nc: NC.min(n.max(1)),
    }
}

/// Minimum multiply-add count before panel packing pays for itself.
///
/// Packing costs one read+write pass over the operands (`O(mk + kn)`
/// per `KC` block); the measured crossover on the workspace's shapes
/// sits near a few tens of thousands of flops. Below it, products route
/// to the bitwise-identical reference kernels.
const MIN_PACKED_FLOPS: usize = 32 * 1024;

/// `true` when an `m × k · k × n` product should take the packed path.
///
/// Requires at least one tile's worth of work in every dimension
/// (`k ≥ 8`, a couple of micro-tile lanes in `m`/`n`) and
/// `MIN_PACKED_FLOPS` of total work; everything else — including the
/// `1 × n`, `n × 1` and empty shapes — degrades gracefully to the
/// reference kernels.
pub fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && n >= 2 && k >= 8 && m * k * n >= MIN_PACKED_FLOPS
}

/// A borrowed row-major `rows × cols` block of `f64`s — the raw form
/// the kernel layer operates on, so packed products run equally over
/// [`Matrix`] storage and over scratch buffers (the fused SPE kernel
/// centers rows into a stack of scratch blocks and multiplies those).
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    /// View over a whole matrix.
    pub(crate) fn of(m: &'a Matrix) -> Self {
        View {
            data: m.as_slice(),
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// View over a raw row-major buffer.
    pub(crate) fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        View { data, rows, cols }
    }

    #[inline]
    fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows);
        self.data[i * self.cols + j]
    }
}

/// One GEMM operand: a [`View`] read as-is or transposed.
///
/// The packing layer absorbs the orientation, so the micro-kernel only
/// ever sees contiguous panels regardless of how the operand is stored.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// Use the view as stored (row-major).
    N(View<'a>),
    /// Use the transpose of the stored view.
    T(View<'a>),
}

impl<'a> Operand<'a> {
    /// Row-major operand over a matrix.
    pub(crate) fn normal(m: &'a Matrix) -> Self {
        Operand::N(View::of(m))
    }

    /// Transposed operand over a matrix.
    pub(crate) fn transposed(m: &'a Matrix) -> Self {
        Operand::T(View::of(m))
    }

    /// Logical element `(i, j)`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        match self {
            Operand::N(v) => v.at(i, j),
            Operand::T(v) => v.at(j, i),
        }
    }
}

/// Compute `block += A[first_row..first_row+mb] · B` into a contiguous
/// row block of the output (the unit of the row-parallel fan-out), on
/// the fused product tile or the unfused scoring tile.
///
/// `block` holds `mb` whole rows of width `ldc = n`; `first_row` is the
/// block's global row offset, which only matters for `upper_only`:
/// when set, micro-tiles lying strictly below the main diagonal of the
/// *global* output are skipped (the symmetric `gram` path computes the
/// upper triangle and mirrors afterwards; tiles straddling the diagonal
/// are computed in full — their below-diagonal lanes are bitwise the
/// mirrored values anyway, multiplication being commutative).
pub(crate) fn gemm_block<const FUSED: bool>(
    a: &Operand,
    b: &Operand,
    first_row: usize,
    block: &mut [f64],
    n: usize,
    kdim: usize,
    upper_only: bool,
) {
    use micro::{FMA_MR, MR, NR};
    let out = OutBlock {
        ldc: n,
        first_row,
        mask: if upper_only { Mask::Upper } else { Mask::None },
    };
    if FUSED {
        gemm_tiled::<FMA_MR, NR, true>(a, b, block, kdim, &out)
    } else {
        gemm_tiled::<MR, NR, false>(a, b, block, kdim, &out)
    }
}

/// Fold `k` terms, each a borrowed row of `n` values, into selected
/// rows of a cross-product matrix, in place, at the scoring tile's
/// rounding (mul, then add): `C += Aᵀ·Y`, with `Y` the terms stacked in
/// order and `A` the same stack with term `p` negated where
/// `negate[p]`, restricted to the columns each `C` row holds.
///
/// Row `r` of `c` is the cross-product row of link `cols[r]`: it takes
/// `± y[p][cols[r]]·y[p][j]` for every `j ≥ cols[r]`, one mul-then-add
/// step per `p` in ascending order, and keeps every entry left of
/// `cols[r]` bit for bit (a row with `cols[r] ≥ n` is not touched).
/// Each entry therefore takes exactly the steps of the loop
/// `for p { c[r][j] += (±y[p][cols[r]])·y[p][j] }` in the same order
/// and rounding — with no term skipped, so a caller wanting zero
/// multipliers skipped routes those rows elsewhere. `cols` need not
/// be ascending. The packed tile runs the update, skipping micro-tiles
/// wholly left of their rows' first columns, except where
/// [`rank_packed`] sends it to the direct loop [`rank_rows`]; rows fan
/// out across workers as the products do. Neither choice shows in the
/// bits.
///
/// Errors unless `negate` has one flag per term, every term is as
/// wide as `c`, and `cols` names one column per row of `c`.
pub fn rank_update(
    terms: &[&[f64]],
    negate: &[bool],
    cols: &[usize],
    c: &mut Matrix,
) -> Result<()> {
    let (kdim, n) = (terms.len(), c.cols());
    let mismatch = |rhs| LinalgError::DimensionMismatch {
        op: "rank_update",
        lhs: c.shape(),
        rhs,
    };
    if let Some(bad) = terms.iter().find(|y| y.len() != n) {
        return Err(mismatch((kdim, bad.len())));
    }
    if negate.len() != kdim || cols.len() != c.rows() {
        return Err(mismatch((negate.len(), cols.len())));
    }
    if kdim == 0 || c.as_slice().is_empty() {
        return Ok(());
    }
    let width = |r: usize| n - cols[r].min(n);
    let flops = kdim * (0..cols.len()).map(width).sum::<usize>();
    let a = pack::Multipliers {
        terms,
        cols,
        negate,
    };
    let b = pack::Terms(terms);
    let packed = rank_packed(cols.len(), kdim, n);
    let workers = parallel::workers_for(flops, cols.len());
    let boundaries = parallel::balanced_boundaries(cols.len(), workers, |r| width(r) as f64);
    parallel::for_row_blocks(c.data_mut(), n, &boundaries, |first_row, block| {
        if packed {
            let out = OutBlock {
                ldc: n,
                first_row,
                mask: Mask::From(cols),
            };
            gemm_tiled::<{ micro::MR }, { micro::NR }, false>(&a, &b, block, kdim, &out);
        } else {
            rank_rows(terms, negate, &cols[first_row..], block, n);
        }
    });
    Ok(())
}

/// Narrowest `C` for which a [`rank_update`] deeper than one `KC`
/// slice takes the packed tile.
const MIN_PACKED_RANK_WIDTH: usize = 160;

/// `true` when a [`rank_update`] of `k` terms into `rows × n` takes the
/// packed tile rather than [`rank_rows`]: past one `KC` slice the pack
/// buffers reach their full depth (256 KiB at `n = 61`), fresh memory
/// for every call, which a narrow `C` does not win back. Seeding 1,008
/// rows took 0.40 ms packed against 0.33 direct at `n = 61` and 0.89
/// against 0.76 at `n = 121`, and 2.2 against 2.7 ms at `n = 256`
/// (best of 10 processes, 2-vCPU Xeon); 72-term blocks stay packed,
/// 6 % faster than direct at `n = 121`.
fn rank_packed(rows: usize, k: usize, n: usize) -> bool {
    use_packed(rows, k, n) && (k <= KC || n >= MIN_PACKED_RANK_WIDTH)
}

/// [`rank_update`] over one block of `C` rows without packing: the
/// terms four at a time, read where they lie, and the rows two at a
/// time so both share each term's loads; a last one to three terms go
/// one at a time. Each entry still takes its steps one term at a time
/// in ascending order, rounded as the tile rounds them.
fn rank_rows(terms: &[&[f64]], negate: &[bool], cols: &[usize], block: &mut [f64], n: usize) {
    let signed = |v: f64, flip: bool| if flip { -v } else { v };
    let quads = terms.chunks_exact(4).zip(negate.chunks_exact(4));
    for (ys, flips) in quads {
        let ys: [&[f64]; 4] = std::array::from_fn(|s| ys[s]);
        let mult = |i: usize| std::array::from_fn(|s| signed(ys[s][i], flips[s]));
        let mut rows = block.chunks_exact_mut(n).zip(cols);
        while let Some((top, &i)) = rows.next() {
            let Some((bottom, &j)) = rows.next() else {
                if i < n {
                    steps_row(&mut top[i..], mult(i), ys.map(|y| &y[i..]));
                }
                break;
            };
            // The row starting further left covers the columns up to its
            // partner's start alone.
            let ((lead, l), (late, e)) = if i <= j {
                ((top, i), (bottom, j))
            } else {
                ((bottom, j), (top, i))
            };
            if l >= n {
                continue;
            }
            let a = mult(l);
            let e = e.min(n);
            steps_row(&mut lead[l..e], a, ys.map(|y| &y[l..e]));
            if e < n {
                let ys = ys.map(|y| &y[e..]);
                steps_pair(&mut lead[e..], &mut late[e..], a, mult(e), ys);
            }
        }
    }
    let rest = terms.len() - terms.len() % 4;
    for (&y, &flip) in terms[rest..].iter().zip(&negate[rest..]) {
        for (row, &i) in block.chunks_exact_mut(n).zip(cols) {
            if i < n {
                steps_row(&mut row[i..], [signed(y[i], flip)], [&y[i..]]);
            }
        }
    }
}

/// `c[j] += a[s]·ys[s][j]`, `s` ascending, each step rounded twice.
#[inline(always)]
fn steps_row<const Q: usize>(c: &mut [f64], a: [f64; Q], ys: [&[f64]; Q]) {
    let ys = ys.map(|y| &y[..c.len()]);
    for (j, e) in c.iter_mut().enumerate() {
        *e = (0..Q).fold(*e, |acc, s| acc + a[s] * ys[s][j]);
    }
}

/// [`steps_row`] over four terms on two rows at once, sharing the
/// terms' loads. Zipped rather than indexed, the loop compiles without
/// the scalar tail of up to four columns the indexed form kept (seeding
/// 1,008 rows at `n = 61`: 0.27 against 0.29 ms).
#[inline(always)]
fn steps_pair(c0: &mut [f64], c1: &mut [f64], a0: [f64; 4], a1: [f64; 4], ys: [&[f64]; 4]) {
    fn steps(c: f64, a: [f64; 4], b: [f64; 4]) -> f64 {
        (((c + a[0] * b[0]) + a[1] * b[1]) + a[2] * b[2]) + a[3] * b[3]
    }
    let columns = ys[0].iter().zip(ys[1]).zip(ys[2]).zip(ys[3]);
    for ((e0, e1), (((b0, b1), b2), b3)) in c0.iter_mut().zip(c1).zip(columns) {
        let b = [*b0, *b1, *b2, *b3];
        *e0 = steps(*e0, a0, b);
        *e1 = steps(*e1, a1, b);
    }
}

/// The shared cache-blocked loop nest at one tile instantiation
/// (`MR × NR`, `FUSED`): packs panels of exactly that shape and runs
/// the macro kernel on every packed block pair.
fn gemm_tiled<const MR: usize, const NR: usize, const FUSED: bool>(
    a: &impl pack::PackA,
    b: &impl pack::PackB,
    block: &mut [f64],
    kdim: usize,
    out: &OutBlock<'_>,
) {
    let OutBlock {
        ldc: n,
        first_row,
        mask,
    } = *out;
    debug_assert_eq!(block.len() % n.max(1), 0);
    let Some(mb) = block.len().checked_div(n) else {
        return;
    };
    if mb == 0 || kdim == 0 {
        return;
    }
    let t = tiles_for(mb, kdim, n);
    let mut apack = vec![0.0; t.mc.div_ceil(MR) * MR * t.kc];
    let mut bpack = vec![0.0; t.nc.div_ceil(NR) * NR * t.kc];
    let mut jc = 0;
    while jc < n {
        let ncb = t.nc.min(n - jc);
        let mut pc = 0;
        while pc < kdim {
            let kc = t.kc.min(kdim - pc);
            pack::pack_b::<NR>(b, pc, kc, jc, ncb, &mut bpack);
            let mut ic = 0;
            while ic < mb {
                let mcb = t.mc.min(mb - ic);
                // Whole A block strictly below the diagonal: nothing to
                // compute in the upper-triangle mode.
                if matches!(mask, Mask::Upper) && jc + ncb <= first_row + ic {
                    ic += mcb;
                    continue;
                }
                pack::pack_a::<MR>(a, first_row + ic, mcb, pc, kc, &mut apack);
                let pair = BlockPair {
                    apack: &apack,
                    bpack: &bpack,
                    kc,
                    ic,
                    mcb,
                    jc,
                    ncb,
                };
                macro_kernel::<MR, NR, FUSED>(&pair, block, out);
                ic += mcb;
            }
            pc += kc;
        }
        jc += ncb;
    }
}

/// One packed `A` block × packed `B` block pair: what the macro kernel
/// multiplies.
struct BlockPair<'p> {
    apack: &'p [f64],
    bpack: &'p [f64],
    /// Depth of both packs (`KC` or the last, shorter slice).
    kc: usize,
    /// First row and height of the `A` block, within the output block.
    ic: usize,
    mcb: usize,
    /// First column and width of the `B` block.
    jc: usize,
    ncb: usize,
}

/// The output row block a product accumulates into (see [`gemm_block`]).
#[derive(Clone, Copy)]
struct OutBlock<'m> {
    /// Row stride (`n`).
    ldc: usize,
    /// Global index of the block's first row.
    first_row: usize,
    /// Which entries the product may write.
    mask: Mask<'m>,
}

/// The entries of `C` a product writes.
#[derive(Clone, Copy)]
enum Mask<'m> {
    /// Every entry.
    None,
    /// Skip tiles strictly below the global diagonal (`gram`, which
    /// mirrors afterwards; tiles straddling it are computed whole).
    Upper,
    /// Global row `r` writes columns `first[r]..` only and keeps every
    /// entry left of `first[r]` as it was ([`rank_update`]).
    From(&'m [usize]),
}

/// Run the micro-kernel over every `MR × NR` tile of one packed block
/// pair, updating `C` in place.
#[inline(always)]
fn macro_kernel<const MR: usize, const NR: usize, const FUSED: bool>(
    pair: &BlockPair,
    c: &mut [f64],
    out: &OutBlock<'_>,
) {
    let BlockPair {
        apack,
        bpack,
        kc,
        ic,
        mcb,
        jc,
        ncb,
    } = *pair;
    let a_panels = mcb.div_ceil(MR);
    let b_panels = ncb.div_ceil(NR);
    for jp in 0..b_panels {
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        let nr_eff = NR.min(ncb - jp * NR);
        for ip in 0..a_panels {
            let tile_row = ic + ip * MR;
            let tile_col = jc + jp * NR;
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            let mr_eff = MR.min(mcb - ip * MR);
            match out.mask {
                Mask::None => {}
                // Upper-triangle mode: skip tiles whose every column lies
                // strictly left of (below) the diagonal.
                Mask::Upper => {
                    if tile_col + nr_eff <= out.first_row + tile_row {
                        continue;
                    }
                }
                Mask::From(first) => {
                    let rows = &first[out.first_row + tile_row..][..mr_eff];
                    let (lo, hi) = rows
                        .iter()
                        .fold((usize::MAX, 0), |(lo, hi), &f| (lo.min(f), hi.max(f)));
                    // Wholly left of every row's first column: skipped.
                    if lo >= tile_col + nr_eff {
                        continue;
                    }
                    // Cut by some row's first column: a masked store.
                    if hi > tile_col {
                        let from: [usize; MR] = std::array::from_fn(|i| {
                            rows.get(i).map_or(0, |f| f.saturating_sub(tile_col))
                        });
                        micro::update_masked::<MR, NR, FUSED>(
                            kc,
                            apanel,
                            bpanel,
                            c,
                            out.ldc,
                            tile_row,
                            tile_col,
                            nr_eff,
                            &from[..mr_eff],
                        );
                        continue;
                    }
                }
            }
            micro::update::<MR, NR, FUSED>(
                kc, apanel, bpanel, c, out.ldc, tile_row, tile_col, mr_eff, nr_eff,
            );
        }
    }
}

/// Copy the upper triangle onto the lower one (`out[b][a] = out[a][b]`).
pub(crate) fn mirror_upper(out: &mut Matrix) {
    for a in 0..out.rows() {
        for b in (a + 1)..out.cols() {
            out[(b, a)] = out[(a, b)];
        }
    }
}

/// The shared routed-and-parallel product driver behind the public
/// entry points: pick packed vs reference by shape, fan the `m` output
/// rows across workers, and run the `FUSED` tile inside each block.
/// Results are independent of both decisions — each output row is
/// computed identically whichever worker owns it and whichever side of
/// the packing crossover the shape lands on.
#[allow(clippy::too_many_arguments)]
fn run_product<const FUSED: bool>(
    a: &Operand,
    b: &Operand,
    out: &mut Matrix,
    m: usize,
    n: usize,
    kdim: usize,
    upper_only: bool,
    flops: usize,
    weight: impl Fn(usize) -> f64,
) {
    let packed = use_packed(m, kdim, n);
    let workers = parallel::workers_for(flops, m);
    let boundaries = parallel::balanced_boundaries(m, workers, weight);
    parallel::for_row_blocks(out.data_mut(), n, &boundaries, |first_row, block| {
        // Below the crossover, the reference loop nest at the same
        // rounding keeps the routing unobservable.
        if packed {
            gemm_block::<FUSED>(a, b, first_row, block, n, kdim, upper_only);
        } else {
            gemm_reference::<FUSED>(a, b, first_row, block, n, kdim, upper_only);
        }
    });
}

/// `a · b`, each step rounded once when `FUSED` (what
/// [`Matrix::matmul`] runs) or twice when not (the scoring kernels).
///
/// Returns an error if `a.cols() != b.rows()`.
pub fn matmul<const FUSED: bool>(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    if out.as_slice().is_empty() {
        return Ok(out);
    }
    let (m, n, kdim) = (a.rows(), b.cols(), a.cols());
    let (lhs_op, rhs_op) = (Operand::normal(a), Operand::normal(b));
    run_product::<FUSED>(
        &lhs_op,
        &rhs_op,
        &mut out,
        m,
        n,
        kdim,
        false,
        m * kdim * n,
        |_| 1.0,
    );
    Ok(out)
}

/// `a · bᵀ` (`b` stored `n × k`) at the `FUSED` rounding; see
/// [`matmul`]. Returns an error if `a.cols() != b.cols()`.
pub fn matmul_nt<const FUSED: bool>(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_nt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.rows());
    if out.as_slice().is_empty() {
        return Ok(out);
    }
    let (m, n, kdim) = (a.rows(), b.rows(), a.cols());
    let (lhs_op, rhs_op) = (Operand::normal(a), Operand::transposed(b));
    run_product::<FUSED>(
        &lhs_op,
        &rhs_op,
        &mut out,
        m,
        n,
        kdim,
        false,
        m * kdim * n,
        |_| 1.0,
    );
    Ok(out)
}

/// `aᵀ · b` (`a` stored `k × m`, `b` stored `k × n`) at the `FUSED`
/// rounding; see [`matmul`]. Returns an error if
/// `a.rows() != b.rows()`.
pub fn matmul_tn<const FUSED: bool>(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_tn",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.cols(), b.cols());
    if out.as_slice().is_empty() {
        return Ok(out);
    }
    let (m, n, kdim) = (a.cols(), b.cols(), a.rows());
    let (lhs_op, rhs_op) = (Operand::transposed(a), Operand::normal(b));
    run_product::<FUSED>(
        &lhs_op,
        &rhs_op,
        &mut out,
        m,
        n,
        kdim,
        false,
        m * kdim * n,
        |_| 1.0,
    );
    Ok(out)
}

/// Gram product `aᵀ · a` at the `FUSED` rounding: upper triangle
/// computed (row blocks weighted by their share of it), mirrored to the
/// lower triangle afterwards.
pub fn gram<const FUSED: bool>(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.cols());
    if a.cols() == 0 {
        return out;
    }
    let (n, kdim) = (a.cols(), a.rows());
    let (lhs_op, rhs_op) = (Operand::transposed(a), Operand::normal(a));
    run_product::<FUSED>(
        &lhs_op,
        &rhs_op,
        &mut out,
        n,
        n,
        kdim,
        true,
        kdim * n * n / 2,
        |start| (n - start) as f64,
    );
    mirror_upper(&mut out);
    out
}

/// Scalar reference GEMM over a row block: per output element, terms
/// accumulate in strictly ascending `k` — the order every kernel in
/// this crate honors — each step rounded as `FUSED` says
/// ([`f64::mul_add`] for the product tile, mul-then-add for the
/// scoring tile). Used directly for shapes too small to amortize
/// packing. The loop nest adapts to the operand
/// orientations so both sides are walked contiguously where possible,
/// which changes nothing about the per-element order.
pub(crate) fn gemm_reference<const FUSED: bool>(
    a: &Operand,
    b: &Operand,
    first_row: usize,
    block: &mut [f64],
    n: usize,
    kdim: usize,
    upper_only: bool,
) {
    if n == 0 {
        return;
    }
    let mb = block.len() / n;
    for li in 0..mb {
        let i = first_row + li;
        let row = &mut block[li * n..(li + 1) * n];
        let j0 = if upper_only { i.min(n) } else { 0 };
        match (a, b) {
            // B row-major: middle-k loop, axpy of B's row k.
            (_, Operand::N(bm)) => {
                for k in 0..kdim {
                    let aik = a.at(i, k);
                    let brow = &bm.row(k)[j0..n];
                    for (o, &bv) in row[j0..].iter_mut().zip(brow) {
                        *o = micro::madd::<FUSED>(*o, aik, bv);
                    }
                }
            }
            // A and Bᵀ both row-major along k: per-element dot.
            (Operand::N(am), Operand::T(bm)) => {
                let arow = am.row(i);
                for (j, o) in row.iter_mut().enumerate().skip(j0) {
                    let mut acc = *o;
                    for (&av, &bv) in arow.iter().zip(bm.row(j)) {
                        acc = micro::madd::<FUSED>(acc, av, bv);
                    }
                    *o = acc;
                }
            }
            // Doubly transposed: strided fallback (unused by the crate's
            // products, kept for completeness).
            (Operand::T(_), Operand::T(bm)) => {
                for (j, o) in row.iter_mut().enumerate().skip(j0) {
                    let mut acc = *o;
                    for k in 0..kdim {
                        acc = micro::madd::<FUSED>(acc, a.at(i, k), bm.at(j, k));
                    }
                    *o = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The masked in-place update against the loop it stands for: each
    /// entry right of its row's first column takes
    /// `c += (±y[p][col])·y[p][j]` in ascending `p`, rounded twice, and
    /// every entry left of it keeps its bits. Each route runs: the
    /// packed tile with `k` inside one `KC` slice and across two `KC`
    /// crossings, the direct loop for deep narrow updates and tiny
    /// ones. The widths leave ragged edge tiles; the columns are
    /// round-robin, out of order, and past the last (a skipped row).
    /// The last case of each route has more than twice the per-worker
    /// floor of multiply-adds, so it fans out wherever more than one
    /// thread runs (CI runs this at one and at eight).
    #[test]
    fn rank_update_is_the_masked_mul_then_add_loop() {
        let cases = [
            // (k, n, rows, column step, packed, fans out)
            (9, 13, 4, 3, false, false),
            (2 * KC + 37, 37, 9, 3, false, false),
            (KC + 3, 150, 50, 3, false, false),
            (200, 61, 30, 2, true, false),
            (2 * KC + 37, 170, 60, 3, true, false),
            (600, 200, 100, 2, true, true),
            (1008, 120, 60, 2, false, true),
        ];
        for (k, n, rows, step, packed, fans_out) in cases {
            assert_eq!(rank_packed(rows, k, n), packed, "k {k}, n {n}");
            let y = Matrix::from_fn(k, n, |p, j| {
                let h = ((p * n + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                h as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
            });
            let negate: Vec<bool> = (0..k).map(|p| p % 3 == 1).collect();
            let mut cols: Vec<usize> = (0..rows).map(|r| (step * r) % n).collect();
            cols[1] = n;
            cols.swap(2, rows - 1);
            let before = Matrix::from_fn(rows, n, |r, j| (r * n + j) as f64 * 0.5 - 3.0);
            let mut got = before.clone();
            let terms: Vec<&[f64]> = (0..k).map(|p| y.row(p)).collect();
            let madds = k * cols.iter().map(|&c| n - c.min(n)).sum::<usize>();
            assert_eq!(
                madds > 2 * parallel::MIN_PARALLEL_FLOPS,
                fans_out,
                "k {k}, n {n}"
            );
            rank_update(&terms, &negate, &cols, &mut got).unwrap();
            for (r, &col) in cols.iter().enumerate() {
                for j in 0..n {
                    let mut want = before[(r, j)];
                    if j >= col {
                        for p in 0..k {
                            let a = if negate[p] { -y[(p, col)] } else { y[(p, col)] };
                            want += a * y[(p, j)];
                        }
                    }
                    assert_eq!(
                        got[(r, j)].to_bits(),
                        want.to_bits(),
                        "k {k}, n {n}, ({r}, {j})"
                    );
                }
            }
        }
        let mut c = Matrix::zeros(2, 4);
        let (wide, narrow) = ([0.0; 4], [0.0; 3]);
        let terms: [&[f64]; 3] = [&wide, &wide, &wide];
        assert!(rank_update(&terms, &[false; 2], &[0, 1], &mut c).is_err());
        assert!(rank_update(&terms, &[false; 3], &[0], &mut c).is_err());
        assert!(rank_update(&[&wide, &narrow], &[false; 2], &[0, 1], &mut c).is_err());
        assert!(rank_update(&terms, &[false; 3], &[0, 1], &mut c).is_ok());
    }
}
