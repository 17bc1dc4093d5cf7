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
//!   arrays the compiler unrolls and vectorizes), and three
//!   instantiations of it: the portable tile (4×8, or 2×8 without AVX,
//!   mul-then-add), the AVX2+FMA tile (6×8, fused) and the AVX-512 tile
//!   (8×8, fused, one ZMM register per accumulator row). The two
//!   hardware tiers are the same source compiled inside a
//!   `#[target_feature]` function; the two calls into those are the
//!   only code the workspace lets past `unsafe_code`, each behind a
//!   [`KernelBackend::is_supported`] assertion.
//!
//! # Backend dispatch
//!
//! Which tier runs is a process-wide choice made once by the dispatch
//! module:
//! runtime CPU feature detection (`is_x86_feature_detected!`) picks
//! the widest supported tier — [`KernelBackend::Avx512`] when
//! `avx512f`+`avx512vl` are present, else [`KernelBackend::Fma`] when
//! `avx2`+`fma` are — and the `NETANOM_KERNEL=portable|fma|avx512`
//! environment variable overrides it.
//! [`Matrix`]'s product methods route through [`active_backend`]; the
//! explicit `*_with` entry points ([`matmul_with`],
//! [`matmul_nt_with`], [`matmul_tn_with`], [`gram_with`]) run a chosen
//! backend for tests and the pinned-portable SPE path.
//!
//! # Accumulation-order contract (three tiers, two roundings)
//!
//! Per output element, **every** tier accumulates its `k`-terms in
//! strictly ascending order into a single accumulator; the tiers
//! differ only in the rounding of each step (the tile's `FUSED`
//! parameter):
//!
//! * [`KernelBackend::Portable`] rounds the multiply and the add
//!   separately (`acc += a·b`), making it **bitwise identical to the
//!   naive mul-then-add `i j k` triple loop** — the original kernel
//!   contract, unchanged.
//! * [`KernelBackend::Fma`] and [`KernelBackend::Avx512`] fuse each
//!   step into one rounding (`acc = a.mul_add(b, acc)`), making both
//!   **bitwise identical to the [`f64::mul_add`] ascending-`k` triple
//!   loop** — and therefore to each other, lane width being invisible
//!   to a per-lane fused chain — and `≤ 1e-12` relative against the
//!   portable tier (one rounding per term).
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
//! orders, mul-then-add for the portable tier and fused for the two
//! hardware tiers (it is the fallback [`use_packed`] routes small
//! shapes to). Each packed tier is pinned bitwise against naive
//! triple loops written independently in `crates/linalg/tests/`.
//! Because the portable order also matches
//! the pre-kernel row-axpy/dot implementations, every parity suite
//! that pinned bitwise values across the old code remains valid under
//! `NETANOM_KERNEL=portable` — with one deliberate exception: the old
//! kernels skipped `a[i][k] == 0.0` terms, which made throughput
//! data-dependent and silently dropped NaN/∞ propagation from the
//! skipped `B` row. Neither tier ever skips; `0 × NaN` poisons the
//! product on every path and every backend.
//!
//! # Shape routing
//!
//! [`use_packed`] routes a product to the packed path only when the
//! operand shapes amortize the packing traffic (roughly one tile of
//! useful work); tiny, skinny, or degenerate shapes fall through to
//! the active backend's reference kernel, which follows the same
//! per-element order, so routing is purely a performance decision and
//! never observable in results.

#[cfg(test)]
mod avx512;
pub(crate) mod dispatch;
#[cfg(test)]
mod fma;
pub(crate) mod micro;
pub(crate) mod pack;

pub use dispatch::{
    active_backend, backend_diagnostics, supported_backends, KernelBackend, ALL_BACKENDS,
};

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
/// row block of the output (the unit of the row-parallel fan-out).
///
/// `block` holds `mb` whole rows of width `ldc = n`; `first_row` is the
/// block's global row offset, which only matters for `upper_from`:
/// when `Some(_)`, micro-tiles lying strictly below the main diagonal
/// of the *global* output are skipped (the symmetric `gram` path
/// computes the upper triangle and mirrors afterwards; tiles straddling
/// the diagonal are computed in full — their below-diagonal lanes are
/// bitwise the mirrored values anyway, multiplication being
/// commutative).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_block(
    backend: KernelBackend,
    a: &Operand,
    b: &Operand,
    first_row: usize,
    block: &mut [f64],
    n: usize,
    kdim: usize,
    upper_only: bool,
) {
    use micro::{AVX512_MR, FMA_MR, MR, NR};
    let out = OutBlock {
        ldc: n,
        first_row,
        upper_only,
    };
    match backend {
        KernelBackend::Portable => gemm_tiled::<MR, NR, false>(backend, a, b, block, kdim, &out),
        KernelBackend::Fma => gemm_tiled::<FMA_MR, NR, true>(backend, a, b, block, kdim, &out),
        KernelBackend::Avx512 => {
            gemm_tiled::<AVX512_MR, NR, true>(backend, a, b, block, kdim, &out)
        }
    }
}

/// The shared cache-blocked loop nest at one tile instantiation
/// (`MR × NR`, `FUSED`): packs panels of exactly that shape and runs
/// the macro kernel, compiled for `backend`'s CPU, on every packed
/// block pair.
fn gemm_tiled<const MR: usize, const NR: usize, const FUSED: bool>(
    backend: KernelBackend,
    a: &Operand,
    b: &Operand,
    block: &mut [f64],
    kdim: usize,
    out: &OutBlock,
) {
    let OutBlock {
        ldc: n,
        first_row,
        upper_only,
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
            pack::pack_b(b, pc, kc, jc, ncb, NR, &mut bpack);
            let mut ic = 0;
            while ic < mb {
                let mcb = t.mc.min(mb - ic);
                // Whole A block strictly below the diagonal: nothing to
                // compute in the upper-triangle mode.
                if upper_only && jc + ncb <= first_row + ic {
                    ic += mcb;
                    continue;
                }
                pack::pack_a(a, first_row + ic, mcb, pc, kc, MR, &mut apack);
                let pair = BlockPair {
                    apack: &apack,
                    bpack: &bpack,
                    kc,
                    ic,
                    mcb,
                    jc,
                    ncb,
                };
                macro_kernel_on::<MR, NR, FUSED>(backend, &pair, block, out);
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
struct OutBlock {
    /// Row stride (`n`).
    ldc: usize,
    /// Global index of the block's first row.
    first_row: usize,
    /// Skip tiles strictly below the global diagonal.
    upper_only: bool,
}

/// [`macro_kernel`] compiled for `backend`'s CPU. The portable tier runs
/// it as built; each hardware tier calls it through a
/// `#[target_feature]` function, so the tile inside compiles to that
/// tier's YMM or ZMM registers. Those two calls are the only code the
/// workspace lets past `unsafe_code`, each right behind an assertion
/// that the CPU has the features.
#[allow(unsafe_code)]
#[inline(always)]
fn macro_kernel_on<const MR: usize, const NR: usize, const FUSED: bool>(
    backend: KernelBackend,
    pair: &BlockPair,
    c: &mut [f64],
    out: &OutBlock,
) {
    match backend {
        KernelBackend::Portable => macro_kernel::<MR, NR, FUSED>(pair, c, out),
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Fma => {
            #[target_feature(enable = "avx2,fma")]
            fn fma<const MR: usize, const NR: usize, const FUSED: bool>(
                pair: &BlockPair,
                c: &mut [f64],
                out: &OutBlock,
            ) {
                macro_kernel::<MR, NR, FUSED>(pair, c, out)
            }
            assert!(
                backend.is_supported(),
                "FMA micro-kernel invoked without runtime AVX2+FMA support"
            );
            // SAFETY: the assertion above proves `avx2` and `fma` are
            // available on the executing CPU, the only precondition of
            // the `#[target_feature]` function.
            unsafe { fma::<MR, NR, FUSED>(pair, c, out) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            #[target_feature(enable = "avx512f,avx512vl")]
            fn avx512<const MR: usize, const NR: usize, const FUSED: bool>(
                pair: &BlockPair,
                c: &mut [f64],
                out: &OutBlock,
            ) {
                macro_kernel::<MR, NR, FUSED>(pair, c, out)
            }
            assert!(
                backend.is_supported(),
                "AVX-512 micro-kernel invoked without runtime avx512f+avx512vl support"
            );
            // SAFETY: the assertion above proves `avx512f` and
            // `avx512vl` are available on the executing CPU, the only
            // precondition of the `#[target_feature]` function.
            unsafe { avx512::<MR, NR, FUSED>(pair, c, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Fma | KernelBackend::Avx512 => {
            unreachable!("hardware tiers are never selected on non-x86_64 targets")
        }
    }
}

/// One `MR × NR` tile update at the origin of `c` (valid corner
/// `mr_eff × nr_eff`), run the way `backend` runs it: through
/// [`macro_kernel_on`], so a hardware tier's tile is the one compiled
/// inside its `#[target_feature]` function. The tile tests' entry point.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn tile_update_on<const MR: usize, const NR: usize, const FUSED: bool>(
    backend: KernelBackend,
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let pair = BlockPair {
        apack: apanel,
        bpack: bpanel,
        kc,
        ic: 0,
        mcb: mr_eff,
        jc: 0,
        ncb: nr_eff,
    };
    let out = OutBlock {
        ldc,
        first_row: 0,
        upper_only: false,
    };
    macro_kernel_on::<MR, NR, FUSED>(backend, &pair, c, &out);
}

/// Run the micro-kernel over every `MR × NR` tile of one packed block
/// pair, updating `C` in place.
#[inline(always)]
fn macro_kernel<const MR: usize, const NR: usize, const FUSED: bool>(
    pair: &BlockPair,
    c: &mut [f64],
    out: &OutBlock,
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
            // Upper-triangle mode: skip tiles whose every column lies
            // strictly left of (below) the diagonal.
            if out.upper_only && tile_col + nr_eff <= out.first_row + tile_row {
                continue;
            }
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            let mr_eff = MR.min(mcb - ip * MR);
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

/// The shared routed-and-parallel product driver behind the `*_with`
/// entry points: pick packed vs reference by shape, fan the `m` output
/// rows across workers, and run the chosen backend inside each block.
/// Results are independent of both decisions — each output row is
/// computed identically whichever worker owns it and whichever side of
/// the packing crossover the shape lands on.
#[allow(clippy::too_many_arguments)]
fn run_product(
    backend: KernelBackend,
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
        // Below the crossover, the reference loop nest with the
        // backend's rounding keeps the routing unobservable per backend.
        if packed {
            gemm_block(backend, a, b, first_row, block, n, kdim, upper_only);
        } else if backend.is_fused() {
            gemm_reference::<true>(a, b, first_row, block, n, kdim, upper_only);
        } else {
            gemm_reference::<false>(a, b, first_row, block, n, kdim, upper_only);
        }
    });
}

/// `a · b` on an explicitly chosen backend — the entry point behind
/// [`Matrix::matmul`] (which passes [`active_backend`]), used directly
/// by tests that must pin a tier regardless of environment.
///
/// # Panics
///
/// Panics if `backend` is not supported on this CPU (see
/// [`KernelBackend::is_supported`]). Returns an error if
/// `a.cols() != b.rows()`.
pub fn matmul_with(backend: KernelBackend, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    assert!(
        backend.is_supported(),
        "kernel backend '{}' is not supported on this CPU",
        backend.name()
    );
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
    run_product(
        backend,
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

/// `a · bᵀ` (`b` stored `n × k`) on an explicitly chosen backend; see
/// [`matmul_with`] for the dispatch and panic rules. Returns an error
/// if `a.cols() != b.cols()`.
pub fn matmul_nt_with(backend: KernelBackend, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    assert!(
        backend.is_supported(),
        "kernel backend '{}' is not supported on this CPU",
        backend.name()
    );
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
    run_product(
        backend,
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

/// `aᵀ · b` (`a` stored `k × m`, `b` stored `k × n`) on an explicitly
/// chosen backend; see [`matmul_with`] for the dispatch and panic
/// rules. Returns an error if `a.rows() != b.rows()`.
pub fn matmul_tn_with(backend: KernelBackend, a: &Matrix, b: &Matrix) -> Result<Matrix> {
    assert!(
        backend.is_supported(),
        "kernel backend '{}' is not supported on this CPU",
        backend.name()
    );
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
    run_product(
        backend,
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

/// Gram product `aᵀ · a` on an explicitly chosen backend: upper
/// triangle computed (row blocks weighted by their share of it),
/// mirrored to the lower triangle afterwards. See [`matmul_with`] for
/// the dispatch and panic rules.
pub fn gram_with(backend: KernelBackend, a: &Matrix) -> Matrix {
    assert!(
        backend.is_supported(),
        "kernel backend '{}' is not supported on this CPU",
        backend.name()
    );
    let mut out = Matrix::zeros(a.cols(), a.cols());
    if a.cols() == 0 {
        return out;
    }
    let (n, kdim) = (a.cols(), a.rows());
    let (lhs_op, rhs_op) = (Operand::transposed(a), Operand::normal(a));
    run_product(
        backend,
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
/// this crate honors — each step rounded as the tile's `FUSED` says
/// (mul-then-add for the portable tier, [`f64::mul_add`] for both
/// hardware tiers). Used directly for shapes too small to amortize
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
