//! The register-blocked micro-kernel: one `MR × NR` tile of `C`,
//! accumulated entirely in registers — the one tile source every tier
//! instantiates.
//!
//! [`update`] is generic over the tile's shape and its rounding. Per
//! `k` step the tile reads `MR` packed `A` lanes and `NR` packed `B`
//! lanes and performs `MR × NR` multiply-adds into a fixed-size
//! accumulator array, each one either `acc += a·b` (two roundings) or
//! `acc = a.mul_add(b, acc)` (one, when `FUSED`). The loops run over
//! `[f64; MR]`/`[f64; NR]` array references so the compiler unrolls
//! them fully and emits wide multiply-add lanes across the `NR`
//! dimension. Vectorization is across *independent output elements*,
//! never across `k`, so the per-element operation order is exactly the
//! ascending-`k` order of the naive triple loop — the bitwise contract
//! `kernel` documents.
//!
//! # The three instantiations
//!
//! | tier | `MR × NR` | rounding | compiled for |
//! |---|---|---|---|
//! | portable | [`MR`] × [`NR`] | mul, then add | the build target |
//! | fma | [`FMA_MR`] × [`NR`] | fused | `avx2,fma` |
//! | avx512 | [`AVX512_MR`] × [`NR`] | fused | `avx512f,avx512vl` |
//!
//! The hardware tiers are this same source compiled inside a
//! `#[target_feature]` function (`kernel::macro_kernel_on`), so the
//! compiler's vectors are YMM or ZMM registers and each fused step is
//! one `vfmadd` lane. The shapes only affect speed, never results:
//!
//! * portable: `NR = 8` puts two 4-lane (AVX) or four 2-lane (SSE2)
//!   vectors in flight per `A` lane. `MR = 4` when wide registers are
//!   available (the 4×8 accumulator block fills 8 of 16 YMM
//!   registers, leaving room for the `B` lanes and broadcasts);
//!   `MR = 2` on bare x86-64, where 16 XMM registers cannot hold a 4×8
//!   block without spilling to the stack every iteration.
//! * fma: 6 rows × 2 YMM lanes = 12 of the 16 YMM registers, leaving
//!   two for the `B` lanes and one for the `A` broadcast — the classic
//!   6×8 f64 AVX2 shape.
//! * avx512: each of the 8 accumulator rows is exactly one 8-lane ZMM
//!   register, so a `k` step is one ZMM `B` load plus eight
//!   broadcast-FMAs. This tile alone unrolls its `k` loop ×4 (see
//!   [`k_unroll`]); the unroll repeats whole `k` steps, so it cannot
//!   reorder any per-element accumulation.

/// Portable-tier tile rows (`A` panel height).
#[cfg(target_feature = "avx")]
pub(crate) const MR: usize = 4;
/// Portable-tier tile rows (`A` panel height).
#[cfg(not(target_feature = "avx"))]
pub(crate) const MR: usize = 2;

/// Tile columns (`B` panel width), shared by every tier.
pub(crate) const NR: usize = 8;

/// FMA-tier tile rows.
pub(crate) const FMA_MR: usize = 6;

/// AVX-512-tier tile rows.
pub(crate) const AVX512_MR: usize = 8;

/// One multiply-add step: `acc + a·b`, rounded twice, or with one
/// rounding when `FUSED` ([`f64::mul_add`]). The only place a tier's
/// rounding is spelled out; the tile and the reference loop nest both
/// step through it.
#[inline(always)]
pub(crate) fn madd<const FUSED: bool>(acc: f64, a: f64, b: f64) -> f64 {
    if FUSED {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// `k` steps per iteration of the tile's main loop. Fixed by the tile
/// shape: only the 8-row tile, whose ZMM rows would otherwise pay one
/// loop branch per eight FMAs, unrolls; the YMM tiles run faster
/// without it.
const fn k_unroll(mr: usize) -> usize {
    if mr == AVX512_MR {
        4
    } else {
        1
    }
}

/// One rank-1 update of the tile: `acc[i][j] ⊕= a[i]·b[j]`.
#[inline(always)]
fn k_step<const MR: usize, const NR: usize, const FUSED: bool>(
    a: &[f64],
    b: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    // Fixed-size views: lets the compiler drop every bounds check and
    // fully unroll both register loops.
    let a: &[f64; MR] = a.try_into().expect("a k step is MR long");
    let b: &[f64; NR] = b.try_into().expect("a k step is NR long");
    for i in 0..MR {
        let ai = a[i];
        for j in 0..NR {
            acc[i][j] = madd::<FUSED>(acc[i][j], ai, b[j]);
        }
    }
}

/// Accumulate `kc` rank-1 updates of one packed-`A` × packed-`B` panel
/// pair into `acc`, in ascending `k`.
#[inline(always)]
fn tile<const MR: usize, const NR: usize, const FUSED: bool>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    let unroll = k_unroll(MR);
    let asteps = apanel[..kc * MR].chunks_exact(unroll * MR);
    let bsteps = bpanel[..kc * NR].chunks_exact(unroll * NR);
    let (arest, brest) = (asteps.remainder(), bsteps.remainder());
    for (a, b) in asteps.zip(bsteps) {
        for u in 0..unroll {
            k_step::<MR, NR, FUSED>(&a[u * MR..(u + 1) * MR], &b[u * NR..(u + 1) * NR], acc);
        }
    }
    for (a, b) in arest.chunks_exact(MR).zip(brest.chunks_exact(NR)) {
        k_step::<MR, NR, FUSED>(a, b, acc);
    }
}

/// Copy the `mr_eff × nr_eff` valid corner of the `C` tile at
/// `(tile_row, tile_col)` into a zero-initialized `M × N` stack
/// scratch tile: the vector loops then run over the scratch tile at
/// full width and never read past `C`; padding lanes start at `0.0`
/// and accumulate only discarded garbage.
#[inline]
fn load_edge_tile<const M: usize, const N: usize>(
    c: &[f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) -> [[f64; N]; M] {
    let mut tile = [[0.0_f64; N]; M];
    for (i, trow) in tile.iter_mut().enumerate().take(mr_eff) {
        let off = (tile_row + i) * ldc + tile_col;
        trow[..nr_eff].copy_from_slice(&c[off..off + nr_eff]);
    }
    tile
}

/// Write the `mr_eff × nr_eff` valid corner of an `M × N` scratch tile
/// back to `C` — the counterpart of [`load_edge_tile`]. Padding lanes
/// are never written, so neighbouring `C` elements (other tiles' data,
/// or rows past the matrix edge) are untouched.
#[inline]
fn store_edge_tile<const M: usize, const N: usize>(
    tile: &[[f64; N]; M],
    c: &mut [f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, trow) in tile.iter().enumerate().take(mr_eff) {
        let off = (tile_row + i) * ldc + tile_col;
        c[off..off + nr_eff].copy_from_slice(&trow[..nr_eff]);
    }
}

/// Load the `mr_eff × nr_eff` valid corner of the `C` tile at
/// `(tile_row, tile_col)`, extend it by `kc` packed rank-1 updates, and
/// store the valid corner back.
///
/// Loading `C` first (rather than accumulating from zero and adding at
/// writeback) is what keeps multi-`KC`-block products in strictly
/// ascending `k` order per element. Padding lanes compute garbage from
/// the packed zeros and are never written back.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn update<const MR: usize, const NR: usize, const FUSED: bool>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut [f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    if mr_eff == MR && nr_eff == NR {
        let mut acc = [[0.0_f64; NR]; MR];
        for (i, arow) in acc.iter_mut().enumerate() {
            let off = (tile_row + i) * ldc + tile_col;
            arow.copy_from_slice(&c[off..off + NR]);
        }
        tile::<MR, NR, FUSED>(kc, apanel, bpanel, &mut acc);
        for (i, arow) in acc.iter().enumerate() {
            let off = (tile_row + i) * ldc + tile_col;
            c[off..off + NR].copy_from_slice(arow);
        }
    } else {
        let mut acc = load_edge_tile::<MR, NR>(c, ldc, tile_row, tile_col, mr_eff, nr_eff);
        tile::<MR, NR, FUSED>(kc, apanel, bpanel, &mut acc);
        store_edge_tile(&acc, c, ldc, tile_row, tile_col, mr_eff, nr_eff);
    }
}

/// The tile checks. Those taking a [`KernelBackend`](crate::KernelBackend)
/// run the tile through that tier's entry (`kernel::tile_update_on`):
/// here the portable build at every shape, and in the `fma` and
/// `avx512` test modules each hardware tier's own instantiation as its
/// `#[target_feature]` function compiles it.
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::kernel::{tile_update_on, KernelBackend};

    /// Run a generic check at every tier's tile shape, under both
    /// roundings: each tier's own instantiation plus the other
    /// rounding at the same shape.
    macro_rules! at_every_shape {
        ($check:ident $(, $arg:expr)?) => {
            $check::<MR, NR, false>($($arg)?);
            $check::<MR, NR, true>($($arg)?);
            $check::<FMA_MR, NR, false>($($arg)?);
            $check::<FMA_MR, NR, true>($($arg)?);
            $check::<AVX512_MR, NR, false>($($arg)?);
            $check::<AVX512_MR, NR, true>($($arg)?);
        };
    }

    /// The scalar ascending-`k` reference for element `(i, j)` of a
    /// tile over `kc` packed steps, one accumulator.
    fn naive<const MR: usize, const NR: usize, const FUSED: bool>(
        kc: usize,
        apanel: &[f64],
        bpanel: &[f64],
        i: usize,
        j: usize,
    ) -> f64 {
        let mut want = 0.0_f64;
        for k in 0..kc {
            let (a, b) = (apanel[k * MR + i], bpanel[k * NR + j]);
            want = if FUSED {
                a.mul_add(b, want)
            } else {
                want + a * b
            };
        }
        want
    }

    pub(in crate::kernel) fn ascending_k<const MR: usize, const NR: usize, const FUSED: bool>(
        backend: KernelBackend,
    ) {
        // 9 steps: the 8-row tile's ×4 unroll and its remainder.
        let kc = 9;
        let apanel: Vec<f64> = (0..kc * MR).map(|i| (i as f64).sin()).collect();
        let bpanel: Vec<f64> = (0..kc * NR).map(|i| (i as f64).cos()).collect();
        let mut c = vec![0.0; MR * NR];
        tile_update_on::<MR, NR, FUSED>(backend, kc, &apanel, &bpanel, &mut c, NR, MR, NR);
        for i in 0..MR {
            for j in 0..NR {
                let want = naive::<MR, NR, FUSED>(kc, &apanel, &bpanel, i, j);
                assert_eq!(
                    c[i * NR + j].to_bits(),
                    want.to_bits(),
                    "{MR}×{NR} fused={FUSED} element ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn micro_tile_is_ascending_k_per_element() {
        at_every_shape!(ascending_k, KernelBackend::Portable);
    }

    pub(in crate::kernel) fn extends_in_order<
        const MR: usize,
        const NR: usize,
        const FUSED: bool,
    >(
        backend: KernelBackend,
    ) {
        // Two KC blocks back to back must equal one pass over the
        // concatenated k range, bitwise — the load/extend/store
        // contract that keeps multi-block products ascending in k.
        let (k1, k2) = (5usize, 7usize);
        let ka = k1 + k2;
        let apanel: Vec<f64> = (0..ka * MR).map(|i| 1.0 / (i + 1) as f64).collect();
        let bpanel: Vec<f64> = (0..ka * NR).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let ldc = NR + 3;
        let kernel = |kc, a: &[f64], b: &[f64], c: &mut [f64]| {
            tile_update_on::<MR, NR, FUSED>(backend, kc, a, b, c, ldc, MR, NR)
        };
        let mut split = vec![0.0; MR * ldc];
        kernel(k1, &apanel, &bpanel, &mut split);
        kernel(k2, &apanel[k1 * MR..], &bpanel[k1 * NR..], &mut split);
        let mut whole = vec![0.0; MR * ldc];
        kernel(ka, &apanel, &bpanel, &mut whole);
        assert_eq!(split, whole, "{MR}×{NR} fused={FUSED}");
    }

    #[test]
    fn kernel_update_extends_partial_sums_in_order() {
        at_every_shape!(extends_in_order, KernelBackend::Portable);
    }

    #[test]
    fn edge_tile_helpers_roundtrip_only_the_valid_corner() {
        let ldc = 7;
        let c: Vec<f64> = (0..4 * ldc).map(|i| i as f64).collect();
        let tile = load_edge_tile::<3, 4>(&c, ldc, 1, 2, 2, 3);
        // Valid corner copied, padding zero-initialized.
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(tile[i][j], c[(1 + i) * ldc + 2 + j]);
            }
            assert_eq!(tile[i][3], 0.0);
        }
        assert_eq!(tile[2], [0.0; 4]);
        // Store writes the corner back and nothing else.
        let mut out = vec![f64::NAN; c.len()];
        store_edge_tile(&tile, &mut out, ldc, 1, 2, 2, 3);
        for (idx, v) in out.iter().enumerate() {
            let (i, j) = (idx / ldc, idx % ldc);
            if (1..3).contains(&i) && (2..5).contains(&j) {
                assert_eq!(*v, c[idx], "corner ({i},{j})");
            } else {
                assert!(v.is_nan(), "lane ({i},{j}) was written");
            }
        }
    }

    pub(in crate::kernel) fn padding_untouched<
        const MR: usize,
        const NR: usize,
        const FUSED: bool,
    >(
        backend: KernelBackend,
    ) {
        let kc = 3;
        let apanel = vec![1.0; kc * MR];
        let bpanel = vec![1.0; kc * NR];
        let ldc = NR;
        let mut c = vec![f64::NAN; MR * ldc];
        // Valid corner 1×2 only; everything else must stay NaN.
        c[0] = 0.0;
        c[1] = 0.0;
        tile_update_on::<MR, NR, FUSED>(backend, kc, &apanel, &bpanel, &mut c, ldc, 1, 2);
        assert_eq!(c[0], kc as f64);
        assert_eq!(c[1], kc as f64);
        for (i, v) in c.iter().enumerate().skip(2) {
            assert!(v.is_nan(), "{MR}×{NR} fused={FUSED}: lane {i} was written");
        }
    }

    #[test]
    fn kernel_update_never_touches_padding_lanes() {
        at_every_shape!(padding_untouched, KernelBackend::Portable);
    }

    fn exact_inputs_agree<const MR: usize, const NR: usize, const FUSED: bool>() {
        // Small integers: every product and sum is exact, so fused and
        // mul-then-add rounding coincide and the tile must equal the
        // mul-then-add reference bitwise whatever its rounding.
        let kc = 4;
        let apanel: Vec<f64> = (0..kc * MR).map(|i| ((i % 7) as f64) - 3.0).collect();
        let bpanel: Vec<f64> = (0..kc * NR).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut acc = [[0.0; NR]; MR];
        tile::<MR, NR, FUSED>(kc, &apanel, &bpanel, &mut acc);
        for i in 0..MR {
            for j in 0..NR {
                let want = naive::<MR, NR, false>(kc, &apanel, &bpanel, i, j);
                assert_eq!(acc[i][j], want, "{MR}×{NR} fused={FUSED} ({i},{j})");
            }
        }
    }

    #[test]
    fn fused_and_portable_tiles_agree_on_exact_inputs() {
        at_every_shape!(exact_inputs_agree);
    }

    /// The tile of shape `MR × NR` over logical rows `a(i, k)` and
    /// columns `b(k, j)`, packed for that shape.
    fn logical_tile<const MR: usize, const NR: usize, const FUSED: bool>(
        kc: usize,
        a: impl Fn(usize, usize) -> f64,
        b: impl Fn(usize, usize) -> f64,
    ) -> [[f64; NR]; MR] {
        let apanel: Vec<f64> = (0..kc * MR).map(|x| a(x % MR, x / MR)).collect();
        let bpanel: Vec<f64> = (0..kc * NR).map(|x| b(x / NR, x % NR)).collect();
        let mut acc = [[0.0; NR]; MR];
        tile::<MR, NR, FUSED>(kc, &apanel, &bpanel, &mut acc);
        acc
    }

    #[test]
    fn fused_tiles_agree_bitwise_across_shapes() {
        // Same fused ascending-k contract ⇒ the 8-row and 6-row tiles
        // must agree bitwise on a shared logical tile (and so must the
        // mul-then-add tiles among themselves). The panels are packed
        // per shape; the logical rows are identical.
        let kc = 13;
        let a = |i: usize, k: usize| ((i * 31 + k * 7) % 17) as f64 / 8.0 - 1.0;
        let b = |k: usize, j: usize| ((k * 13 + j * 5) % 19) as f64 / 8.0 - 1.0;
        let wide = logical_tile::<AVX512_MR, NR, true>(kc, a, b);
        let narrow = logical_tile::<FMA_MR, NR, true>(kc, a, b);
        let wide_plain = logical_tile::<AVX512_MR, NR, false>(kc, a, b);
        let portable = logical_tile::<MR, NR, false>(kc, a, b);
        for j in 0..NR {
            for i in 0..FMA_MR {
                assert_eq!(wide[i][j].to_bits(), narrow[i][j].to_bits(), "({i},{j})");
            }
            for i in 0..MR {
                assert_eq!(wide_plain[i][j].to_bits(), portable[i][j].to_bits());
            }
        }
    }
}
