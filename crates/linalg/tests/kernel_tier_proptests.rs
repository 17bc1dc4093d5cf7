//! Property tests pinning **every supported kernel tier** explicitly,
//! whatever backend the host dispatches.
//!
//! `kernel_proptests.rs` pins the *dispatched* products against a
//! backend-matched naive reference; this file (grown from the old
//! `fma_proptests.rs` when the AVX-512 tier landed) enumerates
//! `supported_backends()` and requests each tier by name through the
//! `*_with` entry points, asserting per tier:
//!
//! * **Bitwise vs its own naive loops.** Every orientation (`matmul`,
//!   `matmul_nt`, `matmul_tn`, `gram`) equals the textbook `i j k`
//!   triple loop with the tier's per-step rounding — mul-then-add for
//!   `Portable`, one fused [`f64::mul_add`] per term for the `Fma` and
//!   `Avx512` hardware tiers — single accumulator per element,
//!   strictly ascending `k`. Both routing regimes are covered: packed
//!   shapes that exercise the real micro-kernels (including `k > KC`
//!   so the tile accumulators are spilled and reloaded across KC
//!   panels) and ragged/degenerate shapes that fall through to the
//!   tier's reference kernel.
//! * **≤ 1e-12 relative vs the portable tier.** The documented
//!   cross-tier floor: fusing only removes intermediate roundings.
//! * **Hardware tiers agree bitwise.** `Fma` and `Avx512` share the
//!   fused ascending-`k` contract, so where both are supported their
//!   products must be byte-identical — lane width is invisible to a
//!   per-lane fused chain.
//! * **No zero-skip.** A `0 × NaN` pairing poisons every tier's
//!   product exactly as it does the matching naive loop.
//!
//! Hardware tiers absent from the host are skipped by construction
//! (`supported_backends()` only lists what can run) — on a bare
//! x86-64 the file still pins `Portable`. The CI determinism job
//! reruns this file under `RAYON_NUM_THREADS` 1 and 8: the packed
//! shapes here sit past the parallel fan-out crossover (and the large
//! deterministic shapes past the parallel *packing* crossover), so
//! bitwise-vs-serial-naive also proves thread-count invariance of
//! every tier, micro-kernels and panel packing both.

use netanom_linalg::kernel::{
    gram_with, matmul_nt_with, matmul_tn_with, matmul_with, supported_backends, KernelBackend,
};
use netanom_linalg::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random value in `[-1, 1)`.
fn hash_unit(i: usize) -> f64 {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn hashed(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| hash_unit(seed + i * cols + j))
}

/// Textbook `i j k` product with the given tier's per-step rounding:
/// one [`f64::mul_add`] per term for fused tiers, separate multiply
/// and add for `Portable`. Written independently of the crate's
/// kernels on purpose.
fn naive_matmul_for(tier: KernelBackend, a: &Matrix, b: &Matrix) -> Matrix {
    let fused = tier.is_fused();
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0_f64;
            for k in 0..a.cols() {
                if fused {
                    acc = a[(i, k)].mul_add(b[(k, j)], acc);
                } else {
                    acc += a[(i, k)] * b[(k, j)];
                }
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Largest relative elementwise difference between two same-shape
/// matrices, with a unit floor on the denominator.
fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0_f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed-path shapes match each supported tier's naive loops
    /// bitwise on every orientation, and every hardware tier sits
    /// within 1e-12 relative of the portable tier.
    #[test]
    fn every_tier_packed_family_matches_its_naive(
        m in 33usize..70,
        k in 33usize..70,
        n in 33usize..70,
        seed in 0usize..1000,
    ) {
        let a = hashed(m, k, seed);
        let b = hashed(k, n, seed + 1_000_000);
        let bt = hashed(n, k, seed + 2_000_000);
        let at = hashed(k, m, seed + 3_000_000);
        let portable = matmul_with(KernelBackend::Portable, &a, &b).unwrap();
        for tier in supported_backends() {
            let nn = matmul_with(tier, &a, &b).unwrap();
            prop_assert_eq!(bits(&nn), bits(&naive_matmul_for(tier, &a, &b)), "{} matmul", tier.name());
            prop_assert!(max_rel_diff(&nn, &portable) <= 1e-12, "{} vs portable", tier.name());

            let nt = matmul_nt_with(tier, &a, &bt).unwrap();
            prop_assert_eq!(bits(&nt), bits(&naive_matmul_for(tier, &a, &bt.transpose())), "{} matmul_nt", tier.name());

            let tn = matmul_tn_with(tier, &at, &b).unwrap();
            prop_assert_eq!(bits(&tn), bits(&naive_matmul_for(tier, &at.transpose(), &b)), "{} matmul_tn", tier.name());
        }
    }

    /// Each tier's gram (upper triangle + mirror) matches its naive
    /// `AᵀA` bitwise and stays within the cross-tier floor of portable.
    #[test]
    fn every_tier_gram_matches_its_naive(
        rows in 40usize..90,
        cols in 33usize..60,
        seed in 0usize..1000,
    ) {
        let a = hashed(rows, cols, seed);
        let portable = gram_with(KernelBackend::Portable, &a);
        for tier in supported_backends() {
            let g = gram_with(tier, &a);
            prop_assert_eq!(bits(&g), bits(&naive_matmul_for(tier, &a.transpose(), &a)), "{} gram", tier.name());
            prop_assert!(max_rel_diff(&g, &portable) <= 1e-12, "{} gram vs portable", tier.name());
        }
    }

    /// Ragged and degenerate shapes — below one micro-tile, `1 × n`,
    /// `n × 1`, empty dimensions — route through each tier's reference
    /// kernel and still match its naive loops bitwise.
    #[test]
    fn every_tier_ragged_shapes_match_its_naive(
        m in 0usize..12,
        k in 0usize..12,
        n in 0usize..12,
        seed in 0usize..1000,
    ) {
        let a = hashed(m, k, seed);
        let b = hashed(k, n, seed + 1_000_000);
        let bt = hashed(n, k, seed + 2_000_000);
        for tier in supported_backends() {
            let nn = matmul_with(tier, &a, &b).unwrap();
            prop_assert_eq!(bits(&nn), bits(&naive_matmul_for(tier, &a, &b)), "{} matmul", tier.name());

            let nt = matmul_nt_with(tier, &a, &bt).unwrap();
            prop_assert_eq!(bits(&nt), bits(&naive_matmul_for(tier, &a, &bt.transpose())), "{} matmul_nt", tier.name());

            let g = gram_with(tier, &a);
            prop_assert_eq!(bits(&g), bits(&naive_matmul_for(tier, &a.transpose(), &a)), "{} gram", tier.name());
        }
    }
}

/// `k` far beyond `KC = 256` forces the KC loop to spill each tier's
/// tile accumulators to C and extend them on the next panel; the chain
/// must still be bitwise the single ascending-`k` naive loop. The odd
/// shape also leaves partial tiles on both edges of every tile
/// geometry (6×8, 8×8, portable).
#[test]
fn every_tier_kc_crossing_accumulation_is_bitwise() {
    let a = hashed(37, 531, 17);
    let b = hashed(531, 29, 23);
    for tier in supported_backends() {
        let got = matmul_with(tier, &a, &b).unwrap();
        assert_eq!(
            bits(&got),
            bits(&naive_matmul_for(tier, &a, &b)),
            "{}",
            tier.name()
        );
    }
}

/// An output wider than `NC = 1024` sends the outermost `jc` loop round
/// a second time: `B` is repacked from column 1024 on, every row block
/// is revisited, and the last column block is ragged (76 columns). For
/// `gram` the output is also taller than `NC`, so the upper-triangle
/// mode skips the whole row block that lies below the first column
/// block's diagonal. One product per orientation, each bitwise its
/// tier's naive loop; like the test below, the CI determinism job
/// reruns it at `RAYON_NUM_THREADS` 1 and 8.
#[test]
fn every_tier_nc_crossing_is_bitwise() {
    let a = hashed(5, 300, 51);
    let b = hashed(300, 1100, 53);
    let bt = hashed(1100, 300, 57);
    let at = hashed(300, 5, 59);
    let wide = hashed(9, 1100, 61);
    for tier in supported_backends() {
        let nn = matmul_with(tier, &a, &b).unwrap();
        assert_eq!(
            bits(&nn),
            bits(&naive_matmul_for(tier, &a, &b)),
            "{} matmul",
            tier.name()
        );
        let nt = matmul_nt_with(tier, &a, &bt).unwrap();
        assert_eq!(
            bits(&nt),
            bits(&naive_matmul_for(tier, &a, &bt.transpose())),
            "{} matmul_nt",
            tier.name()
        );
        let tn = matmul_tn_with(tier, &at, &b).unwrap();
        assert_eq!(
            bits(&tn),
            bits(&naive_matmul_for(tier, &at.transpose(), &b)),
            "{} matmul_tn",
            tier.name()
        );
        let g = gram_with(tier, &wide);
        assert_eq!(
            bits(&g),
            bits(&naive_matmul_for(tier, &wide.transpose(), &wide)),
            "{} gram",
            tier.name()
        );
    }
}

/// Each tier's packed path must be bit-identical regardless of the
/// thread count the row fan-out *and the panel-packing fan-out* pick.
/// The serial naive loop is env-independent; the CI determinism job
/// reruns this test at `RAYON_NUM_THREADS` 1 and 8, so any
/// thread-count dependence fails at least one leg. The larger shape
/// sits past the parallel-packing crossover (its packed `B` block is
/// ≥ 2 × 64 Ki elements), so the placement-only packing fan-out is
/// exercised, not just the row fan-out.
#[test]
fn every_tier_packed_products_are_thread_count_invariant() {
    let a = hashed(257, 300, 7);
    let b = hashed(300, 600, 99);
    for tier in supported_backends() {
        let got = matmul_with(tier, &a, &b).unwrap();
        assert_eq!(
            bits(&got),
            bits(&naive_matmul_for(tier, &a, &b)),
            "{} matmul",
            tier.name()
        );
        let g = gram_with(tier, &a);
        assert_eq!(
            bits(&g),
            bits(&naive_matmul_for(tier, &a.transpose(), &a)),
            "{} gram",
            tier.name()
        );
    }
}

/// The two hardware tiers share one numeric contract (fused
/// ascending-`k`), so on a host supporting both their products must be
/// **byte-identical** — the cross-tier guarantee that lets a mixed
/// AVX-512/AVX2 fleet reproduce each other's models exactly.
#[test]
fn hardware_tiers_agree_bitwise_where_both_run() {
    if !(KernelBackend::Fma.is_supported() && KernelBackend::Avx512.is_supported()) {
        return;
    }
    let a = hashed(83, 310, 31);
    let b = hashed(310, 61, 37);
    let fma = matmul_with(KernelBackend::Fma, &a, &b).unwrap();
    let avx512 = matmul_with(KernelBackend::Avx512, &a, &b).unwrap();
    assert_eq!(bits(&fma), bits(&avx512));
    assert_eq!(
        bits(&gram_with(KernelBackend::Fma, &a)),
        bits(&gram_with(KernelBackend::Avx512, &a))
    );
    let bt = hashed(61, 310, 41);
    assert_eq!(
        bits(&matmul_nt_with(KernelBackend::Fma, &a, &bt).unwrap()),
        bits(&matmul_nt_with(KernelBackend::Avx512, &a, &bt).unwrap())
    );
    let at = hashed(310, 83, 43);
    assert_eq!(
        bits(&matmul_tn_with(KernelBackend::Fma, &at, &b).unwrap()),
        bits(&matmul_tn_with(KernelBackend::Avx512, &at, &b).unwrap())
    );
}

/// Regression shared by all tiers: a `0 × NaN` pairing must poison the
/// product identically to the tier's naive loop — no micro-kernel ever
/// skips "zero" terms.
#[test]
fn every_tier_zero_times_nan_propagates_identically() {
    let m = 48;
    let mut a = hashed(m, m, 11);
    let mut b = hashed(m, m, 13);
    for i in 0..m {
        a[(i, 3)] = 0.0;
    }
    for j in 0..m {
        b[(3, j)] = f64::NAN;
    }
    let a_small = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]);
    let b_small = Matrix::from_rows(&[vec![f64::NAN, 4.0], vec![5.0, 6.0]]);
    for tier in supported_backends() {
        let packed = matmul_with(tier, &a, &b).unwrap();
        let naive = naive_matmul_for(tier, &a, &b);
        assert!(
            packed.as_slice().iter().all(|v| v.is_nan()),
            "{}",
            tier.name()
        );
        assert_eq!(bits(&packed), bits(&naive), "{}", tier.name());

        let small = matmul_with(tier, &a_small, &b_small).unwrap();
        assert!(
            small[(0, 0)].is_nan(),
            "{}: 0 × NaN must poison the entry",
            tier.name()
        );
        assert_eq!(
            bits(&small),
            bits(&naive_matmul_for(tier, &a_small, &b_small)),
            "{}",
            tier.name()
        );
    }
}
