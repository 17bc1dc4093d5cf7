//! Property tests pinning **each of the kernel's two tiles**
//! explicitly, through the entry points that name their rounding.
//!
//! `kernel_proptests.rs` pins the products callers run: [`Matrix`]'s
//! methods on the fused product tile, the SPE and projection kernels on
//! the unfused scoring tile. This file requests each tile by its
//! rounding (`kernel::{matmul, matmul_nt, matmul_tn, gram}::<FUSED>`)
//! and asserts per tile:
//!
//! * **Bitwise vs its own naive loops.** Every orientation (`matmul`,
//!   `matmul_nt`, `matmul_tn`, `gram`) equals the textbook `i j k`
//!   triple loop with the tile's per-step rounding — one fused
//!   [`f64::mul_add`] per term for the 6×8 product tile, mul-then-add
//!   for the scoring tile — single accumulator per element, strictly
//!   ascending `k`. Both routing regimes are covered: packed shapes
//!   that exercise the real micro-kernels (including `k > KC` so the
//!   tile accumulators are spilled and reloaded across KC panels, and
//!   outputs wider than `NC`) and ragged/degenerate shapes that fall
//!   through to the reference kernel at the same rounding.
//! * **≤ 1e-12 relative between the two.** Fusing only removes
//!   intermediate roundings.
//! * **No zero-skip.** A `0 × NaN` pairing poisons each tile's product
//!   exactly as it does the matching naive loop.
//!
//! The CI determinism job reruns this file under `RAYON_NUM_THREADS` 1
//! and 8: the large deterministic shapes sit past both the row fan-out
//! crossover and the parallel *packing* crossover (the proptest shapes,
//! at most 70³ multiply-adds, stay serial), so bitwise-vs-serial-naive
//! also proves thread-count invariance of both tiles, micro-kernels and
//! panel packing both.

use netanom_linalg::{kernel, Matrix};
use proptest::prelude::*;

/// The kernel's two tiles, named by their per-step rounding.
#[derive(Clone, Copy, Debug)]
enum Tile {
    /// The 6×8 product tile: one [`f64::mul_add`] per term.
    Fused,
    /// The scoring tile: separate multiply and add.
    Unfused,
}

const TILES: [Tile; 2] = [Tile::Fused, Tile::Unfused];

impl Tile {
    fn matmul(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Tile::Fused => kernel::matmul::<true>(a, b),
            Tile::Unfused => kernel::matmul::<false>(a, b),
        }
        .unwrap()
    }

    fn matmul_nt(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Tile::Fused => kernel::matmul_nt::<true>(a, b),
            Tile::Unfused => kernel::matmul_nt::<false>(a, b),
        }
        .unwrap()
    }

    fn matmul_tn(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Tile::Fused => kernel::matmul_tn::<true>(a, b),
            Tile::Unfused => kernel::matmul_tn::<false>(a, b),
        }
        .unwrap()
    }

    fn gram(self, a: &Matrix) -> Matrix {
        match self {
            Tile::Fused => kernel::gram::<true>(a),
            Tile::Unfused => kernel::gram::<false>(a),
        }
    }
}

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

/// Textbook `i j k` product with the given tile's per-step rounding:
/// one [`f64::mul_add`] per term for the fused tile, separate multiply
/// and add for the unfused one. Written independently of the crate's
/// kernels on purpose.
fn naive_matmul_for(tile: Tile, a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0_f64;
            for k in 0..a.cols() {
                match tile {
                    Tile::Fused => acc = a[(i, k)].mul_add(b[(k, j)], acc),
                    Tile::Unfused => acc += a[(i, k)] * b[(k, j)],
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

    /// Packed-path shapes match each tile's naive loops bitwise on
    /// every orientation, and the fused tile sits within 1e-12 relative
    /// of the unfused one.
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
        let unfused = Tile::Unfused.matmul(&a, &b);
        for tile in TILES {
            let nn = tile.matmul(&a, &b);
            prop_assert_eq!(bits(&nn), bits(&naive_matmul_for(tile, &a, &b)), "{:?} matmul", tile);
            prop_assert!(max_rel_diff(&nn, &unfused) <= 1e-12, "{:?} vs unfused", tile);

            let nt = tile.matmul_nt(&a, &bt);
            prop_assert_eq!(bits(&nt), bits(&naive_matmul_for(tile, &a, &bt.transpose())), "{:?} matmul_nt", tile);

            let tn = tile.matmul_tn(&at, &b);
            prop_assert_eq!(bits(&tn), bits(&naive_matmul_for(tile, &at.transpose(), &b)), "{:?} matmul_tn", tile);
        }
    }

    /// Each tile's gram (upper triangle + mirror) matches its naive
    /// `AᵀA` bitwise, and the two tiles agree to 1e-12 relative.
    #[test]
    fn every_tier_gram_matches_its_naive(
        rows in 40usize..90,
        cols in 33usize..60,
        seed in 0usize..1000,
    ) {
        let a = hashed(rows, cols, seed);
        let unfused = Tile::Unfused.gram(&a);
        for tile in TILES {
            let g = tile.gram(&a);
            prop_assert_eq!(bits(&g), bits(&naive_matmul_for(tile, &a.transpose(), &a)), "{:?} gram", tile);
            prop_assert!(max_rel_diff(&g, &unfused) <= 1e-12, "{:?} gram vs unfused", tile);
        }
    }

    /// Ragged and degenerate shapes — below one micro-tile, `1 × n`,
    /// `n × 1`, empty dimensions — route through the reference kernel
    /// at each tile's rounding and still match its naive loops bitwise.
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
        let at = hashed(k, m, seed + 3_000_000);
        for tile in TILES {
            let nn = tile.matmul(&a, &b);
            prop_assert_eq!(bits(&nn), bits(&naive_matmul_for(tile, &a, &b)), "{:?} matmul", tile);

            let nt = tile.matmul_nt(&a, &bt);
            prop_assert_eq!(bits(&nt), bits(&naive_matmul_for(tile, &a, &bt.transpose())), "{:?} matmul_nt", tile);

            let tn = tile.matmul_tn(&at, &b);
            prop_assert_eq!(bits(&tn), bits(&naive_matmul_for(tile, &at.transpose(), &b)), "{:?} matmul_tn", tile);

            let g = tile.gram(&a);
            prop_assert_eq!(bits(&g), bits(&naive_matmul_for(tile, &a.transpose(), &a)), "{:?} gram", tile);
        }
    }
}

/// `k` far beyond `KC = 256` forces the KC loop to spill each tile's
/// accumulators to C and extend them on the next panel; the chain must
/// still be bitwise the single ascending-`k` naive loop. The odd shape
/// also leaves partial tiles on both edges of both tile geometries.
#[test]
fn every_tier_kc_crossing_accumulation_is_bitwise() {
    let a = hashed(37, 531, 17);
    let b = hashed(531, 29, 23);
    for tile in TILES {
        let got = tile.matmul(&a, &b);
        assert_eq!(
            bits(&got),
            bits(&naive_matmul_for(tile, &a, &b)),
            "{tile:?}"
        );
    }
}

/// An output wider than `NC = 1024` sends the outermost `jc` loop round
/// a second time: `B` is repacked from column 1024 on, every row block
/// is revisited, and the last column block is ragged (76 columns). For
/// `gram` the output is also taller than `NC`, so the upper-triangle
/// mode skips the whole row block that lies below the first column
/// block's diagonal. One product per orientation, each bitwise its
/// tile's naive loop.
#[test]
fn every_tier_nc_crossing_is_bitwise() {
    let a = hashed(5, 300, 51);
    let b = hashed(300, 1100, 53);
    let bt = hashed(1100, 300, 57);
    let at = hashed(300, 5, 59);
    let wide = hashed(9, 1100, 61);
    for tile in TILES {
        assert_eq!(
            bits(&tile.matmul(&a, &b)),
            bits(&naive_matmul_for(tile, &a, &b)),
            "{tile:?} matmul"
        );
        assert_eq!(
            bits(&tile.matmul_nt(&a, &bt)),
            bits(&naive_matmul_for(tile, &a, &bt.transpose())),
            "{tile:?} matmul_nt"
        );
        assert_eq!(
            bits(&tile.matmul_tn(&at, &b)),
            bits(&naive_matmul_for(tile, &at.transpose(), &b)),
            "{tile:?} matmul_tn"
        );
        assert_eq!(
            bits(&tile.gram(&wide)),
            bits(&naive_matmul_for(tile, &wide.transpose(), &wide)),
            "{tile:?} gram"
        );
    }
}

/// Each tile's packed path must be bit-identical regardless of the
/// thread count the row fan-out *and the panel-packing fan-out* pick.
/// The serial naive loop is env-independent; the CI determinism job
/// reruns this test at `RAYON_NUM_THREADS` 1 and 8, so any
/// thread-count dependence fails at least one leg. The shape sits past
/// the parallel-packing crossover (its packed `B` block is
/// ≥ 2 × 64 Ki elements), so the placement-only packing fan-out is
/// exercised, not just the row fan-out.
#[test]
fn every_tier_packed_products_are_thread_count_invariant() {
    let a = hashed(257, 300, 7);
    let b = hashed(300, 600, 99);
    for tile in TILES {
        assert_eq!(
            bits(&tile.matmul(&a, &b)),
            bits(&naive_matmul_for(tile, &a, &b)),
            "{tile:?} matmul"
        );
        assert_eq!(
            bits(&tile.gram(&a)),
            bits(&naive_matmul_for(tile, &a.transpose(), &a)),
            "{tile:?} gram"
        );
    }
}

/// Regression shared by both tiles: a `0 × NaN` pairing must poison the
/// product identically to the tile's naive loop — no micro-kernel ever
/// skips "zero" terms.
#[test]
fn every_tier_zero_times_nan_propagates_identically() {
    // Large enough that matmul takes the packed path.
    let m = 48;
    let mut a = hashed(m, m, 11);
    let mut b = hashed(m, m, 13);
    for i in 0..m {
        a[(i, 3)] = 0.0;
    }
    for j in 0..m {
        b[(3, j)] = f64::NAN;
    }
    // Below the packing crossover: the reference kernel.
    let a_small = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]);
    let b_small = Matrix::from_rows(&[vec![f64::NAN, 4.0], vec![5.0, 6.0]]);
    for tile in TILES {
        let packed = tile.matmul(&a, &b);
        assert!(packed.as_slice().iter().all(|v| v.is_nan()), "{tile:?}");
        assert_eq!(
            bits(&packed),
            bits(&naive_matmul_for(tile, &a, &b)),
            "{tile:?}"
        );

        let small = tile.matmul(&a_small, &b_small);
        assert!(
            small[(0, 0)].is_nan(),
            "{tile:?}: 0 × NaN must poison the entry"
        );
        assert_eq!(
            bits(&small),
            bits(&naive_matmul_for(tile, &a_small, &b_small)),
            "{tile:?}"
        );
    }
}
