//! Property tests pinning the products callers run against an
//! independent naive triple-loop reference.
//!
//! The kernel layer's contract (see `netanom_linalg::kernel`) is that
//! every product — packed or not, parallel or not — accumulates each
//! output element in strictly ascending shared-dimension order into a
//! single accumulator, with the per-step rounding fixed where the call
//! is compiled: one fused rounding per term on the product tile that
//! [`Matrix`]'s products run, separate multiply and add on the scoring
//! tile under the SPE and projection kernels. That makes each product
//! **bitwise** equal to the textbook `i j k` loop written out below with
//! the matching per-step op, which is what these tests assert. Shapes
//! cover both routing regimes: large operands that take the packed
//! path — deliberately not multiples of the micro-tile — and
//! ragged/degenerate ones (`1 × n`, `n × 1`, empty) that fall through
//! to the reference kernels. `kernel_tier_proptests.rs` requests each
//! tile by its rounding and pins both against their own naive loops.
//!
//! The CI determinism job reruns this file under `RAYON_NUM_THREADS`
//! 1 and 8; `packed_products_are_thread_count_invariant` additionally
//! sits past the parallel-packing crossover, so both fan-outs (output
//! rows and packed panels) are exercised against the serial loops.

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

/// Textbook `i j k` product: single accumulator per element, ascending
/// `k`, one [`f64::mul_add`] per term when `FUSED`, else separate
/// multiply and add. Written independently of the crate's kernels on
/// purpose.
fn naive_matmul<const FUSED: bool>(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0_f64;
            for k in 0..a.cols() {
                if FUSED {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed-path shapes (≥ one micro-tile in every dimension, past the
    /// flop crossover, never tile-multiples) match the fused naive loops
    /// bitwise, for all three orientations.
    #[test]
    fn packed_matmul_family_matches_naive(
        m in 33usize..70,
        k in 33usize..70,
        n in 33usize..70,
        seed in 0usize..1000,
    ) {
        let a = hashed(m, k, seed);
        let b = hashed(k, n, seed + 1_000_000);
        let nn = a.matmul(&b).unwrap();
        prop_assert_eq!(bits(&nn), bits(&naive_matmul::<true>(&a, &b)));

        let bt = hashed(n, k, seed + 2_000_000);
        let nt = a.matmul_nt(&bt).unwrap();
        prop_assert_eq!(bits(&nt), bits(&naive_matmul::<true>(&a, &bt.transpose())));

        let at = hashed(k, m, seed + 3_000_000);
        let tn = at.matmul_tn(&b).unwrap();
        prop_assert_eq!(bits(&tn), bits(&naive_matmul::<true>(&at.transpose(), &b)));
    }

    /// Packed gram (upper triangle + mirror) matches the fused naive
    /// `AᵀA`. Bitwise on the upper triangle; the mirrored lower triangle
    /// agrees because multiplication commutes term by term.
    #[test]
    fn packed_gram_matches_naive(
        rows in 40usize..90,
        cols in 33usize..60,
        seed in 0usize..1000,
    ) {
        let a = hashed(rows, cols, seed);
        let g = a.gram();
        let naive = naive_matmul::<true>(&a.transpose(), &a);
        prop_assert_eq!(bits(&g), bits(&naive));
    }

    /// Ragged and degenerate shapes — below one tile, `1 × n`, `n × 1`,
    /// empty dimensions — route through the reference kernel and still
    /// match the fused naive loops bitwise.
    #[test]
    fn ragged_shapes_match_naive(
        m in 0usize..12,
        k in 0usize..12,
        n in 0usize..12,
        seed in 0usize..1000,
    ) {
        let a = hashed(m, k, seed);
        let b = hashed(k, n, seed + 1_000_000);
        let nn = a.matmul(&b).unwrap();
        prop_assert_eq!(bits(&nn), bits(&naive_matmul::<true>(&a, &b)));

        let bt = hashed(n, k, seed + 2_000_000);
        let nt = a.matmul_nt(&bt).unwrap();
        prop_assert_eq!(bits(&nt), bits(&naive_matmul::<true>(&a, &bt.transpose())));

        let g = a.gram();
        prop_assert_eq!(bits(&g), bits(&naive_matmul::<true>(&a.transpose(), &a)));
    }

    /// The batched projection splits rows exactly as the naive
    /// `modeled = A·P·Pᵀ`, `residual = A − modeled` products do — with
    /// mul-then-add rounding, since the projection is a scoring kernel
    /// on the unfused tile.
    #[test]
    fn project_rows_split_matches_naive(
        rows in 20usize..70,
        cols in 16usize..50,
        r in 0usize..10,
        seed in 0usize..1000,
    ) {
        let a = hashed(rows, cols, seed);
        let basis = hashed(cols, r, seed + 1_000_000);
        let (modeled, residual) = a.project_rows_split(&basis).unwrap();
        let coeffs = naive_matmul::<false>(&a, &basis);
        let want_modeled = naive_matmul::<false>(&coeffs, &basis.transpose());
        prop_assert_eq!(bits(&modeled), bits(&want_modeled));
        prop_assert_eq!(bits(&residual), bits(&a.sub(&want_modeled).unwrap()));
    }

    /// The fused SPE kernel is bitwise the exact per-vector route:
    /// center, project coefficients, reconstruct, subtract, norm — all
    /// in naive ascending order with mul-then-add rounding: the SPE
    /// path runs the unfused scoring tile, so a batch score is its
    /// per-vector score.
    #[test]
    fn centered_residual_norms_match_naive(
        rows in 8usize..80,
        cols in 8usize..50,
        r in 0usize..10,
        seed in 0usize..1000,
    ) {
        let a = hashed(rows, cols, seed);
        let basis = hashed(cols, r, seed + 1_000_000);
        let mean: Vec<f64> = (0..cols).map(|j| hash_unit(seed + 2_000_000 + j)).collect();
        let spes = a.centered_residual_norms_sq(&mean, &basis).unwrap();
        for (i, &got) in spes.iter().enumerate() {
            let z: Vec<f64> = a.row(i).iter().zip(&mean).map(|(&y, &mu)| y - mu).collect();
            let mut want = 0.0_f64;
            for l in 0..cols {
                let mut mm = 0.0_f64;
                for kk in 0..r {
                    mm += basis[(l, kk)] * naive_coeff(&z, &basis, kk);
                }
                let rv = z[l] - mm;
                want += rv * rv;
            }
            prop_assert_eq!(got.to_bits(), want.to_bits(), "row {}", i);
        }
    }
}

/// Coefficient `k` of `Pᵀz` in naive ascending-row order.
fn naive_coeff(z: &[f64], basis: &Matrix, k: usize) -> f64 {
    let mut c = 0.0_f64;
    for (j, &zv) in z.iter().enumerate() {
        c += zv * basis[(j, k)];
    }
    c
}

/// The packed path must produce bit-identical output regardless of the
/// thread count the row fan-out *and the panel-packing fan-out* pick.
/// The workspace's `rayon` shim reads `RAYON_NUM_THREADS` at call time
/// and the CI determinism job reruns this test at 1 and 8 threads;
/// pinning the parallel result against the env-independent serial naive
/// loops makes any thread-count dependence a failure in at least one of
/// those runs. The shape sits past the parallel-packing crossover (its
/// packed `B` block is ≥ 2 × 64 Ki elements), so both fan-outs split
/// real work.
#[test]
fn packed_products_are_thread_count_invariant() {
    let a = hashed(257, 300, 7);
    let b = hashed(300, 600, 99);
    assert_eq!(
        bits(&a.matmul(&b).unwrap()),
        bits(&naive_matmul::<true>(&a, &b))
    );
    assert_eq!(
        bits(&a.gram()),
        bits(&naive_matmul::<true>(&a.transpose(), &a))
    );
}

/// Regression for the removed `aik == 0.0` skip: a `0 × NaN` pairing
/// must poison the product identically on the packed and naive paths —
/// the old kernels silently dropped the NaN.
#[test]
fn zero_times_nan_propagates_identically() {
    // Large enough that matmul takes the packed path.
    let m = 48;
    let mut a = hashed(m, m, 11);
    let mut b = hashed(m, m, 13);
    for i in 0..m {
        a[(i, 3)] = 0.0; // zero column of A …
    }
    for j in 0..m {
        b[(3, j)] = f64::NAN; // … against a NaN row of B.
    }
    let packed = a.matmul(&b).unwrap();
    let naive = naive_matmul::<true>(&a, &b);
    assert!(packed.as_slice().iter().all(|v| v.is_nan()));
    assert_eq!(bits(&packed), bits(&naive));

    // Below the packing crossover, the reference kernel must do the same.
    let a_small = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]);
    let b_small = Matrix::from_rows(&[vec![f64::NAN, 4.0], vec![5.0, 6.0]]);
    let small = a_small.matmul(&b_small).unwrap();
    assert!(small[(0, 0)].is_nan(), "0 × NaN must poison the entry");
    assert_eq!(
        bits(&small),
        bits(&naive_matmul::<true>(&a_small, &b_small))
    );
}
