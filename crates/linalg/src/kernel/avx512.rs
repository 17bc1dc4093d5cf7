//! Unit tests of the AVX-512 tier's tile: the one generic tile
//! (`kernel::micro`) at `AVX512_MR × NR`, fused and `k`-unrolled ×4,
//! run through the tier's `#[target_feature(enable =
//! "avx512f,avx512vl")]` function — the build the tier executes. On a
//! CPU without avx512f+avx512vl the tier can never be selected, and
//! each test returns at once.

mod tests {
    use crate::kernel::micro::tests::{ascending_k, extends_in_order, padding_untouched};
    use crate::kernel::micro::{AVX512_MR, NR};
    use crate::kernel::KernelBackend;

    const TIER: KernelBackend = KernelBackend::Avx512;

    #[test]
    fn avx512_tile_is_fused_ascending_k_per_element() {
        if TIER.is_supported() {
            ascending_k::<AVX512_MR, NR, true>(TIER);
        }
    }

    #[test]
    fn avx512_kernel_update_extends_partial_sums_in_order() {
        if TIER.is_supported() {
            extends_in_order::<AVX512_MR, NR, true>(TIER);
        }
    }

    #[test]
    fn avx512_kernel_update_never_touches_padding_lanes() {
        if TIER.is_supported() {
            padding_untouched::<AVX512_MR, NR, true>(TIER);
        }
    }
}
