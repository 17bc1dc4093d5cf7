//! Unit tests of the AVX2+FMA tier's tile: the one generic tile
//! (`kernel::micro`) at `FMA_MR × NR`, fused, run through the tier's
//! `#[target_feature(enable = "avx2,fma")]` function — the build the
//! tier executes. On a CPU without AVX2+FMA the tier can never be
//! selected, and each test returns at once.

mod tests {
    use crate::kernel::micro::tests::{ascending_k, extends_in_order, padding_untouched};
    use crate::kernel::micro::{FMA_MR, NR};
    use crate::kernel::KernelBackend;

    const TIER: KernelBackend = KernelBackend::Fma;

    #[test]
    fn fma_tile_is_fused_ascending_k_per_element() {
        if TIER.is_supported() {
            ascending_k::<FMA_MR, NR, true>(TIER);
        }
    }

    #[test]
    fn fma_kernel_update_extends_partial_sums_in_order() {
        if TIER.is_supported() {
            extends_in_order::<FMA_MR, NR, true>(TIER);
        }
    }

    #[test]
    fn fma_kernel_update_never_touches_padding_lanes() {
        if TIER.is_supported() {
            padding_untouched::<FMA_MR, NR, true>(TIER);
        }
    }
}
