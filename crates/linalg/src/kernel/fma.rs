//! Unit tests of the product tile as the products build it: the one
//! generic tile (`kernel::micro`) at `FMA_MR × NR`, fused — the
//! instantiation `gemm_block::<true>` runs for every [`Matrix`]
//! product, compiled at the build target (x86-64-v3, so each step is a
//! hardware `vfmadd` lane).
//!
//! [`Matrix`]: crate::Matrix

mod tests {
    use crate::kernel::micro::tests::{ascending_k, extends_in_order, padding_untouched};
    use crate::kernel::micro::{FMA_MR, NR};

    #[test]
    fn fma_tile_is_fused_ascending_k_per_element() {
        ascending_k::<FMA_MR, NR, true>();
    }

    #[test]
    fn fma_kernel_update_extends_partial_sums_in_order() {
        extends_in_order::<FMA_MR, NR, true>();
    }

    #[test]
    fn fma_kernel_update_never_touches_padding_lanes() {
        padding_untouched::<FMA_MR, NR, true>();
    }
}
