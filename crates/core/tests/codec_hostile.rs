//! Hostile input, once: properties of [`Reader`] over arbitrary bytes,
//! and every core `from_bytes` held to the shared hostile-input contract
//! (`support::assert_survives_hostile_input`) starting from its golden
//! files. `netanom-net` and `netanom-serve` run the same driver over
//! theirs.

use netanom_core::codec::{CodecError, Reader};
use netanom_core::incremental::{CovarianceShard, IncrementalCovariance};
use netanom_core::MethodState;
use proptest::prelude::*;

mod support;

fn golden(file: &str) -> Vec<u8> {
    support::read_golden(env!("CARGO_MANIFEST_DIR"), file)
}

#[test]
fn every_core_decoder_survives_hostile_input() {
    for file in [
        "nams_subspace.bin",
        "nams_subspace_truncated.bin",
        "nams_ewma.bin",
        "nams_holt_winters.bin",
        "nams_fourier.bin",
        "nams_wavelet.bin",
    ] {
        support::assert_survives_hostile_input(file, &golden(file), 8, |b| {
            MethodState::from_bytes(b).ok().map(|s| s.to_bytes())
        });
    }
    support::assert_survives_hostile_input("naic.bin", &golden("naic.bin"), 8, |b| {
        IncrementalCovariance::from_bytes(b)
            .ok()
            .map(|s| s.to_bytes())
    });
    support::assert_survives_hostile_input("nacs.bin", &golden("nacs.bin"), 8, |b| {
        CovarianceShard::from_bytes(b).ok().map(|s| s.to_bytes())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the bytes and whatever the requested count, a bulk read
    /// either fails with a typed error and consumes nothing, or returns
    /// exactly what it was asked for out of bytes that were really
    /// there — so no read allocates beyond the input.
    #[test]
    fn bulk_reads_never_outrun_the_buffer(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        n in 0usize..64,
        huge in 0u64..=u64::MAX,
    ) {
        for n in [n, huge as usize] {
            let mut r = Reader::new(&bytes);
            match r.f64s(n) {
                Ok(vs) => {
                    prop_assert_eq!(vs.len(), n);
                    prop_assert_eq!(r.remaining(), bytes.len() - n * 8);
                }
                Err(e) => {
                    prop_assert!(matches!(e, CodecError::CountExceedsBuffer { .. }));
                    prop_assert_eq!(r.remaining(), bytes.len());
                }
            }
            let mut r = Reader::new(&bytes);
            if let Ok(m) = r.matrix_body(n, 3) {
                prop_assert_eq!(m.shape(), (n, 3));
                prop_assert!(n * 3 * 8 <= bytes.len());
            }
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.raw(n).is_ok(), n <= bytes.len());
        }
    }

    /// A count that `count()` lets through is at most the bytes left
    /// behind it, and the prefixed readers built on it stay inside the
    /// buffer.
    #[test]
    fn counts_are_bounded_by_the_bytes_remaining(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        small in 0u64..128,
    ) {
        // Both a random prefix and a plausible small one.
        let mut planted = small.to_le_bytes().to_vec();
        planted.extend_from_slice(&bytes);
        for buf in [&bytes, &planted] {
            let mut r = Reader::new(buf);
            match r.count() {
                Ok(n) => prop_assert!(n <= r.remaining()),
                Err(e) => prop_assert!(matches!(
                    e,
                    CodecError::Truncated | CodecError::CountExceedsBuffer { .. }
                )),
            }
            if let Ok(b) = Reader::new(buf).bytes() {
                prop_assert!(b.len() + 8 <= buf.len());
            }
            if let Ok(s) = Reader::new(buf).str() {
                prop_assert!(s.len() + 8 <= buf.len());
            }
        }
    }
}
