//! Shared by the golden-byte and hostile-input suites of `netanom-core`,
//! `netanom-net` and `netanom-serve` (the latter two include this file
//! by `#[path]`).

// Each including suite uses only its half.
#![allow(dead_code)]

/// The bytes of `tests/golden/<file>` in the crate whose manifest
/// directory is `crate_dir`.
pub fn read_golden(crate_dir: &str, file: &str) -> Vec<u8> {
    let path = std::path::Path::new(crate_dir)
        .join("tests/golden")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The pinned bytes of `file`, after checking that `encoded` — what
/// today's encoder produces for the same value — still equals them.
pub fn golden(crate_dir: &str, file: &str, encoded: &[u8]) -> Vec<u8> {
    let want = read_golden(crate_dir, file);
    assert_eq!(
        encoded, want,
        "{file}: the encoder no longer writes the pinned bytes"
    );
    want
}

/// Hold one `from_bytes` to the hostile-input contract, starting from a
/// buffer it accepts: whatever the mutation, `decode` returns its typed
/// error (`None` here) or a value — it never panics — and a value it
/// does return re-encodes (`Some(bytes)`) to exactly the input's bytes.
/// So nothing it built was larger than what it was given, and the
/// decoder accepts only canonical encodings: no field value is dropped
/// or normalised on the way in.
///
/// Mutations: truncation at every offset (always an error), one trailing
/// byte (always an error), every single-bit flip in the first 64 bytes
/// (always an error inside the `header`-byte magic/version prefix; pass
/// 0 for a format without one), and at **every** offset a `u32`/`u64` field overwritten with its
/// maximum and with one more than the bytes that follow it — which
/// covers each length and count field without a per-format offset table.
pub fn assert_survives_hostile_input(
    name: &str,
    golden: &[u8],
    header: usize,
    decode: impl Fn(&[u8]) -> Option<Vec<u8>>,
) {
    assert_eq!(
        decode(golden).as_deref(),
        Some(golden),
        "{name}: decode then encode is not the identity"
    );
    for cut in 0..golden.len() {
        assert!(
            decode(&golden[..cut]).is_none(),
            "{name}: accepted a {cut}-byte prefix"
        );
    }
    let mut long = golden.to_vec();
    long.push(0);
    assert!(decode(&long).is_none(), "{name}: accepted a trailing byte");

    let check = |mutant: &[u8], what: &str| {
        if let Some(encoded) = decode(mutant) {
            assert!(
                encoded == mutant,
                "{name}: {what} decoded to a value that re-encodes to other bytes"
            );
        }
    };
    for bit in 0..golden.len().min(64) * 8 {
        let mut mutant = golden.to_vec();
        mutant[bit / 8] ^= 1 << (bit % 8);
        if bit / 8 < header {
            assert!(
                decode(&mutant).is_none(),
                "{name}: accepted a header with bit {bit} flipped"
            );
        }
        check(&mutant, &format!("flipping bit {bit}"));
    }
    for at in 0..golden.len() {
        for width in [4, 8] {
            let Some(after) = golden.len().checked_sub(at + width) else {
                continue;
            };
            for value in [u64::MAX, after as u64 + 1] {
                let mut mutant = golden.to_vec();
                mutant[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                check(&mutant, &format!("{value:#x} as a u{} at {at}", width * 8));
            }
        }
    }
}
