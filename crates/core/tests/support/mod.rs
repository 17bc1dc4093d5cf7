//! Shared by the golden-byte suites of `netanom-core`, `netanom-net` and
//! `netanom-serve` (the latter two include this file by `#[path]`).

/// The pinned bytes of `tests/golden/<file>` in the crate whose
/// manifest directory is `crate_dir`, after checking that `encoded` —
/// what today's encoder produces for the same value — still equals
/// them.
pub fn golden(crate_dir: &str, file: &str, encoded: &[u8]) -> Vec<u8> {
    let path = std::path::Path::new(crate_dir)
        .join("tests/golden")
        .join(file);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(
        encoded, want,
        "{file}: the encoder no longer writes the pinned bytes"
    );
    want
}
