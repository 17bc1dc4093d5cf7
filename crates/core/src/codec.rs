//! The workspace's one binary codec.
//!
//! Every durable or transmitted encoding — `NAMS` model state, `NAIC` and
//! `NACS` covariance statistics, the tracker/worker wire messages, and
//! the `NACK` and `NASC` checkpoints — is a flat little-endian field
//! sequence written with the `put_*` functions and read back through one
//! bounds-checked [`Reader`]. A format owns only its field list; the
//! cursor, the truncation and overflow checks, the magic/version header
//! and the atomic file write live here.
//!
//! Bulk readers ([`Reader::f64s`], [`Reader::u64s`],
//! [`Reader::matrix_body`], [`Reader::raw`]) take the element count as an argument, because the
//! formats disagree on how a count is spelled (a `u32` in `NAMS`, a `u64`
//! on the wire, implied by `dim` in the statistics): the format reads its
//! own prefix, the reader checks the count against the bytes remaining
//! *before* allocating, and decodes from one checked slice.
//! [`Reader::count`] is the `u64` prefix with that same bound applied, so
//! a loop driven by it cannot outrun the buffer either.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use netanom_linalg::Matrix;

use crate::CoreError;

/// Why a buffer could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A fixed-width field runs past the end of the buffer.
    Truncated,
    /// The buffer does not open with the expected magic.
    BadMagic,
    /// The header names a format version this build does not read.
    UnsupportedVersion(u32),
    /// A length or count claims more elements than the bytes remaining
    /// could hold.
    CountExceedsBuffer {
        /// The claimed element count.
        count: u64,
        /// Bytes left in the buffer when the claim was read.
        remaining: usize,
    },
    /// A tag byte selects no known variant of `field`.
    BadTag {
        /// Which tagged field.
        field: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field is not UTF-8.
    NotUtf8,
    /// Bytes remain after the last field.
    TrailingBytes(usize),
}

impl CodecError {
    fn reason(&self) -> &'static str {
        match self {
            CodecError::Truncated => "truncated buffer",
            CodecError::BadMagic => "bad magic prefix",
            CodecError::UnsupportedVersion(_) => "unsupported format version",
            CodecError::CountExceedsBuffer { .. } => "a count exceeds the bytes remaining",
            CodecError::BadTag { .. } => "unknown tag",
            CodecError::NotUtf8 => "string field is not utf-8",
            CodecError::TrailingBytes(_) => "trailing bytes after the last field",
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::CountExceedsBuffer { count, remaining } => {
                write!(f, "count {count} exceeds the {remaining} bytes remaining")
            }
            CodecError::BadTag { field, tag } => write!(f, "unknown {field} tag {tag}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last field"),
            other => f.write_str(other.reason()),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::InvalidState { reason: e.reason() }
    }
}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`, bit pattern preserved.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `vs` back to back with **no** length prefix (the format writes
/// its own, or implies it).
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for &v in vs {
        put_f64(out, v);
    }
}

/// Append a `u64` length and the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a `u64` length and the string's UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append `u64` rows, `u64` cols, and the row-major data.
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    put_f64s(out, m.as_slice());
}

/// Open a self-describing buffer: four magic bytes and a `u32` version.
/// Read back with [`Reader::expect_header`].
pub fn header(out: &mut Vec<u8>, magic: [u8; 4], version: u32) {
    out.extend_from_slice(&magic);
    put_u32(out, version);
}

/// Replace the file at `path` with `bytes` without ever exposing a
/// half-written file: write `<path>.tmp` beside it, then rename over
/// `path`. A failure at either step leaves any previous file intact.
///
/// The temp name appends `.tmp` to the **whole** file name, so sibling
/// paths that differ only in extension (`ckpt.0`, `ckpt.1`) never share
/// a temp file. The guarantee is against a killed process, which is what
/// kill-and-rejoin needs; nothing is fsynced.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let context = |what: &str, at: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("{what} {}: {e}", at.display()))
    };
    fs::write(&tmp, bytes).map_err(|e| context("writing", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| context("renaming into", path, e))
}

/// A bounds-checked little-endian cursor over one buffer. Every read
/// either returns a value and advances, or returns a [`CodecError`] —
/// it never panics and never allocates more than the buffer could fill.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.raw(N)?.try_into().expect("raw(N) yields N bytes"))
    }

    /// `n` fixed-width elements decoded from one checked slice; the
    /// length check happens before the allocation.
    fn elements<const N: usize, T>(
        &mut self,
        n: usize,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let len = n
            .checked_mul(N)
            .filter(|&len| len <= self.rest.len())
            .ok_or(CodecError::CountExceedsBuffer {
                count: n as u64,
                remaining: self.rest.len(),
            })?;
        Ok(self
            .raw(len)?
            .chunks_exact(N)
            .map(|c| decode(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`, bit pattern preserved.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u64` element count, rejected unless it is at most the number
    /// of bytes remaining — every counted element occupies at least one
    /// byte, so a count that passes cannot drive an allocation or a loop
    /// beyond the size of the input.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let count = self.u64()?;
        let remaining = self.rest.len();
        if count > remaining as u64 {
            return Err(CodecError::CountExceedsBuffer { count, remaining });
        }
        Ok(count as usize)
    }

    /// `n` little-endian `f64`s.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        self.elements(n, f64::from_le_bytes)
    }

    /// `n` little-endian `u64`s.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        self.elements(n, u64::from_le_bytes)
    }

    /// A `rows × cols` row-major matrix body, for a format that spells
    /// the shape its own way.
    pub fn matrix_body(&mut self, rows: usize, cols: usize) -> Result<Matrix, CodecError> {
        // A product that overflows saturates to a count no buffer holds.
        let data = self.f64s(rows.saturating_mul(cols))?;
        Ok(Matrix::from_vec(rows, cols, data).expect("f64s returned rows × cols values"))
    }

    /// A matrix as [`put_matrix`] wrote it: `u64` rows and cols (each
    /// bounded like a [`count`](Reader::count)), then the body.
    pub fn matrix(&mut self) -> Result<Matrix, CodecError> {
        let (rows, cols) = (self.count()?, self.count()?);
        self.matrix_body(rows, cols)
    }

    /// `n` bytes of UTF-8, borrowed from the buffer.
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.raw(n)?).map_err(|_| CodecError::NotUtf8)
    }

    /// A `u64`-length-prefixed byte string ([`put_bytes`]).
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.count()?;
        Ok(self.raw(n)?.to_vec())
    }

    /// A `u64`-length-prefixed UTF-8 string ([`put_str`]).
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count()?;
        Ok(self.utf8(n)?.to_owned())
    }

    /// Check the four magic bytes and the `u32` version [`header`]
    /// wrote.
    pub fn expect_header(&mut self, magic: [u8; 4], version: u32) -> Result<(), CodecError> {
        if self.array::<4>()? != magic {
            return Err(CodecError::BadMagic);
        }
        match self.u32()? {
            v if v == version => Ok(()),
            v => Err(CodecError::UnsupportedVersion(v)),
        }
    }

    /// Succeed only if every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_primitive_roundtrips() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 2.5);
        let mut out = Vec::new();
        header(&mut out, *b"TEST", 7);
        put_u8(&mut out, 0xab);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64s(&mut out, &[1.5, f64::MIN_POSITIVE]);
        put_bytes(&mut out, &[1, 2, 3]);
        put_str(&mut out, "héllo");
        put_matrix(&mut out, &m);

        let mut r = Reader::new(&out);
        r.expect_header(*b"TEST", 7).unwrap();
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64s(2).unwrap(), [1.5, f64::MIN_POSITIVE]);
        assert_eq!(r.bytes().unwrap(), [1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.matrix().unwrap(), m);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn errors_are_typed() {
        let mut out = Vec::new();
        header(&mut out, *b"TEST", 7);
        let header_of = |bytes| Reader::new(bytes).expect_header(*b"TEST", 7);
        assert_eq!(header_of(&out[..7]), Err(CodecError::Truncated));
        assert_eq!(header_of(b"TSET\x07\0\0\0"), Err(CodecError::BadMagic));
        assert_eq!(
            header_of(b"TEST\x08\0\0\0"),
            Err(CodecError::UnsupportedVersion(8))
        );

        // A count may not exceed the bytes behind it, whatever they are.
        let mut lying = Vec::new();
        put_u64(&mut lying, 3);
        lying.extend_from_slice(&[0; 2]);
        assert_eq!(
            Reader::new(&lying).count(),
            Err(CodecError::CountExceedsBuffer {
                count: 3,
                remaining: 2
            })
        );
        // Bulk reads check `n · width`, overflow included, before
        // allocating.
        for n in [2, usize::MAX / 8 + 1, usize::MAX] {
            assert!(matches!(
                Reader::new(&[0; 15]).f64s(n),
                Err(CodecError::CountExceedsBuffer { remaining: 15, .. })
            ));
        }
        assert!(matches!(
            Reader::new(&[0; 64]).matrix_body(usize::MAX, 2),
            Err(CodecError::CountExceedsBuffer { .. })
        ));
        assert_eq!(Reader::new(&[0xff, 0xfe]).utf8(2), Err(CodecError::NotUtf8));
        assert_eq!(
            Reader::new(&[0; 3]).finish(),
            Err(CodecError::TrailingBytes(3))
        );
        // An error converts into the core crate's error kind.
        assert!(matches!(
            CoreError::from(CodecError::Truncated),
            CoreError::InvalidState { .. }
        ));
    }

    /// One test for every `save` built on [`write_atomic`]: the temp
    /// file is a sibling named after the whole file name, it is gone
    /// after a successful write, and a failed write leaves the previous
    /// contents in place.
    #[test]
    fn write_atomic_renames_a_sibling_temp_into_place() {
        let dir = std::env::temp_dir().join(format!("netanom-codec-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();

        // Two paths that differ only in extension, saved alternately:
        // each keeps its own image, and neither goes through `ckpt.tmp`,
        // the one name that swapping the extension for `tmp` gives both.
        let (a, b) = (dir.join("ckpt.0"), dir.join("ckpt.1"));
        let shared = dir.join("ckpt.tmp");
        fs::write(&shared, b"not ours").unwrap();
        for round in 0u8..3 {
            write_atomic(&a, &[b'a', round]).unwrap();
            write_atomic(&b, &[b'b', round]).unwrap();
            assert_eq!(fs::read(&a).unwrap(), [b'a', round]);
            assert_eq!(fs::read(&b).unwrap(), [b'b', round]);
        }
        assert_eq!(fs::read(&shared).unwrap(), b"not ours");
        let mut left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        left.sort();
        assert_eq!(left, ["ckpt.0", "ckpt.1", "ckpt.tmp"], "no temp remains");

        // The rename step fails (the destination is a non-empty
        // directory): the error says which step, and what was there
        // before is untouched.
        let occupied = dir.join("occupied");
        fs::create_dir_all(occupied.join("child")).unwrap();
        let err = write_atomic(&occupied, b"new").unwrap_err();
        assert!(err.to_string().contains("renaming into"), "{err}");
        assert!(occupied.join("child").is_dir());
        // The write step fails (no such directory): nothing is created.
        let err = write_atomic(&dir.join("missing/ckpt"), b"new").unwrap_err();
        assert!(err.to_string().contains("writing"), "{err}");
        assert_eq!(fs::read(&a).unwrap(), [b'a', 2]);

        fs::remove_dir_all(&dir).unwrap();
    }
}
