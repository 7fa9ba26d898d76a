//! Little-endian wire primitives.
//!
//! Writers append to a `Vec<u8>`; readers are a bounds-checked [`Cursor`]
//! over one section payload. Two rules keep hostile input harmless:
//!
//! 1. Reading past the slice is [`StoreError::Truncated`] — but inside a
//!    section whose checksum already verified, a length that overruns the
//!    payload means the *writer* lied, so collection headers are checked
//!    against the remaining bytes and overruns are
//!    [`StoreError::Corrupt`].
//! 2. No allocation trusts a declared length: capacities are capped by
//!    the bytes actually present, so a forged 2⁶⁰-element header cannot
//!    OOM the loader.
//!
//! Floats travel as IEEE-754 bit patterns (`to_bits`/`from_bits`), which
//! makes serialisation bit-exact and re-saves byte-identical.

use crate::err::StoreError;

// ----- writing ----------------------------------------------------------

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as `u64`.
pub fn put_len(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an optional `u32` as a presence tag plus value.
pub fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            put_u8(buf, 1);
            put_u32(buf, x);
        }
        None => put_u8(buf, 0),
    }
}

/// Appends a `u32` slice as a length-prefixed array.
pub fn put_u32s(buf: &mut Vec<u8>, vs: &[u32]) {
    put_len(buf, vs.len());
    for &v in vs {
        put_u32(buf, v);
    }
}

// ----- reading ----------------------------------------------------------

/// A bounds-checked reader over one section payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(StoreError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a scalar `usize` written by [`put_len`] (a count that is NOT
    /// a collection header — census numbers, config knobs). No capacity
    /// check applies; overflow of the platform's `usize` is corruption.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let raw = self.u64()?;
        usize::try_from(raw)
            .map_err(|_| StoreError::Corrupt(format!("value {raw} overflows usize")))
    }

    /// Reads a `u64` length written by [`put_len`] and validates that
    /// `len · elem_size` elements can still be present in this payload.
    /// An overrun is writer dishonesty, not a short file: [`StoreError::Corrupt`].
    pub fn len(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let raw = self.u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| StoreError::Corrupt(format!("collection length {raw} overflows usize")))?;
        let need = len.checked_mul(elem_size.max(1)).ok_or_else(|| {
            StoreError::Corrupt(format!("collection length {len} overflows the payload"))
        })?;
        if need > self.remaining() {
            return Err(StoreError::Corrupt(format!(
                "collection claims {len} elements ({need} bytes) but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("string is not valid UTF-8".into()))
    }

    /// Reads an optional `u32` written by [`put_opt_u32`].
    pub fn opt_u32(&mut self) -> Result<Option<u32>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            tag => Err(StoreError::Corrupt(format!("invalid option tag {tag}"))),
        }
    }

    /// Reads a length-prefixed `u32` array.
    pub fn u32s(&mut self) -> Result<Vec<u32>, StoreError> {
        let len = self.len(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(&self, section: &str) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "section `{section}` has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_str(&mut buf, "snapshot ✓");
        put_opt_u32(&mut buf, Some(42));
        put_opt_u32(&mut buf, None);
        put_u32s(&mut buf, &[1, 2, 3]);

        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        // -0.0 survives bit-exactly (a plain == would accept +0.0).
        assert_eq!(c.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.str().unwrap(), "snapshot ✓");
        assert_eq!(c.opt_u32().unwrap(), Some(42));
        assert_eq!(c.opt_u32().unwrap(), None);
        assert_eq!(c.u32s().unwrap(), vec![1, 2, 3]);
        c.finish("test").unwrap();
    }

    #[test]
    fn short_reads_are_truncated() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(matches!(c.u32(), Err(StoreError::Truncated)));
    }

    #[test]
    fn forged_lengths_are_corrupt_not_oom() {
        // A u64 length far beyond the payload must fail fast without
        // allocating.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2);
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.u32s(), Err(StoreError::Corrupt(_))));

        let mut buf = Vec::new();
        put_u64(&mut buf, 10); // claims 10 strings but provides none
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.len(4), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_and_tags_are_corrupt() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(Cursor::new(&buf).str(), Err(StoreError::Corrupt(_))));

        let buf = [9u8];
        assert!(matches!(Cursor::new(&buf).opt_u32(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let c = Cursor::new(&[0, 0]);
        assert!(matches!(c.finish("x"), Err(StoreError::Corrupt(_))));
    }
}
