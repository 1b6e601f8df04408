//! Canonical wire encoding.
//!
//! Every byte string signed by the SCPU — attributes, head/base
//! certificates, window bounds, deletion proofs, audit anchors — and
//! every audit event hashed into the chain must have exactly one
//! encoding, or Mallory could shift field boundaries to make one signed
//! message parse as another. [`WireWriter`]/[`WireReader`] provide a tiny
//! deterministic TLV-free format: fixed-width integers big-endian,
//! variable-length byte strings with `u32` length prefixes, in a fixed
//! field order defined by each caller. This is the stack's only
//! implementation of it (`strongworm::wire` is a re-export).
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use std::ops::Range;

/// Largest byte string a `u32` length prefix can describe. Encoders must
/// reject anything longer — `v.len() as u32` would silently wrap and
/// produce a *valid-looking but corrupt* canonical encoding.
pub const MAX_WIRE_BYTES: u64 = 0xFFFF_FFFF;

/// Canonical encoder.
#[derive(Clone, Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer pre-tagged with a domain-separation label.
    pub fn tagged(tag: &str) -> Self {
        let mut w = Self::new();
        w.put_bytes(tag.as_bytes());
        w
    }

    /// What `put` writes into a fresh writer: how an owned `encode_*`
    /// is made from the in-place writer that defines a layout.
    pub fn encoded(put: impl FnOnce(&mut Self)) -> Vec<u8> {
        let mut w = Self::new();
        put(&mut w);
        w.finish()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`, big-endian.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u64`, big-endian.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `v` is longer than [`MAX_WIRE_BYTES`] — a length that
    /// cannot be represented in the `u32` prefix must never be silently
    /// truncated into a corrupt encoding. Callers encoding data whose
    /// size is not already bounded should use
    /// [`WireWriter::try_put_bytes_with`].
    #[expect(
        clippy::expect_used,
        reason = "the documented contract above: encoders feeding unbounded data must use try_put_bytes_with; silently truncating a length prefix would mint a corrupt canonical encoding"
    )]
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        let len = u32::try_from(v.len()).expect("byte string exceeds the u32 length prefix");
        self.put_u32(len);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Appends a collection count into a `u32` slot.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` — mirrors [`WireWriter::put_bytes`]:
    /// a count the prefix cannot represent must never wrap into a
    /// valid-looking but corrupt canonical encoding.
    #[expect(
        clippy::expect_used,
        reason = "documented contract above: a count above u32::MAX must halt rather than wrap into a corrupt canonical encoding, and every in-memory collection this stack encodes sits orders of magnitude below that bound"
    )]
    pub fn put_count(&mut self, n: usize) -> &mut Self {
        self.put_u32(u32::try_from(n).expect("collection count exceeds the u32 wire slot"))
    }

    /// Appends a length-prefixed nested encoding written in place.
    ///
    /// Byte-identical to building the nested encoding in its own writer
    /// and appending it with [`WireWriter::put_bytes`], without the
    /// intermediate allocation and copy — the `u32` prefix is reserved
    /// up front and backpatched once the closure has written the body.
    ///
    /// # Panics
    ///
    /// Panics if the nested body exceeds [`MAX_WIRE_BYTES`] — same
    /// contract as [`WireWriter::put_bytes`].
    pub fn put_nested<F: FnOnce(&mut Self)>(&mut self, f: F) -> &mut Self {
        let Ok(()) = self.try_put_nested(|w| {
            f(w);
            Ok::<(), std::convert::Infallible>(())
        });
        self
    }

    /// [`WireWriter::put_nested`] for a body that can fail part-way (a
    /// record read from the store): on `Err` the writer is truncated
    /// back to where it stood, so a failed body leaves no bytes behind.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns.
    ///
    /// # Panics
    ///
    /// As [`WireWriter::put_nested`].
    #[expect(
        clippy::expect_used,
        reason = "mirrors the put_bytes contract: a nested body the u32 prefix cannot represent must halt rather than mint a corrupt canonical encoding"
    )]
    pub fn try_put_nested<E>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        let at = self.buf.len();
        self.put_u32(0);
        if let Err(e) = f(self) {
            self.buf.truncate(at);
            return Err(e);
        }
        let body_len = self.buf.len() - at - 4;
        let prefix = u32::try_from(body_len).expect("nested body exceeds u32 prefix");
        if let Some(slot) = self.buf.get_mut(at..at + 4) {
            slot.copy_from_slice(&prefix.to_be_bytes());
        }
        Ok(())
    }

    /// Appends a length-prefixed byte string of `len` bytes that `fill`
    /// writes in place — byte-identical to [`WireWriter::put_bytes`] of
    /// the same bytes, without staging them in a buffer of their own.
    /// On `Err` the writer is truncated back to where it stood.
    ///
    /// # Errors
    ///
    /// [`WireError`] (converted) if `len` exceeds [`MAX_WIRE_BYTES`];
    /// otherwise whatever `fill` returns.
    pub fn try_put_bytes_with<E: From<WireError>>(
        &mut self,
        len: u64,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let too_long = WireError {
            expected: "byte string within u32 length range",
        };
        let prefix = u32::try_from(len).map_err(|_| too_long)?;
        let body = usize::try_from(prefix).map_err(|_| too_long)?;
        let at = self.buf.len();
        self.put_u32(prefix);
        self.buf.resize(at + 4 + body, 0);
        let filled = fill(self.buf.get_mut(at + 4..).unwrap_or_default());
        if filled.is_err() {
            self.buf.truncate(at);
        }
        filled
    }

    /// Drops everything written past `len` (no-op when `len` is not
    /// below the current length): how a caller that owns a mark rolls a
    /// partially written message back.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl From<Vec<u8>> for WireWriter {
    /// A writer that appends to `buf`, keeping what it already holds
    /// (and its capacity): how a server encodes straight into a
    /// connection's output buffer. [`WireWriter::finish`] hands the
    /// buffer back.
    fn from(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }
}

/// Decoding error: input too short or malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What the reader was trying to decode.
    pub expected: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated or malformed wire data while reading {}",
            self.expected
        )
    }
}

impl std::error::Error for WireError {}

/// Canonical decoder over a byte slice.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    /// Length of the slice the reader was created over.
    len: usize,
}

impl<'a> WireReader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            len: buf.len(),
        }
    }

    /// Reader over `buf` past its domain-separation label — the
    /// counterpart of [`WireWriter::tagged`].
    ///
    /// # Errors
    ///
    /// [`WireError`] naming `expected` if `buf` opens with another label.
    pub fn tagged(buf: &'a [u8], tag: &str, expected: &'static str) -> Result<Self, WireError> {
        let mut r = Self::new(buf);
        if r.get_str()? != tag {
            return Err(WireError { expected });
        }
        Ok(r)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let (&first, rest) = self.buf.split_first().ok_or(WireError { expected: "u8" })?;
        self.buf = rest;
        Ok(first)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<4>()
            .ok_or(WireError { expected: "u32" })?;
        self.buf = rest;
        Ok(u32::from_be_bytes(*head))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<8>()
            .ok_or(WireError { expected: "u64" })?;
        self.buf = rest;
        Ok(u64::from_be_bytes(*head))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// The returned slice borrows the input, so a hostile length prefix
    /// can never allocate: the claimed length is checked against the
    /// bytes actually present *before* anything is consumed.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the prefix or payload is truncated.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.get_u32()?).map_err(|_| WireError {
            expected: "length within address space",
        })?;
        if self.buf.len() < len {
            return Err(WireError { expected: "bytes" });
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a length-prefixed byte string and returns where it sits in
    /// the slice this reader was created over, so a caller holding that
    /// slice in a refcounted buffer can share the bytes instead of
    /// copying them.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the prefix or payload is truncated.
    pub fn get_range(&mut self) -> Result<Range<usize>, WireError> {
        let len = self.get_bytes()?.len();
        let end = self.len - self.buf.len();
        Ok(end - len..end)
    }

    /// Reads a `u32` collection count as `usize`, rejecting one above
    /// `max`: the caller's cap on what a corrupt or hostile count may
    /// size or drive, stated where the count is read.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, or naming `expected` for a count
    /// above `max`.
    pub fn get_count_within(
        &mut self,
        max: usize,
        expected: &'static str,
    ) -> Result<usize, WireError> {
        match usize::try_from(self.get_u32()?) {
            Ok(n) if n <= max => Ok(n),
            _ => Err(WireError { expected }),
        }
    }

    /// Reads a length-prefixed byte string, additionally rejecting any
    /// string longer than `max` bytes.
    ///
    /// Decoders that copy the result into owned storage (network frames,
    /// journal records) use this to bound what an untrusted length prefix
    /// can make them allocate, independent of the total input size.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or when the string exceeds `max`.
    pub fn get_bytes_bounded(&mut self, max: usize) -> Result<&'a [u8], WireError> {
        let b = self.get_bytes()?;
        if b.len() > max {
            return Err(WireError {
                expected: "byte string within decoder bound",
            });
        }
        Ok(b)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| WireError {
            expected: "utf-8 string",
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError`] if trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError {
                expected: "end of input",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::tagged("test.v1");
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_bytes(b"payload")
            .put_str("név");
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_str().unwrap(), "test.v1");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_str().unwrap(), "név");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = WireWriter::new();
        w.put_u64(1).put_bytes(b"abc");
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            let ok = r.get_u64().and_then(|_| r.get_bytes().map(|_| ()));
            assert!(ok.is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn length_prefix_cannot_overread() {
        // Claimed length 100 with only 2 payload bytes.
        let mut raw = 100u32.to_be_bytes().to_vec();
        raw.extend_from_slice(b"ab");
        assert!(WireReader::new(&raw).get_bytes().is_err());
    }

    #[test]
    fn ranges_index_the_source_slice() {
        let mut w = WireWriter::new();
        w.put_u64(9)
            .put_bytes(b"first")
            .put_bytes(b"")
            .put_bytes(b"last");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        r.get_u64().unwrap();
        assert_eq!(&buf[r.get_range().unwrap()], b"first");
        assert!(r.get_range().unwrap().is_empty());
        assert_eq!(&buf[r.get_range().unwrap()], b"last");
        assert!(r.get_range().is_err());
    }

    #[test]
    fn in_place_writers_match_put_bytes_and_roll_back_on_error() {
        // What staging each body in a writer of its own would produce.
        let mut inner = WireWriter::new();
        inner.put_u64(7).put_bytes(b"payload");
        let mut staged = WireWriter::tagged("outer.v1");
        staged.put_bytes(&inner.finish());

        // Written in place, appending to a buffer that already holds bytes.
        let mut w = WireWriter::from(b"kept".to_vec());
        w.put_str("outer.v1");
        w.try_put_nested(|w| {
            w.put_u64(7);
            w.try_put_bytes_with(7, |dst| {
                dst.copy_from_slice(b"payload");
                Ok::<(), WireError>(())
            })
        })
        .unwrap();
        let good = w.len();
        let mut expected = b"kept".to_vec();
        expected.extend_from_slice(&staged.finish());
        assert_eq!(w.clone().finish(), expected);

        // A body that fails part-way leaves nothing behind, at either level.
        let failed = w.try_put_nested(|w| {
            w.put_u64(9);
            w.try_put_bytes_with(3, |_| Err(WireError { expected: "fill" }))
        });
        assert_eq!(failed.unwrap_err().expected, "fill");
        assert_eq!(w.len(), good);
        w.put_u8(1).put_u8(2);
        w.truncate(good);
        w.truncate(good + 10);
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        let mut buf = w.finish();
        buf.push(99);
        let mut r = WireReader::new(&buf);
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        assert!(WireReader::new(&buf).get_str().is_err());
    }

    /// Regression: `put_bytes` used to truncate lengths ≥ 4 GiB via
    /// `len as u32`, silently producing a corrupt canonical encoding.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_byte_string_rejected_not_truncated() {
        // The length check fails before anything is written or sized.
        let mut w = WireWriter::new();
        let fill = |_: &mut [u8]| Ok::<(), WireError>(());
        assert!(w.try_put_bytes_with(MAX_WIRE_BYTES + 1, fill).is_err());
        // The failed append must not leave a partial prefix behind.
        assert!(w.is_empty());
        // The largest representable length is still accepted in principle:
        // lengths at the boundary round-trip through the prefix.
        assert_eq!(u32::try_from(MAX_WIRE_BYTES).unwrap(), u32::MAX);
    }

    #[test]
    fn bounded_get_bytes_enforces_cap() {
        let mut w = WireWriter::new();
        w.put_bytes(&[7u8; 100]);
        let buf = w.finish();
        assert!(WireReader::new(&buf).get_bytes_bounded(99).is_err());
        assert_eq!(
            WireReader::new(&buf).get_bytes_bounded(100).unwrap().len(),
            100
        );
    }

    #[test]
    fn field_shifting_changes_encoding() {
        // ("ab", "c") and ("a", "bc") must encode differently.
        let mut w1 = WireWriter::new();
        w1.put_bytes(b"ab").put_bytes(b"c");
        let mut w2 = WireWriter::new();
        w2.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(w1.finish(), w2.finish());
    }
}
