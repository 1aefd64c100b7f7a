//! Checked length-prefixed little-endian framing — the workspace's one
//! byte codec, for messages on the simulated wire and artifacts on disk
//! alike (scalars and `u32`-length-prefixed slices).
//!
//! - **writes guard their length conversions** — a slice longer than
//!   `u32::MAX` panics with a clear message instead of silently
//!   truncating the prefix and corrupting the frame;
//! - **reads are fallible** — every accessor returns a [`WireError`]
//!   instead of panicking, so a truncated or garbage cache file
//!   degrades to a cache miss, a skewed checkpoint to a cold start, and
//!   a malformed message to an error naming its sender, rather than
//!   aborting the run.

use std::fmt;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The content was structurally invalid (bad magic, inconsistent
    /// lengths, out-of-range values).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convert a slice length to the `u32` wire prefix, panicking with a
/// clear message when it cannot be represented (encoding it truncated
/// would produce a frame that decodes to garbage).
#[inline]
pub fn checked_len(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("slice of {len} bytes exceeds the u32 length prefix (max {})", u32::MAX))
}

/// Append-only encoder over a plain byte vector.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// New writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(checked_len(v.len()));
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) -> &mut Self {
        self.put_u32(checked_len(v.len()));
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) -> &mut Self {
        self.put_u32(checked_len(v.len()));
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Fallible decoder over a received byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { needed: n, have: self.buf.len() });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read exactly `n` raw (unprefixed) bytes — for fixed-size fields
    /// whose length is established out of band.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::Malformed("invalid UTF-8 string"))
    }

    /// Read a length-prefixed `u32` slice.
    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len.checked_mul(4).ok_or(WireError::Malformed("u32 slice length overflow"))?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Read a length-prefixed `u64` slice.
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len.checked_mul(8).ok_or(WireError::Malformed("u64 slice length overflow"))?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Assert full consumption — trailing bytes mean the frame and the
    /// decoder disagree about the schema.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after frame"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut w = Writer::new();
        w.put_u8(7).put_u32(1 << 20).put_u64(1 << 40).put_bytes(b"payload").put_str("header");
        w.put_u32_slice(&[1, 2, 3]).put_u64_slice(&[u64::MAX, 0]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 1 << 20);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_str().unwrap(), "header");
        assert_eq!(r.get_u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_slice().unwrap(), vec![u64::MAX, 0]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = Writer::new();
        w.put_bytes(b"hello").put_u32(9);
        let buf = w.finish();
        // Cut the frame at every possible point: each prefix must either
        // decode or error, never panic.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let _ = r.get_bytes().and_then(|_| r.get_u32());
        }
        let mut r = Reader::new(&buf[..3]);
        assert_eq!(r.get_u32(), Err(WireError::Truncated { needed: 4, have: 3 }));
    }

    #[test]
    fn announced_length_beyond_buffer_errors() {
        // A corrupt length prefix claiming 1 GiB of content.
        let mut w = Writer::new();
        w.put_u32(1 << 30).put_u8(0);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u32(1).put_u32(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.get_u32().unwrap();
        assert_eq!(r.expect_end(), Err(WireError::Malformed("trailing bytes after frame")));
    }

    #[test]
    fn checked_len_boundary() {
        assert_eq!(checked_len(0), 0);
        assert_eq!(checked_len(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 length prefix")]
    fn checked_len_overflow_panics() {
        let _ = checked_len(u32::MAX as usize + 1);
    }

    #[test]
    fn bad_utf8_is_malformed() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str(), Err(WireError::Malformed("invalid UTF-8 string")));
    }
}
