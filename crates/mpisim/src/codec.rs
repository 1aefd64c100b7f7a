//! Length-prefixed little-endian binary codec for message payloads.
//!
//! Deliberately tiny: the framework's messages are flat arrays of
//! integers and code bytes, so a handful of primitives suffices and the
//! wire size stays predictable (important for the cost model).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Convert a slice length to the `u32` wire prefix, panicking with a
/// clear message when it cannot be represented. The unchecked
/// `len as u32` it replaces would silently truncate the prefix and
/// encode a frame that decodes to garbage.
#[inline]
pub fn checked_len(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("slice of {len} items exceeds the u32 length prefix (max {})", u32::MAX))
}

/// Encoder over a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: BytesMut::new() }
    }

    /// New encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: BytesMut::with_capacity(cap) }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append an `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32_le(checked_len(v.len()));
        self.buf.put_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) -> &mut Self {
        self.buf.put_u32_le(checked_len(v.len()));
        for &x in v {
            self.buf.put_u32_le(x);
        }
        self
    }

    /// Finish and take the payload.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Decoder over a received payload.
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Wrap a payload.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        self.buf.get_u8()
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> u32 {
        self.buf.get_u32_le()
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        self.buf.get_u64_le()
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> f64 {
        self.buf.get_f64_le()
    }

    /// Read a length-prefixed byte slice (zero-copy).
    pub fn get_bytes(&mut self) -> Bytes {
        let len = self.buf.get_u32_le() as usize;
        self.buf.split_to(len)
    }

    /// Read a length-prefixed UTF-8 string (lossy on invalid bytes —
    /// wire strings are always produced by [`Encoder::put_str`]).
    pub fn get_str(&mut self) -> String {
        String::from_utf8_lossy(&self.get_bytes()).into_owned()
    }

    /// Read a length-prefixed `u32` slice.
    pub fn get_u32_slice(&mut self) -> Vec<u32> {
        let len = self.buf.get_u32_le() as usize;
        (0..len).map(|_| self.buf.get_u32_le()).collect()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(4).put_u32(7).put_u64(1 << 40).put_f64(0.25);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_u8(), 4);
        assert_eq!(d.get_u32(), 7);
        assert_eq!(d.get_u64(), 1 << 40);
        assert_eq!(d.get_f64(), 0.25);
        assert!(d.is_empty());
    }

    #[test]
    fn roundtrip_slices() {
        let mut e = Encoder::new();
        e.put_bytes(b"payload").put_u32_slice(&[1, 2, 3]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(&d.get_bytes()[..], b"payload");
        assert_eq!(d.get_u32_slice(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_slices() {
        let mut e = Encoder::new();
        e.put_bytes(b"").put_u32_slice(&[]);
        let mut d = Decoder::new(e.finish());
        assert!(d.get_bytes().is_empty());
        assert!(d.get_u32_slice().is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn roundtrip_str() {
        let mut e = Encoder::new();
        e.put_str("pgasm").put_str("");
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_str(), "pgasm");
        assert_eq!(d.get_str(), "");
        assert!(d.is_empty());
    }

    #[test]
    fn length_prefix_boundary_is_exact() {
        // The guard must pass through every representable length
        // unchanged — `u32::MAX` itself is the last legal value…
        assert_eq!(checked_len(0), 0);
        assert_eq!(checked_len(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 length prefix")]
    fn length_prefix_overflow_panics_loudly() {
        // …and one past it must panic with a clear message instead of
        // truncating to 0 and encoding a corrupt frame.
        let _ = checked_len(u32::MAX as usize + 1);
    }

    #[test]
    fn interleaved_sequences() {
        let mut e = Encoder::new();
        for i in 0..10u32 {
            e.put_u32(i).put_bytes(&vec![i as u8; i as usize]);
        }
        let mut d = Decoder::new(e.finish());
        for i in 0..10u32 {
            assert_eq!(d.get_u32(), i);
            assert_eq!(d.get_bytes().len(), i as usize);
        }
    }
}
