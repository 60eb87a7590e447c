//! The encoder: appends length-exact fields — LEB128 varints or fixed-width
//! big-endian words — to a growable buffer.

use bytes::{BufMut, BytesMut};

use crate::wire::WireType;

/// Bytes [`Encoder::put_uvarint`] writes for `v`: one per started 7-bit
/// group, 1 for values < 128, 10 for `u64::MAX`. Lets a size be computed
/// (`Envelope::wire_size`) without encoding anything.
pub const fn uvarint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Append-only encoder producing network-order bytes.
///
/// Integers are written in a byte order fixed by the format, never by the
/// host architecture: uvarints low group first, fixed-width words
/// **big-endian** — this is the "architecture independent form" of the
/// paper's §4.2. Which integer gets which form is decided in
/// [`crate::codec`]. Encoding never fails; the buffer grows as needed.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
        }
    }

    /// Create an encoder with pre-reserved capacity (hot paths in the
    /// runtime manager encode many small messages; reserving avoids
    /// re-allocation per the perf-book guidance).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Consume the encoder, returning a frozen zero-copy buffer.
    pub fn finish_bytes(self) -> bytes::Bytes {
        self.buf.freeze()
    }

    /// Reset to empty, keeping the allocated capacity. Hot paths hold one
    /// scratch `Encoder` per host and `clear` it between messages instead
    /// of constructing a fresh buffer per message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, without consuming the encoder.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Copy the written bytes out as a frozen buffer, leaving the encoder
    /// (and its capacity) intact for reuse. Small messages (the common
    /// case on the wire) land in `Bytes`' inline representation with no
    /// heap allocation at all; larger ones pay one exact-size copy — the
    /// same cost `finish_bytes` pays for its shared buffer, minus the
    /// per-message scratch allocation.
    pub fn snapshot_bytes(&self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.buf)
    }

    // ---- raw primitive writers (untagged) ----

    /// Write a single raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a big-endian u16 (a fixed field of a format outside the
    /// [`crate::Codec`] rule, such as the `.vct` recording header).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Write a big-endian u32 (a fixed field of a format outside the
    /// [`crate::Codec`] rule; a `u32` value is a uvarint).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Write a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Write a big-endian i64 (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Write a u64 as an LEB128 varint (7 value bits per byte, low group
    /// first, high bit = continuation): 1 byte for values < 128, at most
    /// 10 bytes. Used where small values dominate — e.g. the `.vct` trace
    /// format's delta-encoded event records.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.put_u8((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.put_u8(v as u8);
    }

    /// Write a big-endian IEEE-754 binary64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64(v);
    }

    /// Write a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Write a uvarint length prefix followed by the raw bytes: the one
    /// prefix every string, payload and byte field carries.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_uvarint(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Append bytes that are already in wire form, with no prefix — the
    /// counterpart of [`crate::Decoder::consumed_since`].
    pub fn put_raw(&mut self, wire: &[u8]) {
        self.buf.put_slice(wire);
    }

    /// Write a uvarint length prefix followed by UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_len_bytes(s.as_bytes());
    }

    /// Write a wire-type tag byte.
    pub fn put_tag(&mut self, t: WireType) {
        self.buf.put_u8(t.as_byte());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut e = Encoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.finish(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn i64_two_complement() {
        let mut e = Encoder::new();
        e.put_i64(-1);
        assert_eq!(e.finish(), vec![0xff; 8]);
    }

    #[test]
    fn str_is_length_prefixed() {
        let mut e = Encoder::new();
        e.put_str("ab");
        assert_eq!(e.finish(), vec![2, b'a', b'b']);
    }

    #[test]
    fn raw_bytes_are_appended_verbatim() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_raw(&[2, b'a', b'b']);
        assert_eq!(e.finish(), vec![1, 2, b'a', b'b']);
    }

    #[test]
    fn uvarint_len_is_what_put_uvarint_writes() {
        let mut cases = vec![0u64, 1, u64::MAX];
        for shift in (7..64).step_by(7) {
            cases.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        cases.extend([1 << 63, u64::from(u32::MAX), u64::from(u32::MAX) + 1]);
        for v in cases {
            let mut e = Encoder::new();
            e.put_uvarint(v);
            assert_eq!(uvarint_len(v), e.len(), "{v:#x}");
        }
    }

    #[test]
    fn uvarint_bytes_prefix_is_one_byte_for_short_buffers() {
        let mut e = Encoder::new();
        e.put_len_bytes(b"ab");
        e.put_len_bytes(&[7u8; 128]);
        let out = e.finish();
        assert_eq!(&out[..3], &[2, b'a', b'b']);
        assert_eq!(&out[3..5], &[0x80, 0x01]);
        assert_eq!(out.len(), 3 + 2 + 128);
    }

    #[test]
    fn with_capacity_reserves() {
        let e = Encoder::with_capacity(64);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn clear_and_snapshot_reuse_the_buffer() {
        let mut e = Encoder::with_capacity(64);
        e.put_u32(0xAABB_CCDD);
        let first = e.snapshot_bytes();
        assert_eq!(&first[..], &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(e.as_slice(), &first[..]); // snapshot does not consume
        e.clear();
        assert!(e.is_empty());
        e.put_u8(7);
        let second = e.snapshot_bytes();
        assert_eq!(&second[..], &[7]);
        assert_eq!(&first[..], &[0xAA, 0xBB, 0xCC, 0xDD]); // unaffected
    }

    #[test]
    fn f64_bits_round() {
        let mut e = Encoder::new();
        e.put_f64(1.5);
        let bytes = e.finish();
        assert_eq!(bytes, 1.5f64.to_be_bytes().to_vec());
    }
}
