//! The decoder: reads the fields [`crate::Encoder`] writes from a byte
//! slice, with bounds and sanity checking.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::error::{CodecError, Result};
use crate::wire::WireType;

/// Maximum length prefix the decoder will accept, guarding against a
/// corrupted message causing a multi-gigabyte allocation on a daemon.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Maximum nesting depth for dynamic [`Value`](crate::Value) decoding.
pub const MAX_DEPTH: usize = 64;

/// Cursor over a received wire buffer.
///
/// Every read is bounds-checked; malformed input yields a [`CodecError`]
/// rather than a panic, because in the VCE a message may arrive from any
/// machine on the network and daemons must survive garbage.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
    /// When decoding straight out of a refcounted buffer, the owner — lets
    /// [`Decoder::get_bytes`] return zero-copy sub-views of it.
    backing: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    /// Start decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            depth: 0,
            backing: None,
        }
    }

    /// Start decoding a [`Bytes`] buffer, remembering it as the backing
    /// store so [`Decoder::get_bytes`] can hand out zero-copy sub-views
    /// (`Bytes::slice_ref`) instead of copying payloads out.
    pub fn with_backing(buf: &'a Bytes) -> Self {
        Self {
            buf,
            pos: 0,
            depth: 0,
            backing: Some(buf),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset (useful in error reports).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    // ---- raw primitive readers (untagged) ----

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64 (see [`crate::Encoder::put_u64`]: the `.vct`
    /// recorder's fixed fields, not a `u64` value).
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("slice len 8")))
    }

    /// Read an LEB128 varint u64 (see [`crate::Encoder::put_uvarint`]).
    /// Rejects encodings longer than 10 bytes, 10-byte encodings whose
    /// final group overflows 64 bits, and padded ones (a multi-byte
    /// encoding ending in a zero group, e.g. `80 00` for 0): every value
    /// has exactly one encoding, the one the encoder writes.
    pub fn get_uvarint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            if (shift == 63 && b > 1) || (shift > 0 && b == 0) {
                break; // 10th byte may only carry the final bit; no padding
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(CodecError::InvalidDiscriminant {
            value: v,
            type_name: "uvarint (overlong, padded or >64-bit encoding)",
        })
    }

    /// Read a uvarint that must fit a `T` (every narrow unsigned type,
    /// node and port numbers): a larger value is refused as an invalid
    /// `type_name`, never truncated.
    pub fn get_uvarint_as<T: TryFrom<u64>>(&mut self, type_name: &'static str) -> Result<T> {
        let value = self.get_uvarint()?;
        T::try_from(value).map_err(|_| CodecError::InvalidDiscriminant { value, type_name })
    }

    /// Read an IEEE-754 binary64 written by [`crate::Encoder::put_f64`]:
    /// the uvarint of its byte-swapped bits. Total: every uvarint is some
    /// `f64`, and a padded one is refused like any other.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_uvarint()?.swap_bytes()))
    }

    /// Read a boolean byte, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidBool(other)),
        }
    }

    /// Read a uvarint length prefix followed by that many raw bytes. The
    /// length is checked against [`MAX_LEN`] and then against what is
    /// left before anything is taken.
    pub fn get_len_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_uvarint()?;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow {
                declared: len,
                limit: MAX_LEN,
            });
        }
        self.take(len as usize)
    }

    /// [`Decoder::get_len_bytes`] as an owned [`Bytes`]. With a backing
    /// buffer ([`Decoder::with_backing`]) this is zero-copy — the result is
    /// a sub-view sharing the backing allocation; otherwise the bytes are
    /// copied out.
    pub fn get_bytes(&mut self) -> Result<Bytes> {
        let s = self.get_len_bytes()?;
        Ok(self.owned(s))
    }

    /// `s` (a sub-slice of the buffer) as an owned [`Bytes`]: a view of the
    /// backing buffer when there is one, a copy otherwise.
    fn owned(&self, s: &[u8]) -> Bytes {
        match self.backing {
            Some(b) => b.slice_ref(s),
            None => Bytes::copy_from_slice(s),
        }
    }

    /// Everything consumed since `start` (an earlier [`Decoder::position`]),
    /// as an owned [`Bytes`] — zero-copy under the same rule as
    /// [`Decoder::get_bytes`]. Lets a type keep a span it has just validated
    /// field by field in wire form instead of rebuilding it on the heap.
    ///
    /// # Panics
    /// Panics if `start` lies past the current position.
    pub fn consumed_since(&self, start: usize) -> Bytes {
        self.owned(&self.buf[start..self.pos])
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let bytes = self.get_len_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Read a wire-type tag byte.
    pub fn get_tag(&mut self) -> Result<WireType> {
        WireType::from_byte(self.get_u8()?)
    }

    /// Read a tag and require it to be `expected`.
    pub fn expect_tag(&mut self, expected: WireType) -> Result<()> {
        let found = self.get_tag()?;
        if found != expected {
            return Err(CodecError::TypeMismatch { expected, found });
        }
        Ok(())
    }

    /// Read a uvarint element count, validating it against what could
    /// physically fit in the remaining buffer assuming at least
    /// `min_elem_size` bytes per element. This stops a forged count from
    /// pre-allocating unbounded memory.
    pub fn get_count(&mut self, min_elem_size: usize) -> Result<usize> {
        let count = self.get_uvarint()?;
        let fit = (self.remaining() / min_elem_size.max(1)) as u64;
        if count > fit {
            return Err(CodecError::LengthOverflow {
                declared: count,
                limit: fit,
            });
        }
        Ok(count as usize)
    }

    /// Read a count and then that many `(key, value)` entries with `entry`
    /// (each at least `min_entry_size` bytes), refusing any key that is not
    /// strictly above the one before it. Encoders write a map in key order,
    /// so each map has exactly one encoding: a duplicate or out-of-order key
    /// is a second spelling of some other map, not a map.
    pub fn get_map<K: Ord, V>(
        &mut self,
        min_entry_size: usize,
        mut entry: impl FnMut(&mut Self) -> Result<(K, V)>,
    ) -> Result<BTreeMap<K, V>> {
        let n = self.get_count(min_entry_size)?;
        let mut map = BTreeMap::new();
        for index in 0..n {
            let (k, v) = entry(self)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(CodecError::UnsortedKey { index });
            }
            map.insert(k, v);
        }
        Ok(map)
    }

    /// Enter one level of nesting, failing past [`MAX_DEPTH`].
    pub fn push_depth(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(CodecError::DepthExceeded { limit: MAX_DEPTH });
        }
        Ok(())
    }

    /// Leave one level of nesting.
    pub fn pop_depth(&mut self) {
        debug_assert!(self.depth > 0);
        self.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;

    #[test]
    fn eof_reported_with_context() {
        let mut d = Decoder::new(&[1, 2]);
        let err = d.get_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn bool_rejects_garbage() {
        let mut d = Decoder::new(&[7]);
        assert_eq!(d.get_bool(), Err(CodecError::InvalidBool(7)));
    }

    #[test]
    fn uvarint_roundtrips_across_the_range() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut e = Encoder::new();
        for &v in &cases {
            e.put_uvarint(v);
        }
        assert!(e.len() < cases.len() * 8, "varints must beat fixed width");
        let bytes = e.as_slice().to_vec();
        let mut d = Decoder::new(&bytes);
        for &v in &cases {
            assert_eq!(d.get_uvarint(), Ok(v));
        }
        assert!(d.is_empty());
    }

    #[test]
    fn uvarint_rejects_overlong_and_torn_encodings() {
        // 11 continuation bytes: more groups than 64 bits can hold.
        let overlong = [0x80u8; 11];
        assert!(Decoder::new(&overlong).get_uvarint().is_err());
        // 10th byte carrying more than the final bit overflows u64.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert!(Decoder::new(&overflow).get_uvarint().is_err());
        // Continuation bit set but the buffer ends.
        assert!(Decoder::new(&[0x80]).get_uvarint().is_err());
    }

    #[test]
    fn uvarint_has_one_encoding_per_value() {
        // Padded forms name a value the encoder writes shorter: refused.
        for padded in [
            &[0x80u8, 0x00][..],
            &[0xff, 0x80, 0x00],
            &[0x81, 0x80, 0x00],
        ] {
            assert!(
                matches!(
                    Decoder::new(padded).get_uvarint(),
                    Err(CodecError::InvalidDiscriminant { .. })
                ),
                "{padded:x?}"
            );
        }
        // Everything `put_uvarint` writes is still accepted, whole.
        for v in [0u64, 127, 128, 1 << 63, u64::MAX] {
            let mut e = Encoder::new();
            e.put_uvarint(v);
            let mut d = Decoder::new(e.as_slice());
            assert_eq!(d.get_uvarint(), Ok(v));
            assert!(d.is_empty());
        }
        // A zero byte on its own is 0, and a zero *middle* group is fine.
        assert_eq!(Decoder::new(&[0x00]).get_uvarint(), Ok(0));
        assert_eq!(Decoder::new(&[0x80, 0x80, 0x01]).get_uvarint(), Ok(1 << 14));
    }

    #[test]
    fn uvarint32_refuses_what_a_u32_cannot_hold() {
        let mut e = Encoder::new();
        e.put_uvarint(u64::from(u32::MAX));
        e.put_uvarint(u64::from(u32::MAX) + 1);
        let mut d = Decoder::new(e.as_slice());
        assert_eq!(d.get_uvarint_as::<u32>("t"), Ok(u32::MAX));
        assert_eq!(
            d.get_uvarint_as::<u32>("t"),
            Err(CodecError::InvalidDiscriminant {
                value: 1 << 32,
                type_name: "t"
            })
        );
    }

    #[test]
    fn uvarint_bytes_checks_the_length_before_taking() {
        let mut e = Encoder::new();
        e.put_len_bytes(b"a payload long enough to leave the inline form");
        let wire = e.finish_bytes();
        let mut d = Decoder::with_backing(&wire);
        let got = d.get_bytes().unwrap();
        assert_eq!(got.as_ptr(), wire[1..].as_ptr(), "a view, not a copy");
        assert!(d.is_empty());
        // Declared past MAX_LEN, and past the bytes left.
        let mut e = Encoder::new();
        e.put_uvarint(MAX_LEN + 1);
        assert!(matches!(
            Decoder::new(e.as_slice()).get_bytes(),
            Err(CodecError::LengthOverflow { .. })
        ));
        assert!(matches!(
            Decoder::new(&[5, 1, 2]).get_bytes(),
            Err(CodecError::UnexpectedEof {
                needed: 5,
                remaining: 2
            })
        ));
        // A padded length is not a second spelling of the same bytes.
        assert!(Decoder::new(&[0x82, 0x00, 1, 2]).get_len_bytes().is_err());
    }

    #[test]
    fn forged_count_rejected() {
        // Claims 1_000_000 elements (a three-byte uvarint) but only 4
        // bytes remain.
        let mut e = Encoder::new();
        e.put_uvarint(1_000_000);
        e.put_u32(0);
        let bytes = e.finish();
        assert_eq!(bytes.len(), 3 + 4);
        let mut d = Decoder::new(&bytes);
        assert_eq!(
            d.get_count(8),
            Err(CodecError::LengthOverflow {
                declared: 1_000_000,
                limit: 0
            })
        );
        // Four one-byte elements fit in 4 bytes; a fifth does not.
        assert_eq!(Decoder::new(&[4, 0, 0, 0, 0]).get_count(1), Ok(4));
        assert!(Decoder::new(&[5, 0, 0, 0, 0]).get_count(1).is_err());
    }

    #[test]
    fn str_round_trip_and_position() {
        let mut e = Encoder::new();
        e.put_str("hello");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str().unwrap(), "hello");
        assert_eq!(d.position(), bytes.len());
        assert!(d.is_empty());
    }

    #[test]
    fn consumed_since_shares_the_backing_buffer() {
        let mut e = Encoder::new();
        e.put_u64(7);
        e.put_str("a string long enough to leave the inline form");
        e.put_u8(9);
        let wire = e.finish_bytes();
        let mut d = Decoder::with_backing(&wire);
        d.get_u64().unwrap();
        let start = d.position();
        d.get_str().unwrap();
        let span = d.consumed_since(start);
        assert_eq!(&span[..], &wire[8..wire.len() - 1]);
        assert_eq!(span.as_ptr(), wire[8..].as_ptr(), "a view, not a copy");
        assert!(d.consumed_since(d.position()).is_empty());
        // Without a backing buffer the span is copied out.
        let mut d = Decoder::new(&wire);
        d.get_u64().unwrap();
        assert_eq!(&d.consumed_since(0)[..], &wire[..8]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.put_len_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str(), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn depth_guard() {
        let mut d = Decoder::new(&[]);
        for _ in 0..MAX_DEPTH {
            d.push_depth().unwrap();
        }
        assert!(matches!(
            d.push_depth(),
            Err(CodecError::DepthExceeded { .. })
        ));
    }

    #[test]
    fn expect_tag_mismatch() {
        let mut e = Encoder::new();
        e.put_tag(WireType::Str);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(
            d.expect_tag(WireType::U64),
            Err(CodecError::TypeMismatch {
                expected: WireType::U64,
                found: WireType::Str
            })
        );
    }
}
