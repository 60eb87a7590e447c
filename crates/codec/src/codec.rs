//! The static [`Codec`] trait — the stub-generated marshaling path.
//!
//! Compile-time-known message types (everything in `vce-net`, `vce-isis`,
//! `vce-exm`) implement `Codec` by field-wise composition, the way a 1994 IDL
//! compiler would have emitted XDR stubs. The encoding here is *untagged*:
//! both sides know the schema, so no `WireType` bytes are spent. The tagged,
//! self-describing path lives in [`crate::value`].
//!
//! This module decides how a number goes on the wire, once for every
//! message type built on it:
//!
//! * Every unsigned integer — `u8`, `u16`, `u32`, `u64` and `usize` — is a
//!   LEB128 uvarint ([`Encoder::put_uvarint`]): one byte below 128, ten for
//!   `u64::MAX`.
//! * Every signed integer — `i8`, `i16`, `i32` and `i64` — is a zig-zag
//!   uvarint: 0, −1, 1, −2, … map to 0, 1, 2, 3, …, so a small magnitude is
//!   short whatever its sign.
//! * `f64` (and `f32`, widened) is the uvarint of its byte-swapped bits
//!   ([`Encoder::put_f64`]): 1 byte for 0.0, 2–4 for round values such as
//!   1.5, 100.0 or 2000.0, 8–10 for one that uses its low mantissa bits
//!   (0.1 takes 10, two more than the word).
//! * Every [`impl_codec_for_enum!`] discriminant is a uvarint.
//! * Every length and count prefix is a uvarint: strings and byte fields
//!   ([`Encoder::put_len_bytes`]), `Vec` and `BTreeMap` here, and the lists
//!   and maps the protocol crates and [`crate::Value`] write by hand.
//!
//! The protocol crates choose no widths: a field goes through its type's
//! `Codec`. Fixed-width words ([`Encoder::put_u64`]) belong to formats
//! outside this rule, such as the `.vct` recorder's hashes.
//!
//! Decoding is total and strict: a uvarint has one encoding (padded forms are
//! refused), a value past its type's range is refused rather than truncated,
//! a count or length is checked against the bytes left before anything is
//! sized from it, and map keys must be strictly ascending.

use std::collections::BTreeMap;

use crate::decode::Decoder;
use crate::encode::Encoder;
use crate::error::{CodecError, Result};

/// A type that can marshal itself to and from architecture-independent bytes.
///
/// Implementations must satisfy the round-trip law
/// `decode(encode(x)) == x`, which the property tests in
/// `tests/proptest_roundtrip.rs` verify for every implementation here.
pub trait Codec: Sized {
    /// Append this value to the encoder.
    fn encode(&self, enc: &mut Encoder);
    /// Read a value of this type from the decoder.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;
}

impl Codec for () {
    fn encode(&self, _enc: &mut Encoder) {}
    fn decode(_dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(())
    }
}

impl Codec for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_bool()
    }
}

macro_rules! impl_codec_uint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_uvarint(*self as u64);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                dec.get_uvarint_as(stringify!($t))
            }
        }
    )*};
}
impl_codec_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_codec_sint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, enc: &mut Encoder) {
                let v = i64::from(*self);
                enc.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                let zigzag = dec.get_uvarint()?;
                let v = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
                <$t>::try_from(v).map_err(|_| CodecError::InvalidDiscriminant {
                    value: zigzag,
                    type_name: stringify!($t),
                })
            }
        }
    )*};
}
impl_codec_sint!(i8, i16, i32, i64);

impl Codec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_f64()
    }
}

impl Codec for f32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(f64::from(*self));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.get_f64()? as f32)
    }
}

impl Codec for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.get_str()?.to_owned())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        // Each element is at least one byte on the wire for all our types.
        let n = dec.get_count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(self.len() as u64);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_map(2, |dec| Ok((K::decode(dec)?, V::decode(dec)?)))
    }
}

macro_rules! impl_codec_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, enc: &mut Encoder) {
                $(self.$idx.encode(enc);)+
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                Ok(($($name::decode(dec)?,)+))
            }
        }
    )+};
}
impl_codec_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
);

/// Implement [`Codec`] for a fieldless enum with explicit `u64`
/// discriminants, written as uvarints. Used by the protocol crates for
/// message kinds, machine classes, problem classes, etc.
#[macro_export]
macro_rules! impl_codec_for_enum {
    ($ty:ty { $($variant:path => $disc:literal),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                let d: u64 = match self {
                    $($variant => $disc,)+
                };
                enc.put_uvarint(d);
            }
            fn decode(dec: &mut $crate::Decoder<'_>) -> $crate::Result<Self> {
                let d = dec.get_uvarint()?;
                match d {
                    $($disc => Ok($variant),)+
                    other => Err($crate::CodecError::InvalidDiscriminant {
                        value: other,
                        type_name: stringify!($ty),
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[derive(Debug, PartialEq, Eq)]
    enum Color {
        Red,
        Green,
        Blue,
    }
    impl_codec_for_enum!(Color {
        Color::Red => 0,
        Color::Green => 1,
        Color::Blue => 2,
    });

    #[test]
    fn enum_macro_round_trip() {
        for c in [Color::Red, Color::Green, Color::Blue] {
            let bytes = to_bytes(&c);
            assert_eq!(from_bytes::<Color>(&bytes).unwrap(), c);
        }
    }

    fn uvarint(v: u64) -> Vec<u8> {
        let mut e = crate::Encoder::new();
        e.put_uvarint(v);
        e.finish()
    }

    #[test]
    fn enum_macro_bad_discriminant() {
        assert_eq!(to_bytes(&Color::Blue), [2]);
        assert_eq!(
            from_bytes::<Color>(&uvarint(99)),
            Err(CodecError::InvalidDiscriminant {
                value: 99,
                type_name: "Color"
            })
        );
        // A padded discriminant is not a second spelling of `Green`.
        assert!(from_bytes::<Color>(&[0x81, 0x00]).is_err());
    }

    #[test]
    fn option_round_trip() {
        for v in [None, Some(5u32)] {
            assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&v)).unwrap(), v);
        }
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        assert_eq!(
            from_bytes::<BTreeMap<String, u64>>(&to_bytes(&m)).unwrap(),
            m
        );
    }

    #[test]
    fn map_refuses_keys_out_of_order() {
        let wire = |keys: &[u8]| {
            let mut e = crate::Encoder::new();
            e.put_uvarint(keys.len() as u64);
            for &k in keys {
                e.put_uvarint(u64::from(k));
                e.put_bool(true);
            }
            e.finish()
        };
        let m = BTreeMap::from([(1u8, true), (5, true)]);
        assert_eq!(to_bytes(&m), wire(&[1, 5]));
        assert_eq!(from_bytes::<BTreeMap<u8, bool>>(&wire(&[1, 5])), Ok(m));
        // A repeated key and a descending one would each decode to a map
        // some other frame already spells: refused, with the entry named.
        for (keys, index) in [(&[1, 1][..], 1), (&[5, 1], 1), (&[1, 5, 3], 2)] {
            assert_eq!(
                from_bytes::<BTreeMap<u8, bool>>(&wire(keys)),
                Err(CodecError::UnsortedKey { index }),
                "{keys:?}"
            );
        }
    }

    #[test]
    fn tuple_round_trip() {
        let t = (1u8, -2i32, "x".to_string(), true, 2.5f64);
        let back: (u8, i32, String, bool, f64) = from_bytes(&to_bytes(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn narrow_uint_range_checked() {
        assert!(from_bytes::<u8>(&uvarint(300)).is_err());
        assert!(from_bytes::<u8>(&uvarint(256)).is_err());
        assert_eq!(to_bytes(&255u8), [0xff, 0x01]);
        assert_eq!(from_bytes::<u8>(&uvarint(255)).unwrap(), 255);
        assert_eq!(to_bytes(&127u32), [127]);
    }

    #[test]
    fn narrow_sint_range_checked() {
        // Zig-zag: 0, -1, 1, -2 are 0, 1, 2, 3 on the wire.
        for (v, wire) in [(0i32, 0u64), (-1, 1), (1, 2), (-2, 3)] {
            assert_eq!(to_bytes(&v), uvarint(wire));
        }
        // i32::MIN is 2^32 - 1; one further out (i32::MIN - 1) is 2^32 + 1.
        assert_eq!(from_bytes::<i32>(&uvarint((1 << 32) - 1)), Ok(i32::MIN));
        assert!(from_bytes::<i32>(&uvarint((1 << 32) + 1)).is_err());
        assert!(from_bytes::<i32>(&uvarint(1 << 32)).is_err());
    }

    #[test]
    fn vec_of_strings() {
        let v = vec!["collector".to_string(), "predictor".to_string()];
        assert_eq!(from_bytes::<Vec<String>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn f32_widens_via_f64() {
        let x = 3.25f32;
        let back: f32 = from_bytes(&to_bytes(&x)).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn unit_is_zero_bytes() {
        assert!(to_bytes(&()).is_empty());
    }
}
