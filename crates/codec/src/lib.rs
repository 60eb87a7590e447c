#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-codec — architecture-independent marshaling
//!
//! The VCE paper (§4.2) requires that data crossing machine boundaries be
//! translated "into architecture independent form" by proxies and
//! communication libraries, because a single virtual application may span
//! big-endian supercomputers and little-endian workstations. In 1994 this was
//! the job of Sun XDR or the OMG IDL compiler's marshaling stubs.
//!
//! This crate is the reproduction of that layer: a compact wire format whose
//! byte order is fixed by the format, never by the host — every number is a
//! LEB128 uvarint, low group first: unsigned integers as they are, signed
//! ones zig-zagged, floats as their byte-swapped IEEE-754 bits; counts,
//! lengths and discriminants too. The rule is stated once, in [`codec`] —
//! with
//!
//! * a [`Codec`] trait implemented for all primitives, strings, byte buffers,
//!   `Option`, `Vec`, tuples and maps — the static (stub-generated) path;
//! * a dynamic [`Value`] type that can represent any wire datum without
//!   compile-time knowledge of its shape — the path used by runtime-generated
//!   proxies ([Fig. 2 of the paper](crate::value)), which must forward
//!   arguments for methods whose signatures are only known from an IDL
//!   description at runtime;
//! * explicit [`wire::WireType`] tags so a decoder can always skip or
//!   round-trip data it does not understand.
//!
//! Unlike real XDR we do not pad to 4-byte boundaries; every field is
//! length-exact. This is documented as a deliberate deviation (DESIGN.md):
//! padding existed for word-aligned DMA on 1990s hardware and has no
//! behavioural role in the experiments.
//!
//! ## Example
//!
//! ```
//! use vce_codec::{Codec, Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! 42u32.encode(&mut enc);
//! "predictor.vce".to_string().encode(&mut enc);
//! let bytes = enc.finish();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(u32::decode(&mut dec).unwrap(), 42);
//! assert_eq!(String::decode(&mut dec).unwrap(), "predictor.vce");
//! assert!(dec.is_empty());
//! ```

pub mod codec;
pub mod decode;
pub mod encode;
pub mod error;
pub mod value;
pub mod wire;

pub use codec::Codec;
pub use decode::Decoder;
pub use encode::{uvarint_len, Encoder};
pub use error::{CodecError, Result};
pub use value::Value;
pub use wire::WireType;

/// Encode a single [`Codec`] value into a fresh byte vector.
///
/// Convenience wrapper over [`Encoder`]; the inverse of [`from_bytes`].
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.finish()
}

/// Decode a single [`Codec`] value directly from a [`bytes::Bytes`]
/// buffer, requiring that it is fully consumed. Unlike [`from_bytes`],
/// nested byte fields read with [`Decoder::get_bytes`] come back as
/// zero-copy sub-views of `buf` rather than fresh copies — the decode
/// path for protocol messages whose payloads ride inside an envelope.
pub fn from_backing<T: Codec>(buf: &bytes::Bytes) -> Result<T> {
    let mut dec = Decoder::with_backing(buf);
    let v = T::decode(&mut dec)?;
    if !dec.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: dec.remaining(),
        });
    }
    Ok(v)
}

/// Decode a single [`Codec`] value from a byte slice, requiring that the
/// slice is fully consumed.
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T> {
    let mut dec = Decoder::new(bytes);
    let v = T::decode(&mut dec)?;
    if !dec.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: dec.remaining(),
        });
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_helpers() {
        let v = vec![1u64, 2, 3];
        let bytes = to_bytes(&v);
        let back: Vec<u64> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0xff);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::TrailingBytes { remaining: 1 }));
    }
}
