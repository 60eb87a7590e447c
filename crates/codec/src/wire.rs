//! Wire-type tags.
//!
//! Every tagged datum on the wire is preceded by one byte identifying its
//! shape. Tags make the format self-describing, which the dynamic
//! [`Value`](crate::Value) path relies on: a runtime proxy can faithfully
//! forward an argument list it has never seen a compile-time type for.

use crate::error::{CodecError, Result};

/// One-byte type tag preceding a tagged wire datum.
///
/// The numeric values are part of the wire format and must never be
/// renumbered; new types may only be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireType {
    /// Absence of a value (`Option::None`, void returns).
    Unit = 0,
    /// Boolean, encoded as one byte (0 or 1).
    Bool = 1,
    /// Unsigned 64-bit integer, big-endian. Narrower unsigned ints widen to
    /// this on the tagged path (which keeps fixed-width words; the compact
    /// integers are the static path's, see [`crate::codec`]).
    U64 = 2,
    /// Signed 64-bit integer, big-endian two's complement.
    I64 = 3,
    /// IEEE-754 binary64, big-endian. (`f32` widens to this on the tagged
    /// path, exactly as XDR promotes floats in many RPC stacks.)
    F64 = 4,
    /// UTF-8 string: uvarint byte length, then bytes.
    Str = 5,
    /// Opaque bytes: uvarint length, then bytes.
    Bytes = 6,
    /// Homogeneously-typed list: uvarint count, then tagged elements.
    List = 7,
    /// String-keyed map: uvarint count, then (string, tagged value) pairs.
    Map = 8,
    /// Record/struct: uvarint field count, then tagged field values in
    /// declaration order.
    Record = 9,
}

impl WireType {
    /// Decode a tag byte.
    pub fn from_byte(b: u8) -> Result<Self> {
        Ok(match b {
            0 => WireType::Unit,
            1 => WireType::Bool,
            2 => WireType::U64,
            3 => WireType::I64,
            4 => WireType::F64,
            5 => WireType::Str,
            6 => WireType::Bytes,
            7 => WireType::List,
            8 => WireType::Map,
            9 => WireType::Record,
            other => return Err(CodecError::InvalidTag(other)),
        })
    }

    /// The tag byte for this wire type.
    pub fn as_byte(self) -> u8 {
        self as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_tags() {
        for b in 0u8..=9 {
            let wt = WireType::from_byte(b).unwrap();
            assert_eq!(wt.as_byte(), b);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        for b in 10u8..=255 {
            assert_eq!(WireType::from_byte(b), Err(CodecError::InvalidTag(b)));
        }
    }
}
