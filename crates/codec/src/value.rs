//! Dynamic wire values — the runtime-proxy marshaling path (paper Fig. 2).
//!
//! Client/server proxies in the VCE forward method invocations whose
//! signatures are only known from an IDL description loaded at runtime. They
//! therefore marshal *tagged, self-describing* values: each datum carries its
//! [`WireType`], so a proxy can decode, inspect, convert and re-encode
//! arguments it has no Rust type for.

use std::collections::BTreeMap;
use std::fmt;

use crate::decode::Decoder;
use crate::encode::Encoder;
use crate::error::{CodecError, Result};
use crate::wire::WireType;

/// A dynamically-typed wire datum.
///
/// This is the argument/return representation used by
/// `vce-channels`' proxy layer; it can represent anything the static
/// [`Codec`](crate::Codec) path can.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (widest representation).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// IEEE-754 double.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Opaque bytes.
    Bytes(Vec<u8>),
    /// Homogeneous or heterogeneous list.
    List(Vec<Value>),
    /// String-keyed map.
    Map(BTreeMap<String, Value>),
    /// Positional record (struct fields in declaration order).
    Record(Vec<Value>),
}

impl Value {
    /// The wire type tag this value encodes with.
    pub fn wire_type(&self) -> WireType {
        match self {
            Value::Unit => WireType::Unit,
            Value::Bool(_) => WireType::Bool,
            Value::U64(_) => WireType::U64,
            Value::I64(_) => WireType::I64,
            Value::F64(_) => WireType::F64,
            Value::Str(_) => WireType::Str,
            Value::Bytes(_) => WireType::Bytes,
            Value::List(_) => WireType::List,
            Value::Map(_) => WireType::Map,
            Value::Record(_) => WireType::Record,
        }
    }

    /// Encode this value, tag first, into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_tag(self.wire_type());
        match self {
            Value::Unit => {}
            Value::Bool(b) => enc.put_bool(*b),
            Value::U64(v) => enc.put_u64(*v),
            Value::I64(v) => enc.put_i64(*v),
            Value::F64(v) => enc.put_f64(*v),
            Value::Str(s) => enc.put_str(s),
            Value::Bytes(b) => enc.put_len_bytes(b),
            Value::List(items) | Value::Record(items) => {
                enc.put_uvarint(items.len() as u64);
                for it in items {
                    it.encode(enc);
                }
            }
            Value::Map(m) => {
                enc.put_uvarint(m.len() as u64);
                for (k, v) in m {
                    enc.put_str(k);
                    v.encode(enc);
                }
            }
        }
    }

    /// Decode one tagged value.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.push_depth()?;
        let tag = dec.get_tag()?;
        let v = match tag {
            WireType::Unit => Value::Unit,
            WireType::Bool => Value::Bool(dec.get_bool()?),
            WireType::U64 => Value::U64(dec.get_u64()?),
            WireType::I64 => Value::I64(dec.get_i64()?),
            WireType::F64 => Value::F64(dec.get_f64()?),
            WireType::Str => Value::Str(dec.get_str()?.to_owned()),
            WireType::Bytes => Value::Bytes(dec.get_len_bytes()?.to_vec()),
            WireType::List | WireType::Record => {
                let n = dec.get_count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Value::decode(dec)?);
                }
                match tag {
                    WireType::List => Value::List(items),
                    _ => Value::Record(items),
                }
            }
            WireType::Map => Value::Map(dec.get_map(2, |dec| {
                Ok((dec.get_str()?.to_owned(), Value::decode(dec)?))
            })?),
        };
        dec.pop_depth();
        Ok(v)
    }

    /// Encode to a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decode from a byte slice, requiring full consumption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Value::decode(&mut dec)?;
        if !dec.is_empty() {
            return Err(CodecError::TrailingBytes {
                remaining: dec.remaining(),
            });
        }
        Ok(v)
    }

    // ---- accessors used by proxy/IDL code ----

    /// As an unsigned integer, if this is `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// As a signed integer, if this is `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// As a double, if this is `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// As a string slice, if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As a boolean, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As a list slice, if this is `List` or `Record`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) | Value::Record(v) => Some(v),
            _ => None,
        }
    }

    /// As a map, if this is `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            Value::Record(items) => {
                write!(f, "{{")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "}}")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_sample() -> Value {
        let mut m = BTreeMap::new();
        m.insert("load".to_string(), Value::F64(0.75));
        m.insert(
            "tasks".to_string(),
            Value::List(vec![Value::Str("collector".into()), Value::U64(2)]),
        );
        Value::Record(vec![
            Value::Unit,
            Value::Bool(true),
            Value::I64(-9),
            Value::Bytes(vec![1, 2, 3]),
            Value::Map(m),
        ])
    }

    #[test]
    fn nested_round_trip() {
        let v = nested_sample();
        let bytes = v.to_bytes();
        assert_eq!(Value::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn deep_nesting_rejected() {
        // Build a list nested past MAX_DEPTH.
        let mut v = Value::U64(1);
        for _ in 0..(crate::decode::MAX_DEPTH + 2) {
            v = Value::List(vec![v]);
        }
        let bytes = v.to_bytes();
        assert!(matches!(
            Value::from_bytes(&bytes),
            Err(CodecError::DepthExceeded { .. })
        ));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::U64(3).as_u64(), Some(3));
        assert_eq!(Value::I64(-3).as_i64(), Some(-3));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::U64(3).as_str(), None);
        assert!(Value::List(vec![]).as_list().unwrap().is_empty());
    }

    #[test]
    fn display_is_readable() {
        let s = nested_sample().to_string();
        assert!(s.contains("collector"));
        assert!(s.contains("bytes[3]"));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(5u64), Value::U64(5));
        assert_eq!(Value::from(-5i64), Value::I64(-5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn wire_type_matches() {
        assert_eq!(nested_sample().wire_type(), WireType::Record);
        assert_eq!(Value::Unit.wire_type(), WireType::Unit);
    }

    #[test]
    fn truncated_buffer_fails_cleanly() {
        let bytes = nested_sample().to_bytes();
        for cut in 0..bytes.len() {
            // Every prefix must fail without panicking (or, rarely, decode to
            // a shorter valid value then hit TrailingBytes — also fine).
            let _ = Value::from_bytes(&bytes[..cut]);
        }
    }
}
