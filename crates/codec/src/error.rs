//! Error type for encoding/decoding failures.

use std::fmt;

use crate::wire::WireType;

/// Result alias used throughout the codec.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Everything that can go wrong while decoding a wire buffer.
///
/// Encoding is infallible (it only appends to an in-memory buffer), so this
/// type only describes decode-side failures. Each variant carries enough
/// context to diagnose a malformed message from a remote daemon without a
/// debugger — important because in the VCE a bad message may originate on a
/// machine of a different architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the requested number of bytes were available.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A wire-type tag byte did not correspond to any known [`WireType`].
    InvalidTag(u8),
    /// A tag was read successfully but did not match the type the caller
    /// asked for.
    TypeMismatch {
        /// Type the caller expected.
        expected: WireType,
        /// Type found on the wire.
        found: WireType,
    },
    /// A length prefix exceeded the configured sanity limit.
    LengthOverflow {
        /// Declared length.
        declared: u64,
        /// Maximum the decoder accepts.
        limit: u64,
    },
    /// Bytes declared as a string were not valid UTF-8.
    InvalidUtf8,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An enum/discriminant value was out of range for the target type.
    InvalidDiscriminant {
        /// The offending discriminant.
        value: u64,
        /// Human-readable name of the type being decoded.
        type_name: &'static str,
    },
    /// A map key was not strictly above the key before it: maps are
    /// written in key order, so a duplicate or out-of-order key is refused.
    UnsortedKey {
        /// Position of the offending entry.
        index: usize,
    },
    /// Decoding succeeded but unconsumed bytes remain (only reported by
    /// whole-buffer helpers such as [`crate::from_bytes`]).
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// Structure nesting exceeded the decoder's recursion limit.
    DepthExceeded {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of buffer: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::InvalidTag(b) => write!(f, "invalid wire-type tag byte 0x{b:02x}"),
            CodecError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "wire type mismatch: expected {expected:?}, found {found:?}"
                )
            }
            CodecError::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            CodecError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::InvalidBool(b) => write!(f, "invalid boolean byte 0x{b:02x}"),
            CodecError::InvalidDiscriminant { value, type_name } => {
                write!(f, "discriminant {value} out of range for {type_name}")
            }
            CodecError::UnsortedKey { index } => {
                write!(f, "map key {index} is not above the key before it")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            CodecError::DepthExceeded { limit } => {
                write!(f, "nesting depth exceeded limit {limit}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CodecError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        let s = e.to_string();
        assert!(s.contains("needed 8"));
        assert!(s.contains("3 remaining"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CodecError::InvalidUtf8);
    }
}
