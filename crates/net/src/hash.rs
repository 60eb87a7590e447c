//! FNV-1a 64-bit state digests.
//!
//! The record/replay subsystem (`vce_sim::record`) periodically snapshots a
//! whole-sim hash plus one hash per node, folded from every endpoint's
//! [`Endpoint::snapshot_hash`](crate::Endpoint::snapshot_hash). Those
//! digests must be *cheap* (they run on every snapshot of every recorded
//! run) and *deterministic across shard layouts* (only fold state whose
//! value is a pure function of the simulation, never HashMap iteration
//! order or host pointers). FNV-1a fits: no tables, one multiply per byte,
//! and the same function the bench fingerprints already use.

/// Incremental FNV-1a 64-bit hasher.
///
/// Not a general-purpose `std::hash::Hasher` on purpose: protocol code
/// folds fields explicitly (and in a fixed order), so a digest documents
/// exactly what state it covers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Fold one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        self
    }

    /// Fold a `u64`, little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// Fold a byte slice (length is *not* folded; callers that hash
    /// variable-length runs should fold the length themselves).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.write_u8(b);
        }
        self
    }

    /// Fold an `f64` by bit pattern (exact, no rounding ambiguity).
    #[inline]
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Fold a `bool` as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_u8(u8::from(v))
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.write_bytes(b"foo").write_bytes(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn u64_is_le_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            a.finish(),
            fnv64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }
}
