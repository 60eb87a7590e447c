//! Vector clocks for causal broadcast (`cbcast`).

use std::collections::BTreeMap;

use vce_codec::{Codec, CodecError, Decoder, Encoder, Result};
use vce_net::Addr;

/// A vector clock over group-member addresses.
///
/// Missing entries are implicitly zero, so clocks stay small while
/// membership churns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VClock {
    entries: BTreeMap<Addr, u64>,
}

impl VClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// This clock's component for `who`.
    pub fn get(&self, who: Addr) -> u64 {
        self.entries.get(&who).copied().unwrap_or(0)
    }

    /// Set a component explicitly.
    pub fn set(&mut self, who: Addr, value: u64) {
        if value == 0 {
            self.entries.remove(&who);
        } else {
            self.entries.insert(who, value);
        }
    }

    /// Increment `who`'s component, returning the new value.
    pub fn tick(&mut self, who: Addr) -> u64 {
        let e = self.entries.entry(who).or_insert(0);
        *e += 1;
        *e
    }

    /// Component-wise maximum (join) with another clock.
    pub fn merge(&mut self, other: &VClock) {
        for (&who, &v) in &other.entries {
            let e = self.entries.entry(who).or_insert(0);
            *e = (*e).max(v);
        }
    }

    /// `self ≤ other` in the component-wise partial order.
    pub fn le(&self, other: &VClock) -> bool {
        self.entries.iter().all(|(&who, &v)| v <= other.get(who))
    }

    /// Causal deliverability test: may a message stamped `msg_clock`, sent
    /// by `sender`, be delivered given local state `self`?
    ///
    /// Standard Birman–Schiper–Stephenson condition:
    /// `msg[sender] == self[sender] + 1` and `msg[k] <= self[k]` ∀ k≠sender.
    pub fn deliverable(&self, sender: Addr, msg_clock: &VClock) -> bool {
        if msg_clock.get(sender) != self.get(sender) + 1 {
            return false;
        }
        msg_clock
            .entries
            .iter()
            .all(|(&who, &v)| who == sender || v <= self.get(who))
    }

    /// Number of non-zero components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if all components are zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// On the wire: a uvarint count, then `(address, uvarint counter)` in
/// ascending address order. A clock holds no zero counter, so none is sent.
impl Codec for VClock {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(self.entries.len() as u64);
        for (&who, &v) in &self.entries {
            who.encode(enc);
            enc.put_uvarint(v);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        // Smallest entry: a 2-byte address and a 1-byte counter. Addresses
        // out of order, repeated, or carrying a zero would each spell a
        // clock some other frame already spells: all refused.
        let entries = dec.get_map(3, |dec| match (Addr::decode(dec)?, dec.get_uvarint()?) {
            (_, 0) => Err(CodecError::InvalidDiscriminant {
                value: 0,
                type_name: "VClock counter (zero is never sent)",
            }),
            entry => Ok(entry),
        })?;
        Ok(VClock { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::NodeId;

    fn a(n: u32) -> Addr {
        Addr::daemon(NodeId(n))
    }

    #[test]
    fn tick_and_get() {
        let mut c = VClock::new();
        assert_eq!(c.get(a(0)), 0);
        assert_eq!(c.tick(a(0)), 1);
        assert_eq!(c.tick(a(0)), 2);
        assert_eq!(c.get(a(0)), 2);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_takes_max() {
        let mut x = VClock::new();
        x.set(a(0), 3);
        x.set(a(1), 1);
        let mut y = VClock::new();
        y.set(a(0), 2);
        y.set(a(2), 5);
        x.merge(&y);
        assert_eq!(x.get(a(0)), 3);
        assert_eq!(x.get(a(1)), 1);
        assert_eq!(x.get(a(2)), 5);
    }

    #[test]
    fn partial_order() {
        let mut x = VClock::new();
        x.set(a(0), 1);
        let mut y = VClock::new();
        y.set(a(0), 2);
        y.set(a(1), 1);
        assert!(x.le(&y));
        assert!(!y.le(&x));
        // Concurrent clocks: neither ≤ the other.
        let mut z = VClock::new();
        z.set(a(1), 9);
        assert!(!y.le(&z) && !z.le(&y));
        // Reflexive.
        assert!(y.le(&y));
    }

    #[test]
    fn bss_deliverability() {
        // Local state: seen 2 messages from sender, 1 from other.
        let mut local = VClock::new();
        local.set(a(0), 2);
        local.set(a(1), 1);

        // Next in-order message from a(0).
        let mut m = VClock::new();
        m.set(a(0), 3);
        m.set(a(1), 1);
        assert!(local.deliverable(a(0), &m));

        // Too far ahead from sender.
        let mut m2 = VClock::new();
        m2.set(a(0), 4);
        assert!(!local.deliverable(a(0), &m2));

        // Depends on an unseen message from a(1).
        let mut m3 = VClock::new();
        m3.set(a(0), 3);
        m3.set(a(1), 2);
        assert!(!local.deliverable(a(0), &m3));
    }

    #[test]
    fn zero_set_removes_entry() {
        let mut c = VClock::new();
        c.set(a(0), 5);
        c.set(a(0), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn codec_round_trip() {
        let mut c = VClock::new();
        c.set(a(0), 1);
        c.set(a(7), 99);
        let bytes = vce_codec::to_bytes(&c);
        assert_eq!(vce_codec::from_bytes::<VClock>(&bytes).unwrap(), c);
        // Count, then (node, port, counter) per entry: 1 + 2 × 3 bytes.
        assert_eq!(bytes, [2, 0, 0, 1, 7, 0, 99]);
    }

    #[test]
    fn decode_refuses_what_the_encoder_never_writes() {
        let frame = |entries: &[(u8, u8)]| {
            let mut w = vec![entries.len() as u8];
            for &(node, count) in entries {
                w.extend([node, 0, count]);
            }
            w
        };
        let back = vce_codec::from_bytes::<VClock>(&frame(&[(0, 1), (7, 99)])).unwrap();
        assert_eq!((back.get(a(0)), back.get(a(7))), (1, 99));
        // A repeated address, a descending one, and a zero counter.
        assert_eq!(
            vce_codec::from_bytes::<VClock>(&frame(&[(7, 1), (7, 2)])),
            Err(CodecError::UnsortedKey { index: 1 })
        );
        assert_eq!(
            vce_codec::from_bytes::<VClock>(&frame(&[(7, 1), (0, 2)])),
            Err(CodecError::UnsortedKey { index: 1 })
        );
        assert!(vce_codec::from_bytes::<VClock>(&frame(&[(0, 0)])).is_err());
        // Three bytes an entry is the floor a count is checked against:
        // two entries in five bytes are refused on the count alone.
        assert!(matches!(
            vce_codec::from_bytes::<VClock>(&frame(&[(0, 1), (7, 1)])[..6]),
            Err(CodecError::LengthOverflow {
                declared: 2,
                limit: 1
            })
        ));
    }
}
