//! The model charges what the codec writes: `Envelope::wire_size` — what
//! the simulator's bandwidth model and its `NetStats` bill a message at —
//! is computed arithmetically, so it is held here to the
//! length the `Codec` actually produces, over the whole `u32`/`u64` range
//! of every header field. The same envelopes must come back from
//! `decode_from` equal and with the payload still a view of the wire
//! buffer, and no truncation of one may decode.

use bytes::Bytes;
use proptest::prelude::*;
use vce_codec::{to_bytes, uvarint_len, Encoder};
use vce_net::{Addr, Envelope, NodeId, PortId};

/// Values on both sides of every uvarint length step a `u32` can cross,
/// the well-known ports and the first dynamic one, plus the full range.
fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..=2,
        Just(PortId::DYNAMIC_BASE.0),
        (0u32..5).prop_map(|k| (1u32 << (7 * k)) - 1),
        (0u32..5).prop_map(|k| 1u32 << (7 * k)),
        Just(u32::MAX),
        any::<u32>(),
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..10).prop_map(|k| (1u64 << (7 * k)) - 1),
        (0u32..10).prop_map(|k| 1u64 << (7 * k)),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    (arb_u32(), arb_u32()).prop_map(|(n, p)| Addr::new(NodeId(n), PortId(p)))
}

/// Payload lengths around the one- to two-byte length-prefix step.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![0usize..40, 120usize..136, 16_380usize..16_390]
        .prop_map(|n| (0..n).map(|i| i as u8).collect())
}

proptest! {
    #[test]
    fn uvarint_len_is_the_encoded_length(v in arb_u64()) {
        let mut enc = Encoder::new();
        enc.put_uvarint(v);
        prop_assert_eq!(uvarint_len(v), enc.len());
    }

    #[test]
    fn wire_size_is_what_the_codec_writes(
        src in arb_addr(),
        dst in arb_addr(),
        seq in arb_u64(),
        payload in arb_payload(),
    ) {
        let env = Envelope::new(src, dst, seq, payload);
        let wire = Bytes::from(to_bytes(&env));
        prop_assert_eq!(env.wire_size(), wire.len());

        let back = Envelope::decode_from(&wire).expect("what was encoded decodes");
        prop_assert_eq!(&back, &env);
        // Zero-copy: the payload is the tail of the wire buffer itself
        // (once the buffer is big enough to be heap-backed rather than
        // inline in the `Bytes` handle, so that a pointer can tell).
        if env.payload.len() >= 24 {
            let tail = &wire[wire.len() - env.payload.len()..];
            prop_assert_eq!(back.payload.as_ptr(), tail.as_ptr());
        }

        // Any truncation is an error (never a panic, never a shorter
        // envelope): the declared length is checked against what is left.
        for cut in [0, 1, wire.len() / 2, wire.len() - 1] {
            prop_assert!(Envelope::decode_from(&wire.slice(..cut)).is_err());
        }
    }
}
