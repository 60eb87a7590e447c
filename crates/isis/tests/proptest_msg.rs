//! `IsisMsg` decoding is total: any bytes decode to a message or to an
//! error, never a panic; every message decodes back to itself; and a cast
//! or reply frame cut short anywhere, or one with the unassigned tag 3, is
//! an error rather than some shorter message.

use bytes::Bytes;
use proptest::prelude::*;
use vce_codec::{from_bytes, to_bytes};
use vce_isis::{IsisMsg, Member, View};
use vce_net::{Addr, NodeId, PortId};

fn arb_payload() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..40).prop_map(Bytes::from)
}

fn arb_view() -> impl Strategy<Value = View> {
    let member =
        (any::<u32>(), 0u32..2000, any::<u64>()).prop_map(|(node, port, joined_seq)| Member {
            addr: Addr {
                node: NodeId(node),
                port: PortId(port),
            },
            joined_seq,
        });
    (any::<u64>(), prop::collection::vec(member, 0..6))
        .prop_map(|(id, members)| View::new(id, members))
}

fn arb_msg() -> impl Strategy<Value = IsisMsg> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(|(incarnation, view_id, view_len, joining, fifo_next)| {
                IsisMsg::Heartbeat {
                    incarnation,
                    view_id,
                    view_len,
                    joining,
                    fifo_next,
                }
            }),
        arb_view().prop_map(|view| IsisMsg::ViewInstall { view }),
        arb_cast_or_reply(),
        any::<u64>().prop_map(|expected| IsisMsg::Nack { expected }),
        Just(IsisMsg::Solicit),
    ]
}

fn arb_cast_or_reply() -> impl Strategy<Value = IsisMsg> {
    prop_oneof![
        (any::<u64>(), arb_payload())
            .prop_map(|(fifo_seq, payload)| IsisMsg::Cast { fifo_seq, payload }),
        (any::<u64>(), arb_payload()).prop_map(|(to, payload)| IsisMsg::Reply { to, payload }),
    ]
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Either answer is fine; reaching the next line is the property.
        let _ = from_bytes::<IsisMsg>(&bytes);
    }

    #[test]
    fn every_message_decodes_to_itself(msg in arb_msg()) {
        prop_assert_eq!(from_bytes::<IsisMsg>(&to_bytes(&msg)), Ok(msg));
    }

    #[test]
    fn a_cut_cast_or_reply_is_an_error(msg in arb_cast_or_reply()) {
        let wire = to_bytes(&msg);
        for cut in 0..wire.len() {
            prop_assert!(from_bytes::<IsisMsg>(&wire[..cut]).is_err(), "{msg:?} cut at {cut}");
        }
    }

    #[test]
    fn tag_3_is_refused(tail in prop::collection::vec(any::<u8>(), 0..16)) {
        let wire = [&[3u8][..], &tail].concat();
        prop_assert!(from_bytes::<IsisMsg>(&wire).is_err());
    }
}
