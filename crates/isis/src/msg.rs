//! The isis wire protocol.
//!
//! Every number is a uvarint on the wire (`BcastId.seq`, `fifo_seq`,
//! `Nack.expected`, a heartbeat's `incarnation`/`view_id`/`view_len`/
//! `fifo_next`), as `vce-codec` writes every integer; byte layouts are in
//! docs/PROTOCOL.md § Framing.

use bytes::Bytes;
use vce_codec::{impl_codec_for_enum, Codec, CodecError, Decoder, Encoder, Result};
use vce_net::Addr;

use crate::vclock::VClock;
use crate::view::View;

/// Broadcast ordering discipline, named as in Isis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOrder {
    /// Per-sender FIFO (`fbcast`).
    Fifo,
    /// Causal (`cbcast`).
    Causal,
    /// Total (`abcast`), sequenced by the coordinator.
    Total,
}

impl_codec_for_enum!(CastOrder {
    CastOrder::Fifo => 0,
    CastOrder::Causal => 1,
    CastOrder::Total => 2,
});

/// Globally unique broadcast identity: origin endpoint + origin-local
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BcastId {
    /// The broadcasting member.
    pub origin: Addr,
    /// Origin-local broadcast counter.
    pub seq: u64,
}

impl Codec for BcastId {
    fn encode(&self, enc: &mut Encoder) {
        self.origin.encode(enc);
        enc.put_uvarint(self.seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(BcastId {
            origin: Addr::decode(dec)?,
            seq: dec.get_uvarint()?,
        })
    }
}

/// Every message the isis layer exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum IsisMsg {
    /// Periodic liveness + membership beacon: five uvarints, with
    /// `view_len` and `joining` sharing one (`view_len << 1 | joining`).
    Heartbeat {
        /// Sender's incarnation: its boot time in µs, plus one. One byte for
        /// a fleet booted at t = 0; a revived node's is 4–5 bytes.
        incarnation: u64,
        /// Highest view id the sender has installed (0 = none).
        view_id: u64,
        /// Size of the sender's installed view (0 = none). Merge authority
        /// when partitions heal: a view holding a quorum of the configured
        /// candidates outranks one that does not, before ids are compared,
        /// so a lone rejoining ex-coordinator whose id churned ahead cannot
        /// reclaim the group from the surviving majority.
        view_len: u32,
        /// True if the sender is not yet a member and wants in.
        joining: bool,
        /// The sender's next outbound cast `fifo_seq`. Receivers that have
        /// not yet heard a cast from this sender pin their FIFO expectation
        /// here, so a dropped head-of-stream cast shows up as a gap (and is
        /// NACKed) instead of being silently skipped by first-contact
        /// adoption.
        fifo_next: u64,
    },
    /// Coordinator installs a new view (coordinator-sequenced; replaces
    /// Isis's gbcast flush — see crate docs for the weakening).
    ViewInstall {
        /// The view to install.
        view: View,
    },
    /// Reliable-FIFO data transport for all broadcast disciplines.
    Cast {
        /// Broadcast identity (origin + origin counter). For `Total` casts
        /// the origin is the *sequencer* and `total_seq` is set.
        id: BcastId,
        /// Ordering discipline.
        order: CastOrder,
        /// Per-(sender→group) FIFO transport sequence.
        fifo_seq: u64,
        /// Vector timestamp (causal casts only).
        vclock: Option<VClock>,
        /// Global sequence (total casts only).
        total_seq: Option<u64>,
        /// The requester that asked the sequencer to order this cast
        /// (total casts only; `id.origin` is the sequencer).
        requester: Option<Addr>,
        /// Application payload.
        payload: Bytes,
    },
    /// Ask the coordinator to sequence a total-order broadcast.
    TotalReq {
        /// Requester-side id used to correlate.
        req: BcastId,
        /// Application payload.
        payload: Bytes,
    },
    /// Negative ack: the sender is missing FIFO casts from `expected` on.
    Nack {
        /// First missing fifo_seq.
        expected: u64,
    },
    /// Point-to-point reply to a collected broadcast (`reply` primitive).
    Reply {
        /// Which broadcast this answers.
        to: BcastId,
        /// Reply payload.
        payload: Bytes,
    },
    /// A searching member (both seniors silent) asks a view-mate for one
    /// immediate unicast heartbeat. Field-less; the answer is a plain
    /// `Heartbeat`, which is never itself answered.
    Solicit,
}

// Discriminants for IsisMsg variants (wire-stable).
const T_HEARTBEAT: u8 = 0;
const T_VIEW_INSTALL: u8 = 1;
const T_CAST: u8 = 2;
const T_TOTAL_REQ: u8 = 3;
const T_NACK: u8 = 4;
const T_REPLY: u8 = 5;
const T_SOLICIT: u8 = 6;

impl Codec for IsisMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            IsisMsg::Heartbeat {
                incarnation,
                view_id,
                view_len,
                joining,
                fifo_next,
            } => {
                enc.put_u8(T_HEARTBEAT);
                enc.put_uvarint(*incarnation);
                enc.put_uvarint(*view_id);
                enc.put_uvarint(u64::from(*view_len) << 1 | u64::from(*joining));
                enc.put_uvarint(*fifo_next);
            }
            IsisMsg::ViewInstall { view } => {
                enc.put_u8(T_VIEW_INSTALL);
                view.encode(enc);
            }
            IsisMsg::Cast {
                id,
                order,
                fifo_seq,
                vclock,
                total_seq,
                requester,
                payload,
            } => {
                enc.put_u8(T_CAST);
                id.encode(enc);
                order.encode(enc);
                enc.put_uvarint(*fifo_seq);
                vclock.encode(enc);
                total_seq.encode(enc);
                requester.encode(enc);
                enc.put_len_bytes(payload);
            }
            IsisMsg::TotalReq { req, payload } => {
                enc.put_u8(T_TOTAL_REQ);
                req.encode(enc);
                enc.put_len_bytes(payload);
            }
            IsisMsg::Nack { expected } => {
                enc.put_u8(T_NACK);
                enc.put_uvarint(*expected);
            }
            IsisMsg::Reply { to, payload } => {
                enc.put_u8(T_REPLY);
                to.encode(enc);
                enc.put_len_bytes(payload);
            }
            IsisMsg::Solicit => enc.put_u8(T_SOLICIT),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_HEARTBEAT => {
                let (incarnation, view_id) = (dec.get_uvarint()?, dec.get_uvarint()?);
                let packed = dec.get_uvarint()?;
                IsisMsg::Heartbeat {
                    incarnation,
                    view_id,
                    view_len: u32::try_from(packed >> 1).map_err(|_| {
                        CodecError::InvalidDiscriminant {
                            value: packed,
                            type_name: "Heartbeat view_len",
                        }
                    })?,
                    joining: packed & 1 == 1,
                    fifo_next: dec.get_uvarint()?,
                }
            }
            T_VIEW_INSTALL => IsisMsg::ViewInstall {
                view: View::decode(dec)?,
            },
            T_CAST => IsisMsg::Cast {
                id: BcastId::decode(dec)?,
                order: CastOrder::decode(dec)?,
                fifo_seq: dec.get_uvarint()?,
                vclock: Option::<VClock>::decode(dec)?,
                total_seq: Option::<u64>::decode(dec)?,
                requester: Option::<Addr>::decode(dec)?,
                payload: dec.get_bytes()?,
            },
            T_TOTAL_REQ => IsisMsg::TotalReq {
                req: BcastId::decode(dec)?,
                payload: dec.get_bytes()?,
            },
            T_NACK => IsisMsg::Nack {
                expected: dec.get_uvarint()?,
            },
            T_REPLY => IsisMsg::Reply {
                to: BcastId::decode(dec)?,
                payload: dec.get_bytes()?,
            },
            T_SOLICIT => IsisMsg::Solicit,
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    value: u64::from(other),
                    type_name: "IsisMsg",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Member;
    use vce_codec::{from_bytes, to_bytes};
    use vce_net::NodeId;

    fn id(n: u32, s: u64) -> BcastId {
        BcastId {
            origin: Addr::daemon(NodeId(n)),
            seq: s,
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let mut vc = VClock::new();
        vc.set(Addr::daemon(NodeId(1)), 3);
        let msgs = vec![
            IsisMsg::Heartbeat {
                incarnation: 7,
                view_id: 2,
                view_len: 5,
                joining: true,
                fifo_next: 4,
            },
            IsisMsg::Heartbeat {
                incarnation: u64::MAX,
                view_id: u64::MAX,
                view_len: u32::MAX,
                joining: true,
                fifo_next: u64::MAX,
            },
            IsisMsg::Heartbeat {
                incarnation: 0,
                view_id: 128,
                view_len: u32::MAX,
                joining: false,
                fifo_next: 1 << 63,
            },
            IsisMsg::ViewInstall {
                view: View::new(
                    3,
                    vec![Member {
                        addr: Addr::daemon(NodeId(1)),
                        joined_seq: 0,
                    }],
                ),
            },
            IsisMsg::Cast {
                id: id(1, 5),
                order: CastOrder::Causal,
                fifo_seq: 9,
                vclock: Some(vc),
                total_seq: None,
                requester: None,
                payload: Bytes::from_static(b"data"),
            },
            IsisMsg::Cast {
                id: id(0, 6),
                order: CastOrder::Total,
                fifo_seq: 10,
                vclock: None,
                total_seq: Some(44),
                requester: Some(Addr::daemon(NodeId(2))),
                payload: Bytes::from_static(b"t"),
            },
            IsisMsg::TotalReq {
                req: id(2, 1),
                payload: Bytes::from_static(b"req"),
            },
            IsisMsg::Nack { expected: 12 },
            IsisMsg::Reply {
                to: id(1, 5),
                payload: Bytes::from_static(b"bid"),
            },
            IsisMsg::Solicit,
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            assert_eq!(from_bytes::<IsisMsg>(&bytes).unwrap(), m, "{m:?}");
        }
    }

    /// The win, pinned where it is made: a steady-state heartbeat of a
    /// 14-member view booted at t = 0 is 5 bytes (30 with fixed-width
    /// fields) and the daemon → daemon envelope around it has a 5-byte
    /// header (28), so the 59-byte frame `app_dense` sends 3,550 of per
    /// application is 11 with the exm layer's tag byte.
    #[test]
    fn steady_state_heartbeat_frame_is_small() {
        let hb = to_bytes(&IsisMsg::Heartbeat {
            incarnation: 1,
            view_id: 127,
            view_len: 14,
            joining: false,
            fifo_next: 127,
        });
        assert_eq!(hb, [T_HEARTBEAT, 1, 127, 14 << 1, 127]);
        let tagged = [&[0u8][..], &hb].concat();
        let (src, dst) = (Addr::daemon(NodeId(13)), Addr::daemon(NodeId(12)));
        let env = vce_net::Envelope::new(src, dst, tagged);
        assert_eq!(env.wire_size() - env.payload.len(), 5);
        assert_eq!(env.wire_size(), 11);
        assert_eq!(to_bytes(&env).len(), env.wire_size());
    }

    #[test]
    fn hostile_heartbeats_are_refused_whole() {
        let frame = |packed: u64| {
            let mut enc = Encoder::new();
            enc.put_u8(T_HEARTBEAT);
            enc.put_uvarint(7);
            enc.put_uvarint(2);
            enc.put_uvarint(packed);
            enc.put_uvarint(4);
            enc.finish()
        };
        // The largest packed value there is a heartbeat for…
        let top = u64::from(u32::MAX) << 1 | 1;
        assert!(matches!(
            from_bytes::<IsisMsg>(&frame(top)),
            Ok(IsisMsg::Heartbeat {
                view_len: u32::MAX,
                joining: true,
                ..
            })
        ));
        // …and nothing from 2^33 up, however the low bit reads.
        for packed in [top + 1, top + 2, 1 << 40, u64::MAX] {
            assert!(
                from_bytes::<IsisMsg>(&frame(packed)).is_err(),
                "{packed:#x}"
            );
        }
        // Every truncation is an error, never a panic — and so is a tail.
        let valid = frame(14 << 1);
        for cut in 0..valid.len() {
            assert!(
                from_bytes::<IsisMsg>(&valid[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        assert!(from_bytes::<IsisMsg>(&[&valid[..], &[0]].concat()).is_err());
        // A padded uvarint is not a second spelling of the same heartbeat.
        let mut padded = valid.clone();
        padded.splice(2..3, [0x82, 0x00]);
        assert!(from_bytes::<IsisMsg>(&padded).is_err());
    }

    #[test]
    fn an_address_past_u32_is_refused_wherever_it_rides() {
        // A reply to a `BcastId` whose origin node is u32::MAX + 1.
        let mut enc = Encoder::new();
        enc.put_u8(T_REPLY);
        enc.put_uvarint(u64::from(u32::MAX) + 1);
        enc.put_uvarint(0);
        enc.put_uvarint(5);
        enc.put_len_bytes(b"bid");
        assert!(matches!(
            from_bytes::<IsisMsg>(&enc.finish()),
            Err(CodecError::InvalidDiscriminant {
                type_name: "NodeId",
                ..
            })
        ));
    }

    #[test]
    fn unknown_discriminant_rejected() {
        assert!(from_bytes::<IsisMsg>(&[99]).is_err());
    }

    #[test]
    fn bcast_id_orders_by_origin_then_seq() {
        assert!(id(1, 9) < id(2, 0));
        assert!(id(1, 1) < id(1, 2));
    }
}
