//! The isis wire protocol.
//!
//! Every number is a uvarint on the wire (`fifo_seq`, a reply's `to`,
//! `Nack.expected`, a heartbeat's `incarnation`/`view_id`/`view_len`/
//! `fifo_next`), as `vce-codec` writes every integer; byte layouts are in
//! docs/PROTOCOL.md § Framing.
//!
//! A cast is named by where it came from and its place in that sender's
//! FIFO stream, and both are already on the wire: the sender is the
//! envelope's `src`, the place is `fifo_seq`. So a [`BcastId`] is never
//! encoded — the receiver of a cast rebuilds it from the transport sender,
//! and the receiver of a reply (always the cast's origin) from itself.

use bytes::Bytes;
use vce_codec::{Codec, CodecError, Decoder, Encoder, Result};
use vce_net::Addr;

use crate::view::View;

/// A broadcast's identity: its origin and the origin's `fifo_seq` for
/// it. An in-memory key only — see the module docs for why it never
/// travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BcastId {
    /// The broadcasting member (the transport sender of the cast).
    pub origin: Addr,
    /// The cast's `fifo_seq` in the origin's stream.
    pub seq: u64,
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
    /// A reliable-FIFO broadcast: the one cast order (§5's `bcast`).
    Cast {
        /// Per-(sender→group) FIFO sequence; with the transport sender it
        /// names the cast.
        fifo_seq: u64,
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
        /// The `fifo_seq` of the answered cast, which the receiver sent.
        to: u64,
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
// 3 is unassigned (it was a total-order request) and refused.
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
            IsisMsg::Cast { fifo_seq, payload } => {
                enc.put_u8(T_CAST);
                enc.put_uvarint(*fifo_seq);
                enc.put_len_bytes(payload);
            }
            IsisMsg::Nack { expected } => {
                enc.put_u8(T_NACK);
                enc.put_uvarint(*expected);
            }
            IsisMsg::Reply { to, payload } => {
                enc.put_u8(T_REPLY);
                enc.put_uvarint(*to);
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
                fifo_seq: dec.get_uvarint()?,
                payload: dec.get_bytes()?,
            },
            T_NACK => IsisMsg::Nack {
                expected: dec.get_uvarint()?,
            },
            T_REPLY => IsisMsg::Reply {
                to: dec.get_uvarint()?,
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
                fifo_seq: 9,
                payload: Bytes::from_static(b"data"),
            },
            IsisMsg::Cast {
                fifo_seq: u64::MAX,
                payload: Bytes::new(),
            },
            IsisMsg::Nack { expected: 12 },
            IsisMsg::Reply {
                to: 5,
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
        // A view install whose one member's node is u32::MAX + 1.
        let mut enc = Encoder::new();
        enc.put_u8(T_VIEW_INSTALL);
        enc.put_uvarint(3);
        enc.put_uvarint(1);
        enc.put_uvarint(u64::from(u32::MAX) + 1);
        enc.put_uvarint(0);
        enc.put_uvarint(0);
        assert!(matches!(
            from_bytes::<IsisMsg>(&enc.finish()),
            Err(CodecError::InvalidDiscriminant {
                type_name: "NodeId",
                ..
            })
        ));
    }

    /// A cast is its tag, its `fifo_seq` and its payload; a reply the
    /// answered cast's `fifo_seq` and its payload. No address rides in
    /// either, so neither can name another member's broadcast.
    #[test]
    fn casts_and_replies_carry_no_address() {
        let payload = Bytes::from_static(b"bid");
        let cast = to_bytes(&IsisMsg::Cast {
            fifo_seq: 300,
            payload: payload.clone(),
        });
        assert_eq!(cast, [&[T_CAST, 0xac, 0x02, 3][..], b"bid"].concat());
        let reply = to_bytes(&IsisMsg::Reply { to: 3, payload });
        assert_eq!(reply, [&[T_REPLY, 3, 3][..], b"bid"].concat());
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
