//! Only configured candidates are ever listened to: an isis message whose
//! sender is not in `GroupConfig::candidates` is dropped before it touches
//! state. Every `IsisMsg` variant is tried against a coordinator that has a
//! cast in its resend buffer and a collection open — a state in which the
//! same message from a candidate does something.

use bytes::Bytes;
use vce_isis::{BcastId, GroupConfig, GroupMember, IsisMsg, Member, Upcall, View, ISIS_TOKEN_BASE};
use vce_net::testing::MockHost;
use vce_net::{Addr, NodeId};

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

/// Sends, timers armed and timers cancelled so far: every effect a handler
/// can have on its host.
fn effects(host: &MockHost) -> (usize, usize, usize) {
    (
        host.sent.len(),
        host.timers.len(),
        host.cancelled_timers.len(),
    )
}

/// Node 0 as the coordinator of `view#1{0}` with one collected broadcast
/// outstanding, at t = 1 s.
fn coordinator() -> (GroupMember, MockHost, BcastId) {
    let mut host = MockHost::new(NodeId(0));
    let mut gm = GroupMember::new(addr(0), GroupConfig::new((0..3).map(addr).collect()));
    gm.start(&mut host);
    host.now = 1_000_000;
    let mut ups = Vec::new();
    gm.on_timer(ISIS_TOKEN_BASE, &mut host, &mut ups);
    assert!(matches!(
        ups.as_slice(),
        [Upcall::ViewInstalled(_), Upcall::BecameCoordinator(_)]
    ));
    let id = gm
        .bcast_collect(Bytes::from_static(b"bids?"), Some(2), 500_000, &mut host)
        .expect("a member can broadcast");
    (gm, host, id)
}

fn every_variant(open: BcastId) -> Vec<IsisMsg> {
    let outsider = addr(9);
    vec![
        IsisMsg::Heartbeat {
            incarnation: 3,
            view_id: 9,
            view_len: 3,
            joining: true,
            fifo_next: 0,
        },
        IsisMsg::ViewInstall {
            view: View::new(
                9,
                vec![Member {
                    addr: outsider,
                    joined_seq: 0,
                }],
            ),
        },
        IsisMsg::Cast {
            fifo_seq: 0,
            payload: Bytes::from_static(b"x"),
        },
        IsisMsg::Nack { expected: 0 },
        IsisMsg::Reply {
            to: open.seq,
            payload: Bytes::from_static(b"bid"),
        },
        // From a candidate this is answered with a heartbeat.
        IsisMsg::Solicit,
    ]
}

#[test]
fn a_non_candidate_cannot_touch_the_group() {
    let (mut gm, mut host, open) = coordinator();
    for msg in every_variant(open) {
        let (hash, before) = (gm.snapshot_hash(), effects(&host));
        let mut ups = Vec::new();
        gm.handle(addr(9), msg.clone(), &mut host, &mut ups);
        assert!(ups.is_empty(), "{msg:?} from an outsider produced {ups:?}");
        assert_eq!(effects(&host), before, "{msg:?} reached the host");
        assert_eq!(gm.snapshot_hash(), hash, "{msg:?} changed state");
    }
    // It never became a joiner either: ticks go by and the view stays.
    host.now += 200_000;
    let mut ups = Vec::new();
    gm.on_timer(ISIS_TOKEN_BASE, &mut host, &mut ups);
    assert!(ups.is_empty(), "{ups:?}");
    assert_eq!(gm.view().len(), 1);
}

#[test]
fn the_same_messages_from_a_candidate_do_something() {
    // The control for the test above: each variant is observable when the
    // sender is on the list (at the least it is recorded as heard, which
    // the hash folds), so "nothing happened" there means "dropped".
    for (i, msg) in every_variant(coordinator().2).into_iter().enumerate() {
        let (mut gm, mut host, _) = coordinator();
        // A view naming the outsider is dropped whoever sends it; the
        // candidate's version of that arm names candidates.
        let msg = match msg {
            IsisMsg::ViewInstall { .. } => IsisMsg::ViewInstall {
                view: View::new(
                    9,
                    vec![Member {
                        addr: addr(1),
                        joined_seq: 0,
                    }],
                ),
            },
            other => other,
        };
        let (hash, before) = (gm.snapshot_hash(), effects(&host));
        let mut ups = Vec::new();
        gm.handle(addr(1), msg, &mut host, &mut ups);
        assert!(
            !ups.is_empty() || effects(&host) != before || gm.snapshot_hash() != hash,
            "variant {i} from a candidate left no trace"
        );
    }
}

/// A frame is decoded whole before the member sees any of it, so a
/// heartbeat the codec refuses — truncated, a padded uvarint, a `view_len`
/// past `u32::MAX` — cannot half-apply: from a candidate, at every cut of
/// a frame that does change state when it arrives intact.
#[test]
fn a_refused_heartbeat_changes_nothing() {
    let valid = vce_codec::to_bytes(&IsisMsg::Heartbeat {
        incarnation: 3,
        view_id: 9,
        view_len: u32::MAX,
        joining: true,
        fifo_next: 300,
    });
    // What a daemon does with an isis frame: decode, then handle.
    let deliver = |gm: &mut GroupMember, host: &mut MockHost, wire: &[u8]| {
        vce_codec::from_bytes::<IsisMsg>(wire)
            .map(|msg| gm.handle(addr(1), msg, host, &mut Vec::new()))
    };
    let (mut gm, mut host, _) = coordinator();
    let (hash, before) = (gm.snapshot_hash(), effects(&host));
    let mut hostile: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    // view_id 9 spelt in two bytes; view_len << 1 | joining = 2^33.
    hostile.push([&valid[..2], &[0x89, 0x00], &valid[3..]].concat());
    hostile.push([&valid[..3], &[0x80, 0x80, 0x80, 0x80, 0x20, 0x00]].concat());
    for wire in hostile {
        assert!(deliver(&mut gm, &mut host, &wire).is_err(), "{wire:x?}");
        assert_eq!(gm.snapshot_hash(), hash, "{wire:x?} changed state");
        assert_eq!(effects(&host), before, "{wire:x?} reached the host");
    }
    // The control: intact, the same frame is heard.
    deliver(&mut gm, &mut host, &valid).expect("the intact frame decodes");
    assert_ne!(gm.snapshot_hash(), hash);
}

#[test]
fn a_view_naming_a_non_candidate_is_ignored_whole() {
    let (mut gm, mut host, _) = coordinator();
    let view = View::new(
        9,
        [0, 1, 9]
            .into_iter()
            .map(|n| Member {
                addr: addr(n),
                joined_seq: u64::from(n),
            })
            .collect(),
    );
    let before = gm.view().clone();
    let mut ups = Vec::new();
    gm.handle(addr(1), IsisMsg::ViewInstall { view }, &mut host, &mut ups);
    assert!(ups.is_empty(), "{ups:?}");
    assert_eq!(gm.view(), &before);
    assert!(gm.is_coordinator());
}

/// The resend ring keeps a collect's question only while an answer can
/// still count: once the collect closes, a NACK finds the same sequence
/// number with nothing in it.
#[test]
fn a_closed_collect_is_re_sent_without_its_question() {
    let (mut gm, mut host, open) = coordinator();
    let resent = |gm: &mut GroupMember, host: &mut MockHost, expected| {
        gm.handle(addr(1), IsisMsg::Nack { expected }, host, &mut Vec::new());
        match vce_codec::from_bytes(&host.sent.last().expect("a re-send").2) {
            Ok(IsisMsg::Cast { fifo_seq, payload }) => (fifo_seq, payload),
            other => panic!("re-sent {other:?}"),
        }
    };
    assert_eq!(open.seq, 0, "the first cast");
    let asked = resent(&mut gm, &mut host, 0);
    assert_eq!(asked, (0, Bytes::from_static(b"bids?")));
    let reply = |payload| IsisMsg::Reply {
        to: open.seq,
        payload,
    };
    let mut ups = Vec::new();
    gm.handle(
        addr(1),
        reply(Bytes::from_static(b"a")),
        &mut host,
        &mut ups,
    );
    assert!(ups.is_empty(), "{ups:?}");
    gm.handle(
        addr(2),
        reply(Bytes::from_static(b"b")),
        &mut host,
        &mut ups,
    );
    assert!(matches!(ups.as_slice(), [Upcall::CollectDone(done)] if done.replies.len() == 2));
    assert_eq!(resent(&mut gm, &mut host, 0), (0, Bytes::new()));
    // The same when the deadline closes it, short of replies.
    let late = gm
        .bcast_collect(
            Bytes::from_static(b"more bids?"),
            Some(2),
            500_000,
            &mut host,
        )
        .expect("still a member");
    let deadline = host.timers.last().expect("the collect's deadline").1;
    assert_eq!(late.seq, 1, "the second cast");
    let asked = resent(&mut gm, &mut host, 1);
    assert_eq!(asked, (1, Bytes::from_static(b"more bids?")));
    ups.clear();
    gm.on_timer(deadline, &mut host, &mut ups);
    assert!(matches!(ups.as_slice(), [Upcall::CollectDone(done)] if done.timed_out));
    assert_eq!(resent(&mut gm, &mut host, 1), (1, Bytes::new()));
}

/// A cast carries no origin of its own: it is named by the member that
/// sent it and its `fifo_seq`, so a reply to it goes back to that member
/// and no cast can steer the group's replies to a third party.
#[test]
fn a_cast_is_named_by_its_transport_sender() {
    let (mut gm, mut host, _) = coordinator();
    let mut ups = Vec::new();
    for (src, fifo_seq) in [(1, 7), (2, 7), (1, 8)] {
        let cast = IsisMsg::Cast {
            fifo_seq,
            payload: Bytes::from_static(b"x"),
        };
        gm.handle(addr(src), cast, &mut host, &mut ups);
    }
    let named: Vec<BcastId> = ups
        .iter()
        .filter_map(|u| match u {
            Upcall::Deliver { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let id = |n, seq| BcastId {
        origin: addr(n),
        seq,
    };
    assert_eq!(named, [id(1, 7), id(2, 7), id(1, 8)]);
    // The reply goes to the sender, naming the cast by its `fifo_seq`.
    gm.reply(named[1], Bytes::from_static(b"bid"), &mut host);
    let (_, dst, wire) = host.sent.last().expect("the reply");
    assert_eq!(*dst, addr(2));
    assert_eq!(
        vce_codec::from_bytes::<IsisMsg>(wire),
        Ok(IsisMsg::Reply {
            to: 7,
            payload: Bytes::from_static(b"bid"),
        })
    );
}
