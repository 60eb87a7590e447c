//! A member's incarnation is its boot time: a member revived later
//! heartbeats a new one, and a peer that hears it starts that member's FIFO
//! stream over; members booted in the same µs share one without harm,
//! because a peer only compares an incarnation with the same member's last.

use bytes::Bytes;
use vce_codec::from_bytes;
use vce_isis::{GroupConfig, GroupMember, IsisMsg, Upcall};
use vce_net::testing::MockHost;
use vce_net::{Addr, NodeId};

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

fn config() -> GroupConfig {
    GroupConfig::new((0..3).map(addr).collect())
}

/// Boot `gm` at `now` and return the heartbeat it sent node 0.
fn boot(gm: &mut GroupMember, host: &mut MockHost, now: u64) -> IsisMsg {
    host.now = now;
    host.sent.clear();
    gm.start(host);
    let (_, _, wire) = host
        .sent
        .iter()
        .find(|(_, dst, _)| *dst == addr(0))
        .expect("a booting member heartbeats every candidate");
    let hb = from_bytes::<IsisMsg>(wire).expect("a heartbeat decodes");
    assert!(matches!(hb, IsisMsg::Heartbeat { .. }), "{hb:?}");
    hb
}

fn incarnation(hb: &IsisMsg) -> u64 {
    match hb {
        IsisMsg::Heartbeat { incarnation, .. } => *incarnation,
        other => panic!("not a heartbeat: {other:?}"),
    }
}

fn cast(fifo_seq: u64) -> IsisMsg {
    IsisMsg::Cast {
        fifo_seq,
        payload: Bytes::from_static(b"x"),
    }
}

/// `peer` (node 0) hears `msg` from `src`; returns what it delivered, as
/// `(origin, seq)`.
fn hear(peer: &mut GroupMember, host: &mut MockHost, src: u32, msg: IsisMsg) -> Vec<(u32, u64)> {
    let mut ups = Vec::new();
    peer.handle(addr(src), msg, host, &mut ups);
    ups.iter()
        .filter_map(|u| match u {
            Upcall::Deliver { id, .. } => Some((id.origin.node.0, id.seq)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_revived_member_heartbeats_a_new_incarnation_and_its_stream_starts_over() {
    let mut peer_host = MockHost::new(NodeId(0));
    let mut peer = GroupMember::new(addr(0), config());
    peer.start(&mut peer_host);

    let mut host = MockHost::new(NodeId(1));
    let mut gm = GroupMember::new(addr(1), config());
    let first = boot(&mut gm, &mut host, 0);
    assert_eq!(incarnation(&first), 1, "booted at t = 0");

    // The peer hears the first incarnation and three of its casts.
    peer_host.now = 10_000;
    assert!(hear(&mut peer, &mut peer_host, 1, first.clone()).is_empty());
    for seq in 0..3 {
        assert_eq!(hear(&mut peer, &mut peer_host, 1, cast(seq)), [(1, seq)]);
    }
    // The same incarnation again changes nothing: a cast it already
    // delivered is a duplicate.
    assert!(hear(&mut peer, &mut peer_host, 1, first).is_empty());
    assert!(hear(&mut peer, &mut peer_host, 1, cast(0)).is_empty());
    let before = peer.snapshot_hash();

    // Killed and revived 5 s later, it heartbeats its boot time + 1, and
    // its casts start again at 0.
    let revived = boot(&mut gm, &mut host, 5_000_000);
    assert_eq!(incarnation(&revived), 5_000_001);
    assert_eq!(
        vce_codec::to_bytes(&revived).len(),
        4 + 4,
        "4 of them the incarnation"
    );
    peer_host.now = 5_010_000;
    assert!(hear(&mut peer, &mut peer_host, 1, revived).is_empty());
    assert_ne!(
        peer.snapshot_hash(),
        before,
        "the row took the new incarnation"
    );
    // The peer forgot the old stream: the new incarnation's cast 0 is
    // delivered, not dropped as a duplicate of the old one's.
    assert_eq!(hear(&mut peer, &mut peer_host, 1, cast(0)), [(1, 0)]);
    assert_eq!(hear(&mut peer, &mut peer_host, 1, cast(1)), [(1, 1)]);
}

#[test]
fn members_booted_in_the_same_microsecond_share_an_incarnation_without_harm() {
    let mut peer_host = MockHost::new(NodeId(0));
    let mut peer = GroupMember::new(addr(0), config());
    peer.start(&mut peer_host);

    let (mut host1, mut host2) = (MockHost::new(NodeId(1)), MockHost::new(NodeId(2)));
    let mut one = GroupMember::new(addr(1), config());
    let mut two = GroupMember::new(addr(2), config());
    let (hb1, hb2) = (boot(&mut one, &mut host1, 0), boot(&mut two, &mut host2, 0));
    assert_eq!(incarnation(&hb1), incarnation(&hb2));

    // Heard side by side, the two streams stay apart…
    peer_host.now = 10_000;
    for (src, hb) in [(1, hb1.clone()), (2, hb2)] {
        assert!(hear(&mut peer, &mut peer_host, src, hb).is_empty());
        assert_eq!(hear(&mut peer, &mut peer_host, src, cast(0)), [(src, 0)]);
    }
    // …one member's unchanged incarnation resets nothing of its own…
    assert!(hear(&mut peer, &mut peer_host, 1, hb1).is_empty());
    assert!(hear(&mut peer, &mut peer_host, 1, cast(0)).is_empty());
    // …and when the other reboots, only its stream starts over.
    let revived = boot(&mut two, &mut host2, 2_000_000);
    assert_eq!(incarnation(&revived), 2_000_001);
    peer_host.now = 2_010_000;
    assert!(hear(&mut peer, &mut peer_host, 2, revived).is_empty());
    assert_eq!(hear(&mut peer, &mut peer_host, 2, cast(0)), [(2, 0)]);
    assert!(hear(&mut peer, &mut peer_host, 1, cast(0)).is_empty());
    assert_eq!(hear(&mut peer, &mut peer_host, 1, cast(1)), [(1, 1)]);
}
