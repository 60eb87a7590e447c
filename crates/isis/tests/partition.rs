//! Network partition behaviour: groups split into primary/minority views
//! and re-merge on heal — the §5 claim that "machines can enter or leave
//! the group at any time", stress-tested.

use bytes::Bytes;
use vce_codec::from_bytes;
use vce_isis::collect::CollectResult;
use vce_isis::{is_isis_token, GroupConfig, GroupMember, IsisMsg, Upcall, View};
use vce_net::{Addr, Endpoint, Envelope, Host, MachineInfo, NodeId};
use vce_sim::{Sim, SimConfig};

struct Member {
    gm: GroupMember,
    delivered: Vec<Bytes>,
    pending_casts: Vec<Bytes>,
    /// Reply to every delivered broadcast with this payload (stands in for
    /// a daemon answering a bid solicitation).
    auto_reply: Option<Bytes>,
    /// Collect to start on the next tick: (payload, timeout).
    pending_collect: Option<(Bytes, u64)>,
    collects: Vec<CollectResult>,
}

impl Member {
    fn new(me: Addr, cfg: GroupConfig) -> Self {
        Self {
            gm: GroupMember::new(me, cfg),
            delivered: Vec::new(),
            pending_casts: Vec::new(),
            auto_reply: None,
            pending_collect: None,
            collects: Vec::new(),
        }
    }

    fn process(&mut self, ups: Vec<Upcall>, host: &mut dyn Host) {
        for up in ups {
            match up {
                Upcall::Deliver { id, payload, .. } => {
                    if let Some(reply) = &self.auto_reply {
                        self.gm.reply(id, reply.clone(), host);
                    }
                    self.delivered.push(payload);
                }
                Upcall::CollectDone(r) => self.collects.push(r),
                _ => {}
            }
        }
    }
}

impl Endpoint for Member {
    fn on_start(&mut self, host: &mut dyn Host) {
        self.gm.start(host);
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let msg: IsisMsg = from_bytes(&env.payload).expect("isis msg");
        let mut ups = Vec::new();
        self.gm.handle(env.src, msg, host, &mut ups);
        self.process(ups, host);
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        assert!(is_isis_token(token));
        let mut ups = Vec::new();
        self.gm.on_timer(token, host, &mut ups);
        self.process(ups, host);
        if self.gm.is_member() {
            for p in std::mem::take(&mut self.pending_casts) {
                self.gm.bcast(p, host);
            }
            if let Some((payload, timeout)) = self.pending_collect.take() {
                self.gm.bcast_collect(payload, None, timeout, host);
            }
        }
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

fn build(sim: &mut Sim, n: u32) -> Vec<Addr> {
    let addrs: Vec<Addr> = (0..n).map(addr).collect();
    for i in 0..n {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addr(i),
            Box::new(Member::new(addr(i), GroupConfig::new(addrs.clone()))),
        );
    }
    addrs
}

fn view_at(sim: &mut Sim, a: Addr) -> View {
    sim.with_endpoint_mut::<Member, _>(a, |m| m.gm.view().clone())
        .unwrap()
}

#[test]
fn partition_splits_and_heal_reconverges() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build(&mut sim, 5);
    sim.run_until(3_000_000);
    for &a in &addrs {
        assert_eq!(view_at(&mut sim, a).len(), 5);
    }
    // Partition {0,1} | {2,3,4}.
    sim.with_fault_plan(|p| {
        p.set_partition(NodeId(2), 1);
        p.set_partition(NodeId(3), 1);
        p.set_partition(NodeId(4), 1);
    });
    sim.run_until(9_000_000);
    // Majority side: node 2 (lowest there) coordinates a 3-view.
    let v2 = view_at(&mut sim, addr(2));
    assert_eq!(v2.len(), 3, "{v2}");
    assert_eq!(v2.coordinator(), Some(addr(2)));
    // Minority side keeps its own view with the old coordinator.
    let v0 = view_at(&mut sim, addr(0));
    assert_eq!(v0.len(), 2, "{v0}");
    assert_eq!(v0.coordinator(), Some(addr(0)));
    // Heal: one side's coordinator must eventually absorb the other.
    sim.with_fault_plan(|p| p.heal_partitions());
    sim.run_until(25_000_000);
    let final_views: Vec<View> = addrs.iter().map(|&a| view_at(&mut sim, a)).collect();
    for v in &final_views {
        assert_eq!(v.len(), 5, "after heal: {v}");
        assert_eq!(v.coordinator(), final_views[0].coordinator());
        assert_eq!(v.id, final_views[0].id);
    }
}

/// §5 leader succession under partition: isolating the coordinator must
/// leave each side with exactly one allocator whose bid collection sees
/// only its own side — never machines across the cut (which is what would
/// feed a dual allocation) — and on heal the pre-partition coordinator
/// must stand down, leaving exactly one coordinator overall.
#[test]
fn isolated_coordinator_allocates_only_its_side_and_stands_down_on_heal() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build(&mut sim, 5);
    for &a in &addrs {
        sim.with_endpoint_mut::<Member, _>(a, |m| {
            m.auto_reply = Some(Bytes::from_static(b"bid"));
        });
    }
    sim.run_until(3_000_000);
    assert_eq!(view_at(&mut sim, addr(0)).coordinator(), Some(addr(0)));

    // Cut the coordinator off on its own: {0} | {1,2,3,4}.
    sim.with_fault_plan(|p| {
        for n in 1..5 {
            p.set_partition(NodeId(n), 1);
        }
    });
    sim.run_until(9_000_000);
    // Each side runs exactly one coordinator: the old one alone on its
    // island, the oldest survivor (node 1) on the majority side.
    let v0 = view_at(&mut sim, addr(0));
    assert_eq!(v0.len(), 1, "{v0}");
    assert_eq!(v0.coordinator(), Some(addr(0)));
    let v1 = view_at(&mut sim, addr(1));
    assert_eq!(v1.len(), 4, "{v1}");
    assert_eq!(v1.coordinator(), Some(addr(1)));
    for n in 0..5u32 {
        let is_coord = sim
            .with_endpoint_mut::<Member, _>(addr(n), |m| m.gm.is_coordinator())
            .unwrap();
        assert_eq!(is_coord, n == 0 || n == 1, "node {n}");
    }

    // Both coordinators solicit bids mid-partition. Replies must come
    // only from the soliciting side — no cross-partition inputs exist for
    // either allocator to act on.
    for n in [0u32, 1] {
        sim.with_endpoint_mut::<Member, _>(addr(n), |m| {
            m.pending_collect = Some((Bytes::from_static(b"solicit"), 1_500_000));
        });
    }
    sim.run_until(12_000_000);
    let collected = |sim: &mut Sim, n: u32| -> Vec<Addr> {
        sim.with_endpoint_mut::<Member, _>(addr(n), |m| m.collects.clone())
            .unwrap()
            .last()
            .expect("collect finished")
            .replies
            .iter()
            .map(|(a, _)| *a)
            .collect()
    };
    let side0 = collected(&mut sim, 0);
    assert_eq!(side0, vec![addr(0)], "isolated coordinator heard {side0:?}");
    let side1 = collected(&mut sim, 1);
    assert_eq!(side1.len(), 4, "majority coordinator heard {side1:?}");
    assert!(!side1.contains(&addr(0)), "cross-partition bid: {side1:?}");

    // Heal: the pre-partition coordinator rejoins as the youngest member
    // and stands down; the group converges on exactly one coordinator.
    sim.with_fault_plan(|p| p.heal_partitions());
    sim.run_until(30_000_000);
    let merged = view_at(&mut sim, addr(0));
    assert_eq!(merged.len(), 5, "{merged}");
    for &a in &addrs {
        assert_eq!(view_at(&mut sim, a).id, merged.id);
    }
    let coordinators: Vec<u32> = (0..5u32)
        .filter(|&n| {
            sim.with_endpoint_mut::<Member, _>(addr(n), |m| m.gm.is_coordinator())
                .unwrap()
        })
        .collect();
    assert_eq!(coordinators.len(), 1, "coordinators: {coordinators:?}");
    let demoted = sim
        .with_endpoint_mut::<Member, _>(addr(0), |m| m.gm.is_coordinator())
        .unwrap();
    assert!(!demoted, "pre-partition coordinator did not stand down");
}

#[test]
fn casts_resume_after_heal() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build(&mut sim, 4);
    sim.run_until(3_000_000);
    sim.with_fault_plan(|p| {
        p.set_partition(NodeId(3), 1);
    });
    sim.run_until(9_000_000);
    sim.with_fault_plan(|p| p.heal_partitions());
    sim.run_until(22_000_000);
    // Everyone is back in one view; a broadcast reaches all four.
    sim.with_endpoint_mut::<Member, _>(addr(0), |m| {
        m.pending_casts.push(Bytes::from_static(b"after-heal"));
    });
    sim.run_until(26_000_000);
    for &a in &addrs {
        let got = sim
            .with_endpoint_mut::<Member, _>(a, |m| m.delivered.clone())
            .unwrap();
        assert!(
            got.contains(&Bytes::from_static(b"after-heal")),
            "{a} missed the post-heal broadcast"
        );
    }
}
