//! End-to-end group-communication tests: GroupMember endpoints running on
//! the deterministic discrete-event simulator.

use bytes::Bytes;
use vce_codec::from_bytes;
use vce_isis::collect::CollectResult;
use vce_isis::{is_isis_token, GroupConfig, GroupMember, IsisMsg, Upcall, View};
use vce_net::{Addr, Endpoint, Envelope, Host, LinkFault, MachineInfo, NodeId};
use vce_sim::{Sim, SimConfig};

/// Test endpoint embedding a GroupMember.
///
/// Tests cannot call `bcast` directly (no `Host` outside the event loop), so
/// they queue *pending actions* via `with_endpoint_mut`; the endpoint
/// performs them on its next protocol tick.
struct TestMember {
    gm: GroupMember,
    upcalls: Vec<(u64, Upcall)>,
    /// Reply to every delivered broadcast with this payload.
    auto_reply: Option<Bytes>,
    /// Casts to perform on the next tick.
    pending_casts: Vec<Bytes>,
    /// Collect to perform on the next tick: (payload, expected, timeout).
    pending_collect: Option<(Bytes, Option<usize>, u64)>,
}

impl TestMember {
    fn new(me: Addr, cfg: GroupConfig) -> Self {
        Self {
            gm: GroupMember::new(me, cfg),
            upcalls: Vec::new(),
            auto_reply: None,
            pending_casts: Vec::new(),
            pending_collect: None,
        }
    }

    fn process(&mut self, ups: Vec<Upcall>, host: &mut dyn Host) {
        let now = host.now_us();
        for up in ups {
            if let (Upcall::Deliver { id, .. }, Some(reply)) = (&up, &self.auto_reply) {
                self.gm.reply(*id, reply.clone(), host);
            }
            self.upcalls.push((now, up));
        }
    }

    fn drain_pending(&mut self, host: &mut dyn Host) {
        if self.gm.is_member() {
            for payload in std::mem::take(&mut self.pending_casts) {
                self.gm.bcast(payload, host);
            }
            if let Some((payload, expected, timeout)) = self.pending_collect.take() {
                self.gm.bcast_collect(payload, expected, timeout, host);
            }
        }
    }

    fn delivered_payloads(&self) -> Vec<Bytes> {
        self.upcalls
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::Deliver { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect()
    }

    fn collect_results(&self) -> Vec<CollectResult> {
        self.upcalls
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::CollectDone(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    fn became_coordinator(&self) -> bool {
        self.upcalls
            .iter()
            .any(|(_, u)| matches!(u, Upcall::BecameCoordinator(_)))
    }
}

impl Endpoint for TestMember {
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
        self.drain_pending(host);
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

fn build_group(sim: &mut Sim, n: u32) -> Vec<Addr> {
    let addrs: Vec<Addr> = (0..n).map(addr).collect();
    for i in 0..n {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addr(i),
            Box::new(TestMember::new(addr(i), GroupConfig::new(addrs.clone()))),
        );
    }
    addrs
}

fn view_at(sim: &mut Sim, a: Addr) -> View {
    sim.with_endpoint_mut::<TestMember, _>(a, |m| m.gm.view().clone())
        .unwrap()
}

fn payloads_at(sim: &mut Sim, a: Addr) -> Vec<Bytes> {
    sim.with_endpoint_mut::<TestMember, _>(a, |m| m.delivered_payloads())
        .unwrap()
}

#[test]
fn three_nodes_bootstrap_one_group() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 3);
    sim.run_until(3_000_000);
    for &a in &addrs {
        let v = view_at(&mut sim, a);
        assert_eq!(v.len(), 3, "at {a}: {v}");
        assert_eq!(v.coordinator(), Some(addr(0)));
    }
    let coords: usize = addrs
        .iter()
        .filter(|&&a| {
            sim.with_endpoint_mut::<TestMember, _>(a, |m| m.became_coordinator())
                .unwrap()
        })
        .count();
    assert_eq!(coords, 1);
}

#[test]
fn late_joiner_is_admitted_with_lower_seniority() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs: Vec<Addr> = (0..4).map(addr).collect();
    for i in 0..3 {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addr(i),
            Box::new(TestMember::new(addr(i), GroupConfig::new(addrs.clone()))),
        );
    }
    sim.run_until(3_000_000);
    sim.add_node(MachineInfo::workstation(NodeId(3), 100.0));
    sim.add_endpoint(
        addr(3),
        Box::new(TestMember::new(addr(3), GroupConfig::new(addrs.clone()))),
    );
    sim.run_until(6_000_000);
    for &a in &addrs {
        let v = view_at(&mut sim, a);
        assert_eq!(v.len(), 4, "at {a}: {v}");
        assert_eq!(v.coordinator(), Some(addr(0)));
        assert_eq!(v.members.last().unwrap().addr, addr(3));
    }
}

#[test]
fn oldest_survivor_takes_over_when_coordinator_dies() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 4);
    sim.run_until(3_000_000);
    assert_eq!(view_at(&mut sim, addr(1)).coordinator(), Some(addr(0)));
    sim.kill_node(NodeId(0));
    sim.run_until(8_000_000);
    for &a in &addrs[1..] {
        let v = view_at(&mut sim, a);
        assert_eq!(v.len(), 3, "at {a}: {v}");
        assert_eq!(v.coordinator(), Some(addr(1)), "at {a}");
    }
    assert!(sim
        .with_endpoint_mut::<TestMember, _>(addr(1), |m| m.became_coordinator())
        .unwrap());
}

#[test]
fn killed_member_rejoins_as_most_junior() {
    let mut sim = Sim::new(SimConfig::default());
    let _ = build_group(&mut sim, 3);
    sim.run_until(3_000_000);
    sim.kill_node(NodeId(1));
    sim.run_until(7_000_000);
    assert_eq!(view_at(&mut sim, addr(0)).len(), 2);
    sim.revive_node(NodeId(1));
    sim.run_until(12_000_000);
    let v = view_at(&mut sim, addr(0));
    assert_eq!(v.len(), 3, "{v}");
    assert_eq!(v.coordinator(), Some(addr(0)));
    assert_eq!(v.members.last().unwrap().addr, addr(1));
    assert_eq!(view_at(&mut sim, addr(1)), v);
}

#[test]
fn fbcast_delivers_everywhere_exactly_once_in_order() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 3);
    sim.run_until(3_000_000);
    let msgs: Vec<Bytes> = (0..10u8).map(|k| Bytes::from(vec![k])).collect();
    sim.with_endpoint_mut::<TestMember, _>(addr(2), |m| {
        m.pending_casts = msgs.clone();
    });
    sim.run_until(6_000_000);
    for &a in &addrs {
        assert_eq!(payloads_at(&mut sim, a), msgs, "at {a}");
    }
}

#[test]
fn fbcast_survives_a_lossy_network() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 3);
    sim.run_until(3_000_000);
    // 20% loss on every link from here on.
    sim.with_fault_plan(|p| {
        p.default_link = LinkFault {
            drop_prob: 0.20,
            ..Default::default()
        };
    });
    let msgs: Vec<Bytes> = (0..20u8).map(|k| Bytes::from(vec![k])).collect();
    sim.with_endpoint_mut::<TestMember, _>(addr(1), |m| {
        m.pending_casts = msgs.clone();
    });
    // Generous horizon for NACK/retransmit rounds.
    sim.run_until(40_000_000);
    for &a in &addrs {
        let got = payloads_at(&mut sim, a);
        assert_eq!(got, msgs, "at {a} (got {} of 20)", got.len());
    }
}

#[test]
fn collect_gathers_replies_from_all_members() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 4);
    sim.run_until(3_000_000);
    for &a in &addrs {
        sim.with_endpoint_mut::<TestMember, _>(a, |m| {
            m.auto_reply = Some(Bytes::from(format!("bid-{}", a.node)));
        });
    }
    sim.with_endpoint_mut::<TestMember, _>(addr(0), |m| {
        m.pending_collect = Some((Bytes::from_static(b"disclose"), None, 2_000_000));
    });
    sim.run_until(8_000_000);
    let results = sim
        .with_endpoint_mut::<TestMember, _>(addr(0), |m| m.collect_results())
        .unwrap();
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert!(!r.timed_out);
    assert_eq!(r.replies.len(), 4);
    let mut senders: Vec<Addr> = r.replies.iter().map(|(a, _)| *a).collect();
    senders.sort();
    assert_eq!(senders, addrs);
    for &a in &addrs {
        assert_eq!(payloads_at(&mut sim, a).len(), 1, "one delivery at {a}");
    }
}

#[test]
fn collect_times_out_when_a_member_is_dead() {
    let mut sim = Sim::new(SimConfig::default());
    let addrs = build_group(&mut sim, 4);
    sim.run_until(3_000_000);
    for &a in &addrs {
        sim.with_endpoint_mut::<TestMember, _>(a, |m| {
            m.auto_reply = Some(Bytes::from_static(b"bid"));
        });
    }
    // Kill node 3, then collect immediately (before the failure detector
    // shrinks the view): the leader expects 4 replies and must time out
    // with 3 — the "fewer responses than needed" branch of the paper's
    // groupLeader pseudocode.
    sim.kill_node(NodeId(3));
    sim.with_endpoint_mut::<TestMember, _>(addr(0), |m| {
        m.pending_collect = Some((Bytes::from_static(b"disclose"), Some(4), 700_000));
    });
    sim.run_until(6_000_000);
    let results = sim
        .with_endpoint_mut::<TestMember, _>(addr(0), |m| m.collect_results())
        .unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].timed_out);
    assert_eq!(results[0].replies.len(), 3);
}

#[test]
fn group_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut sim = Sim::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        let addrs = build_group(&mut sim, 5);
        sim.run_until(2_500_000);
        sim.kill_node(NodeId(0));
        sim.run_until(9_000_000);
        let views: Vec<View> = addrs[1..].iter().map(|&a| view_at(&mut sim, a)).collect();
        (sim.events_processed(), sim.stats().snapshot(), views)
    };
    assert_eq!(run(7), run(7));
    // Different seed still converges to the same membership (liveness), but
    // the event count may differ.
    let (_, _, views_a) = run(7);
    let (_, _, views_b) = run(8);
    assert_eq!(views_a.last().unwrap().len(), views_b.last().unwrap().len());
}
