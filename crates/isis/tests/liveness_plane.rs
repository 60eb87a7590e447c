//! The O(n) liveness plane: a view's two seniors (coordinator and deputy)
//! and every non-member heartbeat all candidates; every other member — a
//! junior — heartbeats only the seniors, searches when both go silent, and
//! takes over only when the search says the whole view lost them too.
//!
//! Nodes all boot at t = 0, so every member's protocol tick lands on a
//! multiple of 200 ms; faults are injected between ticks.

use bytes::Bytes;
use vce_codec::from_bytes;
use vce_isis::{is_isis_token, GroupConfig, GroupMember, IsisMsg, Upcall, View};
use vce_net::testing::ForwardHost;
use vce_net::{
    Addr, Endpoint, Envelope, FaultOp, Host, LinkFault, MachineInfo, MsgCategory, NodeId,
};
use vce_sim::{Sim, SimConfig};

const TICK_US: u64 = 200_000;
/// Silence budget for a peer whose window holds nothing but on-time
/// heartbeats: the detector's floor, four heartbeat periods.
const SILENCE_US: u64 = 4 * TICK_US;

/// What a member did, as seen from outside its `GroupMember`.
#[derive(Default)]
struct Seen {
    /// `(time, view)` of every install.
    installs: Vec<(u64, View)>,
    /// Times it was told it is out of the group.
    evicted: Vec<u64>,
    /// `Solicit`s it sent.
    solicits_sent: u64,
    /// One entry per heartbeat it sent from a message handler — an answer,
    /// by construction: the tick is the only other place heartbeats leave
    /// — naming the kind of message that was being handled.
    answered: Vec<&'static str>,
}

impl Seen {
    /// A host that watches the liveness traffic an endpoint emits while it
    /// handles `handling` (`None` inside a timer).
    fn tap<'a>(
        &'a mut self,
        inner: &'a mut dyn Host,
        handling: Option<&'static str>,
    ) -> impl Host + 'a {
        let on_send = move |_, _, payload: Bytes, category| {
            if category == MsgCategory::Heartbeat {
                match from_bytes::<IsisMsg>(&payload).expect("isis msg") {
                    IsisMsg::Solicit => self.solicits_sent += 1,
                    IsisMsg::Heartbeat { .. } => self.answered.extend(handling),
                    other => panic!("{other:?} sent as liveness traffic"),
                }
            }
            payload
        };
        ForwardHost { inner, on_send }
    }
}

struct Member {
    gm: GroupMember,
    seen: Seen,
}

impl Member {
    fn record(&mut self, now: u64, ups: Vec<Upcall>) {
        for up in ups {
            match up {
                Upcall::ViewInstalled(v) => self.seen.installs.push((now, v)),
                Upcall::Evicted => self.seen.evicted.push(now),
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
        let what = match msg {
            IsisMsg::Solicit => "solicit",
            IsisMsg::Heartbeat { .. } => "heartbeat",
            _ => "other",
        };
        let now = host.now_us();
        let mut ups = Vec::new();
        self.gm
            .handle(env.src, msg, &mut self.seen.tap(host, Some(what)), &mut ups);
        self.record(now, ups);
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        assert!(is_isis_token(token));
        let now = host.now_us();
        let mut ups = Vec::new();
        self.gm
            .on_timer(token, &mut self.seen.tap(host, None), &mut ups);
        self.record(now, ups);
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

/// An `n`-member group, settled: `view#2{0, 1, …, n-1}` everywhere, every
/// arrival window warm, t = 5.1 s (mid-tick).
fn group(n: u32) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let addrs: Vec<Addr> = (0..n).map(addr).collect();
    for i in 0..n {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        let gm = GroupMember::new(addr(i), GroupConfig::new(addrs.clone()));
        sim.add_endpoint(
            addr(i),
            Box::new(Member {
                gm,
                seen: Seen::default(),
            }),
        );
    }
    sim.run_until(5_100_000);
    for i in 0..n {
        let v = view(&mut sim, i);
        assert_eq!((v.id, v.len()), (2, n as usize), "at {i}: {v}");
        assert_eq!(
            v.members[i as usize].addr,
            addr(i),
            "seniority is node order"
        );
    }
    sim
}

fn with<T>(sim: &mut Sim, n: u32, f: impl FnOnce(&mut Member) -> T) -> T {
    sim.with_endpoint_mut::<Member, _>(addr(n), f)
        .expect("a member endpoint")
}

fn view(sim: &mut Sim, n: u32) -> View {
    with(sim, n, |m| m.gm.view().clone())
}

/// Installs at `n` after time `since`.
fn installs_since(sim: &mut Sim, n: u32, since: u64) -> Vec<(u64, View)> {
    with(sim, n, |m| {
        m.seen
            .installs
            .iter()
            .filter(|(t, _)| *t > since)
            .cloned()
            .collect()
    })
}

fn evictions(sim: &mut Sim, n: u32) -> Vec<u64> {
    with(sim, n, |m| m.seen.evicted.clone())
}

/// Silence every `from → to` link (one direction) for `for_us` from now.
fn mute(sim: &mut Sim, from: &[u32], to: u32, for_us: u64) {
    let now = sim.now_us();
    let deaf = LinkFault {
        drop_prob: 1.0,
        ..Default::default()
    };
    for &f in from {
        sim.schedule_fault(now, FaultOp::Link(NodeId(f), NodeId(to), deaf));
        sim.schedule_fault(now + for_us, FaultOp::ClearLink(NodeId(f), NodeId(to)));
    }
}

/// (a) The standing cost: 2(n − 1) from each of two seniors, 2 from each
/// of n − 2 juniors.
#[test]
fn steady_state_costs_4n_minus_6_heartbeats_a_tick() {
    for n in [12u32, 48] {
        let mut sim = group(n);
        let before = sim.stats().heartbeats_sent;
        let ticks = 50;
        sim.run_until(5_100_000 + ticks * TICK_US);
        let per_tick = (sim.stats().heartbeats_sent - before) / ticks;
        assert_eq!(per_tick, 4 * u64::from(n) - 6, "n = {n}");
        let solicits: u64 = (0..n)
            .map(|i| with(&mut sim, i, |m| m.seen.solicits_sent))
            .sum();
        assert_eq!(solicits, 0, "nobody searches in a healthy group");
    }
}

/// (b) Single-coordinator succession is the deputy's, and the deputy holds
/// a full table: it fires at the instant the all-to-all plane fired it.
#[test]
fn deputy_succeeds_a_crashed_coordinator_when_it_always_did() {
    let mut sim = group(12);
    let killed = sim.now_us();
    sim.kill_node(NodeId(0));
    sim.run_until(killed + 5_000_000);
    let at_deputy = installs_since(&mut sim, 1, killed);
    assert_eq!(at_deputy.len(), 1, "{at_deputy:?}");
    let (when, successor) = &at_deputy[0];
    // Pinned from the parent commit (all-candidates heartbeats), which
    // runs this scenario to the same instant: the last heartbeat from the
    // coordinator left at 5.0 s, and the first tick at which it has been
    // silent for a full 800 ms budget is the one at 6.0 s.
    assert_eq!(*when, 6_000_000);
    assert_eq!(successor.coordinator(), Some(addr(1)));
    assert_eq!(successor.len(), 11);
    for n in 1..12 {
        assert_eq!(&view(&mut sim, n), successor, "at {n}");
        assert!(evictions(&mut sim, n).is_empty(), "{n} was evicted");
    }
}

/// (c) Both seniors at once: the juniors search, and the oldest of them
/// takes over once — not one view per impatient junior.
#[test]
fn both_seniors_lost_at_once_yields_exactly_one_successor_view() {
    let mut sim = group(12);
    let killed = sim.now_us();
    sim.kill_node(NodeId(0));
    sim.kill_node(NodeId(1));
    sim.run_until(killed + 10_000_000);
    let successor = view(&mut sim, 2);
    assert_eq!(successor.coordinator(), Some(addr(2)));
    assert_eq!(successor.len(), 10, "{successor}");
    for n in 2..12 {
        let installs = installs_since(&mut sim, n, killed);
        assert_eq!(installs.len(), 1, "at {n}: {installs:?}");
        assert_eq!(installs[0].1, successor, "at {n}");
        // Last heartbeats left at 5.0 s. The search runs through the
        // second half of the silence budget, so the verdict falls on the
        // tick a lone coordinator's would; the install is a message away.
        let verdict = 5_000_000 + SILENCE_US + TICK_US;
        let at = installs[0].0;
        assert!((verdict..verdict + 5_000).contains(&at), "at {n}: {at}");
        assert!(evictions(&mut sim, n).is_empty(), "{n} was evicted");
    }
}

/// (d) A member that alone stops hearing both seniors — its inbound links
/// from them are dead, nothing else — searches, learns from the answers
/// that nobody else is searching, and leaves the group alone. Tried for
/// the junior next in line (who would be the successor) and for one far
/// down the view.
#[test]
fn a_member_that_alone_loses_both_seniors_changes_nothing() {
    for m in [2u32, 7] {
        let mut sim = group(12);
        let from = sim.now_us();
        mute(&mut sim, &[0, 1], m, 30_000_000);
        sim.run_until(from + 29_000_000);
        assert!(
            with(&mut sim, m, |mm| mm.seen.solicits_sent) > 100,
            "{m} never searched"
        );
        sim.run_until(from + 40_000_000);
        for n in 0..12 {
            assert!(
                installs_since(&mut sim, n, from).is_empty(),
                "{n} installed"
            );
            assert!(evictions(&mut sim, n).is_empty(), "{n} was evicted");
            assert_eq!(view(&mut sim, n).id, 2, "at {n}");
        }
    }
}

/// (e) A minority cut off from both seniors forms one view of its own,
/// and the heal folds it back into one view of everybody.
#[test]
fn a_minority_without_seniors_converges_and_remerges_on_heal() {
    let mut sim = group(12);
    let cut = sim.now_us();
    sim.with_fault_plan(|p| {
        for n in 8..12 {
            p.set_partition(NodeId(n), 1);
        }
    });
    sim.run_until(cut + 10_000_000);
    let minority = view(&mut sim, 8);
    assert_eq!(minority.coordinator(), Some(addr(8)));
    assert_eq!(minority.len(), 4, "{minority}");
    for n in 9..12 {
        assert_eq!(view(&mut sim, n), minority, "at {n}");
    }
    let majority = view(&mut sim, 0);
    assert_eq!(majority.len(), 8, "{majority}");
    for n in 1..8 {
        assert_eq!(view(&mut sim, n), majority, "at {n}");
    }
    sim.with_fault_plan(|p| p.heal_partitions());
    sim.run_until(cut + 40_000_000);
    let merged = view(&mut sim, 0);
    assert_eq!(merged.len(), 12, "{merged}");
    assert_eq!(merged.coordinator(), Some(addr(0)));
    for n in 1..12 {
        assert_eq!(view(&mut sim, n), merged, "at {n}");
    }
}

/// (f) A junior promoted to deputy has listened to nobody but the seniors.
/// If the coordinator dies next, the promoted deputy must take over with
/// everyone still aboard: install-time lease first, real heartbeats after.
#[test]
fn a_promoted_deputy_takes_over_without_evicting_the_unheard() {
    for gap_us in [SILENCE_US + TICK_US, 3_000_000] {
        let mut sim = group(12);
        let start = sim.now_us();
        sim.kill_node(NodeId(1));
        // The coordinator notices at the 6.0 s tick and promotes node 2.
        sim.run_until(6_050_000);
        assert_eq!(view(&mut sim, 2).members[1].addr, addr(2));
        sim.run_until(6_050_000 + gap_us);
        sim.kill_node(NodeId(0));
        sim.run_until(20_000_000);
        let last = view(&mut sim, 2);
        assert_eq!(last.coordinator(), Some(addr(2)));
        assert_eq!(last.len(), 10, "gap {gap_us}: {last}");
        for n in 2..12 {
            assert_eq!(view(&mut sim, n), last, "at {n}");
            assert!(evictions(&mut sim, n).is_empty(), "{n} was evicted");
            // One view without the deputy, one without the coordinator.
            let ids: Vec<u64> = installs_since(&mut sim, n, start)
                .iter()
                .map(|(_, v)| v.id)
                .collect();
            assert_eq!(ids, vec![3, 4], "at {n}");
        }
    }
}

/// (g) A search makes peers talk that otherwise never do, twice, a minute
/// apart. None of that is an inter-arrival sample: every silence budget —
/// the searcher's for its view-mates, theirs for it — stays where it was.
#[test]
fn search_episodes_leave_every_silence_budget_where_it_was() {
    let mut sim = group(12);
    let m = 5u32;
    let budgets = |sim: &mut Sim| -> Vec<u64> {
        let mut all = Vec::new();
        for n in 0..12 {
            all.extend(with(sim, n, |mm| {
                (0..12)
                    .map(|p| mm.gm.silence_budget_us(addr(p)))
                    .collect::<Vec<u64>>()
            }));
        }
        all
    };
    let before = budgets(&mut sim);
    for _ in 0..2 {
        mute(&mut sim, &[0, 1], m, 5_000_000);
        let t = sim.now_us();
        sim.run_until(t + 60_000_000);
    }
    assert!(with(&mut sim, m, |mm| mm.seen.solicits_sent) > 20);
    assert_eq!(budgets(&mut sim), before);
    assert_eq!(view(&mut sim, m).id, 2);
}

/// (h) Only a `Solicit` is answered, with one heartbeat, and a heartbeat
/// never is — so answers cannot outnumber solicitations however the
/// search ends, including with answers still in flight to a searcher that
/// has stopped.
#[test]
fn an_answer_to_a_solicitation_is_never_itself_answered() {
    // A search that ends on its own (the seniors are audible again), then
    // one that ends in a takeover.
    let mut sim = group(12);
    mute(&mut sim, &[0, 1], 4, 2_050_000);
    let t = sim.now_us();
    sim.run_until(t + 6_000_000);
    sim.kill_node(NodeId(0));
    sim.kill_node(NodeId(1));
    sim.run_until(t + 16_000_000);
    let (mut solicits, mut answers) = (0, 0);
    for n in 2..12 {
        let (s, answered) = with(&mut sim, n, |m| {
            (m.seen.solicits_sent, m.seen.answered.clone())
        });
        assert!(
            answered.iter().all(|&w| w == "solicit"),
            "{n} answered {answered:?}"
        );
        solicits += s;
        answers += answered.len() as u64;
    }
    assert!(solicits > 0, "nobody searched");
    assert!(
        answers > 0 && answers <= solicits,
        "{answers} answers to {solicits}"
    );
}
