//! The O(n) liveness plane: a view's two seniors (coordinator and deputy)
//! and every non-member heartbeat all candidates; every other member — a
//! junior — heartbeats only the seniors, searches when both go silent, and
//! takes over only when the search says the whole view lost them too. A
//! settled member owes no heartbeat to a view-mate it sent other traffic
//! within half a period, so a busy group's plane shrinks to the
//! deputy↔junior links.
//!
//! Nodes all boot at t = 0, so every member's protocol tick lands on a
//! multiple of 200 ms; faults are injected between ticks. A member told to
//! talk does so 1 ms past every multiple of 50 ms, never on a tick.

use std::collections::BTreeMap;

use bytes::Bytes;
use vce_codec::from_bytes;
use vce_isis::{is_isis_token, BcastId, GroupConfig, GroupMember, IsisMsg, Upcall, View};
use vce_net::testing::ForwardHost;
use vce_net::{
    Addr, Endpoint, Envelope, FaultOp, Host, LinkFault, MachineInfo, MsgCategory, NodeId,
};
use vce_sim::{Sim, SimConfig};

const TICK_US: u64 = 200_000;
/// Silence budget for a peer whose window holds nothing but on-time
/// heartbeats: the detector's floor, four heartbeat periods.
const SILENCE_US: u64 = 4 * TICK_US;
/// The test's own timer: a member's protocol traffic, if it has been told
/// to send any, leaves every `TALK_US` — the bidding round's request rate.
const TALK: u64 = 1;
const TALK_US: u64 = 50_000;
/// One message's flight on the default LAN, with room to spare.
const FLIGHT_US: u64 = 2_000;

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
    /// Heartbeats its ticks sent, by destination node.
    beats: BTreeMap<u32, u64>,
    /// When each message from the coordinator of the settled view, node 0,
    /// arrived.
    from_node_0: Vec<u64>,
}

impl Seen {
    /// A host that watches the liveness traffic an endpoint emits while it
    /// handles `handling` (`None` inside a timer).
    fn tap<'a>(
        &'a mut self,
        inner: &'a mut dyn Host,
        handling: Option<&'static str>,
    ) -> impl Host + 'a {
        let on_send = move |_, dst: Addr, payload: Bytes, category| {
            if category == MsgCategory::Heartbeat {
                match from_bytes::<IsisMsg>(&payload).expect("isis msg") {
                    IsisMsg::Solicit => self.solicits_sent += 1,
                    IsisMsg::Heartbeat { .. } => match handling {
                        Some(what) => self.answered.push(what),
                        None => *self.beats.entry(dst.node.0).or_default() += 1,
                    },
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
    /// Cast to the view every `TALK_US`, as a coordinator asking for bids
    /// does. Every member replies to every cast it delivers.
    casting: bool,
    /// Send each of these a reply every `TALK_US`, in a view or not.
    replying_to: Vec<Addr>,
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
        host.set_timer(1_000, TALK);
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let msg: IsisMsg = from_bytes(&env.payload).expect("isis msg");
        let what = match msg {
            IsisMsg::Solicit => "solicit",
            IsisMsg::Heartbeat { .. } => "heartbeat",
            _ => "other",
        };
        let now = host.now_us();
        if env.src == addr(0) {
            self.seen.from_node_0.push(now);
        }
        let mut ups = Vec::new();
        let mut host = self.seen.tap(host, Some(what));
        self.gm.handle(env.src, msg, &mut host, &mut ups);
        for up in &ups {
            if let Upcall::Deliver { id, .. } = up {
                if id.origin != self.gm.me() {
                    self.gm.reply(*id, Bytes::new(), &mut host);
                }
            }
        }
        drop(host);
        self.record(now, ups);
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        if token == TALK {
            host.set_timer(TALK_US, TALK);
            if self.casting {
                self.gm.bcast(Bytes::new(), host);
            }
            for &to in &self.replying_to {
                let id = BcastId { origin: to, seq: 0 };
                self.gm.reply(id, Bytes::new(), host);
            }
            return;
        }
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
                casting: false,
                replying_to: Vec::new(),
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

/// Heartbeats node `n`'s ticks have sent so far, by destination node.
fn beats(sim: &mut Sim, n: u32) -> BTreeMap<u32, u64> {
    with(sim, n, |m| m.seen.beats.clone())
}

/// How many heartbeats went to `to` between two readings of [`beats`].
fn beats_between(before: &BTreeMap<u32, u64>, after: &BTreeMap<u32, u64>, to: u32) -> u64 {
    let count = |b: &BTreeMap<u32, u64>| b.get(&to).copied().unwrap_or(0);
    count(after) - count(before)
}

/// The longest silence between two messages from node 0 that node `n`
/// heard after `since`.
fn longest_silence_from_node_0(sim: &mut Sim, n: u32, since: u64) -> u64 {
    with(sim, n, |m| {
        let heard: Vec<u64> = m
            .seen
            .from_node_0
            .iter()
            .copied()
            .filter(|&t| t > since)
            .collect();
        heard.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    })
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

/// (i) A coordinator that casts every 50 ms, and is replied to, keeps every
/// link it shares with its view-mates proven alive both ways: its ticks
/// send them nothing and nobody heartbeats it. What is left is the deputy
/// and the juniors heartbeating each other, 2(n − 2) a tick.
#[test]
fn a_busy_coordinator_leaves_2n_minus_4_heartbeats_a_tick() {
    for n in [12u32, 48] {
        let mut sim = group(n);
        let quiet = beats(&mut sim, 0);
        with(&mut sim, 0, |m| m.casting = true);
        sim.run_until(5_300_000);
        let before = sim.stats().heartbeats_sent;
        let ticks = 50;
        sim.run_until(5_300_000 + ticks * TICK_US);
        let sent = sim.stats().heartbeats_sent - before;
        assert_eq!(sent, ticks * 2 * (u64::from(n) - 2), "n = {n}");
        assert_eq!(beats(&mut sim, 0), quiet, "n = {n}: the coordinator ticked");
        for i in 0..n {
            assert_eq!(
                with(&mut sim, i, |m| m.seen.solicits_sent),
                0,
                "{i} searched"
            );
            assert_eq!(view(&mut sim, i).id, 2, "n = {n}, at {i}");
        }
    }
}

/// (j) When the casts stop, a cast just inside half a period of a tick
/// excuses that tick, and the next tick sends: the coordinator's longest
/// silence is one and a half periods. Tried with the last cast at each
/// 50 ms phase of a tick; the skip must show in one of them.
#[test]
fn once_the_casts_stop_no_member_hears_the_coordinator_go_quieter_than_1_5_periods() {
    let mut longest = 0;
    for last_cast in [6_001_000, 6_051_000, 6_101_000, 6_151_000] {
        let mut sim = group(12);
        with(&mut sim, 0, |m| m.casting = true);
        sim.run_until(last_cast);
        with(&mut sim, 0, |m| m.casting = false);
        sim.run_until(last_cast + 2_000_000);
        for n in 1..12 {
            let silence = longest_silence_from_node_0(&mut sim, n, 5_100_000);
            assert!(
                silence <= 3 * TICK_US / 2 + FLIGHT_US,
                "last cast at {last_cast}: {n} heard nothing for {silence} µs"
            );
            longest = longest.max(silence);
        }
        for n in 0..12 {
            assert!(
                installs_since(&mut sim, n, 5_100_000).is_empty(),
                "{n} installed"
            );
        }
    }
    assert!(longest > TICK_US, "no tick was skipped: {longest} µs");
}

/// (k) After a skipped tick a link still survives the next two heartbeats
/// lost, both ways on every link of the coordinator: three and a half
/// periods of silence, under the detector's four-period floor.
#[test]
fn losing_the_two_heartbeats_after_a_skipped_tick_evicts_nobody() {
    let mut sim = group(12);
    with(&mut sim, 0, |m| m.casting = true);
    // The last cast, at 6.101 s, excuses the 6.2 s tick on both sides.
    sim.run_until(6_101_000);
    with(&mut sim, 0, |m| m.casting = false);
    // Lose what the 6.4 s and 6.6 s ticks send to and from node 0.
    sim.run_until(6_300_000);
    let rest: Vec<u32> = (1..12).collect();
    mute(&mut sim, &rest, 0, 2 * TICK_US);
    for &n in &rest {
        mute(&mut sim, &[0], n, 2 * TICK_US);
    }
    sim.run_until(20_000_000);
    for n in 0..12 {
        assert!(
            installs_since(&mut sim, n, 5_100_000).is_empty(),
            "{n} installed"
        );
        assert!(evictions(&mut sim, n).is_empty(), "{n} was evicted");
        assert_eq!(view(&mut sim, n).id, 2, "at {n}");
    }
    let silence = longest_silence_from_node_0(&mut sim, 5, 5_100_000);
    assert!(
        silence > 3 * TICK_US + TICK_US / 2 - FLIGHT_US,
        "{silence} µs"
    );
    assert!(silence < SILENCE_US, "{silence} µs");
}

/// (l) Only a settled member skips, and only its view-mates. A searching
/// junior that casts, a non-member that replies and a coordinator replying
/// to a partitioned-off view all still heartbeat those peers every tick.
#[test]
fn searchers_non_members_and_other_views_still_get_a_heartbeat_every_tick() {
    let ticks = 20;
    let others = |me: u32| (0..12u32).filter(move |&p| p != me);
    let window = |sim: &mut Sim, n: u32, from: u64| {
        sim.run_until(from);
        let before = beats(sim, n);
        sim.run_until(from + ticks * TICK_US);
        (before, beats(sim, n))
    };

    // Junior 5 casts to the view but hears neither senior, so it searches.
    let mut sim = group(12);
    mute(&mut sim, &[0, 1], 5, 30_000_000);
    with(&mut sim, 5, |m| m.casting = true);
    let (before, after) = window(&mut sim, 5, 7_100_000);
    assert!(
        with(&mut sim, 5, |m| m.seen.solicits_sent) > 0,
        "5 never searched"
    );
    for p in others(5) {
        assert_eq!(beats_between(&before, &after, p), ticks, "searcher to {p}");
    }

    // The seniors stop hearing 7 and evict it; it replies to everyone.
    let mut sim = group(12);
    mute(&mut sim, &[7], 0, 30_000_000);
    mute(&mut sim, &[7], 1, 30_000_000);
    sim.run_until(7_100_000);
    assert!(!with(&mut sim, 7, |m| m.gm.is_member()), "7 still a member");
    with(&mut sim, 7, |m| {
        m.replying_to = others(7).map(addr).collect()
    });
    let (before, after) = window(&mut sim, 7, 7_300_000);
    for p in others(7) {
        assert_eq!(
            beats_between(&before, &after, p),
            ticks,
            "non-member to {p}"
        );
    }

    // Nodes 8–11 are cut off and form a view of their own; the coordinator
    // casts to its own view and replies to them.
    let mut sim = group(12);
    sim.with_fault_plan(|p| {
        for n in 8..12 {
            p.set_partition(NodeId(n), 1);
        }
    });
    sim.run_until(15_100_000);
    assert_eq!(view(&mut sim, 0).len(), 8);
    assert_eq!(view(&mut sim, 8).len(), 4);
    with(&mut sim, 0, |m| {
        m.casting = true;
        m.replying_to = (8..12).map(addr).collect();
    });
    let (before, after) = window(&mut sim, 0, 15_300_000);
    for p in others(0) {
        let expected = if p < 8 { 0 } else { ticks };
        assert_eq!(
            beats_between(&before, &after, p),
            expected,
            "coordinator to {p}"
        );
    }
}
