//! The per-peer table under churn: one `GroupMember` is driven with random
//! interleavings of heartbeats, solicitations, view installs, ticks,
//! quarantine sweeps and reboots, next to a reference model that keeps the
//! same facts the way `GroupMember` used to — `BTreeMap`s keyed by address —
//! and states the liveness plane's rules (who is expected to heartbeat
//! whom, the install-time lease, the search before a junior's takeover) in
//! terms of the view alone, with no cached ranks. After every
//! step the two must agree on `snapshot_hash`, the installed view, and for
//! every address `silence_budget_us`, `suspicion_millis` and `flap_state`.
//!
//! The model is a reference implementation for this test only; it sends
//! nothing and delivers nothing, because none of that is folded into the
//! hash or visible through the accessors compared here.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use vce_isis::member::BOOTSTRAP_QUIET_US;
use vce_isis::{
    ArrivalWindow, FlapState, GroupConfig, GroupMember, IsisMsg, Member, View, ISIS_TOKEN_BASE,
};
use vce_net::testing::MockHost;
use vce_net::{Addr, Fnv64, NodeId};

const TOKEN_TICK: u64 = ISIS_TOKEN_BASE;
const TOKEN_QUARANTINE_SWEEP: u64 = ISIS_TOKEN_BASE + 1;

/// Candidates are nodes `0..CANDIDATES`; node `CANDIDATES` is an outsider.
const CANDIDATES: u32 = 5;

fn addr(n: u32) -> Addr {
    Addr::daemon(NodeId(n))
}

/// How many of a view's oldest members heartbeat everyone and are
/// heartbeated by everyone.
const SENIORS: usize = 2;

/// The membership half of `GroupMember` as it was before the table: the
/// per-peer maps, the view and the admission counter.
struct Model {
    me: Addr,
    cfg: GroupConfig,
    incarnation: u64,
    started_at: u64,
    view: View,
    last_heard: BTreeMap<Addr, u64>,
    incarnations: BTreeMap<Addr, u64>,
    joiners: BTreeSet<Addr>,
    arrivals: BTreeMap<Addr, ArrivalWindow>,
    flaps: BTreeMap<Addr, FlapState>,
    /// Peers whose last arrival was an expected one, and which have been
    /// expected to heartbeat this member ever since.
    regular: BTreeSet<Addr>,
    /// When each peer last solicited this member.
    sought: BTreeMap<Addr, u64>,
    /// Since when this junior has heard from none of its seniors.
    searching: Option<u64>,
    next_join_seq: u64,
}

impl Model {
    fn new(me: Addr, cfg: GroupConfig) -> Self {
        Self {
            me,
            cfg,
            incarnation: 0,
            started_at: 0,
            view: View::default(),
            last_heard: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            joiners: BTreeSet::new(),
            arrivals: BTreeMap::new(),
            flaps: BTreeMap::new(),
            regular: BTreeSet::new(),
            sought: BTreeMap::new(),
            searching: None,
            next_join_seq: 0,
        }
    }

    fn is_senior(&self, who: Addr) -> bool {
        self.view.addrs().take(SENIORS).any(|a| a == who)
    }
    /// Do the roles say `who` heartbeats this member every tick?
    fn expects(&self, who: Addr) -> bool {
        !self.is_member()
            || self.is_senior(self.me)
            || self.is_senior(who)
            || !self.view.contains(who)
    }

    fn is_candidate(&self, who: Addr) -> bool {
        self.cfg.candidates.contains(&who)
    }
    fn is_member(&self) -> bool {
        self.view.contains(self.me)
    }
    fn is_coordinator(&self) -> bool {
        self.view.coordinator() == Some(self.me)
    }

    fn start(&mut self, now: u64) {
        self.started_at = now;
        self.incarnation = now + 1;
        self.view = View::default();
        self.last_heard.clear();
        self.joiners.clear();
        self.arrivals.clear();
        self.flaps.clear();
        self.regular.clear();
        self.sought.clear();
        self.searching = None;
        // `incarnations` survives, as it always has.
    }

    fn handle(&mut self, src: Addr, msg: &IsisMsg, now: u64) {
        if !self.is_candidate(src) {
            return;
        }
        let expected = self.expects(src);
        if let Some(prev) = self.last_heard.insert(src, now) {
            let gap = now.saturating_sub(prev);
            if gap > 0 && src != self.me && expected && self.regular.contains(&src) {
                self.arrivals
                    .entry(src)
                    .or_default()
                    .observe(gap, &self.cfg.detector);
            }
        }
        if expected {
            self.regular.insert(src);
        } else {
            self.regular.remove(&src);
        }
        match msg {
            &IsisMsg::Heartbeat {
                incarnation,
                view_id,
                view_len,
                joining,
                ..
            } => {
                let prev = self.incarnations.insert(src, incarnation);
                if prev.is_some_and(|p| p != incarnation) {
                    if let Some(w) = self.arrivals.get_mut(&src) {
                        w.reset();
                    }
                }
                if self.is_coordinator() && !self.view.contains(src) {
                    self.joiners.insert(src);
                }
                if joining && self.is_member() && self.view.coordinator() == Some(src) {
                    self.last_heard.remove(&src);
                }
                let quorum = self.cfg.candidates.len() / 2 + 1;
                let superseded = match (view_len as usize >= quorum, self.view.len() >= quorum) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => view_id > self.view.id,
                };
                if self.is_member() && !self.view.contains(src) && superseded {
                    self.demote();
                }
            }
            IsisMsg::ViewInstall { view } => {
                if !view.addrs().all(|a| self.is_candidate(a)) {
                    return;
                }
                let accept = view.id > self.view.id
                    || (view.id == self.view.id
                        && match (view.coordinator(), self.view.coordinator()) {
                            (Some(new), Some(cur)) => new < cur,
                            _ => false,
                        });
                if accept {
                    if view.contains(self.me) {
                        self.install(view.clone(), now);
                    } else {
                        self.demote();
                    }
                }
            }
            IsisMsg::Solicit => {
                self.sought.insert(src, now);
            }
            _ => {}
        }
    }

    fn timeout_for(&self, who: Addr) -> u64 {
        if !self.cfg.adaptive_detection {
            return self.cfg.failure_timeout_us;
        }
        self.arrivals
            .get(&who)
            .map_or(self.cfg.failure_timeout_us, |w| {
                w.threshold_us(&self.cfg.detector, self.cfg.failure_timeout_us)
            })
    }

    fn alive(&self, who: Addr, now: u64) -> bool {
        !self.silent(who, now, 1)
    }

    /// Unheard for `1/part` of its silence budget?
    fn silent(&self, who: Addr, now: u64, part: u64) -> bool {
        let budget = self.timeout_for(who) / part;
        let heard = self.last_heard.get(&who);
        who != self.me && heard.is_none_or(|&t| now.saturating_sub(t) >= budget)
    }

    fn suspicion_millis(&self, who: Addr, now: u64) -> u64 {
        let Some(&t) = self.last_heard.get(&who) else {
            return u64::MAX;
        };
        let silence = now.saturating_sub(t);
        match self.arrivals.get(&who) {
            Some(w) if self.cfg.adaptive_detection => {
                w.suspicion_millis(silence, &self.cfg.detector, self.cfg.failure_timeout_us)
            }
            _ => silence.saturating_mul(1000) / self.cfg.failure_timeout_us.max(1),
        }
    }

    /// A searching junior acts on its table only once the search is half a
    /// senior's silence budget old, and only if every view-mate it hears
    /// is searching too.
    fn table_complete(&self, now: u64) -> bool {
        let seniors = self.view.addrs().take(SENIORS);
        let grace = seniors.map(|a| self.timeout_for(a)).max().unwrap_or(0) / 2;
        let Some(since) = self.searching else {
            return true;
        };
        now.saturating_sub(since) >= grace
            && self.view.addrs().all(|a| {
                a == self.me
                    || !self.alive(a, now)
                    || self
                        .sought
                        .get(&a)
                        .is_some_and(|&t| now.saturating_sub(t) < grace)
            })
    }

    fn tick(&mut self, now: u64) {
        let lost = self.is_member()
            && !self.is_senior(self.me)
            && self
                .view
                .addrs()
                .take(SENIORS)
                .all(|a| self.silent(a, now, 2));
        self.searching = lost.then(|| self.searching.unwrap_or(now));
        if self.is_member() {
            let Some(coord) = self.view.coordinator() else {
                return;
            };
            if self.is_coordinator() {
                self.coordinate(now);
            } else if !self.alive(coord, now) {
                let successor = self.view.addrs().find(|&a| self.alive(a, now));
                if successor == Some(self.me) && self.table_complete(now) {
                    self.coordinate(now);
                }
            }
        } else {
            let quiet_over = now.saturating_sub(self.started_at) >= BOOTSTRAP_QUIET_US;
            if quiet_over && self.view.id == 0 {
                let lowest = self
                    .cfg
                    .candidates
                    .iter()
                    .copied()
                    .find(|&c| self.alive(c, now));
                if lowest == Some(self.me) {
                    self.next_join_seq = 1;
                    self.install(
                        View::new(
                            1,
                            vec![Member {
                                addr: self.me,
                                joined_seq: 0,
                            }],
                        ),
                        now,
                    );
                }
            }
        }
    }

    fn sweep(&mut self, now: u64) {
        if self.is_coordinator() {
            self.coordinate(now);
        }
    }

    fn quarantined(&self, who: Addr, now: u64) -> bool {
        self.cfg.adaptive_detection && self.flaps.get(&who).is_some_and(|f| f.is_quarantined(now))
    }

    fn coordinate(&mut self, now: u64) {
        // The steady-state exit comes before the admission counter is
        // raised, so it is part of the behaviour, not just a short cut.
        let all_alive = self.view.addrs().all(|a| self.alive(a, now));
        if all_alive && self.view.contains(self.me) {
            let has_joiner = self.joiners.iter().any(|&j| {
                self.alive(j, now) && !self.view.contains(j) && !self.quarantined(j, now)
            });
            if !has_joiner {
                return;
            }
        }
        let mut members: Vec<Member> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|m| self.alive(m.addr, now))
            .collect();
        if self.cfg.adaptive_detection {
            let evicted: Vec<Addr> = self
                .view
                .addrs()
                .filter(|&a| a != self.me && !members.iter().any(|m| m.addr == a))
                .collect();
            for a in evicted {
                self.flaps
                    .entry(a)
                    .or_default()
                    .record_eviction(now, &self.cfg.quarantine);
            }
        }
        if !members.iter().any(|m| m.addr == self.me) {
            members.push(Member {
                addr: self.me,
                joined_seq: 0,
            });
        }
        self.next_join_seq = self
            .next_join_seq
            .max(members.iter().map(|m| m.joined_seq).max().unwrap_or(0) + 1);
        let joiners: Vec<Addr> = self
            .joiners
            .iter()
            .copied()
            .filter(|&j| {
                self.alive(j, now)
                    && !members.iter().any(|m| m.addr == j)
                    && !self.quarantined(j, now)
            })
            .collect();
        for j in joiners {
            members.push(Member {
                addr: j,
                joined_seq: self.next_join_seq,
            });
            self.next_join_seq += 1;
        }
        let proposed = View::new(self.view.id + 1, members);
        if proposed.members != self.view.members {
            self.install(proposed, now);
        }
    }

    fn install(&mut self, view: View, now: u64) {
        let was_senior = self.is_senior(self.me);
        self.joiners.retain(|a| !view.contains(*a));
        self.view = view;
        self.searching = None;
        // A peer the new roles stop from heartbeating this member is no
        // longer regular; a member that just became senior takes every
        // view-mate it was not listening to as heard now.
        let regular: BTreeSet<Addr> = self
            .regular
            .iter()
            .copied()
            .filter(|&a| self.expects(a))
            .collect();
        self.regular = regular;
        if self.is_senior(self.me) && !was_senior {
            for a in self.view.addrs() {
                if !self.regular.contains(&a) {
                    self.last_heard.insert(a, now);
                }
            }
        }
    }

    fn demote(&mut self) {
        self.view = View::default();
        self.joiners.clear();
        self.searching = None;
    }

    /// `GroupMember::snapshot_hash` as it folded the maps. This test never
    /// casts, so the cast, resend and collect counters stay zero.
    fn snapshot_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(u64::from(self.me.node.0))
            .write_u64(self.incarnation)
            .write_u64(self.started_at)
            .write_u64(self.view.id)
            .write_u64(self.view.members.len() as u64);
        for m in &self.view.members {
            h.write_u64(u64::from(m.addr.node.0))
                .write_u64(m.joined_seq);
        }
        h.write_u64(self.next_join_seq);
        for _ in 0..3 {
            h.write_u64(0);
        }
        h.write_u64(self.last_heard.len() as u64);
        for (&a, &at) in &self.last_heard {
            h.write_u64(u64::from(a.node.0)).write_u64(at);
        }
        h.write_u64(self.arrivals.len() as u64);
        for (&a, w) in &self.arrivals {
            h.write_u64(u64::from(a.node.0));
            w.fold(&mut h);
        }
        h.write_u64(self.flaps.len() as u64);
        for (&a, f) in &self.flaps {
            h.write_u64(u64::from(a.node.0));
            f.fold(&mut h);
        }
        h.finish()
    }
}

fn flap_digest(f: Option<&FlapState>) -> Option<u64> {
    f.map(|f| {
        let mut h = Fnv64::new();
        f.fold(&mut h);
        h.finish()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Advance(u64),
    Heartbeat {
        src: u32,
        incarnation: u64,
        /// Added to the current view id (clamped at zero): stale, equal or
        /// dominant as the run unfolds.
        view_delta: i64,
        view_len: u32,
        joining: bool,
    },
    Install {
        src: u32,
        view_delta: i64,
        members: Vec<(u32, u64)>,
    },
    Solicit {
        src: u32,
    },
    Tick,
    Sweep,
    Reboot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Sources and view members reach one past the candidates, so the
    // outsider shows up in both roles.
    let node = || 0..=CANDIDATES;
    let heartbeat = (node(), 1u64..4, -2i64..3, 0..=CANDIDATES + 1, any::<bool>());
    let install = (
        node(),
        -1i64..3,
        prop::collection::vec((node(), 0u64..6), 1..5),
    );
    // `kind` picks the op and is the weighting: reboots and sweeps are
    // rare, so a script holds long stretches of one boot in which views
    // form, members time out, rejoin and earn quarantines.
    (0u32..100, 0u64..900_000, heartbeat, install).prop_map(
        |(kind, dt, (src, incarnation, view_delta, view_len, joining), install)| match kind {
            0..=19 => Op::Advance(dt),
            // Mostly the heartbeat of a peer that is simply there…
            20..=54 => Op::Heartbeat {
                src,
                incarnation: 1,
                view_delta: view_delta.min(0),
                view_len: 0,
                joining: false,
            },
            // …sometimes one that rebooted, abdicated or claims a rival view.
            55..=64 => Op::Heartbeat {
                src,
                incarnation,
                view_delta,
                view_len,
                joining,
            },
            65..=69 => Op::Install {
                src: install.0,
                view_delta: install.1,
                members: install.2,
            },
            70..=74 => Op::Solicit { src },
            75..=96 => Op::Tick,
            97..=98 => Op::Sweep,
            _ => Op::Reboot,
        },
    )
}

proptest! {
    #[test]
    fn table_matches_the_five_map_model(
        // Node 0 bootstraps the group itself; the others have to see the
        // lower-ranked gone, and are more often juniors of the views they get.
        me in 0u32..4,
        adaptive in any::<bool>(),
        warmup in 0usize..6,
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        let candidates: Vec<Addr> = (0..CANDIDATES).map(addr).collect();
        let mut cfg = GroupConfig::new(candidates);
        // Two evictions trip a quarantine, so a few hundred steps see
        // cool-downs served and escalated; a warm-up of zero tells a peer
        // with an empty window from one with no window at all.
        cfg.quarantine.flap_evictions = 2;
        cfg.detector.warmup = warmup;
        if !adaptive {
            cfg = cfg.with_fixed_detection();
        }
        let mut host = MockHost::new(NodeId(me));
        // Every boot after the first is at least a µs after the one before,
        // so each gets its own incarnation, as on a monotone clock.
        let boot = |gm: &mut GroupMember, model: &mut Model, host: &mut MockHost| {
            gm.start(host);
            model.start(host.now);
        };
        let mut gm = GroupMember::new(addr(me), cfg.clone());
        let mut model = Model::new(addr(me), cfg);
        boot(&mut gm, &mut model, &mut host);
        // The model holds the table, not the upcalls: they are dropped.
        let mut ups = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            ups.clear();
            let view_id = |delta: i64| model.view.id.saturating_add_signed(delta);
            match op {
                Op::Advance(dt) => host.now += dt,
                Op::Heartbeat { src, incarnation, view_delta, view_len, joining } => {
                    let msg = IsisMsg::Heartbeat {
                        incarnation: *incarnation,
                        view_id: view_id(*view_delta),
                        view_len: *view_len,
                        joining: *joining,
                        fifo_next: 0,
                    };
                    model.handle(addr(*src), &msg, host.now);
                    gm.handle(addr(*src), msg, &mut host, &mut ups);
                }
                Op::Install { src, view_delta, members } => {
                    let members = members
                        .iter()
                        .map(|&(n, joined_seq)| Member { addr: addr(n), joined_seq })
                        .collect();
                    let msg = IsisMsg::ViewInstall {
                        view: View::new(view_id(*view_delta), members),
                    };
                    model.handle(addr(*src), &msg, host.now);
                    gm.handle(addr(*src), msg, &mut host, &mut ups);
                }
                Op::Solicit { src } => {
                    model.handle(addr(*src), &IsisMsg::Solicit, host.now);
                    gm.handle(addr(*src), IsisMsg::Solicit, &mut host, &mut ups);
                }
                Op::Tick => {
                    gm.on_timer(TOKEN_TICK, &mut host, &mut ups);
                    model.tick(host.now);
                }
                Op::Sweep => {
                    gm.on_timer(TOKEN_QUARANTINE_SWEEP, &mut host, &mut ups);
                    model.sweep(host.now);
                }
                Op::Reboot => {
                    host.now += 1;
                    boot(&mut gm, &mut model, &mut host);
                }
            }
            prop_assert_eq!(gm.view(), &model.view, "view after step {} ({:?})", step, op);
            prop_assert_eq!(gm.is_member(), model.is_member());
            prop_assert_eq!(gm.is_coordinator(), model.is_coordinator());
            prop_assert_eq!(
                gm.snapshot_hash(),
                model.snapshot_hash(),
                "snapshot_hash after step {} ({:?})", step, op
            );
            for who in (0..=CANDIDATES).map(addr) {
                prop_assert_eq!(
                    gm.silence_budget_us(who),
                    model.timeout_for(who),
                    "silence budget of {} after step {} ({:?})", who, step, op
                );
                prop_assert_eq!(
                    gm.suspicion_millis(who, host.now),
                    model.suspicion_millis(who, host.now),
                    "suspicion of {} after step {} ({:?})", who, step, op
                );
                prop_assert_eq!(
                    flap_digest(gm.flap_state(who)),
                    flap_digest(model.flaps.get(&who)),
                    "flap state of {} after step {} ({:?})", who, step, op
                );
            }
        }
    }
}
