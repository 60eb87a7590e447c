//! The group member protocol object: membership, failure detection,
//! coordinator succession, broadcast and reply collection.
//!
//! # The per-peer table
//!
//! A group's membership universe — `GroupConfig::candidates`, sorted — is
//! fixed when the group is configured, so everything a member knows about
//! a peer (when it was last heard, its incarnation, its inter-arrival
//! window, whether it is in the view, whether it asked to join, its flap
//! record) lives in one row of one `Vec`, indexed by the peer's **rank**
//! in that list. A received message has its `src` resolved to a rank once,
//! at the top of [`GroupMember::handle`]; a heartbeat is then one row
//! update plus one indexed write in the ordering layer, and the periodic
//! liveness scans walk the rows in order. There is no keyed map behind the
//! table and no second copy of any of these facts.
//!
//! Two consequences are protocol rules, not just layout. A message whose
//! sender is **not a candidate** has no row: it is dropped before it
//! touches state, and a `ViewInstall` naming a non-candidate is ignored
//! whole. And rank order *is* `Addr` order, so `snapshot_hash` folds, and
//! joiners are admitted, in the order the sorted maps this table replaced
//! iterated in.
//!
//! # The liveness plane
//!
//! Heartbeats are role-based, at most 4n − 6 a tick instead of n(n − 1): a
//! view's `SENIORS` (its coordinator and deputy, `view.members[..SENIORS]`)
//! and every non-member heartbeat all candidates; every other member — a
//! *junior* — heartbeats only the seniors. So the seniors hold a full table
//! (eviction and single-coordinator succession work as they always did)
//! and a junior's table is current for the seniors alone. A junior that
//! has heard no senior for half a silence budget *searches*: it heartbeats
//! everyone and `Solicit`s a heartbeat from each view-mate every tick. It
//! takes over as oldest survivor when the seniors' budgets run out — the
//! instant the all-to-all plane did — provided the search is half a budget
//! old by then and every view-mate that answered is searching too: one
//! that is not still hears a senior, and the fault is on this member's
//! own links.
//!
//! Any message proves its sender alive, so a member that is in a view and
//! not searching skips the heartbeat to a view-mate it sent anything else
//! within half a period. A group whose coordinator casts every tick and is
//! replied to pays 2(n − 2) a tick, the deputy↔junior links, and no link
//! goes more than 1.5 periods without a message.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use vce_codec::{Codec, Encoder};
use vce_net::{Addr, Host};

use crate::collect::{CollectResult, Collector};
use crate::detector::{ArrivalWindow, DetectorConfig, FlapState, QuarantineConfig};
use crate::msg::{BcastId, IsisMsg};
use crate::ordering::{Delivered, OrderingState};
use crate::view::{Member, View};
use crate::ISIS_TOKEN_BASE;

// These tokens share an endpoint's `on_timer` with the embedding layer's
// (the exm daemon and executor both host a member and route `≥
// ISIS_TOKEN_BASE` here) — vce-lint P003 checks the combined namespaces
// stay collision-free (docs/PROTOCOL.md token table).
/// Timer token for the periodic protocol tick.
const TOKEN_TICK: u64 = ISIS_TOKEN_BASE;
/// Timer token armed at a quarantine cool-down expiry, so a readmittable
/// flapper is readmitted promptly instead of at the next view change.
const TOKEN_QUARANTINE_SWEEP: u64 = ISIS_TOKEN_BASE + 1;
/// First token used for collection deadlines (unbounded upward growth —
/// point tokens above must stay below this base).
const TOKEN_COLLECT_BASE: u64 = ISIS_TOKEN_BASE + 16;

/// How many of a view's most senior members carry its liveness plane: the
/// coordinator, and a deputy so that one crash never leaves the group
/// without a member that hears everyone. A protocol constant, not a knob.
const SENIORS: usize = 2;

/// How long a starting node listens before bootstrapping the group, µs.
pub const BOOTSTRAP_QUIET_US: u64 = 600_000;
/// Age of a FIFO gap before a NACK is sent, µs.
pub const NACK_AFTER_US: u64 = 400_000;
/// Outbound resend-buffer capacity (casts kept for retransmission).
pub const RESEND_BUFFER: usize = 1024;

/// Group protocol parameters.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Every endpoint that may ever join this group (the machine database
    /// gives the VCE this list; Isis had an equivalent site registry).
    /// Isis messages from any other address are dropped unread. A
    /// [`GroupMember`] sorts and deduplicates its copy and makes sure its
    /// own address is on it.
    pub candidates: Vec<Addr>,
    /// Heartbeat / protocol tick period.
    pub heartbeat_us: u64,
    /// Silence after which a peer is suspected dead.
    pub failure_timeout_us: u64,
    /// Use the phi-accrual-style adaptive detector (per-peer inter-arrival
    /// window) plus flap-damping quarantine instead of the flat
    /// `failure_timeout_us` silence rule. The fixed timeout remains the
    /// fallback until a peer's window has warmed up, and the baseline arm
    /// of the F6 experiment.
    pub adaptive_detection: bool,
    /// Adaptive-detector tuning (ignored when `adaptive_detection` is off).
    pub detector: DetectorConfig,
    /// Flap-damping quarantine tuning (ignored when `adaptive_detection`
    /// is off).
    pub quarantine: QuarantineConfig,
}

impl GroupConfig {
    /// Sensible LAN defaults: 200 ms heartbeats, 1 s failure timeout,
    /// adaptive detection on.
    pub fn new(mut candidates: Vec<Addr>) -> Self {
        candidates.sort();
        candidates.dedup();
        let heartbeat_us = 200_000;
        let failure_timeout_us = 1_000_000;
        Self {
            candidates,
            heartbeat_us,
            failure_timeout_us,
            adaptive_detection: true,
            detector: DetectorConfig::for_group(heartbeat_us, failure_timeout_us),
            quarantine: QuarantineConfig::for_group(failure_timeout_us),
        }
    }

    /// Disable the adaptive detector and quarantine — every peer gets the
    /// flat `failure_timeout_us` silence budget (the pre-gray behaviour
    /// and the baseline arm of `exp_graydetect`).
    pub fn with_fixed_detection(mut self) -> Self {
        self.adaptive_detection = false;
        self
    }
}

/// Events the isis layer reports up to the embedding application.
#[derive(Debug, Clone, PartialEq)]
pub enum Upcall {
    /// A new membership view took effect.
    ViewInstalled(View),
    /// This member is now the group coordinator (the paper's "group
    /// leader") — either first to bootstrap or oldest survivor after a
    /// failure.
    BecameCoordinator(View),
    /// This member was excluded from the group (suspected dead); it will
    /// automatically re-join when communication resumes.
    Evicted,
    /// A broadcast is delivered, in its sender's FIFO order.
    Deliver {
        /// Broadcast identity: the transport sender and its `fifo_seq`;
        /// replies go to `id.origin`.
        id: BcastId,
        /// Application payload.
        payload: Bytes,
    },
    /// A collected broadcast finished (all expected replies, or deadline).
    CollectDone(CollectResult),
}

/// Serializer from an isis message into a borrowed [`Encoder`] — identity
/// framing by default, or the embedding layer's envelope.
type WrapFn = Box<dyn Fn(&IsisMsg, &mut Encoder) + Send>;

/// One row of the per-peer table: everything a member knows about one
/// candidate. The row's index is the candidate's rank in the sorted
/// `GroupConfig::candidates`, so walking the table walks peers in `Addr`
/// order — the order `snapshot_hash` folds and joiners are admitted in.
#[derive(Debug)]
struct Peer {
    /// When anything was last received from this peer; `None` until the
    /// first message since boot, and again for a coordinator that abdicated.
    heard: Option<u64>,
    /// The last arrival was an *expected* one — the roles say this peer
    /// heartbeats me every tick — and it has been expected ever since. Only
    /// the gap between two such arrivals is a sample: a peer that starts or
    /// stops heartbeating me because roles changed or a search began or
    /// ended updates `heard` and nothing else.
    regular: bool,
    /// When it last `Solicit`ed me, i.e. was itself searching.
    sought: Option<u64>,
    /// When I last sent it protocol traffic — anything but a heartbeat. A
    /// view-mate sent some within half a period is owed no heartbeat.
    sent: Option<u64>,
    /// Incarnation in its last heartbeat. The one field a reboot of *this*
    /// member keeps: a peer that restarted meanwhile is still recognised.
    incarnation: Option<u64>,
    /// Is it in the installed view?
    in_view: bool,
    /// Coordinator side: it heartbeated from outside the view, which is an
    /// (implicit) join request.
    joiner: bool,
    /// Has `arrivals` taken a sample since boot? A window emptied by the
    /// peer's reboot stays tracked; one never fed is not hashed at all.
    tracked: bool,
    /// Inter-arrival window feeding the adaptive detector.
    arrivals: ArrivalWindow,
    /// Coordinator-side flap damping: eviction history and cool-down.
    flap: FlapState,
}

/// One member's view of one process group. Embed in an endpoint; forward it
/// isis messages and isis timer tokens; act on the returned upcalls.
pub struct GroupMember {
    me: Addr,
    cfg: GroupConfig,
    /// Serializes an outgoing isis message into the host's pooled encoder
    /// (identity framing, or wrapped in the embedding layer's envelope).
    /// Writing into a borrowed [`Encoder`] instead of returning fresh
    /// [`Bytes`] keeps the per-message hot path allocation-free — the host
    /// turns the scratch into pooled `Bytes` (`Host::encode_with`).
    wrap: WrapFn,
    incarnation: u64,
    started_at: u64,
    view: View,
    /// The per-peer table: row `r` is everything known about
    /// `cfg.candidates[r]` (failure detection, join request, flap record,
    /// view membership). Built once in [`Self::with_wrapper`]; a message's
    /// `src` is resolved to its rank once and every later step reads or
    /// writes that one row.
    peers: Vec<Peer>,
    /// This member's own rank in the table.
    me_rank: usize,
    /// Ranks of the installed view's seniors, coordinator first (`None`
    /// where the view is shorter). Like `Peer::in_view`, maintained only
    /// where the view changes: `install`, `demote` and `start`.
    seniors: [Option<usize>; SENIORS],
    /// Since when this junior has been searching (module docs).
    searching: Option<u64>,
    // Coordinator state.
    next_join_seq: u64,
    // Outbound.
    out_fifo_seq: u64,
    /// Payloads of the last [`RESEND_BUFFER`] casts, oldest first: the
    /// back one is cast `out_fifo_seq - 1`, so an entry's place in the
    /// ring is its `fifo_seq`.
    resend: VecDeque<Bytes>,
    // Inbound.
    ordering: OrderingState,
    collector: Collector,
    collect_deadlines: BTreeMap<u64, BcastId>,
    token_of_collect: BTreeMap<BcastId, u64>,
    next_collect_token: u64,
    // Per-tick scratch (drained every use, capacity retained).
    nack_scratch: Vec<(usize, u64)>,
}

impl GroupMember {
    /// Create a member whose outgoing isis messages are plain-encoded.
    pub fn new(me: Addr, cfg: GroupConfig) -> Self {
        Self::with_wrapper(me, cfg, |msg, enc| msg.encode(enc))
    }

    /// Create a member whose outgoing isis messages are written into the
    /// provided encoder by `wrap` (identity encode, or framed inside the
    /// embedding layer's own message enum).
    pub fn with_wrapper(
        me: Addr,
        mut cfg: GroupConfig,
        wrap: impl Fn(&IsisMsg, &mut Encoder) + Send + 'static,
    ) -> Self {
        // Rank = position in the sorted candidate list, and a member is
        // always a candidate of its own group (`candidates` is a public
        // field, so do not trust it to have come from `GroupConfig::new`).
        cfg.candidates.push(me);
        cfg.candidates.sort();
        cfg.candidates.dedup();
        let me_rank = cfg.candidates.binary_search(&me).unwrap_or(0);
        let peers = cfg
            .candidates
            .iter()
            .map(|_| Peer {
                heard: None,
                regular: false,
                sought: None,
                sent: None,
                incarnation: None,
                in_view: false,
                joiner: false,
                tracked: false,
                arrivals: ArrivalWindow::with_capacity(cfg.detector.window),
                flap: FlapState::default(),
            })
            .collect();
        let ordering = OrderingState::new(cfg.candidates.len());
        Self {
            me,
            cfg,
            wrap: Box::new(wrap),
            incarnation: 0,
            started_at: 0,
            view: View::default(),
            peers,
            me_rank,
            seniors: [None; SENIORS],
            searching: None,
            next_join_seq: 0,
            out_fifo_seq: 0,
            resend: VecDeque::new(),
            ordering,
            collector: Collector::new(),
            collect_deadlines: BTreeMap::new(),
            token_of_collect: BTreeMap::new(),
            next_collect_token: 0,
            nack_scratch: Vec::new(),
        }
    }

    // ---- accessors ----

    /// This member's address.
    pub fn me(&self) -> Addr {
        self.me
    }

    /// The current view ([`View::default`] before the first install).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// True once a view containing this member is installed.
    pub fn is_member(&self) -> bool {
        self.peers.get(self.me_rank).is_some_and(|p| p.in_view)
    }

    /// True if this member coordinates the current view.
    pub fn is_coordinator(&self) -> bool {
        self.coord() == Some(self.me_rank)
    }

    fn coord(&self) -> Option<usize> {
        self.seniors.first().copied().flatten()
    }

    fn is_senior(&self, rank: usize) -> bool {
        self.seniors.contains(&Some(rank))
    }

    fn senior_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.seniors.iter().flatten().copied()
    }

    /// Deterministic digest of the group-membership state, folded into the
    /// embedding endpoint's `snapshot_hash` for record/replay divergence
    /// detection. Covers the installed view, the join and cast counters and,
    /// per peer in `Addr` (= rank) order, three sections: every peer heard
    /// from with the time, every tracked arrival window, every flap record,
    /// each prefixed by its count. Deliberately skips the collect
    /// bookkeeping — its effects surface through the counters folded here.
    pub fn snapshot_hash(&self) -> u64 {
        let mut h = vce_net::Fnv64::new();
        h.write_u64(u64::from(self.me.node.0))
            .write_u64(self.incarnation)
            .write_u64(self.started_at)
            .write_u64(self.view.id)
            .write_u64(self.view.members.len() as u64);
        for m in &self.view.members {
            h.write_u64(u64::from(m.addr.node.0))
                .write_u64(m.joined_seq);
        }
        h.write_u64(self.next_join_seq)
            .write_u64(self.out_fifo_seq)
            .write_u64(self.resend.len() as u64)
            .write_u64(self.next_collect_token);
        let rows = || self.cfg.candidates.iter().zip(&self.peers);
        h.write_u64(rows().filter(|(_, p)| p.heard.is_some()).count() as u64);
        for (addr, p) in rows() {
            if let Some(at) = p.heard {
                h.write_u64(u64::from(addr.node.0)).write_u64(at);
            }
        }
        h.write_u64(rows().filter(|(_, p)| p.tracked).count() as u64);
        for (addr, p) in rows().filter(|(_, p)| p.tracked) {
            h.write_u64(u64::from(addr.node.0));
            p.arrivals.fold(&mut h);
        }
        h.write_u64(rows().filter(|(_, p)| p.flap.is_recorded()).count() as u64);
        for (addr, p) in rows().filter(|(_, p)| p.flap.is_recorded()) {
            h.write_u64(u64::from(addr.node.0));
            p.flap.fold(&mut h);
        }
        h.finish()
    }

    /// The silence budget currently granted to `who` (fixed timeout until
    /// the adaptive window warms up). Experiment/diagnostic accessor.
    pub fn silence_budget_us(&self, who: Addr) -> u64 {
        self.peer(who)
            .map_or(self.cfg.failure_timeout_us, |p| self.timeout_for(p))
    }

    /// Current suspicion of `who` in milli-phi (1000 = eviction point),
    /// and whether it is quarantined. Experiment/diagnostic accessor.
    pub fn suspicion_millis(&self, who: Addr, now: u64) -> u64 {
        let Some((p, t)) = self.peer(who).and_then(|p| Some((p, p.heard?))) else {
            return u64::MAX;
        };
        let silence = now.saturating_sub(t);
        if self.cfg.adaptive_detection && p.tracked {
            p.arrivals
                .suspicion_millis(silence, &self.cfg.detector, self.cfg.failure_timeout_us)
        } else {
            silence.saturating_mul(1000) / self.cfg.failure_timeout_us.max(1)
        }
    }

    /// Flap-damping state for `who`, if the coordinator has recorded any
    /// evictions (experiment/diagnostic accessor).
    pub fn flap_state(&self, who: Addr) -> Option<&FlapState> {
        self.peer(who).map(|p| &p.flap).filter(|f| f.is_recorded())
    }

    // ---- lifecycle ----

    /// Must be called from the embedding endpoint's `on_start`.
    pub fn start(&mut self, host: &mut dyn Host) {
        self.started_at = host.now_us();
        // Restart-detection: the boot time names the incarnation. Peers only
        // compare it for equality with this member's last one, the clock is
        // monotone and no node boots twice in one µs; + 1 keeps it nonzero.
        self.incarnation = host.now_us() + 1;
        // Rebooted members start over (endpoint state may survive a
        // kill/revive cycle in the simulator). Rows are emptied in place:
        // the arrival rings keep their storage.
        self.view = View::default();
        self.seniors = [None; SENIORS];
        self.searching = None;
        for p in &mut self.peers {
            p.heard = None;
            p.regular = false;
            p.sought = None;
            p.sent = None;
            p.in_view = false;
            p.joiner = false;
            p.tracked = false;
            p.arrivals.reset();
            p.flap = FlapState::default();
        }
        self.ordering = OrderingState::new(self.peers.len());
        host.set_timer(self.cfg.heartbeat_us, TOKEN_TICK);
        self.send_heartbeats(host);
    }

    /// Forward isis timer tokens here (see [`crate::is_isis_token`]).
    /// Upcalls are appended to a caller-owned vector (the embedding
    /// endpoint reuses one across events).
    pub fn on_timer(&mut self, token: u64, host: &mut dyn Host, up: &mut Vec<Upcall>) {
        if token == TOKEN_TICK {
            host.set_timer(self.cfg.heartbeat_us, TOKEN_TICK);
            // A junior half a silence budget into hearing none of its
            // seniors searches, until one is back or the view changes.
            let now = host.now_us();
            let lost = self.is_member()
                && !self.is_senior(self.me_rank)
                && self.senior_ranks().all(|r| self.silent(r, now, 2));
            self.searching = lost.then(|| self.searching.unwrap_or(now));
            self.send_heartbeats(host);
            self.run_failure_detector(host, up);
            let mut nacks = std::mem::take(&mut self.nack_scratch);
            debug_assert!(nacks.is_empty());
            self.ordering.overdue_gaps(host.now_us(), &mut nacks);
            for &(sender, expected) in &nacks {
                if let Some(&dst) = self.cfg.candidates.get(sender) {
                    self.out(host, dst, &IsisMsg::Nack { expected });
                }
            }
            nacks.clear();
            self.nack_scratch = nacks;
        } else if token == TOKEN_QUARANTINE_SWEEP {
            // A quarantine cool-down expired: readmit promptly (the next
            // tick would also catch it; this just removes up to one
            // heartbeat period of extra exile).
            if self.is_coordinator() {
                self.coordinate(host, up);
            }
        } else if let Some(id) = self.collect_deadlines.remove(&token) {
            self.token_of_collect.remove(&id);
            if let Some(result) = self.collector.on_deadline(id) {
                self.forget_question(id);
                up.push(Upcall::CollectDone(result));
            }
        }
    }

    /// Forward received isis messages here. Upcalls are appended to a
    /// caller-owned vector (the embedding endpoint reuses one across
    /// events).
    pub fn handle(&mut self, src: Addr, msg: IsisMsg, host: &mut dyn Host, up: &mut Vec<Upcall>) {
        // Only configured candidates are ever listened to: anything else
        // is dropped here, before it touches state. This is also the one
        // place `src` is looked up — everything below works on its row.
        let Some(rank) = self.rank_of(src) else {
            return;
        };
        let now = host.now_us();
        let (member, coordinating) = (self.is_member(), self.is_coordinator());
        let from_coord = self.coord() == Some(rank);
        let listening = !member || self.is_senior(self.me_rank) || self.is_senior(rank);
        let Some(peer) = self.peers.get_mut(rank) else {
            return;
        };
        // Feed the adaptive detector: the gap since the last *anything*
        // from this peer (heartbeats and protocol traffic both prove
        // liveness, so both shape the expected-silence distribution) —
        // between peers of which one heartbeats the other every tick.
        let expected = listening || !peer.in_view;
        if let Some(prev) = peer.heard.replace(now) {
            let gap = now.saturating_sub(prev);
            if gap > 0 && rank != self.me_rank && expected && peer.regular {
                peer.tracked = true;
                peer.arrivals.observe(gap, &self.cfg.detector);
            }
        }
        peer.regular = expected;
        match msg {
            IsisMsg::Heartbeat {
                incarnation,
                view_id,
                view_len,
                joining,
                fifo_next,
            } => {
                // Restarted peer: discard its old FIFO stream, and its
                // inter-arrival history — a reboot gap says nothing about
                // the link the new incarnation heartbeats over.
                let prev = peer.incarnation.replace(incarnation);
                if prev.is_some_and(|p| p != incarnation) {
                    self.ordering.forget_sender(rank);
                    peer.arrivals.reset();
                }
                // Pin the peer's FIFO stream position before any cast
                // arrives, so a dropped head-of-stream cast is a NACKable
                // gap rather than a silent first-contact adoption.
                self.ordering.sync_stream(rank, fifo_next);
                let in_view = peer.in_view;
                if coordinating && !in_view {
                    // Any non-member heartbeat is an (implicit) join request.
                    peer.joiner = true;
                }
                // Our own coordinator announcing it is a *joiner* has
                // abdicated (demoted after a merge it lost): it is alive
                // but will never coordinate this view again. Treat it as
                // failed so succession can elect the oldest surviving
                // member — otherwise its heartbeats keep the view's
                // members waiting on a dead throne forever.
                if joining && member && from_coord {
                    peer.heard = None;
                }
                // A member that hears of a *dominant* foreign view was
                // partitioned out and superseded: step down and re-join.
                // Dominance is primary-partition first (a view holding a
                // quorum of the configured candidates), then view id. A
                // lone rejoining ex-coordinator has churned its id far
                // ahead evicting everyone, but must defer to the surviving
                // majority — raw id order would hand it the merged group
                // back, and with it a second allocator over the same
                // machines. Size alone won't do either: a stale full view
                // would then outrank the newer view that evicted a dead
                // member, demoting the survivors en masse.
                if member && !in_view {
                    let quorum = self.cfg.candidates.len() / 2 + 1;
                    let superseded = match (view_len as usize >= quorum, self.view.len() >= quorum)
                    {
                        (true, false) => true,
                        (false, true) => false,
                        _ => view_id > self.view.id,
                    };
                    if superseded {
                        self.demote(up);
                    }
                } else if coordinating && view_id < self.view.id {
                    // Anti-entropy for dropped ViewInstalls: a member of our
                    // view announcing an older view id missed an install on
                    // the lossy transport and would otherwise stay stale
                    // forever; re-push the current view to it directly.
                    let msg = IsisMsg::ViewInstall {
                        view: self.view.clone(),
                    };
                    self.out(host, src, &msg);
                }
            }
            IsisMsg::ViewInstall { view } => {
                // Higher view ids win; on a tie (two partitions healing,
                // both coordinators proposing concurrently), the view
                // coordinated by the lower address wins — a total order, so
                // merges converge instead of split-braining.
                let accept = view.id > self.view.id
                    || (view.id == self.view.id
                        && match (view.coordinator(), self.view.coordinator()) {
                            (Some(new), Some(cur)) => new < cur,
                            _ => false,
                        });
                // A view naming a non-candidate has no row to live in, and
                // no honest coordinator builds one: drop it whole.
                if accept && view.addrs().all(|a| self.rank_of(a).is_some()) {
                    if view.contains(self.me) {
                        self.install(view, now, up);
                    } else {
                        self.demote(up);
                    }
                }
            }
            IsisMsg::Cast { fifo_seq, payload } => {
                // Named by who sent it: no cast speaks for another member.
                let id = BcastId {
                    origin: src,
                    seq: fifo_seq,
                };
                self.ordering
                    .on_cast(rank, Delivered { id, payload }, now, up);
            }
            IsisMsg::Nack { expected } => {
                // Retransmit everything still buffered from `expected` on.
                let first = self.resend_base();
                let resend = std::mem::take(&mut self.resend);
                for (fifo_seq, payload) in (first..).zip(&resend) {
                    if fifo_seq >= expected {
                        let payload = payload.clone();
                        self.out(host, src, &IsisMsg::Cast { fifo_seq, payload });
                    }
                }
                self.resend = resend;
            }
            IsisMsg::Reply { to, payload } => {
                // Replies come to the cast's origin: this member.
                let to = BcastId {
                    origin: self.me,
                    seq: to,
                };
                if let Some(result) = self.collector.on_reply(to, src, payload) {
                    if let Some(token) = self.token_of_collect.remove(&to) {
                        self.collect_deadlines.remove(&token);
                        host.cancel_timer(token);
                    }
                    self.forget_question(to);
                    up.push(Upcall::CollectDone(result));
                }
            }
            IsisMsg::Solicit => {
                // A searcher asks who is still there: answer with one
                // heartbeat (which, being a heartbeat, is never answered).
                peer.sought = Some(now);
                let bytes = self.encode(host, &self.heartbeat());
                host.send_category(self.me, src, bytes, vce_net::MsgCategory::Heartbeat);
            }
        }
    }

    // ---- application primitives ----

    /// Reliable FIFO broadcast to the current view (self included —
    /// loopback delivery keeps the delivery path uniform). Assigns the next
    /// `fifo_seq`, keeps the payload for retransmission, and encodes once,
    /// fanning the cheap `Bytes` clone out to every destination. Returns
    /// `None` when not yet a member.
    pub fn bcast(&mut self, payload: Bytes, host: &mut dyn Host) -> Option<BcastId> {
        if !self.is_member() {
            return None;
        }
        let fifo_seq = self.out_fifo_seq;
        self.out_fifo_seq += 1;
        let bytes = self.encode(
            host,
            &IsisMsg::Cast {
                fifo_seq,
                payload: payload.clone(),
            },
        );
        let view = std::mem::take(&mut self.view);
        for dst in view.addrs() {
            self.send(host, dst, bytes.clone());
        }
        self.view = view;
        self.resend.push_back(payload);
        while self.resend.len() > RESEND_BUFFER {
            self.resend.pop_front();
        }
        Some(BcastId {
            origin: self.me,
            seq: fifo_seq,
        })
    }

    /// The paper's `bcast`+`reply` pattern: FIFO-broadcast `payload` and
    /// collect up to `expected` replies (default: one per current member),
    /// or whatever arrived when `timeout_us` expires.
    pub fn bcast_collect(
        &mut self,
        payload: Bytes,
        expected: Option<usize>,
        timeout_us: u64,
        host: &mut dyn Host,
    ) -> Option<BcastId> {
        let expected = expected.unwrap_or(self.view.len());
        let id = self.bcast(payload, host)?;
        self.collector.open(id, expected);
        let token = TOKEN_COLLECT_BASE + self.next_collect_token;
        self.next_collect_token += 1;
        self.collect_deadlines.insert(token, id);
        self.token_of_collect.insert(id, token);
        host.set_timer(timeout_us, token);
        Some(id)
    }

    /// A closed collect's question is not worth asking again — replies to
    /// it are dropped — so its payload leaves the resend ring now, not a
    /// thousand casts later: a payload is a view of a pooled send buffer,
    /// and one held past the pool's rotation costs the pool a fresh chunk.
    /// The entry stays, so a NACK still finds every sequence number and
    /// gets this one re-sent empty.
    fn forget_question(&mut self, id: BcastId) {
        let first = self.resend_base();
        let question = id.seq.checked_sub(first).and_then(|at| {
            let at = usize::try_from(at).ok()?;
            self.resend.get_mut(at)
        });
        if let Some(payload) = question {
            *payload = Bytes::new();
        }
    }

    /// The `fifo_seq` of the oldest cast in `resend`.
    fn resend_base(&self) -> u64 {
        self.out_fifo_seq - self.resend.len() as u64
    }

    /// Reply to a delivered broadcast (unicast to its origin).
    pub fn reply(&mut self, to: BcastId, payload: Bytes, host: &mut dyn Host) {
        let reply = IsisMsg::Reply {
            to: to.seq,
            payload,
        };
        self.out(host, to.origin, &reply);
    }

    /// Return a finished [`CollectResult`]'s reply vector for reuse by the
    /// next collection (allocation-free steady-state bidding rounds).
    pub fn recycle_replies(&mut self, replies: Vec<(Addr, Bytes)>) {
        self.collector.recycle(replies);
    }

    // ---- internals ----

    /// Encode `msg` through the wrapper into the host's pooled scratch.
    fn encode(&self, host: &mut dyn Host, msg: &IsisMsg) -> Bytes {
        host.encode_with(&mut |enc| (self.wrap)(msg, enc))
    }

    fn out(&mut self, host: &mut dyn Host, dst: Addr, msg: &IsisMsg) {
        let bytes = self.encode(host, msg);
        self.send(host, dst, bytes);
    }

    /// Send protocol traffic, noting on `dst`'s row that it just heard from
    /// this member (the skip rule in [`Self::send_heartbeats`]).
    fn send(&mut self, host: &mut dyn Host, dst: Addr, bytes: Bytes) {
        if let Some(p) = self.rank_of(dst).and_then(|r| self.peers.get_mut(r)) {
            p.sent = Some(host.now_us());
        }
        host.send(self.me, dst, bytes);
    }

    fn heartbeat(&self) -> IsisMsg {
        IsisMsg::Heartbeat {
            incarnation: self.incarnation,
            view_id: self.view.id,
            view_len: self.view.len() as u32,
            joining: !self.is_member(),
            fifo_next: self.out_fifo_seq,
        }
    }

    /// One tick of the liveness plane (module docs): seniors, non-members
    /// and searchers heartbeat every candidate, a junior only its seniors —
    /// O(n) standing cost for the group. A member in a view that is not
    /// searching skips a view-mate it sent protocol traffic within half a
    /// period: that traffic already proved it alive. Tagged so transports can
    /// attribute liveness traffic separately from the protocol operation
    /// under measurement (F3's message count splits on this).
    fn send_heartbeats(&mut self, host: &mut dyn Host) {
        use vce_net::MsgCategory::Heartbeat;
        let (me, now) = (self.me, host.now_us());
        let junior = self.is_member() && !self.is_senior(self.me_rank);
        let settled = self.is_member() && self.searching.is_none();
        let recent =
            |t: Option<u64>| t.is_some_and(|t| now.saturating_sub(t) < self.cfg.heartbeat_us / 2);
        let bytes = self.encode(host, &self.heartbeat());
        for (r, (&dst, p)) in self.cfg.candidates.iter().zip(&self.peers).enumerate() {
            let wanted = !junior || self.searching.is_some() || self.is_senior(r);
            let covered = settled && p.in_view && recent(p.sent);
            if wanted && !covered && dst != me {
                host.send_category(me, dst, bytes.clone(), Heartbeat);
            }
        }
        if self.searching.is_some() {
            let ask = self.encode(host, &IsisMsg::Solicit);
            for dst in self.view.addrs().filter(|&a| a != me) {
                host.send_category(me, dst, ask.clone(), Heartbeat);
            }
        }
    }

    /// May this member act on what its table says of the view? Always,
    /// unless it is searching: then only once the search is half a senior's
    /// silence budget old — it began at half, so the verdict falls due with
    /// the seniors' own — and only if every view-mate that answers is
    /// searching too: one that is not still hears a senior.
    fn table_complete(&self, now: u64) -> bool {
        let budget = |r: usize| self.peers.get(r).map_or(0, |p| self.timeout_for(p));
        let grace = self.senior_ranks().map(budget).max().unwrap_or(0) / 2;
        let fresh = |t: Option<u64>| t.is_some_and(|t| now.saturating_sub(t) < grace);
        self.searching.is_none_or(|since| {
            now.saturating_sub(since) >= grace
                && self.peers.iter().enumerate().all(|(r, p)| {
                    !p.in_view || self.silent(r, now, 1) || r == self.me_rank || fresh(p.sought)
                })
        })
    }

    /// `who`'s rank in the candidate list — its row in the table — or
    /// `None` for an address that is not a candidate of this group.
    fn rank_of(&self, who: Addr) -> Option<usize> {
        self.cfg.candidates.binary_search(&who).ok()
    }

    fn peer(&self, who: Addr) -> Option<&Peer> {
        self.rank_of(who).and_then(|r| self.peers.get(r))
    }

    /// The silence budget for a peer: the adaptive threshold once its
    /// window has warmed up, the flat fixed timeout otherwise (or always,
    /// with `adaptive_detection` off).
    fn timeout_for(&self, p: &Peer) -> u64 {
        if self.cfg.adaptive_detection && p.tracked {
            p.arrivals
                .threshold_us(&self.cfg.detector, self.cfg.failure_timeout_us)
        } else {
            self.cfg.failure_timeout_us
        }
    }

    /// Has the peer at `rank` been heard from within its silence budget?
    fn alive(&self, rank: usize, now: u64) -> bool {
        !self.silent(rank, now, 1)
    }

    /// Has the peer at `rank` gone unheard for `1/part` of its budget?
    fn silent(&self, rank: usize, now: u64, part: u64) -> bool {
        let budget = |p: &Peer| self.timeout_for(p) / part;
        let heard = |p: &Peer| p.heard.is_some_and(|t| now.saturating_sub(t) < budget(p));
        rank != self.me_rank && !self.peers.get(rank).is_some_and(heard)
    }

    fn alive_addr(&self, who: Addr, now: u64) -> bool {
        self.rank_of(who).is_some_and(|r| self.alive(r, now))
    }

    /// Would the coordinator admit the peer at `rank` right now? It asked
    /// to join, is alive, and is not sitting out a quarantine.
    fn admissible(&self, rank: usize, p: &Peer, now: u64) -> bool {
        p.joiner
            && !p.in_view
            && self.alive(rank, now)
            && !(self.cfg.adaptive_detection && p.flap.is_quarantined(now))
    }

    fn run_failure_detector(&mut self, host: &mut dyn Host, up: &mut Vec<Upcall>) {
        let now = host.now_us();
        if self.is_member() {
            let Some(coord) = self.coord() else {
                return; // member of an empty view cannot happen; never panic on it
            };
            if self.is_coordinator() {
                self.coordinate(host, up);
            } else if !self.alive(coord, now) {
                // Succession: the oldest *surviving* member takes over.
                let successor = self.view.addrs().find(|&a| self.alive_addr(a, now));
                if successor == Some(self.me) && self.table_complete(now) {
                    if host.log_enabled() {
                        host.log(format!("isis: {} assumes coordinator role", self.me));
                    }
                    self.coordinate(host, up);
                }
            }
        } else {
            // Bootstrap: after a quiet period, the lowest-addressed live
            // candidate forms the singleton view.
            let quiet_over = now.saturating_sub(self.started_at) >= BOOTSTRAP_QUIET_US;
            if quiet_over && self.view.id == 0 {
                let lowest_alive = (0..self.peers.len()).find(|&r| self.alive(r, now));
                if lowest_alive == Some(self.me_rank) {
                    let v = View::new(
                        1,
                        vec![Member {
                            addr: self.me,
                            joined_seq: 0,
                        }],
                    );
                    self.next_join_seq = 1;
                    if host.log_enabled() {
                        host.log(format!("isis: {} bootstraps group", self.me));
                    }
                    self.install(v, now, up);
                }
            }
        }
    }

    /// Coordinator duty: admit joiners, drop the dead, install new views.
    fn coordinate(&mut self, host: &mut dyn Host, up: &mut Vec<Upcall>) {
        let now = host.now_us();
        // Steady state (every member alive, nobody admissible waiting to
        // join, we are in the view): the proposed view below would equal
        // the current one, so skip building it — this runs every tick and
        // must not allocate. One pass over the table answers both.
        if self.is_member()
            && self.peers.iter().enumerate().all(|(r, p)| {
                if p.in_view {
                    self.alive(r, now)
                } else {
                    !self.admissible(r, p, now)
                }
            })
        {
            return;
        }
        // Survivors keep their seniority.
        let (mut members, evicted): (Vec<Member>, Vec<Member>) = self
            .view
            .members
            .iter()
            .partition(|m| self.alive_addr(m.addr, now));
        // Flap damping: record each eviction; a peer evicted repeatedly
        // within the flap window earns an escalating quarantine during
        // which its (implicit) join requests are ignored.
        if self.cfg.adaptive_detection {
            for a in evicted.iter().map(|m| m.addr) {
                let Some(p) = self.rank_of(a).and_then(|r| self.peers.get_mut(r)) else {
                    continue;
                };
                if let Some(until) = p.flap.record_eviction(now, &self.cfg.quarantine) {
                    if host.log_enabled() {
                        host.log(format!(
                            "isis: {} quarantines flapping {a} until {until}µs",
                            self.me
                        ));
                    }
                    host.set_timer(until.saturating_sub(now), TOKEN_QUARANTINE_SWEEP);
                }
            }
        }
        // Make sure we are present even before the first view (succession
        // path: we may be installing a view that excludes the old
        // coordinator and includes us unchanged).
        if !members.iter().any(|m| m.addr == self.me) {
            members.push(Member {
                addr: self.me,
                joined_seq: 0,
            });
        }
        self.next_join_seq = self
            .next_join_seq
            .max(members.iter().map(|m| m.joined_seq).max().unwrap_or(0) + 1);
        // Admit live joiners in address order (deterministic seniority);
        // quarantined flappers wait out their cool-down first.
        for (r, (&addr, p)) in self.cfg.candidates.iter().zip(&self.peers).enumerate() {
            if self.admissible(r, p, now) {
                members.push(Member {
                    addr,
                    joined_seq: self.next_join_seq,
                });
                self.next_join_seq += 1;
            }
        }
        let proposed = View::new(self.view.id + 1, members);
        let unchanged = proposed.members == self.view.members;
        if !unchanged {
            if host.log_enabled() {
                host.log(format!("isis: {} installs {}", self.me, proposed));
            }
            // Tell the members (and anyone just excluded, so they re-join
            // promptly when they come back).
            let msg = IsisMsg::ViewInstall {
                view: proposed.clone(),
            };
            for dst in proposed.addrs().chain(evicted.iter().map(|m| m.addr)) {
                if dst != self.me {
                    self.out(host, dst, &msg);
                }
            }
            self.install(proposed, now, up);
        }
    }

    fn install(&mut self, view: View, now: u64, up: &mut Vec<Upcall>) {
        let was_coordinator = self.is_coordinator();
        let was_senior = self.is_senior(self.me_rank);
        for p in &mut self.peers {
            p.in_view = false;
        }
        for m in &view.members {
            if let Some(p) = self.rank_of(m.addr).and_then(|r| self.peers.get_mut(r)) {
                p.in_view = true;
                p.joiner = false;
            }
        }
        self.seniors = {
            let mut ranks = view.addrs().map(|a| self.rank_of(a));
            std::array::from_fn(|_| ranks.next().flatten())
        };
        self.searching = None;
        // Roles moved: a view-mate that no longer heartbeats me stops being
        // regular, and one I only start listening to now — I became senior
        // — is taken as heard at this instant, so a fresh deputy cannot
        // evict the group it has not yet listened to.
        let (seniors, senior) = (self.seniors, self.is_senior(self.me_rank));
        for (r, p) in self.peers.iter_mut().enumerate() {
            p.regular &= senior || !p.in_view || seniors.contains(&Some(r));
            if senior && !was_senior && p.in_view && !p.regular {
                p.heard = Some(now);
            }
        }
        self.view = view.clone();
        up.push(Upcall::ViewInstalled(view.clone()));
        if self.is_coordinator() && !was_coordinator {
            up.push(Upcall::BecameCoordinator(view));
        }
    }

    fn demote(&mut self, up: &mut Vec<Upcall>) {
        if self.is_member() {
            up.push(Upcall::Evicted);
        }
        self.view = View::default();
        self.seniors = [None; SENIORS];
        self.searching = None;
        for p in &mut self.peers {
            p.in_view = false;
            p.joiner = false;
        }
    }
}
