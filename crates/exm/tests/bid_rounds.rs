//! The Fig. 3 round end to end on small daemon groups: the disclosure asks
//! about the units that matter, a bid answers with a bit per unit, and the
//! leader believes exactly the bits it asked for.

use bytes::Bytes;
use vce_codec::{from_bytes, to_bytes};
use vce_exm::msg::{encode_msg, ExmMsg};
use vce_exm::status::DaemonStatus;
use vce_exm::{AppId, DaemonEndpoint, ExmConfig, ReqId};
use vce_isis::IsisMsg;
use vce_net::testing::ForwardHost;
use vce_net::{Addr, Endpoint, Envelope, Host, MachineClass, MachineInfo, NodeId};
use vce_sim::{Sim, SimConfig};

/// Too long for `Bytes`' inline form, like the paths applications use.
const UNIT: &str = "/apps/weather/predictor.vce";

/// Where requests come from and allocations go: a node outside the group.
const CLIENT: Addr = Addr {
    node: NodeId(9),
    port: vce_net::PortId(500),
};

/// Records what the leader tells the client.
#[derive(Default)]
struct Client {
    got: Vec<ExmMsg>,
}

impl Endpoint for Client {
    fn on_envelope(&mut self, env: Envelope, _host: &mut dyn Host) {
        self.got.extend(from_bytes::<ExmMsg>(&env.payload));
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// How a [`Tampered`] daemon's bids leave it.
type Tamper = fn(DaemonStatus) -> Vec<u8>;

/// A daemon whose bids are rewritten on their way out.
struct Tampered {
    inner: DaemonEndpoint,
    tamper: Tamper,
}

impl Tampered {
    /// The host the daemon runs on: every `Reply` it sends carries
    /// `tamper(bid)` in place of the bid.
    fn host<'a>(&self, inner: &'a mut dyn Host) -> impl Host + 'a {
        let tamper = self.tamper;
        let on_send = move |_, _, payload: Bytes, _| match from_bytes::<ExmMsg>(&payload) {
            Ok(ExmMsg::Isis(IsisMsg::Reply { to, payload })) => {
                let bid = from_bytes::<DaemonStatus>(&payload).expect("an honest bid");
                let payload = Bytes::from(tamper(bid));
                encode_msg(&ExmMsg::Isis(IsisMsg::Reply { to, payload }))
            }
            _ => payload,
        };
        ForwardHost { inner, on_send }
    }
}

impl Endpoint for Tampered {
    fn on_start(&mut self, host: &mut dyn Host) {
        self.inner.on_start(&mut self.host(host));
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        self.inner.on_envelope(env, &mut self.host(host));
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        self.inner.on_timer(token, &mut self.host(host));
    }
    fn on_work_done(&mut self, pid: u64, host: &mut dyn Host) {
        self.inner.on_work_done(pid, &mut self.host(host));
    }
}

/// A settled group of equal idle workstations, node 0 leading. `speeds[i]`
/// is node *i*'s; the last daemon's bids go through `tamper` if given.
fn group(speeds: &[f64], tamper: Option<Tamper>) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let nodes = || (0..speeds.len() as u32).map(NodeId);
    let peers: Vec<Addr> = nodes().map(Addr::daemon).collect();
    for (node, &speed) in nodes().zip(speeds) {
        sim.add_node(MachineInfo::workstation(node, speed));
        let cfg = ExmConfig {
            migration_enabled: false,
            ..ExmConfig::default()
        };
        let daemon = DaemonEndpoint::new(node, MachineClass::Workstation, peers.clone(), cfg);
        match tamper.filter(|_| node.0 as usize == speeds.len() - 1) {
            Some(tamper) => {
                let inner = daemon;
                sim.add_endpoint(Addr::daemon(node), Box::new(Tampered { inner, tamper }));
            }
            None => sim.add_endpoint(Addr::daemon(node), Box::new(daemon)),
        }
    }
    sim.add_node(MachineInfo::workstation(CLIENT.node, 100.0));
    sim.add_endpoint(CLIENT, Box::new(Client::default()));
    sim.run_until(5_000_000);
    assert!(with_daemon(&mut sim, 0, |d| d.is_leader()
        && d.view().len() == speeds.len()));
    sim
}

fn with_daemon<T>(sim: &mut Sim, node: u32, f: impl FnOnce(&mut DaemonEndpoint) -> T) -> T {
    sim.with_endpoint_mut(Addr::daemon(NodeId(node)), f)
        .expect("a plain daemon")
}

/// Ask every daemon (as an executor does) for one machine to run `unit`.
fn request(sim: &mut Sim, daemons: u32, seq: u32, unit: &str) {
    let msg = encode_msg(&ExmMsg::ResourceRequest {
        req: ReqId { app: AppId(1), seq },
        class: MachineClass::Workstation,
        count_min: 1,
        count_max: 1,
        mem_mb: 16,
        unit: unit.into(),
        priority_boost: 0,
        reply_to: CLIENT,
    });
    for node in (0..daemons).map(NodeId) {
        sim.inject_at(sim.now_us(), CLIENT, Addr::daemon(node), msg.clone());
    }
}

/// What the client has heard about request `seq`, oldest first.
fn heard(sim: &mut Sim, seq: u32) -> Vec<ExmMsg> {
    let about = |m: &&ExmMsg| match m {
        ExmMsg::Allocation { req, .. } | ExmMsg::RequestQueued { req } => req.seq == seq,
        _ => false,
    };
    sim.with_endpoint_mut(CLIENT, |c: &mut Client| {
        c.got.iter().filter(about).cloned().collect()
    })
    .expect("the client")
}

fn allocated(sim: &mut Sim, seq: u32) -> Option<Vec<NodeId>> {
    heard(sim, seq).into_iter().find_map(|m| match m {
        ExmMsg::Allocation { nodes, .. } => Some(nodes.as_slice().to_vec()),
        _ => None,
    })
}

#[test]
fn the_machine_holding_the_unit_wins_a_direct_round_and_a_queued_one() {
    // Two equal idle machines; the leader (node 0) wins every tie on node
    // id, so only the staged-binary answer can send work to node 1.
    let mut sim = group(&[100.0, 100.0], None);
    with_daemon(&mut sim, 1, |d| d.stage_binary(UNIT));
    request(&mut sim, 2, 1, UNIT);
    sim.run_for(3_000_000); // the round ends before the next begins
    request(&mut sim, 2, 2, "some other unit");
    sim.run_for(1_000_000);
    assert_eq!(allocated(&mut sim, 1), Some(vec![NodeId(1)]));
    assert_eq!(allocated(&mut sim, 2), Some(vec![NodeId(0)]));

    // Their owners return: nothing is willing, the next request queues.
    sim.run_for(2_000_000);
    sim.set_background(NodeId(0), 4.0);
    sim.set_background(NodeId(1), 4.0);
    request(&mut sim, 2, 3, UNIT);
    sim.run_for(1_000_000);
    assert_eq!(
        heard(&mut sim, 3),
        [ExmMsg::RequestQueued {
            req: ReqId {
                app: AppId(1),
                seq: 3
            }
        }]
    );
    // The owners leave again. The request is served by a rebalance sweep,
    // whose disclosure has to ask about the queue's units for node 1's
    // binary to count.
    sim.set_background(NodeId(0), 0.0);
    sim.set_background(NodeId(1), 0.0);
    sim.run_for(5_000_000);
    assert_eq!(allocated(&mut sim, 3), Some(vec![NodeId(1)]));
}

/// An honest bid with every `staged` bit set.
fn claims_everything(bid: DaemonStatus) -> Vec<u8> {
    to_bytes(&DaemonStatus {
        staged: u64::MAX,
        ..bid
    })
}

#[test]
fn bits_nobody_asked_for_win_nothing() {
    // Three equal machines, none holding anything; node 2 sets all 64 bits
    // in every bid. A request naming no unit asks about nothing, one naming
    // a unit asks about bit 0 only.
    let mut sim = group(&[100.0, 100.0, 100.0], Some(claims_everything));
    request(&mut sim, 3, 1, "");
    sim.run_for(1_000_000);
    assert_eq!(
        allocated(&mut sim, 1),
        Some(vec![NodeId(0)]),
        "tie on node id"
    );
    // Bit 0 is the asked one: there the liar is believed, as any bidder is
    // about its own machine. (The first round ended before this one
    // began, so its grant is not charged here: node 0 reads idle too.)
    request(&mut sim, 3, 2, UNIT);
    sim.run_for(1_000_000);
    assert_eq!(allocated(&mut sim, 2), Some(vec![NodeId(2)]));
}

/// The ten-byte tail of a bid whose `staged` claims all 64 bits.
const ALL_BITS: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

/// A bid of the honest one's length whose `staged` runs past 64 bits.
fn overlong_mask(bid: DaemonStatus) -> Vec<u8> {
    let mut bytes = claims_everything(bid);
    assert!(bytes.ends_with(&ALL_BITS));
    *bytes.last_mut().expect("a mask") = 0x02;
    bytes
}

/// A well-formed bid of the same length from a machine that will not host.
fn unwilling(bid: DaemonStatus) -> Vec<u8> {
    claims_everything(DaemonStatus {
        willing: false,
        ..bid
    })
}

#[test]
fn a_malformed_bid_is_dropped_whole() {
    // Node 2 is the fastest machine and would win any round it bids in.
    let round = |tamper: Option<Tamper>| {
        let mut sim = group(&[100.0, 100.0, 400.0], tamper);
        request(&mut sim, 3, 1, UNIT);
        sim.run_for(1_000_000);
        let leader = with_daemon(&mut sim, 0, |d| d.snapshot_hash());
        (allocated(&mut sim, 1), leader)
    };
    let (honest, _) = round(None);
    assert_eq!(honest, Some(vec![NodeId(2)]));
    // With its mask malformed, nothing of the bid is used — not the speed
    // and load that decoded fine before the mask did not: the round goes
    // exactly as if the machine had declined, down to the leader's state.
    let (malformed, leader) = round(Some(overlong_mask));
    assert_eq!(malformed, Some(vec![NodeId(0)]));
    assert_eq!((malformed, leader), round(Some(unwilling)));
}

/// The round's four messages as `alloc_steady` sends them, byte for byte:
/// every number is a uvarint — a float the uvarint of its byte-swapped
/// bits — so a small integer costs one byte and a round float one to
/// three. A size that grows back fails here before it shows in the
/// benchmark's bytes per operation.
#[test]
fn the_round_s_messages_keep_their_pinned_sizes() {
    let req = ReqId {
        app: AppId(1),
        seq: 1,
    };
    let request = ExmMsg::ResourceRequest {
        req,
        class: MachineClass::Workstation,
        count_min: 1,
        count_max: 1,
        mem_mb: 16,
        unit: UNIT.into(),
        priority_boost: 0,
        reply_to: CLIENT,
    };
    // Tag, app, seq, class, the three counts, the unit (1 + 27), the boost
    // and the client's address (port 500 takes two bytes).
    assert_eq!(encode_msg(&request).len(), 39);
    let disclose = ExmMsg::DiscloseState {
        units: [UNIT].map(Into::into).into_iter().collect(),
    };
    assert_eq!(encode_msg(&disclose).len(), 1 + 1 + 1 + UNIT.len());
    // A bare bid: node, class, three f64s (0.0 and 0.0 one byte each, 100.0
    // three), memory, willing, an empty task list and the `staged` mask —
    // 30 bytes when the floats were fixed words; then the reply's tags,
    // the answered cast's `fifo_seq` and the payload length around it.
    let bid = DaemonStatus {
        node: NodeId(2),
        class: MachineClass::Workstation,
        load: 0.0,
        background: 0.0,
        speed_mops: 100.0,
        mem_mb: 64,
        willing: true,
        tasks: Default::default(),
        staged: 1,
    };
    let bid = Bytes::from(to_bytes(&bid));
    assert_eq!(bid.len(), 11);
    let reply = ExmMsg::Isis(IsisMsg::Reply {
        to: 3,
        payload: bid,
    });
    assert_eq!(encode_msg(&reply).len(), 15);
    let allocation = ExmMsg::Allocation {
        req,
        nodes: vec![NodeId(2)].into(),
    };
    assert_eq!(encode_msg(&allocation).len(), 5);
}
