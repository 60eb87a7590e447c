//! Oracle for the engine's timer table: random arm/cancel scripts run by
//! two or three endpoints of one node must fire exactly what a naive list
//! of pending timers fires — a cancel erases every pending timer its
//! endpoint armed with that token and does nothing when none is pending,
//! timers due at one instant fire in the order they were armed, and a
//! crash takes every pending timer with it.
//!
//! Each callback (a start or a firing) takes the next batch of operations
//! from one shared script, so batches mix set-then-cancel and
//! cancel-then-set on one token, cancels of tokens that already fired, and
//! several pending timers per token. Delays cluster on a few values for
//! same-instant ties and reach past `SPAN_US`, the calendar queue's wheel
//! horizon. The same script runs at one shard and at two.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use vce_net::{Addr, Endpoint, Envelope, FaultOp, Host, MachineInfo, NodeId, PortId};
use vce_sim::queue::SPAN_US;
use vce_sim::{Sim, SimConfig};

/// Everything a case can arm lies well before this.
const HORIZON_US: u64 = 4 * SPAN_US;

#[derive(Debug, Clone, Copy)]
enum Op {
    Set(u64, u64),
    Cancel(u64),
}

/// A firing: `(at_us, port, token)`.
type Fired = (u64, u32, u64);

#[derive(Debug, Clone)]
struct Case {
    ports: u32,
    script: Vec<Vec<Op>>,
    /// Kill the node at this instant; revive it this much later, if at all.
    crash: Option<(u64, Option<u64>)>,
}

fn delay_strategy() -> impl Strategy<Value = u64> {
    // (The vendored `prop_oneof!` is unweighted; the tie-heavy arms repeat.)
    prop_oneof![
        Just(0u64),
        (0u64..4).prop_map(|k| k * 100),
        (0u64..4).prop_map(|k| k * 100),
        0u64..2_000,
        SPAN_US - 64..SPAN_US + 3_000,
        (0u64..3).prop_map(|k| 2 * SPAN_US + k * 100),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (delay_strategy(), 1u64..=3).prop_map(|(d, t)| Op::Set(d, t)),
        (delay_strategy(), 1u64..=3).prop_map(|(d, t)| Op::Set(d, t)),
        (1u64..=3).prop_map(Op::Cancel),
    ]
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2u32..=3,
        prop::collection::vec(prop::collection::vec(op_strategy(), 0..5), 1..48),
        proptest::option::of((1u64..2_500, proptest::option::of(1u64..2 * SPAN_US))),
    )
        .prop_map(|(ports, script, crash)| Case {
            ports,
            script,
            crash,
        })
}

/// The script and what fired, shared by a node's endpoints in callback
/// order.
#[derive(Default)]
struct Shared {
    script: VecDeque<Vec<Op>>,
    fired: Vec<Fired>,
}

struct Scripted {
    port: PortId,
    shared: Arc<Mutex<Shared>>,
}

impl Scripted {
    fn run_batch(&self, host: &mut dyn Host) {
        let batch = self.shared.lock().unwrap().script.pop_front();
        for op in batch.unwrap_or_default() {
            match op {
                Op::Set(delay, token) => host.set_timer(delay, token),
                Op::Cancel(token) => host.cancel_timer(token),
            }
        }
    }
}

impl Endpoint for Scripted {
    fn on_start(&mut self, host: &mut dyn Host) {
        self.run_batch(host);
    }
    fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        self.shared
            .lock()
            .unwrap()
            .fired
            .push((host.now_us(), self.port.0, token));
        self.run_batch(host);
    }
}

fn run_engine(case: &Case, shards: usize) -> Vec<Fired> {
    let mut sim = Sim::new(SimConfig {
        seed: 3,
        trace_enabled: false,
        shards,
        ..SimConfig::default()
    });
    let node = NodeId(0);
    sim.add_node(MachineInfo::workstation(node, 100.0));
    let shared = Arc::new(Mutex::new(Shared {
        script: case.script.iter().cloned().collect(),
        fired: Vec::new(),
    }));
    for p in 0..case.ports {
        let port = PortId(p);
        let shared = Arc::clone(&shared);
        sim.add_endpoint(Addr::new(node, port), Box::new(Scripted { port, shared }));
    }
    if let Some((kill_at, revive_after)) = case.crash {
        sim.schedule_fault(kill_at, FaultOp::Kill(node));
        if let Some(d) = revive_after {
            sim.schedule_fault(kill_at + d, FaultOp::Revive(node));
        }
    }
    sim.run_until(HORIZON_US);
    let fired = std::mem::take(&mut shared.lock().unwrap().fired);
    fired
}

/// The reference: a plain list of pending timers, searched for the
/// earliest `(at_us, arm order)` — arm order is the engine's cause order on
/// one node — and filtered on cancel.
fn run_model(case: &Case) -> Vec<Fired> {
    struct Model {
        now: u64,
        /// `(at_us, arm order, port, token)`.
        pending: Vec<(u64, u64, u32, u64)>,
        armed: u64,
        script: VecDeque<Vec<Op>>,
        fired: Vec<Fired>,
    }
    impl Model {
        fn callback(&mut self, port: u32) {
            for op in self.script.pop_front().unwrap_or_default() {
                match op {
                    Op::Set(delay, token) => {
                        self.pending
                            .push((self.now + delay, self.armed, port, token));
                        self.armed += 1;
                    }
                    Op::Cancel(token) => self.pending.retain(|t| (t.2, t.3) != (port, token)),
                }
            }
        }
        fn start_all(&mut self, ports: u32) {
            for p in 0..ports {
                self.callback(p);
            }
        }
    }
    let mut m = Model {
        now: 0,
        pending: Vec::new(),
        armed: 0,
        script: case.script.iter().cloned().collect(),
        fired: Vec::new(),
    };
    m.start_all(case.ports);
    let mut crash = case.crash;
    loop {
        let next = (0..m.pending.len()).min_by_key(|&i| (m.pending[i].0, m.pending[i].1));
        let next_at = next.map(|i| m.pending[i].0);
        // A fault fence applies before the events of its instant.
        if let Some((kill_at, revive_after)) = crash.filter(|c| next_at.is_none_or(|at| c.0 <= at))
        {
            crash = None;
            m.pending.clear();
            match revive_after.map(|d| kill_at + d) {
                Some(at) if at <= HORIZON_US => {
                    m.now = at;
                    m.start_all(case.ports);
                }
                _ => break,
            }
            continue;
        }
        let Some(i) = next.filter(|&i| m.pending[i].0 <= HORIZON_US) else {
            break;
        };
        let (at, _, port, token) = m.pending.remove(i);
        m.now = at;
        m.fired.push((at, port, token));
        m.callback(port);
    }
    m.fired
}

proptest! {
    #[test]
    fn timer_table_matches_a_pending_list(case in case_strategy()) {
        let expected = run_model(&case);
        for shards in [1, 2] {
            let got = run_engine(&case, shards);
            prop_assert_eq!(&got, &expected, "S={}", shards);
        }
    }
}

/// The cases the random scripts must not be left to find by luck, spelled
/// out: one callback's set-then-cancel and cancel-then-set, a cancel after
/// the timer fired, and two pending timers with one token.
#[test]
fn the_spelled_out_cases_match_the_model() {
    let case = Case {
        ports: 2,
        script: vec![
            vec![Op::Set(200, 3), Op::Cancel(3), Op::Set(100, 1)],
            vec![
                Op::Cancel(7),
                Op::Set(100, 7),
                Op::Set(300, 7),
                Op::Set(50, 2),
            ],
            vec![Op::Cancel(2)],
            vec![],
            vec![Op::Cancel(7)],
        ],
        crash: None,
    };
    let fired = run_model(&case);
    assert_eq!(fired, vec![(50, 1, 2), (100, 0, 1), (100, 1, 7)]);
    for shards in [1, 2] {
        assert_eq!(run_engine(&case, shards), fired, "S={shards}");
    }
}
