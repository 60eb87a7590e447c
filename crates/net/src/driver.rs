//! Live threaded driver: runs [`Endpoint`] state machines on OS threads.
//!
//! One thread per node pumps that node's mailbox, timer wheel and work queue,
//! dispatching to the endpoints registered on the node's ports. This is the
//! "real" deployment mode; the experiments instead use the deterministic
//! discrete-event host in `vce-sim`, which drives the *same* endpoints.
//!
//! Compute model in live mode: work started via [`Host::start_work`] runs for
//! `mops / speed_mops` seconds of scaled wall-clock time (no processor
//! sharing — live mode exists to demonstrate the protocols, not to measure
//! compute interference; the simulator models processor sharing properly).
//! The `time_scale` factor compresses simulated seconds into real
//! microseconds so examples finish instantly.

use std::collections::{BTreeMap, BinaryHeap};
// vce-lint: allow(S002) live driver IS threaded: one OS thread per node, stop flag is its shutdown signal
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// vce-lint: allow(D001) live mode IS wall-clock: one OS thread per node, scaled real time (see module doc)
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::actor::{Endpoint, Host};
#[cfg(test)]
use crate::addr::NodeId;
use crate::addr::{Addr, PortId};
use crate::machine::MachineInfo;
use crate::memory::{MemoryNetwork, NodeHandle};

/// Deadline-ordered entry (min-heap via `Reverse` ordering trick).
#[derive(Debug, PartialEq, Eq)]
enum Pending {
    Timer { port: PortId, token: u64 },
    Work { port: PortId, pid: u64 },
}

#[derive(Debug, PartialEq, Eq)]
struct Deadline {
    at_us: u64,
    seq: u64,
    what: Pending,
}

impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at_us
            .cmp(&self.at_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct NodeState {
    handle: NodeHandle,
    info: MachineInfo,
    start: Instant,
    time_scale: f64,
    /// Pending timers and work. A cancel erases its entries, so every one
    /// that pops is live.
    deadlines: BinaryHeap<Deadline>,
    seq: u64,
    /// `Work` entries in `deadlines`.
    active_work: usize,
    background_load: f64,
    rng: SmallRng,
    logs: Vec<String>,
    current_port: PortId,
}

impl NodeState {
    fn now_us(&self) -> u64 {
        let real = self.start.elapsed().as_micros() as f64;
        (real * self.time_scale) as u64
    }

    fn next_deadline(&self) -> Option<u64> {
        self.deadlines.peek().map(|d| d.at_us)
    }
}

impl Host for NodeState {
    fn now_us(&self) -> u64 {
        NodeState::now_us(self)
    }

    fn send(&mut self, src: Addr, dst: Addr, payload: bytes::Bytes) {
        self.handle.send_raw(src, dst, payload);
    }

    fn send_category(
        &mut self,
        src: Addr,
        dst: Addr,
        payload: bytes::Bytes,
        category: crate::MsgCategory,
    ) {
        self.handle.send_raw_category(src, dst, payload, category);
    }

    fn set_timer(&mut self, delay_us: u64, token: u64) {
        let at_us = self.now_us() + delay_us;
        self.seq += 1;
        self.deadlines.push(Deadline {
            at_us,
            seq: self.seq,
            what: Pending::Timer {
                port: self.current_port,
                token,
            },
        });
    }

    fn cancel_timer(&mut self, token: u64) {
        let port = self.current_port;
        self.deadlines
            .retain(|d| d.what != Pending::Timer { port, token });
    }

    fn start_work(&mut self, pid: u64, mops: f64) {
        // Simulated seconds of compute, compressed by time_scale into real
        // time but *reported* in simulated microseconds.
        let sim_us = (mops.max(0.0) / self.info.speed_mops * 1e6) as u64;
        let at_us = self.now_us() + sim_us;
        self.seq += 1;
        self.active_work += 1;
        self.deadlines.push(Deadline {
            at_us,
            seq: self.seq,
            what: Pending::Work {
                port: self.current_port,
                pid,
            },
        });
    }

    fn cancel_work(&mut self, pid: u64) {
        let work = Pending::Work {
            port: self.current_port,
            pid,
        };
        let before = self.deadlines.len();
        self.deadlines.retain(|d| d.what != work);
        self.active_work -= before - self.deadlines.len();
    }

    fn work_remaining(&self, pid: u64) -> Option<f64> {
        let now = self.now_us();
        let work = Pending::Work {
            port: self.current_port,
            pid,
        };
        self.deadlines
            .iter()
            .find(|d| d.what == work)
            .map(|d| d.at_us.saturating_sub(now) as f64 / 1e6 * self.info.speed_mops)
    }

    fn load(&self) -> f64 {
        self.active_work as f64 + self.background_load
    }

    fn machine(&self) -> &MachineInfo {
        &self.info
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn log(&mut self, line: String) {
        self.logs.push(line);
    }
}

/// A node assembled for live running: machine info plus its endpoints.
pub struct LiveNodeConfig {
    /// Machine database record for the node.
    pub info: MachineInfo,
    /// Endpoints keyed by port.
    pub endpoints: Vec<(PortId, Box<dyn Endpoint>)>,
    /// Constant background (local-user) load contribution.
    pub background_load: f64,
}

impl LiveNodeConfig {
    /// A node with the given machine record and no endpoints yet.
    pub fn new(info: MachineInfo) -> Self {
        Self {
            info,
            endpoints: Vec::new(),
            background_load: 0.0,
        }
    }

    /// Register an endpoint on a port.
    pub fn with_endpoint(mut self, port: PortId, ep: Box<dyn Endpoint>) -> Self {
        self.endpoints.push((port, ep));
        self
    }
}

/// Drives a set of nodes, one thread each, until stopped.
pub struct LiveDriver {
    stop: Arc<AtomicBool>,
    // vce-lint: allow(D004) live mode exists to run endpoints on real OS threads; the sim engine is the deterministic twin
    threads: Vec<std::thread::JoinHandle<Vec<String>>>,
}

impl LiveDriver {
    /// Spawn all node threads. `time_scale` maps real microseconds to
    /// simulated microseconds (e.g. `1000.0` makes one real millisecond one
    /// simulated second... i.e. everything runs 1000x fast).
    pub fn spawn(
        net: &MemoryNetwork,
        nodes: Vec<LiveNodeConfig>,
        seed: u64,
        time_scale: f64,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        // Attach every node before any thread runs, so `on_start` sends from
        // one node cannot race the attachment of another.
        let attached: Vec<(NodeHandle, LiveNodeConfig)> = nodes
            .into_iter()
            .map(|cfg| (net.attach(cfg.info.node), cfg))
            .collect();
        let threads = attached
            .into_iter()
            .enumerate()
            .map(|(i, (handle, cfg))| {
                let stop = Arc::clone(&stop);
                let node_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                // vce-lint: allow(D004) one thread per live node is the point of the live driver
                std::thread::spawn(move || run_node(handle, cfg, node_seed, time_scale, stop))
            })
            .collect();
        Self { stop, threads }
    }

    /// Signal all node threads to finish and collect their trace logs.
    pub fn stop(self) -> Vec<Vec<String>> {
        self.stop.store(true, Ordering::SeqCst);
        self.threads
            .into_iter()
            .map(|t| t.join().expect("node thread panicked"))
            .collect()
    }
}

fn run_node(
    handle: NodeHandle,
    cfg: LiveNodeConfig,
    seed: u64,
    time_scale: f64,
    stop: Arc<AtomicBool>,
) -> Vec<String> {
    let node = cfg.info.node;
    // BTreeMap so `on_start` order (and any same-deadline dispatch order)
    // matches the sim engine's port order rather than a hash seed.
    let mut endpoints: BTreeMap<PortId, Box<dyn Endpoint>> = cfg.endpoints.into_iter().collect();
    let mut state = NodeState {
        handle,
        info: cfg.info,
        // vce-lint: allow(D001) live node time base: scaled wall clock, by definition of live mode
        start: Instant::now(),
        time_scale,
        deadlines: BinaryHeap::new(),
        seq: 0,
        active_work: 0,
        background_load: cfg.background_load,
        rng: SmallRng::seed_from_u64(seed),
        logs: Vec::new(),
        current_port: PortId::DAEMON,
    };

    // Start every endpoint.
    let ports: Vec<PortId> = endpoints.keys().copied().collect();
    for port in ports {
        if let Some(mut ep) = endpoints.remove(&port) {
            state.current_port = port;
            ep.on_start(&mut state);
            endpoints.insert(port, ep);
        }
    }

    while !stop.load(Ordering::Relaxed) {
        // Fire due deadlines.
        let now = state.now_us();
        while state.next_deadline().is_some_and(|at| at <= now) {
            let d = state.deadlines.pop().expect("peeked");
            match d.what {
                Pending::Timer { port, token } => {
                    if let Some(mut ep) = endpoints.remove(&port) {
                        state.current_port = port;
                        ep.on_timer(token, &mut state);
                        endpoints.insert(port, ep);
                    }
                }
                Pending::Work { port, pid } => {
                    state.active_work -= 1;
                    if let Some(mut ep) = endpoints.remove(&port) {
                        state.current_port = port;
                        ep.on_work_done(pid, &mut state);
                        endpoints.insert(port, ep);
                    }
                }
            }
        }

        // Wait for the next message, but no longer than the next deadline
        // (in real time) or a polling quantum.
        let wait_real_us = match state.next_deadline() {
            Some(at) => {
                let sim_gap = at.saturating_sub(state.now_us()) as f64;
                ((sim_gap / state.time_scale) as u64).clamp(1, 2_000)
            }
            None => 2_000,
        };
        if let Some(env) = state
            .handle
            .recv_timeout(Duration::from_micros(wait_real_us))
        {
            let port = env.dst.port;
            if let Some(mut ep) = endpoints.remove(&port) {
                state.current_port = port;
                ep.on_envelope(env, &mut state);
                endpoints.insert(port, ep);
            } else {
                state
                    .logs
                    .push(format!("{node}: no endpoint for {}", env.dst));
            }
        }
    }
    state.logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::send_msg;
    use crate::Envelope;

    /// Ping endpoint: sends a counter to its peer on start and echoes
    /// increments until 10.
    struct PingPong {
        me: Addr,
        peer: Option<Addr>,
        final_value: Option<u64>,
        done_tx: crossbeam::channel::Sender<u64>,
    }

    impl Endpoint for PingPong {
        fn on_start(&mut self, host: &mut dyn Host) {
            if let Some(peer) = self.peer {
                send_msg(host, self.me, peer, &0u64);
            }
        }
        fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
            let v: u64 = env.decode_payload().unwrap();
            if v >= 10 {
                self.final_value = Some(v);
                let _ = self.done_tx.send(v);
            } else {
                send_msg(host, self.me, env.src, &(v + 1));
            }
        }
    }

    #[test]
    fn ping_pong_across_threads() {
        let net = MemoryNetwork::new(7);
        let (tx, rx) = crossbeam::channel::unbounded();
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let a = LiveNodeConfig::new(MachineInfo::workstation(n0, 100.0)).with_endpoint(
            PortId::DAEMON,
            Box::new(PingPong {
                me: Addr::daemon(n0),
                peer: Some(Addr::daemon(n1)),
                final_value: None,
                done_tx: tx.clone(),
            }),
        );
        let b = LiveNodeConfig::new(MachineInfo::workstation(n1, 100.0)).with_endpoint(
            PortId::DAEMON,
            Box::new(PingPong {
                me: Addr::daemon(n1),
                peer: None,
                final_value: None,
                done_tx: tx,
            }),
        );
        let driver = LiveDriver::spawn(&net, vec![a, b], 1, 1.0);
        let v = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(v, 10);
        driver.stop();
    }

    /// Endpoint that runs work and reports the simulated duration.
    struct Worker {
        done_tx: crossbeam::channel::Sender<u64>,
        started_at: u64,
    }

    impl Endpoint for Worker {
        fn on_start(&mut self, host: &mut dyn Host) {
            self.started_at = host.now_us();
            host.start_work(1, 50.0); // 50 Mops on a 100-Mops machine = 0.5 sim-s
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        fn on_work_done(&mut self, pid: u64, host: &mut dyn Host) {
            assert_eq!(pid, 1);
            let _ = self.done_tx.send(host.now_us() - self.started_at);
        }
    }

    #[test]
    fn work_completes_in_scaled_time() {
        let net = MemoryNetwork::new(7);
        let (tx, rx) = crossbeam::channel::unbounded();
        let cfg = LiveNodeConfig::new(MachineInfo::workstation(NodeId(0), 100.0)).with_endpoint(
            PortId::DAEMON,
            Box::new(Worker {
                done_tx: tx,
                started_at: 0,
            }),
        );
        // time_scale 10_000: 0.5 simulated seconds ≈ 50 real ms.
        let driver = LiveDriver::spawn(&net, vec![cfg], 1, 10_000.0);
        let sim_duration = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        driver.stop();
        // Should be at least the nominal 500_000 sim-us. The upper bound is
        // only a sanity check and must be generous: on a loaded single-core
        // CI machine the driver thread can be starved for whole seconds of
        // real time, which this wall-clock-scaled test would otherwise read
        // as a failure.
        assert!(
            (400_000..40_000_000).contains(&sim_duration),
            "sim duration {sim_duration}"
        );
    }

    /// Endpoint with a timer that cancels a second timer.
    struct TimerBox {
        fired: Vec<u64>,
        done_tx: crossbeam::channel::Sender<Vec<u64>>,
    }

    impl Endpoint for TimerBox {
        fn on_start(&mut self, host: &mut dyn Host) {
            host.set_timer(1_000, 1);
            host.set_timer(2_000, 2);
            host.set_timer(30_000, 3);
            host.cancel_timer(2);
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        fn on_timer(&mut self, token: u64, _host: &mut dyn Host) {
            self.fired.push(token);
            if token == 3 {
                let _ = self.done_tx.send(self.fired.clone());
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let net = MemoryNetwork::new(7);
        let (tx, rx) = crossbeam::channel::unbounded();
        let cfg = LiveNodeConfig::new(MachineInfo::workstation(NodeId(0), 100.0)).with_endpoint(
            PortId::DAEMON,
            Box::new(TimerBox {
                fired: Vec::new(),
                done_tx: tx,
            }),
        );
        let driver = LiveDriver::spawn(&net, vec![cfg], 1, 1_000.0);
        let fired = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        driver.stop();
        assert_eq!(fired, vec![1, 3]);
    }

    /// Cancels with nothing pending, then arms and starts what it cancelled;
    /// reports what fired and completed once a late timer fires.
    struct CancelFirst {
        seen: Vec<(&'static str, u64)>,
        done_tx: crossbeam::channel::Sender<Vec<(&'static str, u64)>>,
    }

    impl Endpoint for CancelFirst {
        fn on_start(&mut self, host: &mut dyn Host) {
            host.cancel_timer(7);
            host.set_timer(1_000, 7);
            host.cancel_work(1);
            host.start_work(1, 1.0); // 10,000 sim-µs on a 100-Mops machine
            host.start_work(2, 1.0);
            host.cancel_work(2);
            assert_eq!(host.load(), 1.0);
            assert_eq!(host.work_remaining(2), None);
            host.set_timer(30_000, 8);
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        fn on_timer(&mut self, token: u64, _host: &mut dyn Host) {
            self.seen.push(("timer", token));
            if token == 8 {
                let _ = self.done_tx.send(self.seen.clone());
            }
        }
        fn on_work_done(&mut self, pid: u64, _host: &mut dyn Host) {
            self.seen.push(("work", pid));
        }
    }

    #[test]
    fn a_cancel_with_nothing_pending_is_a_no_op() {
        let net = MemoryNetwork::new(7);
        let (tx, rx) = crossbeam::channel::unbounded();
        let cfg = LiveNodeConfig::new(MachineInfo::workstation(NodeId(0), 100.0)).with_endpoint(
            PortId::DAEMON,
            Box::new(CancelFirst {
                seen: Vec::new(),
                done_tx: tx,
            }),
        );
        let driver = LiveDriver::spawn(&net, vec![cfg], 1, 1_000.0);
        let seen = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        driver.stop();
        assert_eq!(seen, vec![("timer", 7), ("work", 1), ("timer", 8)]);
    }
}
