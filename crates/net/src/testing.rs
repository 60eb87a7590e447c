//! Hosts for testing endpoints outside the simulator: [`MockHost`] records what
//! an endpoint does and is scripted by hand, [`ForwardHost`] sits between
//! an endpoint and the host it really runs on and sees what it sends.
//!
//! Public, not `cfg(test)`, so every crate's unit and integration tests
//! share these two instead of writing out the [`Host`] methods again.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::actor::Host;
use crate::addr::{Addr, NodeId};
use crate::machine::MachineInfo;
use crate::stats::MsgCategory;

/// Records effects; time is advanced manually.
pub struct MockHost {
    /// What [`Host::now_us`] reads.
    pub now: u64,
    /// Every message sent, `(src, dst, payload)`, oldest first.
    pub sent: Vec<(Addr, Addr, Bytes)>,
    /// Every timer armed, `(delay_us, token)`, oldest first.
    pub timers: Vec<(u64, u64)>,
    /// Tokens passed to [`Host::cancel_timer`].
    pub cancelled_timers: Vec<u64>,
    /// Work started, `(pid, mops)`; [`Host::work_remaining`] reads it.
    pub work: Vec<(u64, f64)>,
    /// Pids passed to [`Host::cancel_work`].
    pub cancelled_work: Vec<u64>,
    /// Trace lines.
    pub logs: Vec<String>,
    /// What [`Host::load`] reads.
    pub load_value: f64,
    /// The local machine: a 100 Mops/s workstation.
    pub info: MachineInfo,
    /// Scripted [`Host::rand_u64`] draws; 0 once it runs out.
    pub rand: VecDeque<u64>,
}

impl MockHost {
    /// An idle host on `node` at time 0.
    pub fn new(node: NodeId) -> Self {
        Self {
            now: 0,
            sent: Vec::new(),
            timers: Vec::new(),
            cancelled_timers: Vec::new(),
            work: Vec::new(),
            cancelled_work: Vec::new(),
            logs: Vec::new(),
            load_value: 0.0,
            info: MachineInfo::workstation(node, 100.0),
            rand: VecDeque::new(),
        }
    }
}

impl Host for MockHost {
    fn now_us(&self) -> u64 {
        self.now
    }
    fn send(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        self.sent.push((src, dst, payload));
    }
    fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.push((delay_us, token));
    }
    fn cancel_timer(&mut self, token: u64) {
        self.cancelled_timers.push(token);
    }
    fn start_work(&mut self, pid: u64, mops: f64) {
        self.work.push((pid, mops));
    }
    fn cancel_work(&mut self, pid: u64) {
        self.cancelled_work.push(pid);
    }
    fn work_remaining(&self, pid: u64) -> Option<f64> {
        self.work.iter().find(|(p, _)| *p == pid).map(|(_, m)| *m)
    }
    fn load(&self) -> f64 {
        self.load_value
    }
    fn machine(&self) -> &MachineInfo {
        &self.info
    }
    fn rand_u64(&mut self) -> u64 {
        self.rand.pop_front().unwrap_or(0)
    }
    fn log(&mut self, line: String) {
        self.logs.push(line);
    }
}

/// Everything goes to `inner` unchanged, except that each outgoing message
/// is first shown to `on_send`, which returns the payload to send in its
/// place (a plain [`Host::send`] is shown as [`MsgCategory::Protocol`]).
pub struct ForwardHost<'a, F> {
    /// The host the endpoint really runs on.
    pub inner: &'a mut dyn Host,
    /// Sees `(src, dst, payload, category)`; returns the payload to send.
    pub on_send: F,
}

impl<F: FnMut(Addr, Addr, Bytes, MsgCategory) -> Bytes> Host for ForwardHost<'_, F> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn send(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        let payload = (self.on_send)(src, dst, payload, MsgCategory::Protocol);
        self.inner.send(src, dst, payload);
    }
    fn send_category(&mut self, src: Addr, dst: Addr, payload: Bytes, category: MsgCategory) {
        let payload = (self.on_send)(src, dst, payload, category);
        self.inner.send_category(src, dst, payload, category);
    }
    fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.inner.set_timer(delay_us, token);
    }
    fn cancel_timer(&mut self, token: u64) {
        self.inner.cancel_timer(token);
    }
    fn start_work(&mut self, pid: u64, mops: f64) {
        self.inner.start_work(pid, mops);
    }
    fn cancel_work(&mut self, pid: u64) {
        self.inner.cancel_work(pid);
    }
    fn work_remaining(&self, pid: u64) -> Option<f64> {
        self.inner.work_remaining(pid)
    }
    fn load(&self) -> f64 {
        self.inner.load()
    }
    fn machine(&self) -> &MachineInfo {
        self.inner.machine()
    }
    fn rand_u64(&mut self) -> u64 {
        self.inner.rand_u64()
    }
    fn log(&mut self, line: String) {
        self.inner.log(line);
    }
    fn log_enabled(&self) -> bool {
        self.inner.log_enabled()
    }
    fn encode_with(&mut self, f: &mut dyn FnMut(&mut vce_codec::Encoder)) -> Bytes {
        self.inner.encode_with(f)
    }
}
