//! The transport-agnostic actor model every VCE protocol component uses.
//!
//! Daemons, group leaders, executors and simulated tasks are written as
//! [`Endpoint`] state machines: they react to envelopes, timers and
//! work-completion notifications, and express all side effects through the
//! [`Host`] interface. The hosts that implement it are:
//!
//! * the deterministic discrete-event host in `vce-sim` — every experiment,
//!   example and integration test, on one thread or (sharded) many;
//! * the doubles in [`testing`](crate::testing) — a hand-scripted
//!   [`MockHost`](crate::testing::MockHost) and a
//!   [`ForwardHost`](crate::testing::ForwardHost) that wraps a real host and
//!   sees every send — for unit tests.
//!
//! Time and I/O reach an endpoint only through its host, so the code that is
//! benchmarked is the code that ships — the property DESIGN.md calls "the
//! evaluated system is the shipped system".

use bytes::Bytes;

use crate::addr::Addr;
use crate::machine::MachineInfo;
use crate::stats::MsgCategory;

/// The environment an [`Endpoint`] runs in.
///
/// All methods are infallible from the endpoint's perspective; delivery
/// failures surface as silence (exactly what a 1994 datagram LAN gave Isis,
/// which is why the failure detector exists).
pub trait Host {
    /// Current time in microseconds since the epoch of the run.
    fn now_us(&self) -> u64;

    /// Queue a message. `src` must be an endpoint on the local node.
    fn send(&mut self, src: Addr, dst: Addr, payload: Bytes);

    /// Queue a message attributed to a traffic category (see
    /// [`MsgCategory`]). Hosts that don't keep per-category statistics may
    /// ignore the attribution — the default forwards to [`Host::send`].
    fn send_category(&mut self, src: Addr, dst: Addr, payload: Bytes, category: MsgCategory) {
        let _ = category;
        self.send(src, dst, payload);
    }

    /// Arm a one-shot timer that fires `delay_us` from now with `token`.
    fn set_timer(&mut self, delay_us: u64, token: u64);

    /// Disarm every pending timer this endpoint armed with `token`.
    /// Cancelling an unknown or fired token is a no-op.
    fn cancel_timer(&mut self, token: u64);

    /// Begin executing `ops` million operations of compute on this machine's
    /// CPU under the local process id `pid`; `on_work_done(pid)` fires when
    /// it completes. Execution shares the CPU with other local work
    /// (processor sharing in the simulator).
    fn start_work(&mut self, pid: u64, mops: f64);

    /// Kill running work by pid. Killing unknown work is a no-op.
    fn cancel_work(&mut self, pid: u64);

    /// Remaining Mops of work started under `pid` on this endpoint, if
    /// still running — what checkpointing and migration read to know how
    /// much progress would be carried or lost.
    fn work_remaining(&self, pid: u64) -> Option<f64>;

    /// Instantaneous load of the local machine: the number of runnable
    /// processes including background (local-user) activity — the quantity
    /// daemons disclose in their bids (§5).
    fn load(&self) -> f64;

    /// The local machine's database record.
    fn machine(&self) -> &MachineInfo;

    /// Deterministic per-node randomness (seeded by the driver).
    fn rand_u64(&mut self) -> u64;

    /// Emit a trace line (collected by the driver; free-form).
    fn log(&mut self, line: String);

    /// Whether [`Host::log`] lines are being kept. Hot paths check this
    /// before building a log string, so disabled-trace runs (benchmarks)
    /// pay neither the `format!` allocation nor the push.
    fn log_enabled(&self) -> bool {
        true
    }

    /// Run `f` against an encoder and return the encoded bytes. The
    /// default constructs a fresh encoder per call; hosts on the hot path
    /// (the simulator) override it with a pooled per-host scratch buffer
    /// so envelope encode stops allocating per message. Callers must treat
    /// the encoder as empty on entry and must not stash it.
    fn encode_with(&mut self, f: &mut dyn FnMut(&mut vce_codec::Encoder)) -> Bytes {
        let mut enc = vce_codec::Encoder::with_capacity(64);
        f(&mut enc);
        enc.finish_bytes()
    }
}

/// A protocol state machine bound to one [`Addr`].
///
/// Implementations must be deterministic functions of their inputs plus
/// `Host::rand_u64`; they must not consult wall-clock time or global state.
pub trait Endpoint: Send {
    /// Called once when the endpoint starts (node boot or port creation).
    fn on_start(&mut self, _host: &mut dyn Host) {}

    /// Called for every envelope addressed to this endpoint.
    fn on_envelope(&mut self, env: crate::Envelope, host: &mut dyn Host);

    /// Called when a timer armed with `token` fires.
    fn on_timer(&mut self, _token: u64, _host: &mut dyn Host) {}

    /// Called when locally started work completes.
    fn on_work_done(&mut self, _pid: u64, _host: &mut dyn Host) {}

    /// Called at the instant the node crashes, before it is marked dead.
    /// This is *not* an orderly shutdown hook: sends are already severed
    /// (the fault plan drops them) and timers die with the node. Its one
    /// legitimate use is settling simulated local state that survives the
    /// crash — e.g. a stable store deciding which in-flight writes hit the
    /// platter. Endpoints without durable state ignore it.
    fn on_crash(&mut self, _host: &mut dyn Host) {}

    /// Optional downcast hook so drivers can expose endpoint state to tests
    /// and experiment harnesses. Override with `Some(self)` where inspection
    /// is wanted; protocol correctness must never depend on it.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Cheap digest of the endpoint's protocol state, folded into the
    /// per-node snapshot hashes the record/replay subsystem writes
    /// (`vce_sim::record`). Implementations must be **deterministic and
    /// shard-invariant**: fold only state that is a pure function of the
    /// simulation (sorted containers, scalars — never `HashMap` iteration
    /// order, pointers or capacities), and keep it O(state) cheap. The
    /// default participates with a constant, so endpoints without an
    /// override neither break divergence detection nor contribute to it.
    fn snapshot_hash(&self) -> u64 {
        0
    }
}

/// Encode a message and send it — the common idiom. Encodes through
/// [`Host::encode_with`], so hosts with a pooled scratch buffer serve the
/// hot path allocation-free.
pub fn send_msg<T: vce_codec::Codec>(host: &mut dyn Host, src: Addr, dst: Addr, msg: &T) {
    let payload = host.encode_with(&mut |enc| msg.encode(enc));
    host.send(src, dst, payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;
    use crate::testing::MockHost;
    use crate::Envelope;

    /// An endpoint that echoes payloads back to the sender.
    struct Echo {
        me: Addr,
        seen: usize,
    }

    impl Endpoint for Echo {
        fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
            self.seen += 1;
            host.send(self.me, env.src, env.payload);
        }
    }

    #[test]
    fn endpoint_effects_are_captured() {
        let me = Addr::daemon(NodeId(0));
        let peer = Addr::daemon(NodeId(1));
        let mut echo = Echo { me, seen: 0 };
        let mut host = MockHost::new(NodeId(0));
        echo.on_envelope(
            Envelope::new(peer, me, Bytes::from_static(b"hi")),
            &mut host,
        );
        assert_eq!(echo.seen, 1);
        assert_eq!(host.sent.len(), 1);
        assert_eq!(host.sent[0].1, peer);
        assert_eq!(&host.sent[0].2[..], b"hi");
    }

    #[test]
    fn send_msg_encodes() {
        let mut host = MockHost::new(NodeId(0));
        let src = Addr::daemon(NodeId(0));
        let dst = Addr::leader(NodeId(1));
        send_msg(&mut host, src, dst, &("x".to_string(), 7u64));
        let (_, _, payload) = &host.sent[0];
        let mut dec = vce_codec::Decoder::new(payload);
        let got = <(String, u64) as vce_codec::Codec>::decode(&mut dec).unwrap();
        assert_eq!(got, ("x".to_string(), 7));
    }
}
