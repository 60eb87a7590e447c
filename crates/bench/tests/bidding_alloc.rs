//! The steady-state bidding round allocates nothing: once a workstation
//! group is warmed up, a full request → disclose → bid → select →
//! allocation cycle runs entirely out of reused state — the host's pooled
//! encode buffers, the leader's slab arenas (`served`/`pending`) and
//! grant ledger, the collector's recycled reply vectors and the
//! engine's calendar queue. Two fleets drive hundreds of real allocation
//! rounds through the daemon protocol and assert that the measured window
//! performs no per-round heap traffic:
//!
//! * a **bare** one — no staged binaries, no tasks, an empty `unit`,
//!   migration off — where every list on the round's path is empty, so
//!   what it gates is the protocol's own overhead and nothing a real
//!   application adds;
//! * a **staged** one — 64 binaries per daemon, requests that name one of
//!   them, a resident task disclosed in every bid of its machine, and the
//!   leader's rebalance sweep running inside the window — which is the
//!   round as `exp_*` binaries and `app_dense` pay for it.
//!
//! A third case runs the bare fleet with a retry horizon short enough
//! that the leader forgets old grants inside the window: the sweep frees
//! into the slab's free list, and later grants reuse those slots.
//!
//! The WAL is off in all three: journaling has its own cost and its own
//! tests. Allocations are counted per thread (a one-shard sim runs on its
//! caller's), so the cases can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vce_bench::workstation_vce;
use vce_codec::{Codec, Decoder};
use vce_exm::config::REBALANCE_PERIOD_US;
use vce_exm::msg::LoadProgram;
use vce_exm::{AppId, ExmConfig, ExmMsg, InstanceKey, ReqId};
use vce_net::{Addr, Endpoint, Envelope, Host, MachineInfo, NodeId};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point in a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const TICK: u64 = 1;
/// Round period: comfortably above request→allocation latency (~4 ms on
/// the 1994 LAN model) so rounds never overlap.
const PERIOD_US: u64 = 50_000;
const DAEMONS: u32 = 4;
/// The unit the staged fleet's requests name and its resident task runs:
/// too long for `Bytes`' inline form, like the paths applications use.
const UNIT: &str = "/apps/weather/predictor.vce";

/// A minimal resource client: every tick it fires one fresh
/// `ResourceRequest` at every daemon of the class (exactly what the real
/// executor does) and counts the `Allocation` replies. The request is
/// built once and renumbered per round, so the client itself stays out of
/// the count it is there to take.
struct Client {
    me: Addr,
    daemons: Vec<Addr>,
    request: ExmMsg,
    /// A program to start on one daemon before the first round.
    load: Option<(Addr, LoadProgram)>,
    rounds: u32,
    granted: u64,
}

impl Endpoint for Client {
    fn on_start(&mut self, host: &mut dyn Host) {
        if let Some((daemon, lp)) = self.load.take() {
            let payload = host.encode_with(&mut |enc| ExmMsg::Load(lp.clone()).encode(enc));
            host.send(self.me, daemon, payload);
        }
        host.set_timer(PERIOD_US, TICK);
    }
    fn on_envelope(&mut self, env: Envelope, _host: &mut dyn Host) {
        let mut dec = Decoder::new(&env.payload);
        if let Ok(ExmMsg::Allocation { nodes, .. }) = ExmMsg::decode(&mut dec) {
            assert!(!nodes.is_empty(), "empty allocation");
            self.granted += 1;
        }
    }
    fn on_timer(&mut self, _token: u64, host: &mut dyn Host) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        if let ExmMsg::ResourceRequest { req, .. } = &mut self.request {
            req.seq += 1;
        }
        let payload = host.encode_with(&mut |enc| self.request.encode(enc));
        for &d in &self.daemons {
            host.send(self.me, d, payload.clone());
        }
        if self.rounds > 0 {
            host.set_timer(PERIOD_US, TICK);
        }
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Run `rounds` allocation rounds after `warmup` warm-up rounds on a fleet
/// that is bare or staged (see the file header) under `cfg`, with the WAL
/// off; returns (alloc delta inside the measured window, allocations
/// granted in total).
fn measured_rounds(staged: bool, cfg: ExmConfig, warmup: u32, rounds: u32) -> (u64, u64) {
    let cfg = ExmConfig {
        wal_enabled: false,
        // On, the leader sweeps every `REBALANCE_PERIOD_US` (2 s): the
        // staged fleet's window of 100 rounds × 50 ms holds two sweeps.
        migration_enabled: staged,
        ..cfg
    };
    assert!(2 * REBALANCE_PERIOD_US <= u64::from(rounds) * PERIOD_US);
    let mut vce = workstation_vce(11, DAEMONS, 100.0, cfg);
    if staged {
        for node in (0..DAEMONS).map(NodeId) {
            vce.with_daemon(node, |d| {
                d.stage_binary(UNIT);
                for i in 1..64 {
                    // Short, as task names are: the 64 of them fit one
                    // slot of the encode pool, as an `app_dense` bid does.
                    d.stage_binary(format!("job{i}"));
                }
            });
        }
    }
    let sim = vce.sim_mut();
    let client_node = NodeId(DAEMONS);
    let me = Addr::executor(client_node);
    let resident = LoadProgram {
        key: InstanceKey {
            app: AppId(7),
            task: 0,
            instance: 0,
        },
        unit: UNIT.into(),
        // Outlasts the test on a 100 Mops/s machine.
        work_mops: 1e12,
        mem_mb: 16,
        checkpoints: false,
        checkpoint_interval_us: 0,
        restartable: true,
        core_dumpable: false,
        redundant: false,
        input_files: vec![],
        reply_to: me,
    };
    sim.add_node(MachineInfo::workstation(client_node, 100.0));
    sim.add_endpoint(
        me,
        Box::new(Client {
            me,
            daemons: (0..DAEMONS).map(|i| Addr::daemon(NodeId(i))).collect(),
            request: ExmMsg::ResourceRequest {
                req: ReqId {
                    app: AppId(7),
                    seq: 0,
                },
                class: vce_net::MachineClass::Workstation,
                count_min: 1,
                count_max: 2,
                mem_mb: 0,
                unit: if staged { UNIT.into() } else { String::new() },
                priority_boost: 0,
                reply_to: me,
            },
            load: staged.then(|| (Addr::daemon(NodeId(1)), resident)),
            rounds: warmup + rounds,
            granted: 0,
        }),
    );
    // Warm-up: every slab, scratch vector and pool reaches steady-state
    // capacity. The leader's `served` arena gains one entry a round and
    // forgets those older than the retry horizon (148.5 s by default, far
    // past these windows), so the warm-up must also push its backing
    // vectors past the doubling that covers warmup + rounds — 300 rounds
    // leave capacity 512 ≥ 400 — or, with a short horizon, through two
    // sweeps, after which it holds at most two horizons of grants.
    let start = sim.now_us();
    sim.run_until(start + u64::from(warmup) * PERIOD_US + PERIOD_US / 2);
    let before = allocs();
    sim.run_until(start + u64::from(warmup + rounds) * PERIOD_US + PERIOD_US / 2);
    let delta = allocs() - before;
    // Drain the tail so the grant count covers every round.
    sim.run_until(sim.now_us() + 4 * PERIOD_US);
    let granted = sim
        .with_endpoint_mut(me, |c: &mut Client| c.granted)
        .expect("the client is registered");
    (delta, granted)
}

/// Every round must actually complete — 0 allocations would also mean the
/// protocol never ran (>= because leader retries can duplicate) — and the
/// window may allocate only what the engine amortises. Same slack idiom as
/// the disabled-trace gate: the calendar queue's wheel wrap may promote its
/// overflow heap a handful of times inside a multi-second window —
/// infrastructure, not per-round cost. 100 rounds performing even one
/// transient allocation each would blow far past this.
fn assert_warm_rounds_allocate_nothing(delta: u64, granted: u64, total: u32, measured: u32) {
    assert!(
        granted >= u64::from(total),
        "only {granted} of {total} rounds were granted an allocation"
    );
    assert!(
        delta <= 8,
        "steady-state bidding rounds allocated {delta} times across {measured} \
         rounds — a protocol path allocates per round"
    );
}

#[test]
fn steady_state_bidding_round_allocates_nothing() {
    let (delta, granted) = measured_rounds(false, ExmConfig::default(), 300, 100);
    assert_warm_rounds_allocate_nothing(delta, granted, 400, 100);
}

/// The leader's sweep of grants past the retry horizon stays off the
/// heap. Retries capped at 2.5 s — the least that still outlasts a fully
/// backed-off bid collect — give a 30.9 s horizon: 619 rounds. Three
/// horizons of warm-up take the arena through two sweeps to its largest
/// size. A sweep comes at most a horizon and a round after the last, so
/// the window holds at least nine: one allocation a sweep would already
/// exceed the engine's slack of 8.
#[test]
fn bidding_rounds_across_served_sweeps_allocate_nothing() {
    let cfg = ExmConfig {
        request_retry_us: 2_500_000,
        request_retry_cap_us: 2_500_000,
        ..ExmConfig::default()
    };
    let horizon_rounds = cfg.retry_horizon_us().div_ceil(PERIOD_US);
    let (warmup, rounds) = (1_900, 6_300);
    assert!(u64::from(warmup) >= 3 * horizon_rounds);
    assert!(u64::from(rounds) >= 10 * (horizon_rounds + 1));
    let (delta, granted) = measured_rounds(false, cfg, warmup, rounds);
    assert_warm_rounds_allocate_nothing(delta, granted, warmup + rounds, rounds);
}

/// The same gate on the round applications pay for: every bid carries 64
/// names, one carries a task, every request names a unit, and the window
/// holds two rebalance sweeps. Nothing on that path — the bidder's lists,
/// the leader's decode of them, the sweep's target scan — may allocate.
#[test]
fn staged_fleet_bidding_round_allocates_nothing() {
    let (delta, granted) = measured_rounds(true, ExmConfig::default(), 300, 100);
    assert_warm_rounds_allocate_nothing(delta, granted, 400, 100);
}
