//! Property tests on the executor: random sequences of allocations,
//! completions, evictions, moves, probe replies, recoveries and timers
//! against one small graph — a divisible task, a ranged `SYNC` task and a
//! `LOCAL` task — with instance keys and request ids drawn from the
//! executor's own range and from outside it.
//!
//! Checked after every step: nothing panics; a finished (not failed)
//! application got a completion for every instance it placed; and a
//! message whose key or request id is not the executor's changes nothing.

use proptest::prelude::*;
use vce_exm::{AppId, ExecutorEndpoint, ExmConfig, ExmMsg, InstanceKey, ReqId};
use vce_net::testing::MockHost;
use vce_net::{Addr, Endpoint, Envelope, MachineClass, MachineInfo, NodeId};
use vce_sdm::MachineDb;
use vce_taskgraph::{Language, ProblemClass, TaskGraph, TaskSpec};

const APP: AppId = AppId(1);
/// The graph's tasks: divisible, ranged `SYNC`, `LOCAL`.
const TASKS: u32 = 3;
const LOCAL_TASK: u32 = 2;
/// No task of the graph plans more instances than this.
const MAX_INSTANCES: u32 = 3;
/// Executor timer tokens, `tag << 32 | payload` (docs/PROTOCOL.md).
const RETRY: u64 = 1 << 32;
const DISPATCH: u64 = 2 << 32;
const PROBE: u64 = 3 << 32;
/// Local work items are numbered from here (the executor's pid space).
const LOCAL_PID_BASE: u64 = 1 << 16;

fn executor() -> ExecutorEndpoint {
    let mut g = TaskGraph::new("mix");
    g.add_task(
        TaskSpec::new("split")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(6_000.0)
            .with_instances(MAX_INSTANCES)
            .divisible(),
    );
    g.add_task(
        TaskSpec::new("lockstep")
            .with_class(ProblemClass::Synchronous)
            .with_language(Language::C)
            .with_work(2_000.0)
            .with_instance_range(1, MAX_INSTANCES),
    );
    g.add_task(
        TaskSpec::new("viz")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(100.0)
            .with_instances(2)
            .local(),
    );
    let mut db = MachineDb::new();
    for n in 0..3 {
        db.register(MachineInfo::workstation(NodeId(n), 100.0));
    }
    for n in 3..5 {
        db.register(MachineInfo::workstation(NodeId(n), 400.0).with_class(MachineClass::Mimd));
    }
    let me = Addr::executor(NodeId(0));
    ExecutorEndpoint::new(APP, me, g, db, ExmConfig::default())
}

fn key(app: u64, task: u32, instance: u32) -> InstanceKey {
    InstanceKey {
        app: AppId(app),
        task,
        instance,
    }
}

/// An instance key, and whether it is certainly not the executor's. The
/// vendored `prop_oneof!` has no weights: repeating the own-key arm makes
/// half the keys candidates for a real instance.
fn arb_key() -> impl Strategy<Value = (InstanceKey, bool)> {
    prop_oneof![
        (0..TASKS, 0..MAX_INSTANCES).prop_map(|(t, i)| (key(1, t, i), false)),
        (0..TASKS, 0..MAX_INSTANCES).prop_map(|(t, i)| (key(1, t, i), false)),
        (0..TASKS, 0..MAX_INSTANCES).prop_map(|(t, i)| (key(1, t, i), false)),
        (2u64..=u64::MAX, 0..TASKS, 0..MAX_INSTANCES).prop_map(|(a, t, i)| (key(a, t, i), true)),
        (TASKS..=u32::MAX, 0..MAX_INSTANCES).prop_map(|(t, i)| (key(1, t, i), true)),
        (0..TASKS, MAX_INSTANCES..=u32::MAX).prop_map(|(t, i)| (key(1, t, i), true)),
    ]
}

/// A request id, and whether it is certainly not the executor's (it never
/// sends 10,000 requests here).
fn arb_req() -> impl Strategy<Value = (ReqId, bool)> {
    let req = |app, seq| ReqId {
        app: AppId(app),
        seq,
    };
    prop_oneof![
        (0u32..8).prop_map(move |s| (req(1, s), false)),
        (0u32..8).prop_map(move |s| (req(1, s), false)),
        (2u64..=u64::MAX, 0u32..8).prop_map(move |(a, s)| (req(a, s), true)),
        (10_000u32..=u32::MAX).prop_map(move |s| (req(1, s), true)),
    ]
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    (1u32..5).prop_map(NodeId)
}

#[derive(Debug, Clone)]
enum Step {
    /// A message from a daemon, and whether its key or request id is not
    /// the executor's.
    Msg(ExmMsg, bool),
    Probe,
    Retry(u32),
    Dispatch(u32),
    /// The next running local work item finishes (picked by index).
    LocalDone(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (arb_req(), prop::collection::vec(arb_node(), 0..5)).prop_map(|((req, bad), nodes)| {
            Step::Msg(
                ExmMsg::Allocation {
                    req,
                    nodes: nodes.into(),
                },
                bad,
            )
        }),
        (arb_key(), arb_node())
            .prop_map(|((key, bad), node)| Step::Msg(ExmMsg::TaskDone { key, node }, bad)),
        (arb_key(), arb_node())
            .prop_map(|((key, bad), node)| Step::Msg(ExmMsg::TaskDone { key, node }, bad)),
        (arb_key(), arb_node())
            .prop_map(|((key, bad), node)| Step::Msg(ExmMsg::TaskEvicted { key, node }, bad)),
        (arb_key(), arb_node())
            .prop_map(|((key, bad), to)| Step::Msg(ExmMsg::TaskMoved { key, to }, bad)),
        (arb_key(), any::<bool>(), arb_node(), 0.0f64..6_000.0).prop_map(
            |((key, bad), running, node, remaining_mops)| {
                let msg = ExmMsg::TaskStatusReply {
                    key,
                    running,
                    node,
                    remaining_mops,
                };
                Step::Msg(msg, bad)
            }
        ),
        (arb_key(), arb_node())
            .prop_map(|((key, bad), node)| Step::Msg(ExmMsg::RecoveredTask { key, node }, bad)),
        Just(Step::Probe),
        (0u32..8).prop_map(Step::Retry),
        (0u32..TASKS + 1).prop_map(Step::Dispatch),
        (0usize..4).prop_map(Step::LocalDone),
        (0usize..4).prop_map(Step::LocalDone),
    ]
}

fn deliver(exec: &mut ExecutorEndpoint, host: &mut MockHost, msg: &ExmMsg) {
    let env = Envelope {
        src: Addr::daemon(NodeId(1)),
        dst: Addr::executor(NodeId(0)),
        payload: vce_exm::msg::encode_msg(msg),
    };
    exec.on_envelope(env, host);
}

proptest! {
    #[test]
    fn the_executor_keeps_to_its_own_instances(
        steps in prop::collection::vec((arb_step(), 0u64..3_000_000), 1..120),
    ) {
        let mut exec = executor();
        let mut host = MockHost::new(NodeId(0));
        exec.on_start(&mut host);
        // Completions the test delivered: own keys via `TaskDone`, local
        // instances as finished work items.
        let mut done_keys = Vec::new();
        let mut local_finished: Vec<u64> = Vec::new();
        for (step, advance) in steps {
            host.now += advance;
            match step {
                Step::Msg(msg, bad) => {
                    let hash = exec.snapshot_hash();
                    let placements = exec.placements.clone();
                    let events = exec.timeline.events().len();
                    deliver(&mut exec, &mut host, &msg);
                    if bad {
                        prop_assert_eq!(exec.snapshot_hash(), hash, "{:?} changed the state", msg);
                        prop_assert_eq!(&exec.placements, &placements, "{:?}", msg);
                        prop_assert_eq!(exec.timeline.events().len(), events, "{:?}", msg);
                    } else if let ExmMsg::TaskDone { key, .. } = msg {
                        done_keys.push(key);
                    }
                }
                Step::Probe => exec.on_timer(PROBE, &mut host),
                Step::Retry(seq) => exec.on_timer(RETRY | u64::from(seq), &mut host),
                Step::Dispatch(task) => exec.on_timer(DISPATCH | u64::from(task), &mut host),
                Step::LocalDone(i) => {
                    let running: Vec<u64> = host
                        .work
                        .iter()
                        .map(|&(pid, _)| pid)
                        .filter(|pid| *pid >= LOCAL_PID_BASE && !local_finished.contains(pid))
                        .collect();
                    if !running.is_empty() {
                        let pid = running[i % running.len()];
                        local_finished.push(pid);
                        exec.on_work_done(pid, &mut host);
                    }
                }
            }
            if exec.is_done() && exec.failed.is_none() {
                let local = exec.placements.keys().filter(|k| k.task == LOCAL_TASK).count();
                prop_assert!(local_finished.len() >= local, "{} local instances, {} finished", local, local_finished.len());
                for k in exec.placements.keys().filter(|k| k.task != LOCAL_TASK) {
                    prop_assert!(done_keys.contains(k), "done without a completion for {:?}", k);
                }
            }
        }
    }
}
