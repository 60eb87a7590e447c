//! Retry exhaustion: an executor whose group never answers at all (every
//! daemon dead) reports failure instead of hanging forever.

use vce_exm::{AppId, DaemonEndpoint, ExecutorEndpoint, ExmConfig};
use vce_net::{Addr, MachineClass, MachineInfo, NodeId};
use vce_sdm::MachineDb;
use vce_sim::{Sim, SimConfig};
use vce_taskgraph::{Language, ProblemClass, TaskGraph, TaskSpec};

#[test]
fn silence_from_the_whole_group_fails_the_application() {
    let mut sim = Sim::new(SimConfig::default());
    let mut db = MachineDb::new();
    // The user's machine hosts only the executor (no daemon).
    sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
    db.register(MachineInfo::workstation(NodeId(0), 100.0).with_allows_remote(false));
    // Two daemon machines that will be dead before the app submits.
    let peers = vec![Addr::daemon(NodeId(1)), Addr::daemon(NodeId(2))];
    let mut cfg = ExmConfig::default();
    cfg.request_retry_us = 400_000;
    cfg.request_retry_cap_us = 1_600_000; // keep 10 backed-off windows inside the horizon
    for i in [1u32, 2] {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        db.register(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            Addr::daemon(NodeId(i)),
            Box::new(DaemonEndpoint::new(
                NodeId(i),
                MachineClass::Workstation,
                peers.clone(),
                cfg.clone(),
            )),
        );
    }
    sim.run_until(2_500_000);
    sim.kill_node(NodeId(1));
    sim.kill_node(NodeId(2));

    let mut g = TaskGraph::new("doomed");
    g.add_task(
        TaskSpec::new("job")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(1_000.0),
    );
    let exec = Addr::executor(NodeId(0));
    sim.add_endpoint(
        exec,
        Box::new(ExecutorEndpoint::new(AppId(1), exec, g, db, cfg)),
    );
    sim.run_until(60_000_000);
    let (done, failed) = sim
        .with_endpoint_mut::<ExecutorEndpoint, _>(exec, |e| (e.is_done(), e.failed.clone()))
        .unwrap();
    assert!(done, "executor must give up, not hang");
    assert!(
        failed.as_deref().is_some_and(|r| r.contains("unanswered")),
        "expected retry exhaustion, got {failed:?}"
    );
}

#[test]
fn queued_request_acks_reset_the_retry_budget() {
    // One daemon whose machine refuses remote work: every request queues
    // forever, but the leader's RequestQueued acks (one per retry) keep
    // the executor from declaring the group dead.
    let mut sim = Sim::new(SimConfig::default());
    let mut db = MachineDb::new();
    sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
    db.register(MachineInfo::workstation(NodeId(0), 100.0).with_allows_remote(false));
    sim.add_node(MachineInfo::workstation(NodeId(1), 100.0).with_allows_remote(false));
    db.register(MachineInfo::workstation(NodeId(1), 100.0).with_allows_remote(false));
    let peers = vec![Addr::daemon(NodeId(1))];
    let mut cfg = ExmConfig::default();
    cfg.request_retry_us = 400_000; // dozens of retry windows below
    cfg.request_retry_cap_us = 1_600_000;
    sim.add_endpoint(
        Addr::daemon(NodeId(1)),
        Box::new(DaemonEndpoint::new(
            NodeId(1),
            MachineClass::Workstation,
            peers,
            cfg.clone(),
        )),
    );
    sim.run_until(2_500_000);

    let mut g = TaskGraph::new("parked");
    g.add_task(
        TaskSpec::new("job")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(1_000.0),
    );
    let exec = Addr::executor(NodeId(0));
    sim.add_endpoint(
        exec,
        Box::new(ExecutorEndpoint::new(AppId(1), exec, g, db, cfg)),
    );
    // 60 s = ~150 retry windows; without the ack-reset this would have
    // failed after 10.
    sim.run_until(60_000_000);
    let (done, failed) = sim
        .with_endpoint_mut::<ExecutorEndpoint, _>(exec, |e| (e.is_done(), e.failed.clone()))
        .unwrap();
    assert!(!done, "the request stays queued (nothing can serve it)");
    assert!(
        failed.is_none(),
        "queue acks must prevent spurious exhaustion, got {failed:?}"
    );
}

#[test]
fn backoff_never_livelocks_a_late_recovering_group() {
    // The whole group goes silent, the executor's retry interval backs off
    // exponentially — and because the backoff is *capped*, a group that
    // comes back before exhaustion is rediscovered within one capped
    // window instead of some unbounded doubled interval.
    let mut sim = Sim::new(SimConfig::default());
    let mut db = MachineDb::new();
    sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
    db.register(MachineInfo::workstation(NodeId(0), 100.0).with_allows_remote(false));
    let peers = vec![Addr::daemon(NodeId(1)), Addr::daemon(NodeId(2))];
    let mut cfg = ExmConfig::default();
    cfg.request_retry_us = 400_000;
    cfg.request_retry_cap_us = 1_600_000;
    for i in [1u32, 2] {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        db.register(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            Addr::daemon(NodeId(i)),
            Box::new(DaemonEndpoint::new(
                NodeId(i),
                MachineClass::Workstation,
                peers.clone(),
                cfg.clone(),
            )),
        );
    }
    sim.run_until(2_500_000);
    sim.kill_node(NodeId(1));
    sim.kill_node(NodeId(2));

    let mut g = TaskGraph::new("patient");
    g.add_task(
        TaskSpec::new("job")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(1_000.0),
    );
    let exec = Addr::executor(NodeId(0));
    sim.add_endpoint(
        exec,
        Box::new(ExecutorEndpoint::new(AppId(1), exec, g, db, cfg)),
    );
    // Let several backed-off retry windows elapse (delays are already at
    // the cap), then bring the group back well before the 10-retry budget
    // runs out.
    sim.run_until(8_000_000);
    let retries_while_dark = sim
        .with_endpoint_mut::<ExecutorEndpoint, _>(exec, |e| (e.is_done(), e.failed.clone()))
        .unwrap();
    assert!(
        !retries_while_dark.0 && retries_while_dark.1.is_none(),
        "must still be retrying, not exhausted: {retries_while_dark:?}"
    );
    sim.revive_node(NodeId(1));
    sim.revive_node(NodeId(2));
    sim.run_until(90_000_000);
    let (done, failed) = sim
        .with_endpoint_mut::<ExecutorEndpoint, _>(exec, |e| (e.is_done(), e.failed.clone()))
        .unwrap();
    assert!(
        failed.is_none(),
        "revived group must be rediscovered, got {failed:?}"
    );
    assert!(done, "app must complete once the group is back");
}

#[test]
fn a_lost_task_done_is_resent_not_re_executed() {
    // The daemon finishes the task while its link to the executor drops
    // everything, so the one `TaskDone` is lost. When the link is back the
    // executor probes (and would re-request): the daemon must answer that
    // the instance is done — not run it a second time.
    use vce_exm::AppEvent;
    use vce_net::{FaultOp, LinkFault};
    let mut sim = Sim::new(SimConfig::default());
    let mut db = MachineDb::new();
    sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
    db.register(MachineInfo::workstation(NodeId(0), 100.0).with_allows_remote(false));
    sim.add_node(MachineInfo::workstation(NodeId(1), 100.0));
    db.register(MachineInfo::workstation(NodeId(1), 100.0));
    let daemon = Addr::daemon(NodeId(1));
    // A watchdog slower than the task: the silent link below costs the
    // executor no probe misses, so it never writes the instance off.
    let mut cfg = ExmConfig::default();
    cfg.probe_period_us = 20_000_000;
    sim.add_endpoint(
        daemon,
        Box::new(DaemonEndpoint::new(
            NodeId(1),
            MachineClass::Workstation,
            vec![daemon],
            cfg.clone(),
        )),
    );
    sim.run_until(2_500_000);

    let mut g = TaskGraph::new("once");
    g.add_task(
        TaskSpec::new("job")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(1_000.0),
    );
    let exec = Addr::executor(NodeId(0));
    sim.add_endpoint(
        exec,
        Box::new(ExecutorEndpoint::new(AppId(1), exec, g, db, cfg)),
    );
    let completed =
        |sim: &mut Sim| sim.with_endpoint_mut::<DaemonEndpoint, _>(daemon, |d| d.completed);
    // Cut daemon → executor once the instance is resident, until it is done.
    while sim
        .with_endpoint_mut::<DaemonEndpoint, _>(daemon, |d| d.resident().is_empty())
        .unwrap()
    {
        sim.run_for(100_000);
        assert!(sim.now_us() < 30_000_000, "the task never loaded");
    }
    let mute = LinkFault {
        drop_prob: 1.0,
        ..Default::default()
    };
    sim.schedule_fault(sim.now_us(), FaultOp::Link(NodeId(1), NodeId(0), mute));
    while completed(&mut sim) == Some(0) {
        sim.run_for(100_000);
        assert!(sim.now_us() < 120_000_000, "the task never finished");
    }
    sim.run_for(500_000); // the `TaskDone` is well and truly dropped
    sim.schedule_fault(sim.now_us(), FaultOp::ClearLink(NodeId(1), NodeId(0)));
    sim.run_for(120_000_000);

    let (done, failed, completions) = sim
        .with_endpoint_mut::<ExecutorEndpoint, _>(exec, |e| {
            let n = e
                .timeline
                .count(|ev| matches!(ev, AppEvent::InstanceDone { .. }));
            (e.is_done(), e.failed.clone(), n)
        })
        .unwrap();
    assert!(done && failed.is_none(), "application failed: {failed:?}");
    assert_eq!(completions, 1, "one completion at the executor");
    assert_eq!(completed(&mut sim), Some(1), "executed exactly once");
}
