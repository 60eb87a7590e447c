//! The event queue's sorted-insert path stays off an application's bill.
//!
//! `CalendarQueue` answers a push in O(1) unless the push lands in or
//! behind the bucket being drained, where it is binary-searched and
//! `Vec::insert`ed into the in-flight run. A driver that settles, peeks
//! (the cursor parks on the next heartbeats, ≈100 ms out) and then submits
//! at the clock used to send every push of the application's opening
//! burst down that path — the queue became one sorted `Vec`. The queue now
//! rewinds its cursor instead (see `vce_sim::queue`), and this gate holds
//! it there with a counter that repeats exactly on any machine: entries
//! shifted by sorted inserts per event processed, on the shape that showed
//! it — a 64-task bag on a 14-machine fleet — at one shard and at two,
//! where each window's cross-shard mail lands behind the cursor the
//! previous window left ahead.
//!
//! It also prints the largest bucket one load put in the run. At S=1 the
//! application's opening burst fills buckets past one chunk (the largest
//! holds 1,408 entries), which load by the counting sort; its other
//! buckets, like every `storm_dense` bucket, fit in one chunk and load in
//! place.
//!
//! The bag runs 4,391 events at either shard count, its 64 tasks spread
//! over the fleet (DESIGN decision 38); the floor below only guards
//! against a run that never gets going.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vce::{Application, VceBuilder};
use vce_net::{MachineClass, MachineInfo, NodeId};
use vce_workloads::bag_of_tasks;

const WORKSTATIONS: u32 = 12;
const HORIZON_US: u64 = 600_000_000;

/// `(entries_shifted, events_processed, largest_run)` of one application,
/// from a fresh fleet through `settle()` → `submit` → `run_until_done`.
fn bag_run(shards: usize) -> (u64, u64, u64) {
    let mut b = VceBuilder::new(1);
    for i in 0..WORKSTATIONS {
        let speed = [50.0, 80.0, 120.0][(i % 3) as usize];
        b.machine(MachineInfo::workstation(NodeId(i), speed));
    }
    b.machine(
        MachineInfo::workstation(NodeId(WORKSTATIONS), 2_000.0)
            .with_class(MachineClass::Simd)
            .with_mem_mb(512),
    );
    b.machine(
        MachineInfo::workstation(NodeId(WORKSTATIONS + 1), 800.0)
            .with_class(MachineClass::Mimd)
            .with_mem_mb(256),
    );
    b.trace_enabled(false);
    b.shards(shards);
    let mut vce = b.build();
    vce.settle();
    let graph = bag_of_tasks(&mut SmallRng::seed_from_u64(1), 64, 20.0, 80.0);
    let app = Application::from_graph(graph, vce.db()).expect("hostable");
    let before = (
        vce.sim().queue_stats().entries_shifted,
        vce.sim().events_processed(),
    );
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, HORIZON_US);
    assert!(report.completed, "the bag fails: {:?}", report.failed);
    (
        vce.sim().queue_stats().entries_shifted - before.0,
        vce.sim().events_processed() - before.1,
        vce.sim().queue_stats().largest_run,
    )
}

#[test]
fn an_application_shifts_at_most_two_entries_per_event() {
    for shards in [1, 2] {
        let (shifted, events, largest_run) = bag_run(shards);
        assert!(events > 4_000, "S={shards}: only {events} events");
        assert!(
            shifted <= 2 * events,
            "S={shards}: {shifted} entries shifted over {events} events \
             ({:.1} per event): pushes are landing in the in-flight run",
            shifted as f64 / events as f64
        );
        eprintln!("S={shards}: {shifted} shifted / {events} events, largest run {largest_run}");
    }
}
