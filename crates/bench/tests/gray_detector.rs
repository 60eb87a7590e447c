//! Determinism gates for the gray-failure layer: the adaptive detector
//! and flap-damping quarantine must behave byte-identically whatever the
//! shard layout, and a recorded flapping run — the shape whose outcome
//! hangs entirely on quarantine cool-down arithmetic — must replay with
//! zero divergence from its own `.vct` trace.

use vce_bench::chaos::{run_chaos, run_chaos_recorded, ChaosConfig, RecordTo, ScheduleShape};
use vce_exm::migrate::MigrationTechnique;
use vce_sim::record::{first_divergence, read_trace, Divergence};

fn cell(shape: ScheduleShape) -> ChaosConfig {
    ChaosConfig {
        seed: 6,
        shape,
        technique: MigrationTechnique::Checkpoint,
        trace: false,
    }
}

/// One detector-heavy pass: the flapping shape drives eviction + quarantine
/// + readmission, slow-nodes drives the no-slow-eviction grace path.
fn gray_fingerprint() -> String {
    let mut out = String::new();
    for shape in [ScheduleShape::Flapping, ScheduleShape::SlowNodes] {
        let o = run_chaos(&cell(shape));
        assert!(o.green(), "{}", o.report());
        out.push_str(&o.report());
        for line in &o.journal {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `VCE_SHARDS` is process-global, so the sweep is serial inside a single
/// test (same pattern as `shard_determinism.rs`).
#[test]
fn adaptive_detection_is_identical_across_shard_counts() {
    std::env::set_var("VCE_SHARDS", "1");
    let serial = gray_fingerprint();
    std::env::set_var("VCE_SHARDS", "4");
    let sharded = gray_fingerprint();
    std::env::remove_var("VCE_SHARDS");
    assert_eq!(sharded, serial, "gray cells diverged between S=1 and S=4");
}

#[test]
fn quarantine_cooldowns_replay_byte_identically_from_a_recorded_trace() {
    let cfg = cell(ScheduleShape::Flapping);
    let (first, rec1) = run_chaos_recorded(&cfg, RecordTo::Memory);
    let (second, rec2) = run_chaos_recorded(&cfg, RecordTo::Memory);
    assert!(first.green(), "{}", first.report());
    assert_eq!(first.report(), second.report());
    let (rec1, rec2) = (
        rec1.expect("memory recording"),
        rec2.expect("memory recording"),
    );
    // Byte-for-byte first: the strongest statement, and the cheap one.
    assert_eq!(rec1, rec2, "flapping-run traces differ between two runs");
    // Then through the reader, so a future framing change that keeps the
    // bytes accidentally equal still gets the semantic comparison — and a
    // mismatch reports *where* (snapshot-bisected) instead of just "differ".
    let t1 = read_trace(&rec1).expect("trace parses");
    let t2 = read_trace(&rec2).expect("trace parses");
    assert!(!t1.events.is_empty(), "trace recorded no events");
    match first_divergence(&t1, &t2) {
        Divergence::None => {}
        d => panic!("replayed flapping trace diverged: {d}"),
    }
}
