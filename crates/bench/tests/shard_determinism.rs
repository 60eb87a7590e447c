//! The sharded engine must be invisible: every experiment scenario and the
//! chaos harness must produce byte-identical output for any shard count.
//! This is the regression gate for the conservative-window runner — it
//! exercises the full stack (daemons, Isis groups, executors, migration,
//! storage recovery) rather than the synthetic endpoints the unit tests
//! use.
//!
//! One `#[test]` drives all shard counts: `VCE_SHARDS` is process-global,
//! so the sweep has to be serial within a single test (the same pattern as
//! `sweep_determinism.rs`'s `VCE_SWEEP_THREADS`).

use vce_bench::digests::{experiment_fingerprint, membership_churn_recording};
use vce_bench::sharded_storm;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// What `exp_digests` printed when the digests were last pinned:
/// `scripts/run_experiments.sh --repin` rewrites the file with the tables
/// that move, under the same reason, so a deliberate protocol change never
/// edits a constant here by hand.
const PINNED: &str = include_str!("../../../experiment-results/exp_digests.txt");

/// The value pinned for `name` (a `name 0x…` line of [`PINNED`]).
fn pinned(name: &str) -> u64 {
    let line = PINNED.lines().find_map(|l| l.strip_prefix(name));
    let hex = line.and_then(|rest| rest.trim().strip_prefix("0x"));
    let value = hex.and_then(|h| u64::from_str_radix(h, 16).ok());
    value.unwrap_or_else(|| panic!("experiment-results/exp_digests.txt pins no {name}"))
}

#[test]
fn experiments_are_identical_across_shard_counts() {
    let mut baseline: Option<String> = None;
    for shards in SHARD_COUNTS {
        std::env::set_var("VCE_SHARDS", shards.to_string());
        let fp = experiment_fingerprint();
        match &baseline {
            None => {
                let digest = vce_net::fnv64(fp.as_bytes());
                assert_eq!(
                    digest,
                    pinned("serial_engine_fingerprint"),
                    "S=1 no longer reproduces the pinned fingerprint (got {digest:#018x}):\n{fp}"
                );
                baseline = Some(fp);
            }
            Some(b) => assert_eq!(&fp, b, "shard count {shards} diverged from the serial run"),
        }
    }
    std::env::remove_var("VCE_SHARDS");
}

#[test]
fn membership_churn_recording_matches_the_pinned_digest() {
    for shards in [1, 4] {
        let digest = vce_net::fnv64(&membership_churn_recording(shards));
        assert_eq!(
            digest,
            pinned("membership_churn_vct"),
            "S={shards}: .vct bytes differ from the pinned recording's (got {digest:#018x})"
        );
    }
}

#[test]
fn storm_digests_are_identical_across_shard_counts() {
    // Direct shard-count injection, larger fleet than the unit test.
    let serial = sharded_storm(1_024, 6, 1);
    assert!(serial.events > 0);
    for shards in [2, 4, 8] {
        let r = sharded_storm(1_024, 6, shards);
        assert_eq!(r, serial, "S={shards} diverged (digest/events/time)");
    }
}
