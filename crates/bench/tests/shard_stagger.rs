//! Schedule-permutation race gate for the sharded runner.
//!
//! `VCE_SHARDS_STAGGER=<seed>` makes every shard worker yield its
//! timeslice a seed-derived number of times before the ship and publish
//! phases of each window, permuting the order in which workers reach the
//! barriers. A correct conservative-barrier protocol is insensitive to
//! wake order, so every permutation must reproduce the serial digest —
//! a worker that peeks at a neighbour's state outside the sanctioned
//! barrier points shows up here as a digest mismatch under *some* seed,
//! without needing a lucky thread-timing accident on a loaded CI box.
//!
//! Own test file: the stagger env var is process-global, so this sweep
//! must not interleave with the other shard tests' env handling.
//! One `#[test]` keeps the seed loop serial within the process. A `Sim`
//! reads the variable once, when it is built, so each seed is set before
//! the storms that run under it are constructed.
//!
//! Permutation count: 8 by default (fast enough for plain `cargo test`),
//! `VCE_STAGGER_PERMS` overrides — scripts/ci.sh runs 32.

use vce_bench::sharded_storm;

#[test]
fn storm_digest_is_invariant_under_worker_wake_order() {
    let perms: u64 = std::env::var("VCE_STAGGER_PERMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let serial = sharded_storm(512, 6, 1);
    assert!(serial.events > 0);
    for seed in 0..perms {
        std::env::set_var("VCE_SHARDS_STAGGER", seed.to_string());
        for shards in [4, 8] {
            let r = sharded_storm(512, 6, shards);
            assert_eq!(
                r, serial,
                "stagger seed {seed}, S={shards}: wake-order permutation changed the run"
            );
        }
    }
    std::env::remove_var("VCE_SHARDS_STAGGER");
}
