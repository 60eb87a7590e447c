#![forbid(unsafe_code)]
//! The identity gate's two digests (`vce_bench::digests`): an FNV-64 of
//! the experiment fingerprint and of the membership-churn `.vct`
//! recording. `scripts/run_experiments.sh` checks and re-pins this output
//! like any table; `tests/shard_determinism.rs` reads the pinned copy.

use vce_bench::digests::{experiment_fingerprint, membership_churn_recording};
use vce_sim::SimConfig;

fn main() {
    let fingerprint = vce_net::fnv64(experiment_fingerprint().as_bytes());
    let shards = SimConfig::shards_from_env();
    let churn = vce_net::fnv64(&membership_churn_recording(shards));
    println!("Identity digests (FNV-64), the same at every VCE_SHARDS");
    println!("serial_engine_fingerprint {fingerprint:#018x}");
    println!("membership_churn_vct {churn:#018x}");
}
