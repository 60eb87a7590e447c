//! Runtime configuration shared by daemons and executors: the knobs some
//! experiment, benchmark workload or test sets ([`ExmConfig`]), and beside
//! them the protocol constants nothing ever set to a second value.

use crate::policy::PlacementPolicy;

/// Bid-collection deadline, µs (the leader allocates with whatever
/// arrived when it expires).
pub const BID_TIMEOUT_US: u64 = 800_000;
/// Upper bound the bid-collection deadline backs off to when collects
/// keep coming back short (members crashed or partitioned away).
pub const BID_TIMEOUT_CAP_US: u64 = 2_400_000;
/// Leader's rebalance period, µs (load-balancing sweep, §4.4).
pub const REBALANCE_PERIOD_US: u64 = 2_000_000;
/// Background load at/above which a machine counts as reclaimed by its
/// owner (eviction/migration trigger).
pub const OWNER_BUSY_THRESHOLD: f64 = 1.0;
/// Minimum time between migrations of the same instance, µs —
/// hysteresis against thrashing when owners churn everywhere.
pub const MIGRATION_COOLDOWN_US: u64 = 30_000_000;
/// State-transfer modelling: µs charged per KiB of migrated state or
/// fetched input (1994 LAN: ~1.25 MB/s effective).
pub const TRANSFER_US_PER_KIB: u64 = 800;
/// Straggler hedging: progress-rate fraction (per-mille, integer for
/// determinism) below which a divisible task's instance counts as stalled
/// and the executor speculatively re-requests a redundant copy elsewhere.
/// 300 = hedging kicks in under 30% of the nominal per-job rate on its host.
pub const HEDGE_STALL_PERMILLE: u32 = 300;
/// Probe-reply samples required before an instance can be judged
/// stalled (one sample gives no rate; more damp transients).
pub const HEDGE_MIN_SAMPLES: u32 = 2;
/// Remaining work, Mops, below which hedging is pointless (the
/// original will finish before a hedge could spin up).
pub const HEDGE_MIN_REMAINING_MOPS: f64 = 50.0;
/// Retries an executor sends for one unanswered request before it fails
/// the application. A `RequestQueued` resets the count; a grant ends it.
pub const REQUEST_RETRY_LIMIT: u32 = 10;

/// Execution-module configuration.
#[derive(Debug, Clone)]
pub struct ExmConfig {
    /// Leader placement policy (§4.3).
    pub policy: PlacementPolicy,
    /// Executor's resource-request retry timeout, µs (covers leader
    /// failover windows). This is the *initial* interval; retries back off
    /// exponentially (with seeded jitter) up to `request_retry_cap_us`.
    pub request_retry_us: u64,
    /// Upper bound the resource-request retry interval backs off to.
    pub request_retry_cap_us: u64,
    /// Queue requests the group cannot satisfy now instead of returning
    /// AllocError (`false` reproduces the §5 prototype's behaviour).
    pub queue_insufficient: bool,
    /// Priority-aging quantum, µs (§4.3 starvation prevention).
    pub aging_quantum_us: u64,
    /// Load at/below which a machine is a migration target.
    pub idle_threshold: f64,
    /// Load at/above which a daemon declines to bid ("not already
    /// excessively loaded", §5). Lower it to 1.0 for strict
    /// one-job-per-machine scheduling.
    pub overload_threshold: f64,
    /// Enable leader-driven migration (§4.4).
    pub migration_enabled: bool,
    /// Redundant incarnations dispatched per instance (1 = none extra;
    /// §4.4 migration-through-redundant-execution).
    pub redundancy: u32,
    /// Compile cost charged when a daemon must compile a missing binary at
    /// dispatch time, as compiler-work Mops (§4.5 anticipatory
    /// compilation removes this from the critical path).
    pub dispatch_compile_mops: f64,
    /// Fetch cost per input file not already replicated, KiB.
    pub input_file_kib: u64,
    /// Placement breaks load ties toward machines advertising the unit's
    /// staged binary (the §4.5 payoff path). Ablation knob — see
    /// `exp_ablation`.
    pub prefer_staged_binaries: bool,
    /// Leader inflates the bids of just-allocated machines for ~1 s so a
    /// burst of requests doesn't pile onto one machine between state
    /// disclosures. Ablation knob.
    pub soft_reservations: bool,
    /// Executor watchdog probe period, µs (host-crash detection latency is
    /// roughly `probe_period_us × (miss limit + 1)`).
    pub probe_period_us: u64,
    /// Per-node stable storage behind the daemon's write-ahead log:
    /// write latency and crash-fault probabilities.
    pub storage: vce_storage::StorageConfig,
    /// Journal daemon state changes and recover them on revive. `false`
    /// reproduces the pre-WAL daemon (total amnesia on reboot) — the
    /// baseline arm of `exp_recovery`.
    pub wal_enabled: bool,
    /// Use the adaptive phi-accrual failure detector + flap-damping
    /// quarantine in the daemons' Isis groups. `false` reproduces the flat
    /// fixed-timeout detector — the baseline arm of `exp_graydetect` (F6).
    pub adaptive_detection: bool,
}

impl ExmConfig {
    /// How long after a grant a retry of the same request can still reach
    /// the leader, µs; the leader forgets the grant after that.
    ///
    /// The executor retries only an unallocated request, and once granted
    /// the leader never answers it with `RequestQueued` again, so at most
    /// [`REQUEST_RETRY_LIMIT`] more retries follow the grant. Each comes at
    /// most one backed-off interval after the last — the cap (lifted to the
    /// base, as the backoff does) plus its 1/8 jitter. One interval more
    /// covers link delay, which is milliseconds on every modelled link.
    pub fn retry_horizon_us(&self) -> u64 {
        let cap = self.request_retry_cap_us.max(self.request_retry_us);
        let interval = cap.saturating_add(cap / 8);
        interval.saturating_mul(u64::from(REQUEST_RETRY_LIMIT) + 1)
    }
}

impl Default for ExmConfig {
    fn default() -> Self {
        Self {
            policy: PlacementPolicy::UtilizationFirst,
            request_retry_us: 3_000_000,
            request_retry_cap_us: 12_000_000,
            queue_insufficient: true,
            aging_quantum_us: 2_000_000,
            idle_threshold: 0.5,
            overload_threshold: 3.0,
            migration_enabled: true,
            redundancy: 1,
            dispatch_compile_mops: 200.0,
            input_file_kib: 1024,
            prefer_staged_binaries: true,
            soft_reservations: true,
            probe_period_us: 2_000_000,
            storage: vce_storage::StorageConfig::default(),
            wal_enabled: true,
            adaptive_detection: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = ExmConfig::default();
        assert!(BID_TIMEOUT_US < c.request_retry_us);
        const _: () = assert!(BID_TIMEOUT_US <= BID_TIMEOUT_CAP_US);
        assert!(c.request_retry_us <= c.request_retry_cap_us);
        // Even a fully backed-off collect stays shorter than one retry
        // interval, so a leader answers before the executor gives up on it.
        assert!(BID_TIMEOUT_CAP_US < c.request_retry_us);
        assert!(c.idle_threshold < OWNER_BUSY_THRESHOLD);
        assert!(c.redundancy >= 1);
        assert_eq!(c.policy, PlacementPolicy::UtilizationFirst);
        assert!(c.adaptive_detection);
        // A stalled instance must be detectably below full speed.
        const _: () = assert!(HEDGE_STALL_PERMILLE < 1000);
        // Rate estimation needs at least two probe samples.
        const _: () = assert!(HEDGE_MIN_SAMPLES >= 2);
        const _: () = assert!(HEDGE_MIN_REMAINING_MOPS > 0.0);
    }

    /// The leader keeps a grant for as long as the executor can still
    /// retry it: the horizon covers the latest the last retry can leave,
    /// every backed-off interval drawn at maximum jitter, and then some.
    #[test]
    fn retry_horizon_outlasts_the_last_possible_retry() {
        let small = ExmConfig {
            request_retry_us: 2_500_000,
            request_retry_cap_us: 2_500_000,
            ..ExmConfig::default()
        };
        let lifted = ExmConfig {
            request_retry_cap_us: 1_000,
            ..ExmConfig::default()
        };
        for c in [ExmConfig::default(), small, lifted] {
            let (base, cap) = (c.request_retry_us, c.request_retry_cap_us);
            // The largest jitter draw: `rand % spread` at `spread - 1`,
            // where the spread is a quarter of the (lifted) cap.
            let max_jitter = (cap.max(base) / 4).max(1) - 1;
            let longest = (0..=REQUEST_RETRY_LIMIT)
                .map(|attempt| crate::backoff::backoff_delay_us(base, cap, attempt, max_jitter))
                .max()
                .unwrap();
            // The interval pending at the grant, then one per retry left:
            // the last retry leaves `REQUEST_RETRY_LIMIT` intervals later.
            // And a second to spare for the retry's trip to the leader.
            let span = u64::from(REQUEST_RETRY_LIMIT) * longest + 1_000_000;
            let horizon = c.retry_horizon_us();
            assert!(horizon >= span, "{horizon} < {span}");
        }
        assert_eq!(ExmConfig::default().retry_horizon_us(), 148_500_000);
    }
}
