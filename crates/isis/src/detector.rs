//! Deterministic adaptive failure detection and flap damping.
//!
//! The fixed `failure_timeout_us` silence detector treats every peer the
//! same: a quiet LAN peer and one behind a lossy, jittery gray link get
//! the identical 1 s budget, so the first is detected slowly and the
//! second is serially evicted while still alive. This module replaces it
//! with a phi-accrual-style detector (after Hayashibara et al.) kept
//! entirely in integer arithmetic so results are bit-identical on every
//! platform and shard count:
//!
//! * [`ArrivalWindow`] — a sliding window of per-peer inter-arrival gaps.
//!   The suspicion threshold is `mean + std_mult·σ + margin`, clamped to
//!   `[floor, cap]`. Until `warmup` samples arrive it falls back to the
//!   configured fixed timeout, so a freshly booted member behaves exactly
//!   like the old detector.
//! * [`FlapState`] — coordinator-side flap damping: a peer evicted
//!   `flap_strikes` times within `flap_window_us` is quarantined and only
//!   readmitted after an escalating (doubling, capped) cool-down.
//!
//! Both structs are pure state machines — no clocks, no randomness —
//! which is what makes them proptest-able and trivially deterministic.

use std::collections::VecDeque;

/// Tuning for the adaptive detector.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Inter-arrival samples kept per peer.
    pub window: usize,
    /// Samples required before the adaptive threshold replaces the fixed
    /// fallback timeout.
    pub warmup: usize,
    /// Standard-deviation multiplier in the threshold.
    pub std_mult: u64,
    /// Fixed margin added on top of `mean + std_mult·σ`, µs.
    pub margin_us: u64,
    /// Threshold floor, µs (tolerate a few consecutive heartbeat losses
    /// even on a perfectly quiet link).
    pub floor_us: u64,
    /// Threshold ceiling, µs — also the clamp applied to recorded gaps so
    /// one long outage cannot poison the window for minutes.
    pub cap_us: u64,
}

impl DetectorConfig {
    /// Defaults derived from the group's heartbeat period and fixed
    /// failure timeout: floor = 4 heartbeats (three consecutive losses
    /// tolerated), margin = 2 heartbeats, cap = 3 fixed timeouts.
    pub fn for_group(heartbeat_us: u64, failure_timeout_us: u64) -> Self {
        Self {
            window: 16,
            warmup: 5,
            std_mult: 4,
            margin_us: 2 * heartbeat_us,
            floor_us: 4 * heartbeat_us,
            cap_us: 3 * failure_timeout_us,
        }
    }
}

/// Integer square root (floor) of a `u128`, by Newton's method.
///
/// Newton from any start at or above the root descends monotonically onto
/// its floor, so the start only decides how many divisions that takes:
/// `2^⌈bits/2⌉` is above the root and within a factor of two of it, where
/// `v/2` needed one halving per bit of that distance first.
fn isqrt(v: u128) -> u64 {
    if v == 0 {
        return 0;
    }
    let bits = 128 - v.leading_zeros();
    let mut x = 1u128 << bits.div_ceil(2);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x as u64;
        }
        x = y;
    }
}

/// Sliding window of inter-arrival gaps for one peer, with O(1) mean and
/// standard deviation via running sum / sum-of-squares.
#[derive(Debug, Clone, Default)]
pub struct ArrivalWindow {
    gaps: VecDeque<u64>,
    sum: u64,
    sumsq: u128,
}

impl ArrivalWindow {
    /// An empty window whose ring already holds `window` samples, so a
    /// window built for `DetectorConfig::window` never allocates again.
    pub fn with_capacity(window: usize) -> Self {
        Self {
            gaps: VecDeque::with_capacity(window.max(1)),
            sum: 0,
            sumsq: 0,
        }
    }

    /// Record one inter-arrival gap (µs), evicting the oldest sample once
    /// the window is full. Gaps are clamped to `cfg.cap_us`.
    pub fn observe(&mut self, gap_us: u64, cfg: &DetectorConfig) {
        // Make room first: the ring never holds more than `window` samples.
        while self.gaps.len() >= cfg.window.max(1) {
            let Some(old) = self.gaps.pop_front() else {
                break;
            };
            self.sum -= old;
            self.sumsq -= u128::from(old) * u128::from(old);
        }
        let g = gap_us.min(cfg.cap_us);
        self.gaps.push_back(g);
        self.sum += g;
        self.sumsq += u128::from(g) * u128::from(g);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// No samples yet?
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Mean gap, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        if self.gaps.is_empty() {
            0
        } else {
            self.sum / self.gaps.len() as u64
        }
    }

    /// Standard deviation of the gaps, µs (population, floored).
    pub fn std_us(&self) -> u64 {
        let n = self.gaps.len() as u128;
        if n == 0 {
            return 0;
        }
        // n²·var = n·Σx² − (Σx)² — exact in integers, then one division.
        let nvar = (self.sumsq * n).saturating_sub(u128::from(self.sum) * u128::from(self.sum));
        isqrt(nvar / (n * n))
    }

    /// The silence threshold for this peer: `mean + std_mult·σ + margin`,
    /// clamped to `[floor, cap]` — or `fallback_us` while warming up.
    pub fn threshold_us(&self, cfg: &DetectorConfig, fallback_us: u64) -> u64 {
        if self.gaps.len() < cfg.warmup {
            return fallback_us;
        }
        let raw = self
            .mean_us()
            .saturating_add(cfg.std_mult.saturating_mul(self.std_us()))
            .saturating_add(cfg.margin_us);
        raw.clamp(cfg.floor_us.min(cfg.cap_us), cfg.cap_us)
    }

    /// Suspicion level in milli-phi: 1000 means the observed silence has
    /// reached the threshold (the eviction point). Monotone non-decreasing
    /// in `silence_us` for a fixed window state.
    pub fn suspicion_millis(&self, silence_us: u64, cfg: &DetectorConfig, fallback_us: u64) -> u64 {
        let t = self.threshold_us(cfg, fallback_us).max(1);
        silence_us.saturating_mul(1000) / t
    }

    /// Forget everything (peer rebooted: its old gap history is stale).
    pub fn reset(&mut self) {
        self.gaps.clear();
        self.sum = 0;
        self.sumsq = 0;
    }

    /// Fold the window into a state digest (`snapshot_hash`).
    pub fn fold(&self, h: &mut vce_net::Fnv64) {
        h.write_u64(self.gaps.len() as u64)
            .write_u64(self.sum)
            .write_u64(self.sumsq as u64)
            .write_u64((self.sumsq >> 64) as u64);
    }
}

/// Flap-damping knobs.
#[derive(Debug, Clone)]
pub struct QuarantineConfig {
    /// Evictions inside this window count toward a quarantine strike.
    pub flap_window_us: u64,
    /// Evictions within the window that trip quarantine.
    pub flap_evictions: u32,
    /// First cool-down, µs; doubles per strike.
    pub cooldown_base_us: u64,
    /// Cool-down escalation ceiling, µs.
    pub cooldown_cap_us: u64,
}

impl QuarantineConfig {
    /// Defaults derived from the fixed failure timeout: 3 evictions in
    /// 30 timeouts (30 s at defaults) quarantine for 4 timeouts, doubling
    /// per strike up to 60 timeouts.
    pub fn for_group(failure_timeout_us: u64) -> Self {
        Self {
            flap_window_us: 30 * failure_timeout_us,
            flap_evictions: 3,
            cooldown_base_us: 4 * failure_timeout_us,
            cooldown_cap_us: 60 * failure_timeout_us,
        }
    }
}

/// Per-peer flap-damping state kept by the coordinator. A peer evicted
/// repeatedly within the flap window is quarantined: it may heartbeat all
/// it wants, the coordinator will not readmit it until the cool-down
/// expires. Each quarantine doubles the next cool-down (capped), so a
/// node flapping forever converges to rare, bounded churn instead of
/// evict/readmit every few seconds.
#[derive(Debug, Clone, Default)]
pub struct FlapState {
    evictions: VecDeque<u64>,
    strikes: u32,
    until_us: u64,
}

impl FlapState {
    /// Record an eviction at `now`. Returns `Some(readmit_at)` when this
    /// eviction trips (another) quarantine.
    pub fn record_eviction(&mut self, now: u64, cfg: &QuarantineConfig) -> Option<u64> {
        self.evictions.push_back(now);
        while self
            .evictions
            .front()
            .is_some_and(|&t| now.saturating_sub(t) > cfg.flap_window_us)
        {
            self.evictions.pop_front();
        }
        if self.evictions.len() as u32 >= cfg.flap_evictions.max(1) {
            self.strikes += 1;
            let shift = (self.strikes - 1).min(16);
            let cooldown = cfg
                .cooldown_base_us
                .saturating_mul(1u64 << shift)
                .min(cfg.cooldown_cap_us);
            self.until_us = now.saturating_add(cooldown);
            self.evictions.clear();
            Some(self.until_us)
        } else {
            None
        }
    }

    /// Has any eviction ever been recorded? (`record_eviction` always leaves
    /// either a pending eviction or a strike behind.)
    pub fn is_recorded(&self) -> bool {
        self.strikes > 0 || !self.evictions.is_empty()
    }

    /// Is the peer still cooling down at `now`?
    pub fn is_quarantined(&self, now: u64) -> bool {
        now < self.until_us
    }

    /// Quarantines served so far (escalation level).
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// End of the current (or last) cool-down, µs.
    pub fn until_us(&self) -> u64 {
        self.until_us
    }

    /// Fold into a state digest (`snapshot_hash`).
    pub fn fold(&self, h: &mut vce_net::Fnv64) {
        h.write_u64(self.evictions.len() as u64)
            .write_u64(u64::from(self.strikes))
            .write_u64(self.until_us);
        for &t in &self.evictions {
            h.write_u64(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig::for_group(200_000, 1_000_000)
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(2), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(99), 9);
        assert_eq!(isqrt(100), 10);
        assert_eq!(isqrt(u128::from(u64::MAX)), (1u64 << 32) - 1);
    }

    proptest::proptest! {
        /// `isqrt` is the floor of the square root for every `u128`: the
        /// start Newton descends from changes how fast it gets there,
        /// never where it lands.
        #[test]
        fn isqrt_is_the_floor_root(
            hi in proptest::prelude::any::<u64>(),
            lo in proptest::prelude::any::<u64>(),
            shift in 0u32..128,
        ) {
            // Shifted so small and mid-sized values are as likely as huge ones.
            let v = (u128::from(hi) << 64 | u128::from(lo)) >> shift;
            let r = u128::from(isqrt(v));
            proptest::prop_assert!(r * r <= v, "isqrt({v}) = {r} overshoots");
            // (r+1)² only overflows when r = 2⁶⁴−1, the root of everything above.
            let next = (r + 1).checked_mul(r + 1);
            proptest::prop_assert!(next.is_none_or(|n| v < n), "isqrt({v}) = {r} undershoots");
        }
    }

    #[test]
    fn isqrt_at_the_edges() {
        assert_eq!(isqrt(u128::MAX), u64::MAX);
        assert_eq!(isqrt(u128::from(u64::MAX) * u128::from(u64::MAX)), u64::MAX);
        assert_eq!(
            isqrt(u128::from(u64::MAX) * u128::from(u64::MAX) - 1),
            u64::MAX - 1
        );
        assert_eq!(isqrt(1 << 127), 13_043_817_825_332_782_212);
        for k in 0..64u32 {
            assert_eq!(isqrt(1u128 << (2 * k)), 1u64 << k);
            assert_eq!(isqrt((1u128 << (2 * k)) + 1), 1u64 << k);
            if k > 0 {
                assert_eq!(isqrt((1u128 << (2 * k)) - 1), (1u64 << k) - 1);
            }
        }
    }

    #[test]
    fn warmup_falls_back_to_fixed_timeout() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        assert_eq!(w.threshold_us(&c, 1_000_000), 1_000_000);
        for _ in 0..c.warmup - 1 {
            w.observe(200_000, &c);
        }
        assert_eq!(w.threshold_us(&c, 1_000_000), 1_000_000);
        w.observe(200_000, &c);
        assert_ne!(w.threshold_us(&c, 1_000_000), 1_000_000);
    }

    #[test]
    fn steady_heartbeats_give_floor_threshold() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        for _ in 0..16 {
            w.observe(200_000, &c);
        }
        assert_eq!(w.mean_us(), 200_000);
        assert_eq!(w.std_us(), 0);
        // mean + margin = 600 ms < floor (800 ms) → clamped up.
        assert_eq!(w.threshold_us(&c, 1_000_000), c.floor_us);
        // Faster than the fixed 1 s detector.
        assert!(w.threshold_us(&c, 1_000_000) < 1_000_000);
    }

    #[test]
    fn jittery_link_extends_threshold() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        // Lossy link: every other heartbeat dropped, occasional longer runs.
        for &g in &[
            200_000u64, 400_000, 200_000, 600_000, 400_000, 200_000, 800_000, 400_000, 200_000,
            600_000, 400_000, 1_000_000, 200_000, 400_000, 600_000, 400_000,
        ] {
            w.observe(g, &c);
        }
        let t = w.threshold_us(&c, 1_000_000);
        // Mean ≈ 450 ms, σ ≈ 220 ms → threshold well beyond the fixed 1 s.
        assert!(t > 1_000_000, "threshold {t}");
        assert!(t <= c.cap_us);
    }

    #[test]
    fn suspicion_is_monotone_in_silence() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        for &g in &[200_000u64, 350_000, 180_000, 420_000, 250_000, 300_000] {
            w.observe(g, &c);
        }
        let mut last = 0;
        for silence in (0..3_000_000).step_by(10_000) {
            let s = w.suspicion_millis(silence, &c, 1_000_000);
            assert!(s >= last, "suspicion dipped at {silence}");
            last = s;
        }
        // Reaches the eviction point (1000 milli-phi) at the threshold.
        let t = w.threshold_us(&c, 1_000_000);
        assert!(w.suspicion_millis(t, &c, 1_000_000) >= 1000);
        assert!(w.suspicion_millis(t - 1, &c, 1_000_000) < 1000);
    }

    #[test]
    fn window_slides_and_outliers_wash_out() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        w.observe(10_000_000, &c); // clamped to cap
        for _ in 0..16 {
            w.observe(200_000, &c);
        }
        assert_eq!(w.len(), 16);
        assert_eq!(w.mean_us(), 200_000);
        assert_eq!(w.std_us(), 0);
    }

    #[test]
    fn reset_forgets_history() {
        let c = cfg();
        let mut w = ArrivalWindow::default();
        for _ in 0..8 {
            w.observe(500_000, &c);
        }
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.threshold_us(&c, 777), 777);
    }

    #[test]
    fn quarantine_trips_after_n_evictions_and_escalates() {
        let qc = QuarantineConfig::for_group(1_000_000);
        let mut f = FlapState::default();
        assert_eq!(f.record_eviction(1_000_000, &qc), None);
        assert_eq!(f.record_eviction(5_000_000, &qc), None);
        let until = f.record_eviction(9_000_000, &qc).expect("third strike");
        assert_eq!(until, 9_000_000 + 4_000_000);
        assert!(f.is_quarantined(10_000_000));
        assert!(!f.is_quarantined(13_000_000));
        assert_eq!(f.strikes(), 1);
        // Next flap round: cool-down doubles.
        for t in [20_000_000, 21_000_000] {
            assert_eq!(f.record_eviction(t, &qc), None);
        }
        let until2 = f.record_eviction(22_000_000, &qc).expect("sixth strike");
        assert_eq!(until2, 22_000_000 + 8_000_000);
        assert_eq!(f.strikes(), 2);
    }

    #[test]
    fn slow_evictions_outside_window_never_quarantine() {
        let qc = QuarantineConfig::for_group(1_000_000);
        let mut f = FlapState::default();
        // One eviction per 40 s — outside the 30 s flap window.
        for i in 0..10u64 {
            assert_eq!(f.record_eviction(i * 40_000_000, &qc), None, "i={i}");
        }
        assert_eq!(f.strikes(), 0);
    }

    #[test]
    fn cooldown_escalation_is_capped() {
        let qc = QuarantineConfig::for_group(1_000_000);
        let mut f = FlapState::default();
        let mut now = 0u64;
        let mut last_cd = 0;
        for _ in 0..12 {
            let until = loop {
                now += 1_000_000;
                if let Some(u) = f.record_eviction(now, &qc) {
                    break u;
                }
            };
            last_cd = until - now;
        }
        assert_eq!(last_cd, qc.cooldown_cap_us);
    }
}
