//! Processor-sharing CPU model.
//!
//! Each machine runs its resident jobs (VCE tasks + an "equivalent job
//! count" of background local-user activity) under ideal processor sharing:
//! with `n` jobs and background weight `b`, every job progresses at
//! `speed / (n + b)`. This is the classical model Krueger's and Clark's
//! idle-workstation studies assume, and it is what makes the paper's load
//! balancing arguments measurable: a task on a loaded machine genuinely runs
//! slower, so migrating it away genuinely helps.
//!
//! The model is exact, not time-stepped: between mutations, remaining work
//! decreases linearly, so completions can be predicted in closed form and
//! re-predicted whenever the job set or background weight changes (the
//! engine uses a generation counter to discard stale predictions).

use std::collections::BTreeMap;

use vce_net::PortId;

/// Job key: owning endpoint port + endpoint-chosen pid.
pub type JobKey = (PortId, u64);

#[derive(Debug, Clone, Copy)]
struct Job {
    remaining_mops: f64,
}

/// One machine's CPU: a set of jobs sharing `speed_mops` capacity.
#[derive(Debug, Clone)]
pub struct Cpu {
    speed_mops: f64,
    jobs: BTreeMap<JobKey, Job>,
    background: f64,
    /// Gray-fault degradation: effective speed is `speed_mops / slow_factor`.
    /// 1 = healthy. Only the fault layer sets this; daemons still disclose
    /// the *nominal* speed, which is exactly what makes a slow node gray.
    slow_factor: u32,
    last_update_us: u64,
    /// Bumped on every mutation; stale completion predictions are discarded.
    pub generation: u64,
    // ---- metrics ----
    busy_us: u64,
    weighted_load_us: f64,
    completed_jobs: u64,
    total_mops_done: f64,
}

impl Cpu {
    /// A CPU of the given nominal speed (million ops per second).
    pub fn new(speed_mops: f64) -> Self {
        assert!(speed_mops > 0.0, "speed must be positive");
        Self {
            speed_mops,
            jobs: BTreeMap::new(),
            background: 0.0,
            slow_factor: 1,
            last_update_us: 0,
            generation: 0,
            busy_us: 0,
            weighted_load_us: 0.0,
            completed_jobs: 0,
            total_mops_done: 0.0,
        }
    }

    /// Nominal speed.
    pub fn speed_mops(&self) -> f64 {
        self.speed_mops
    }

    /// Number of resident VCE jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Current background weight (equivalent local jobs).
    pub fn background(&self) -> f64 {
        self.background
    }

    /// The load figure daemons disclose: resident jobs + background.
    pub fn load(&self) -> f64 {
        self.jobs.len() as f64 + self.background
    }

    /// Per-job progress rate in Mops/µs at the current population.
    fn rate_per_job(&self) -> f64 {
        let denom = self.jobs.len() as f64 + self.background;
        if denom <= 0.0 || self.jobs.is_empty() {
            0.0
        } else {
            (self.speed_mops / self.slow_factor as f64 / denom) / 1e6
        }
    }

    /// Current CPU degradation factor (1 = healthy).
    pub fn slow_factor(&self) -> u32 {
        self.slow_factor
    }

    /// Degrade (or restore with `factor == 1`) this CPU: all work takes
    /// `factor`× longer. The caller must `advance` to *now* first and
    /// reschedule completion predictions afterwards.
    pub fn set_slow_factor(&mut self, factor: u32) {
        self.generation += 1;
        self.slow_factor = factor.max(1);
    }

    /// Advance all jobs to `now_us`, accruing progress and metrics.
    ///
    /// Must be called (by the engine) before any mutation or prediction.
    pub fn advance(&mut self, now_us: u64) {
        debug_assert!(now_us >= self.last_update_us, "time went backwards");
        let dt = (now_us - self.last_update_us) as f64;
        if dt > 0.0 {
            if !self.jobs.is_empty() {
                let done = self.rate_per_job() * dt;
                for job in self.jobs.values_mut() {
                    let step = done.min(job.remaining_mops);
                    job.remaining_mops -= step;
                    self.total_mops_done += step;
                }
                self.busy_us += dt as u64;
            }
            self.weighted_load_us += self.load() * dt;
        }
        self.last_update_us = now_us;
    }

    /// Add a job. Replaces (restarts) any existing job with the same key.
    pub fn add_job(&mut self, key: JobKey, mops: f64) {
        self.generation += 1;
        self.jobs.insert(
            key,
            Job {
                remaining_mops: mops.max(0.0),
            },
        );
    }

    /// Remove a job (kill); returns the remaining Mops if it existed.
    pub fn remove_job(&mut self, key: JobKey) -> Option<f64> {
        self.generation += 1;
        self.jobs.remove(&key).map(|j| j.remaining_mops)
    }

    /// Remaining work of a resident job.
    pub fn remaining(&self, key: JobKey) -> Option<f64> {
        self.jobs.get(&key).map(|j| j.remaining_mops)
    }

    /// Set the background weight (local-user activity).
    pub fn set_background(&mut self, background: f64) {
        self.generation += 1;
        self.background = background.max(0.0);
    }

    /// Predict the next completion: `(key, at_us)` for the job that finishes
    /// first if nothing changes. `None` when no jobs are resident.
    ///
    /// Jobs whose remaining work is already ~0 complete "now".
    pub fn next_completion(&self, now_us: u64) -> Option<(JobKey, u64)> {
        let rate = self.rate_per_job();
        self.jobs
            .iter()
            .map(|(&key, job)| {
                let delay_us = if job.remaining_mops <= f64::EPSILON {
                    0
                } else if rate <= 0.0 {
                    u64::MAX
                } else {
                    (job.remaining_mops / rate).ceil() as u64
                };
                (key, now_us.saturating_add(delay_us))
            })
            .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
    }

    /// Keys of jobs whose remaining work is numerically zero (≤ 1e-9 Mops —
    /// one nanop of slack absorbs floating-point residue from sharing).
    /// Replaces the contents of `out`, so a caller on the event path can
    /// reuse one buffer.
    pub fn done_jobs(&self, out: &mut Vec<JobKey>) {
        out.clear();
        out.extend(
            self.jobs
                .iter()
                .filter(|(_, j)| j.remaining_mops <= 1e-9)
                .map(|(&k, _)| k),
        );
    }

    /// Drop every job (machine crash). Metrics are preserved.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.jobs.clear();
    }

    // ---- metrics accessors ----

    /// Microseconds during which at least one VCE job was resident.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Time-integral of load (for average-load reporting).
    pub fn weighted_load_us(&self) -> f64 {
        self.weighted_load_us
    }

    /// Completed-job counter (incremented by [`Cpu::note_completed`]).
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Total useful work executed, in Mops.
    pub fn total_mops_done(&self) -> f64 {
        self.total_mops_done
    }

    /// Record that a job completed (engine calls this when it removes a
    /// finished job).
    pub fn note_completed(&mut self) {
        self.completed_jobs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PortId = PortId(1000);

    #[test]
    fn single_job_finishes_at_nominal_speed() {
        let mut cpu = Cpu::new(100.0); // 100 Mops/s
        cpu.add_job((P, 1), 50.0); // 0.5 s
        let (key, at) = cpu.next_completion(0).unwrap();
        assert_eq!(key, (P, 1));
        assert_eq!(at, 500_000);
    }

    #[test]
    fn two_jobs_share_the_processor() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.add_job((P, 2), 50.0);
        // Each gets 50 Mops/s → 1 s.
        let (_, at) = cpu.next_completion(0).unwrap();
        assert_eq!(at, 1_000_000);
    }

    #[test]
    fn background_load_slows_jobs() {
        let mut cpu = Cpu::new(100.0);
        cpu.set_background(1.0);
        cpu.add_job((P, 1), 50.0);
        // Job shares with one background job → 50 Mops/s → 1 s.
        let (_, at) = cpu.next_completion(0).unwrap();
        assert_eq!(at, 1_000_000);
        assert_eq!(cpu.load(), 2.0);
    }

    #[test]
    fn advance_accrues_progress_linearly() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.advance(250_000); // half way
        let rem = cpu.remaining((P, 1)).unwrap();
        assert!((rem - 25.0).abs() < 1e-6, "remaining {rem}");
    }

    #[test]
    fn job_arrival_mid_flight_repredicts_later() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.advance(250_000);
        cpu.add_job((P, 2), 100.0);
        // Job 1 has 25 Mops left at 50 Mops/s → 0.5 s more.
        let (key, at) = cpu.next_completion(250_000).unwrap();
        assert_eq!(key, (P, 1));
        assert_eq!(at, 750_000);
    }

    #[test]
    fn remove_job_speeds_up_survivor() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.add_job((P, 2), 50.0);
        cpu.advance(500_000); // each has 25 Mops left
        let left = cpu.remove_job((P, 2)).unwrap();
        assert!((left - 25.0).abs() < 1e-6);
        let (_, at) = cpu.next_completion(500_000).unwrap();
        assert_eq!(at, 750_000); // 25 Mops at full 100 Mops/s
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut cpu = Cpu::new(10.0);
        let g0 = cpu.generation;
        cpu.add_job((P, 1), 1.0);
        cpu.set_background(0.5);
        cpu.remove_job((P, 1));
        cpu.clear();
        assert_eq!(cpu.generation, g0 + 4);
    }

    #[test]
    fn slow_factor_stretches_completion() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.set_slow_factor(4);
        // 100/4 = 25 Mops/s → 2 s for 50 Mops.
        let (_, at) = cpu.next_completion(0).unwrap();
        assert_eq!(at, 2_000_000);
        // Restore mid-flight: half the work is left at full speed.
        cpu.advance(1_000_000);
        cpu.set_slow_factor(1);
        let (_, at) = cpu.next_completion(1_000_000).unwrap();
        assert_eq!(at, 1_250_000);
        // Load disclosure is unchanged — that's what makes it gray.
        assert_eq!(cpu.load(), 1.0);
        assert_eq!(cpu.speed_mops(), 100.0);
    }

    #[test]
    fn slow_factor_mutation_bumps_generation_and_clamps() {
        let mut cpu = Cpu::new(10.0);
        let g0 = cpu.generation;
        cpu.set_slow_factor(3);
        assert_eq!(cpu.generation, g0 + 1);
        assert_eq!(cpu.slow_factor(), 3);
        cpu.set_slow_factor(0); // clamped to 1 (restore)
        assert_eq!(cpu.slow_factor(), 1);
    }

    #[test]
    fn metrics_accumulate() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.advance(500_000);
        cpu.remove_job((P, 1));
        cpu.note_completed();
        cpu.advance(1_000_000); // idle period
        assert_eq!(cpu.busy_us(), 500_000);
        assert_eq!(cpu.completed_jobs(), 1);
        assert!((cpu.total_mops_done() - 50.0).abs() < 1e-6);
        // Average load over 1s: busy half at load 1 → integral 500_000.
        assert!((cpu.weighted_load_us() - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 0.0);
        let (_, at) = cpu.next_completion(123).unwrap();
        assert_eq!(at, 123);
    }

    #[test]
    fn empty_cpu_predicts_nothing() {
        let cpu = Cpu::new(100.0);
        assert!(cpu.next_completion(0).is_none());
    }

    #[test]
    fn clear_drops_jobs_keeps_metrics() {
        let mut cpu = Cpu::new(100.0);
        cpu.add_job((P, 1), 50.0);
        cpu.advance(100_000);
        cpu.clear();
        assert_eq!(cpu.job_count(), 0);
        assert!(cpu.busy_us() > 0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = Cpu::new(0.0);
    }
}
