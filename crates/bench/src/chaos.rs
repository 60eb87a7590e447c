//! vce-chaos: seeded fault-injection campaigns over the full Isis + EXM
//! stack.
//!
//! A campaign run builds a small VCE fleet, submits an application, and
//! drives it through a generated fault schedule — node crashes/revives,
//! link partitions and heals, message-loss/dup bursts, and leader-targeted
//! kills at protocol-sensitive moments — while invariant checkers observe
//! every step:
//!
//! 1. **SingleLeader** — at most one coordinator allocating per network
//!    component (split brains across a partition are legal; a persistent
//!    dual leader inside one component is not).
//! 2. **NoTaskLost** — no task is permanently lost: once the last fault
//!    heals, every allocation the application still needs is satisfied.
//! 3. **NoDupExec** — a non-redundant (SYNC) instance never keeps
//!    executing on two machines the executor can reach for longer than
//!    the watchdog's kill latency.
//! 4. **Termination** — every application terminates after the last heal,
//!    and no daemon is left running zombie instances afterwards.
//! 5. **Reconverge** — post-heal group views reconverge to one view with
//!    one coordinator within a bounded number of heartbeats.
//! 6. **NoReexec** — a committed completed task is never re-executed after
//!    a WAL recovery: no instance restored from the log also has its
//!    `Done` record in the committed prefix.
//! 7. **PrefixRecovery** — every recovery replays a *prefix* of what was
//!    journaled (a torn tail truncates; it never resurrects later records
//!    or invents state).
//! 8. **BoundedDetection** — a node continuously dead past the detection
//!    bound, while the surviving network is clean, is out of every
//!    surviving daemon's view (the failure detector cannot sleep through a
//!    true crash, however adaptive its thresholds).
//! 9. **NoSlowEviction** — a CPU-degraded but alive node (it still
//!    heartbeats) is never evicted from the group: gray slowness is the
//!    scheduler's problem, not the failure detector's.
//!
//! The storage-fault shapes (`crash-recover`, `torn-tail`, `device-loss`)
//! drive the same crash/revive churn as `crashes` but pin the stable
//! store's crash-fault model, exercising the daemon WAL's recovery path:
//! intact logs, torn tails that must truncate, and total device loss that
//! must fall back to pre-WAL amnesia (the §4.4 techniques then re-cover
//! the lost work).
//!
//! The gray-failure shapes (`slow-nodes`, `asym-links`, `link-ramp`,
//! `flapping`) inject the faults that do *not* announce themselves: CPU
//! degradation, one-direction link loss, links that decay gradually, and a
//! node that flaps fast before dying for real (the flap-damping quarantine
//! must tame it; the true death must still be detected within the bound).
//!
//! Schedules are a pure function of `(seed, shape, technique)`, so a
//! failing run is replayed exactly by re-running its config with the
//! trace enabled ([`replay`]); `exp_chaos` stays byte-identical under
//! `run_experiments.sh --check`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vce::prelude::*;
use vce_exm::migrate::MigrationTechnique;
use vce_net::{FaultOp, LinkFault};

/// Machines in the fleet (node 0 is the submitting user's workstation —
/// the paper's executor lives there and is exempt from crashes, like a
/// user who would simply restart the run).
pub const FLEET: u32 = 6;
/// Tasks per application (three singletons plus one divisible).
pub const TASKS: u32 = 4;
/// Invariant-observation quantum, µs.
const OBS_US: u64 = 250_000;
/// Chaos window after submission, µs: faults are injected inside it and
/// the final heal + revive lands at its end.
const CHAOS_WINDOW_US: u64 = 22_000_000;
/// Recovery deadline after the last heal, µs (NoTaskLost/Termination).
const RECOVERY_US: u64 = 90_000_000;
/// Post-completion settle before the zombie sweep, µs — lets the §5
/// Terminate broadcast propagate.
const ZOMBIE_SETTLE_US: u64 = 6_000_000;
/// View-reconvergence deadline after the last heal, µs.
const RECONVERGE_US: u64 = 30_000_000;
/// A dual leader inside one component must resolve within this long
/// (failure timeout + heartbeat demotion + margin).
const GRACE_LEADER_US: u64 = 5_000_000;
/// A doubly-executing non-redundant instance must resolve within this
/// long once both hosts are reachable (probe period × miss limit + kill
/// delivery + margin).
const GRACE_DUP_US: u64 = 8_000_000;
/// A continuously-dead node must be out of every surviving view within
/// this long, provided the surviving network is clean (adaptive detector
/// cap 3 s + view install + generous margin).
const DETECT_BOUND_US: u64 = 8_000_000;
/// A slowed node's view membership is only judged after this long — lets
/// churn from the slow-down moment (there should be none) settle.
const GRACE_SLOW_US: u64 = 3_000_000;
/// Trace lines a red cell keeps for its replay dump.
const TRACE_TAIL_LINES: usize = 60;

/// The isis heartbeat period the fleet runs with (see
/// `vce_isis::GroupConfig`); used to express reconvergence in heartbeats.
const HEARTBEAT_US: u64 = 200_000;

/// Fault-schedule family. Each shape generates a different mix of the
/// same primitive ops; `Mixed` samples across all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleShape {
    /// Random crash/revive churn.
    Crashes,
    /// Symmetric partitions that split the fleet, then heal.
    Partitions,
    /// Message-loss/duplication bursts on every link.
    Bursts,
    /// Kills aimed at whoever currently coordinates allocation, timed at
    /// protocol-sensitive moments (mid-bid / mid-allocation / mid-run).
    LeaderHunt,
    /// All of the above.
    Mixed,
    /// Crash/revive churn with intact stable storage: every revive replays
    /// a clean WAL (the recovery fast path).
    CrashRecover,
    /// Crash/revive churn where every crash tears the log tail: recovery
    /// must truncate the torn record, never replay it.
    TornTail,
    /// Crash/revive churn where every crash loses the whole device:
    /// recovery degrades to pre-WAL amnesia and the §4.4 techniques must
    /// re-cover the lost work.
    DeviceLoss,
    /// Gray CPU degradation: nodes run k× slower for a while, then
    /// restore. They still heartbeat — the detector must not evict them
    /// (INV9) while straggler hedging rescues their divisible work.
    SlowNodes,
    /// Asymmetric one-direction link faults: heavy loss/jitter src→dst
    /// while dst→src stays clean (the classic gray failure the fixed
    /// detector false-evicts on).
    AsymLinks,
    /// A link that degrades in escalating steps — loss and jitter ramp up
    /// over seconds before the link is cleared.
    LinkRamp,
    /// One node flaps (short kill/revive cycles) and then dies for real:
    /// flap damping must quarantine the flapper, and the true death must
    /// still be detected within the bound (INV8).
    Flapping,
}

impl ScheduleShape {
    /// Every shape, in sweep order.
    pub const ALL: [ScheduleShape; 12] = [
        ScheduleShape::Crashes,
        ScheduleShape::Partitions,
        ScheduleShape::Bursts,
        ScheduleShape::LeaderHunt,
        ScheduleShape::Mixed,
        ScheduleShape::CrashRecover,
        ScheduleShape::TornTail,
        ScheduleShape::DeviceLoss,
        ScheduleShape::SlowNodes,
        ScheduleShape::AsymLinks,
        ScheduleShape::LinkRamp,
        ScheduleShape::Flapping,
    ];

    /// Stable name for tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleShape::Crashes => "crashes",
            ScheduleShape::Partitions => "partitions",
            ScheduleShape::Bursts => "bursts",
            ScheduleShape::LeaderHunt => "leader-hunt",
            ScheduleShape::Mixed => "mixed",
            ScheduleShape::CrashRecover => "crash-recover",
            ScheduleShape::TornTail => "torn-tail",
            ScheduleShape::DeviceLoss => "device-loss",
            ScheduleShape::SlowNodes => "slow-nodes",
            ScheduleShape::AsymLinks => "asym-links",
            ScheduleShape::LinkRamp => "link-ramp",
            ScheduleShape::Flapping => "flapping",
        }
    }

    /// The stable-storage crash-fault model this shape pins on every
    /// machine. Non-storage shapes leave the store fault-free (crashes
    /// still lose non-durable in-flight writes — that is the baseline
    /// write-behind model, not a fault).
    pub fn fault_model(self) -> vce_storage::FaultModel {
        match self {
            ScheduleShape::TornTail => vce_storage::FaultModel {
                torn_tail: 1.0,
                ..vce_storage::FaultModel::none()
            },
            ScheduleShape::DeviceLoss => vce_storage::FaultModel {
                device_loss: 1.0,
                ..vce_storage::FaultModel::none()
            },
            _ => vce_storage::FaultModel::none(),
        }
    }
}

/// The §4.4 migration techniques a campaign cell equips its tasks with.
pub const TECHNIQUES: [MigrationTechnique; 4] = [
    MigrationTechnique::Redundant,
    MigrationTechnique::Checkpoint,
    MigrationTechnique::CoreDump,
    MigrationTechnique::Recompile,
];

/// Stable lowercase name of a technique, for reports and CLI args.
pub fn technique_name(t: MigrationTechnique) -> &'static str {
    match t {
        MigrationTechnique::Redundant => "redundant",
        MigrationTechnique::Checkpoint => "checkpoint",
        MigrationTechnique::CoreDump => "coredump",
        MigrationTechnique::Recompile => "recompile",
        // Not a §4.4 technique; not part of the campaign grid, but named
        // so --replay can address it if it ever is.
        MigrationTechnique::Restart => "restart",
    }
}

/// Parse a shape name as printed by [`ScheduleShape::name`].
pub fn parse_shape(s: &str) -> Option<ScheduleShape> {
    ScheduleShape::ALL.iter().copied().find(|t| t.name() == s)
}

/// Parse a technique name as printed by [`technique_name`].
pub fn parse_technique(s: &str) -> Option<MigrationTechnique> {
    TECHNIQUES.iter().copied().find(|&t| technique_name(t) == s)
}

/// Parse the `<seed> <shape> <technique>` argument triple every replay
/// entry point takes. On a malformed argument the error names the bad
/// value *and lists the valid choices*, so a typo in a shape name is a
/// one-line fix instead of a panic backtrace.
pub fn parse_cell(
    seed: &str,
    shape: &str,
    technique: &str,
) -> Result<(u64, ScheduleShape, MigrationTechnique), String> {
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("bad seed {seed:?}: expected an unsigned integer"))?;
    let shape = parse_shape(shape).ok_or_else(|| {
        let names: Vec<&str> = ScheduleShape::ALL.iter().map(|s| s.name()).collect();
        format!(
            "unknown shape {shape:?}: valid shapes are {}",
            names.join(", ")
        )
    })?;
    let technique = parse_technique(technique).ok_or_else(|| {
        let names: Vec<&str> = TECHNIQUES.iter().map(|&t| technique_name(t)).collect();
        format!(
            "unknown technique {technique:?}: valid techniques are {}",
            names.join(", ")
        )
    })?;
    Ok((seed, shape, technique))
}

/// The scenario string stamped into a recorded `.vct` header — everything
/// a replay tool needs to re-run the cell.
pub fn scenario_string(cfg: &ChaosConfig) -> String {
    format!(
        "chaos seed={} shape={} technique={}",
        cfg.seed,
        cfg.shape.name(),
        technique_name(cfg.technique)
    )
}

/// Parse a [`scenario_string`] back into its cell.
pub fn parse_scenario(s: &str) -> Option<(u64, ScheduleShape, MigrationTechnique)> {
    let rest = s.strip_prefix("chaos ")?;
    let mut seed = None;
    let mut shape = None;
    let mut technique = None;
    for part in rest.split_whitespace() {
        let (k, v) = part.split_once('=')?;
        match k {
            "seed" => seed = v.parse::<u64>().ok(),
            "shape" => shape = parse_shape(v),
            "technique" => technique = parse_technique(v),
            _ => return None,
        }
    }
    Some((seed?, shape?, technique?))
}

/// One campaign cell: everything a run is a pure function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed: drives both the sim RNG and the schedule generator.
    pub seed: u64,
    /// Fault-schedule family.
    pub shape: ScheduleShape,
    /// Migration/recovery technique the tasks are equipped with.
    pub technique: MigrationTechnique,
    /// Keep the event trace (slower; enables the replay dump).
    pub trace: bool,
}

/// The nine checked invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// ≤1 coordinator allocating per component.
    SingleLeader,
    /// No task permanently lost.
    NoTaskLost,
    /// No SYNC task executing twice concurrently (beyond kill latency).
    NoDupExec,
    /// Every app terminates after the last heal; no zombies remain.
    Termination,
    /// Post-heal views reconverge within bounded heartbeats.
    Reconverge,
    /// No committed completed task is re-executed after a WAL recovery.
    NoReexec,
    /// Every recovery replays a prefix of what was journaled.
    PrefixRecovery,
    /// A truly crashed node leaves every surviving view within the bound.
    BoundedDetection,
    /// A merely-slow (alive, heartbeating) node is never evicted.
    NoSlowEviction,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::SingleLeader => "single-leader",
            Invariant::NoTaskLost => "no-task-lost",
            Invariant::NoDupExec => "no-dup-exec",
            Invariant::Termination => "termination",
            Invariant::Reconverge => "reconverge",
            Invariant::NoReexec => "no-reexec",
            Invariant::PrefixRecovery => "recovery-prefix",
            Invariant::BoundedDetection => "bounded-detection",
            Invariant::NoSlowEviction => "no-slow-eviction",
        };
        f.write_str(s)
    }
}

/// One invariant violation, with enough context to replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Sim time it was detected, µs.
    pub at_us: u64,
    /// Human-readable specifics (nodes, keys, views).
    pub detail: String,
}

/// Outcome of one campaign run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The cell that produced this outcome.
    pub seed: u64,
    /// Schedule family of the run.
    pub shape: ScheduleShape,
    /// Technique the tasks were equipped with.
    pub technique: MigrationTechnique,
    /// Violations observed (empty = all nine invariants green).
    pub violations: Vec<Violation>,
    /// Fault ops injected (kills + partitions + bursts + heals).
    pub faults: u32,
    /// Allocations the executor accepted.
    pub allocations: u64,
    /// Application makespan, µs, when it completed.
    pub makespan_us: Option<u64>,
    /// Heartbeat periods from the last heal to view reconvergence.
    pub reconverge_heartbeats: Option<u64>,
    /// Tail of the event trace (only on traced runs with violations).
    pub trace_tail: Option<String>,
    /// Per-crashed-node stable-storage journal summary, in node order —
    /// what each WAL saw across its crashes (replay diagnostics).
    pub journal: Vec<String>,
}

impl ChaosOutcome {
    /// All nine invariants held.
    pub fn green(&self) -> bool {
        self.violations.is_empty()
    }

    /// The failing-seed report: seed, violated invariants, and (when the
    /// run was traced) the replayable event-trace tail.
    pub fn report(&self) -> String {
        let mut s = format!(
            "chaos FAIL seed={} shape={} technique={:?}\n",
            self.seed,
            self.shape.name(),
            self.technique
        );
        for v in &self.violations {
            s.push_str(&format!(
                "  [{:>12}µs] {}: {}\n",
                v.at_us, v.invariant, v.detail
            ));
        }
        s.push_str(&format!(
            "  replay: exp_chaos --replay {} {} {}\n",
            self.seed,
            self.shape.name(),
            technique_name(self.technique)
        ));
        if !self.journal.is_empty() {
            s.push_str("  journal:\n");
            for line in &self.journal {
                s.push_str("    ");
                s.push_str(line);
                s.push('\n');
            }
        }
        if let Some(t) = &self.trace_tail {
            s.push_str("  trace tail:\n");
            for line in t.lines() {
                s.push_str("    ");
                s.push_str(line);
                s.push('\n');
            }
        }
        s
    }
}

// ----------------------------------------------------------------------
// Schedule generation
// ----------------------------------------------------------------------

/// A driver-resolved op the engine cannot pre-schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriverOp {
    /// Kill whoever currently leads the workstation group (skipped if the
    /// leader is the user's own workstation or too much is already dead).
    KillLeader,
}

/// A generated schedule: engine ops ride the sim's event heap
/// ([`vce_sim::Sim::schedule_fault`]); driver ops resolve at runtime.
struct Schedule {
    /// `(at_us, op)` — absolute sim times, sorted.
    engine_ops: Vec<(u64, FaultOp)>,
    /// Runtime-resolved ops, sorted by time.
    driver_ops: Vec<(u64, DriverOp)>,
    /// When the last heal/revive lands.
    end_us: u64,
}

fn burst_link(rng: &mut SmallRng) -> LinkFault {
    LinkFault {
        drop_prob: rng.gen_range(0.10..0.35),
        extra_delay_us: rng.gen_range(0..5_000),
        jitter_us: rng.gen_range(0..20_000),
        dup_prob: rng.gen_range(0.05..0.20),
    }
}

/// Generate the fault schedule for a cell. Pure function of the config.
fn generate(cfg: &ChaosConfig, start_us: u64) -> Schedule {
    let shape_salt = cfg.shape.name().bytes().map(u64::from).sum::<u64>();
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(shape_salt),
    );
    let end_us = start_us + CHAOS_WINDOW_US;
    let mut engine_ops: Vec<(u64, FaultOp)> = Vec::new();
    let mut driver_ops: Vec<(u64, DriverOp)> = Vec::new();
    // Planned (kill, revive) windows per node, to cap concurrent deaths
    // at half the fleet and never double-kill.
    let mut dead_windows: Vec<(u64, u64, u32)> = Vec::new();

    let crashes = |rng: &mut SmallRng,
                   engine_ops: &mut Vec<(u64, FaultOp)>,
                   dead_windows: &mut Vec<(u64, u64, u32)>,
                   n: u32| {
        for _ in 0..n {
            let at = rng.gen_range(start_us + 500_000..end_us - 3_000_000);
            let until = (at + rng.gen_range(2_000_000..6_000_000)).min(end_us - 500_000);
            let node = rng.gen_range(1..FLEET);
            let overlapping = dead_windows
                .iter()
                .filter(|&&(a, b, _)| a < until && at < b)
                .count();
            let node_busy = dead_windows
                .iter()
                .any(|&(a, b, n2)| n2 == node && a < until && at < b);
            if node_busy || overlapping >= (FLEET as usize - 1) / 2 {
                continue;
            }
            dead_windows.push((at, until, node));
            engine_ops.push((at, FaultOp::Kill(NodeId(node))));
            engine_ops.push((until, FaultOp::Revive(NodeId(node))));
        }
    };
    let partitions = |rng: &mut SmallRng, engine_ops: &mut Vec<(u64, FaultOp)>, n: u32| {
        for _ in 0..n {
            let at = rng.gen_range(start_us + 500_000..end_us - 4_000_000);
            let until = (at + rng.gen_range(3_000_000..6_000_000)).min(end_us - 500_000);
            // Node 0 (user workstation) anchors group 0; every other node
            // flips a coin. A one-sided draw still partitions nothing,
            // which is a legal (if dull) schedule.
            for node in 1..FLEET {
                let group = u32::from(rng.gen::<bool>());
                engine_ops.push((at, FaultOp::Partition(NodeId(node), group)));
            }
            engine_ops.push((until, FaultOp::Heal));
        }
    };
    let bursts = |rng: &mut SmallRng, engine_ops: &mut Vec<(u64, FaultOp)>, n: u32| {
        for _ in 0..n {
            let at = rng.gen_range(start_us + 500_000..end_us - 3_000_000);
            let until = (at + rng.gen_range(2_000_000..4_000_000)).min(end_us - 500_000);
            engine_ops.push((at, FaultOp::DefaultLink(burst_link(rng))));
            engine_ops.push((until, FaultOp::DefaultLink(LinkFault::default())));
        }
    };
    let slow_nodes = |rng: &mut SmallRng, engine_ops: &mut Vec<(u64, FaultOp)>, n: u32| {
        // Gray CPU degradation: k×-slower for most of the window, then
        // restored. Distinct nodes so each window is one clean story.
        let mut used: Vec<u32> = Vec::new();
        for _ in 0..n {
            let node = rng.gen_range(1..FLEET);
            if used.contains(&node) {
                continue;
            }
            used.push(node);
            let at = rng.gen_range(start_us + 500_000..start_us + 4_000_000);
            let until = (at + rng.gen_range(8_000_000..14_000_000)).min(end_us - 500_000);
            let factor = rng.gen_range(4..=6);
            engine_ops.push((at, FaultOp::SlowNode(NodeId(node), factor)));
            engine_ops.push((until, FaultOp::SlowNode(NodeId(node), 1)));
        }
    };
    let asym_links = |rng: &mut SmallRng, engine_ops: &mut Vec<(u64, FaultOp)>, n: u32| {
        for _ in 0..n {
            let src = rng.gen_range(0..FLEET);
            let mut dst = rng.gen_range(0..FLEET);
            if dst == src {
                dst = (dst + 1) % FLEET;
            }
            let at = rng.gen_range(start_us + 500_000..end_us - 5_000_000);
            let until = (at + rng.gen_range(3_000_000..6_000_000)).min(end_us - 500_000);
            // One direction only: heavy loss and jitter src→dst while
            // dst→src stays pristine. (`Heal` does not touch directed
            // entries, so the window clears itself.)
            let lf = LinkFault {
                drop_prob: rng.gen_range(0.40..0.85),
                extra_delay_us: rng.gen_range(0..30_000),
                jitter_us: rng.gen_range(10_000..80_000),
                dup_prob: 0.0,
            };
            engine_ops.push((at, FaultOp::Link(NodeId(src), NodeId(dst), lf)));
            engine_ops.push((until, FaultOp::ClearLink(NodeId(src), NodeId(dst))));
        }
    };
    let ramps = |rng: &mut SmallRng, engine_ops: &mut Vec<(u64, FaultOp)>, n: u32| {
        // A link that decays in escalating ~1 s steps — the detector sees
        // inter-arrival gaps stretch gradually, not a step function.
        for _ in 0..n {
            let src = rng.gen_range(1..FLEET);
            let mut dst = rng.gen_range(0..FLEET);
            if dst == src {
                dst = (src + 1) % FLEET;
            }
            let steps: u64 = 5;
            let step_us = rng.gen_range(800_000..1_400_000);
            let span = steps * step_us + 2_000_000;
            let at = rng.gen_range(start_us + 500_000..(end_us - 500_000).saturating_sub(span));
            for s in 0..steps {
                let lf = LinkFault {
                    drop_prob: 0.15 * (s + 1) as f64,
                    extra_delay_us: 4_000 * (s + 1),
                    jitter_us: 15_000 * (s + 1),
                    dup_prob: 0.0,
                };
                engine_ops.push((
                    at + s * step_us,
                    FaultOp::Link(NodeId(src), NodeId(dst), lf),
                ));
            }
            engine_ops.push((at + span, FaultOp::ClearLink(NodeId(src), NodeId(dst))));
        }
    };
    let flapping = |rng: &mut SmallRng,
                    engine_ops: &mut Vec<(u64, FaultOp)>,
                    dead_windows: &mut Vec<(u64, u64, u32)>| {
        // One node flaps — deaths long enough that each one is detected
        // and evicted (past the adaptive floor), revivals quick — then
        // dies for real long enough to trip INV8's detection bound.
        let node = rng.gen_range(1..FLEET);
        let mut at = start_us + rng.gen_range(500_000..1_000_000);
        for _ in 0..3 {
            let dead_for = rng.gen_range(1_200_000..1_600_000);
            engine_ops.push((at, FaultOp::Kill(NodeId(node))));
            engine_ops.push((at + dead_for, FaultOp::Revive(NodeId(node))));
            dead_windows.push((at, at + dead_for, node));
            at += dead_for + rng.gen_range(1_200_000..1_800_000);
        }
        let back = end_us - 500_000;
        debug_assert!(back.saturating_sub(at) > DETECT_BOUND_US + 2 * OBS_US);
        engine_ops.push((at, FaultOp::Kill(NodeId(node))));
        engine_ops.push((back, FaultOp::Revive(NodeId(node))));
        dead_windows.push((at, back, node));
    };
    let hunts = |rng: &mut SmallRng, driver_ops: &mut Vec<(u64, DriverOp)>, n: u32| {
        // The first strike lands moments after dispatch — mid-bid or
        // mid-allocation for the opening request wave; later strikes catch
        // the successor mid-run (and mid-migration when rebalancing).
        let mut at = start_us + rng.gen_range(200_000..1_200_000);
        for _ in 0..n {
            if at >= end_us - 4_000_000 {
                break;
            }
            driver_ops.push((at, DriverOp::KillLeader));
            at += rng.gen_range(4_000_000..8_000_000);
        }
    };

    match cfg.shape {
        ScheduleShape::Crashes => crashes(&mut rng, &mut engine_ops, &mut dead_windows, 8),
        ScheduleShape::Partitions => partitions(&mut rng, &mut engine_ops, 3),
        ScheduleShape::Bursts => bursts(&mut rng, &mut engine_ops, 4),
        ScheduleShape::LeaderHunt => hunts(&mut rng, &mut driver_ops, 3),
        ScheduleShape::Mixed => {
            crashes(&mut rng, &mut engine_ops, &mut dead_windows, 4);
            partitions(&mut rng, &mut engine_ops, 1);
            bursts(&mut rng, &mut engine_ops, 2);
            hunts(&mut rng, &mut driver_ops, 1);
        }
        // The storage shapes reuse the crash/revive generator (distinct
        // schedules via the shape-name salt); what differs is the
        // stable-store fault model pinned in `fleet_vce`.
        ScheduleShape::CrashRecover | ScheduleShape::TornTail | ScheduleShape::DeviceLoss => {
            crashes(&mut rng, &mut engine_ops, &mut dead_windows, 8)
        }
        ScheduleShape::SlowNodes => slow_nodes(&mut rng, &mut engine_ops, 3),
        ScheduleShape::AsymLinks => asym_links(&mut rng, &mut engine_ops, 4),
        ScheduleShape::LinkRamp => ramps(&mut rng, &mut engine_ops, 2),
        ScheduleShape::Flapping => flapping(&mut rng, &mut engine_ops, &mut dead_windows),
    }

    // The campaign's contract: after `end_us` nothing is broken any more.
    engine_ops.push((end_us, FaultOp::Heal));
    engine_ops.push((end_us, FaultOp::DefaultLink(LinkFault::default())));
    engine_ops.sort_by_key(|&(t, _)| t);
    driver_ops.sort_by_key(|&(t, _)| t);
    Schedule {
        engine_ops,
        driver_ops,
        end_us,
    }
}

// ----------------------------------------------------------------------
// The campaign application
// ----------------------------------------------------------------------

fn traits_for(technique: MigrationTechnique) -> MigrationTraits {
    MigrationTraits {
        checkpoints: technique == MigrationTechnique::Checkpoint,
        checkpoint_interval_s: 2,
        restartable: true,
        core_dumpable: technique == MigrationTechnique::CoreDump,
    }
}

fn campaign_app(db: &MachineDb, technique: MigrationTechnique) -> Application {
    let mut g = TaskGraph::new("chaos");
    for i in 0..TASKS - 1 {
        g.add_task(
            TaskSpec::new(format!("c{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(500.0)
                .with_migration(traits_for(technique)),
        );
    }
    // One divisible task: exercises multi-machine allocation and partial
    // grants under churn.
    g.add_task(
        TaskSpec::new("cdiv")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(900.0)
            .with_instances(3)
            .with_migration(traits_for(technique))
            .divisible(),
    );
    Application::from_graph(g, db).expect("hostable")
}

/// Build (but do not settle) the campaign fleet — a recorder must attach
/// before the first event runs so the trace covers the whole run.
fn fleet_vce(cfg: &ChaosConfig) -> Vce {
    let mut exm = ExmConfig::default();
    if cfg.technique == MigrationTechnique::Redundant {
        exm.redundancy = 2;
    }
    exm.storage.fault = cfg.shape.fault_model();
    let mut b = VceBuilder::new(cfg.seed);
    for i in 0..FLEET {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    b.exm_config(exm);
    b.trace_enabled(cfg.trace);
    b.build()
}

// ----------------------------------------------------------------------
// Invariant observation
// ----------------------------------------------------------------------

/// The driver's mirror of what the schedule has done to the network so
/// far — it generated the ops, so it can replay their effects without new
/// engine accessors.
#[derive(Default)]
struct NetMirror {
    dead: BTreeSet<u32>,
    /// When each currently-dead node died (INV8's continuity clock).
    died_at: BTreeMap<u32, u64>,
    group: BTreeMap<u32, u32>,
    /// Currently CPU-degraded nodes and when the slow-down landed.
    slow: BTreeMap<u32, u64>,
    /// Directed link faults currently installed.
    gray_links: BTreeSet<(u32, u32)>,
    /// A non-default `DefaultLink` burst is in force.
    bursty: bool,
    /// Every node the schedule has killed at least once (journal report).
    ever_crashed: BTreeSet<u32>,
}

impl NetMirror {
    fn apply(&mut self, at: u64, op: &FaultOp) {
        match *op {
            FaultOp::Kill(n) => {
                self.dead.insert(n.0);
                self.died_at.entry(n.0).or_insert(at);
                self.ever_crashed.insert(n.0);
            }
            FaultOp::Revive(n) => {
                self.dead.remove(&n.0);
                self.died_at.remove(&n.0);
            }
            FaultOp::Partition(n, g) => {
                if g == 0 {
                    self.group.remove(&n.0);
                } else {
                    self.group.insert(n.0, g);
                }
            }
            FaultOp::Heal => self.group.clear(),
            FaultOp::DefaultLink(lf) => self.bursty = lf != LinkFault::default(),
            FaultOp::Link(src, dst, _) => {
                self.gray_links.insert((src.0, dst.0));
            }
            FaultOp::ClearLink(src, dst) => {
                self.gray_links.remove(&(src.0, dst.0));
            }
            FaultOp::SlowNode(n, factor) => {
                if factor > 1 {
                    self.slow.entry(n.0).or_insert(at);
                } else {
                    self.slow.remove(&n.0);
                }
            }
        }
    }

    fn alive(&self) -> impl Iterator<Item = u32> + '_ {
        (0..FLEET).filter(|n| !self.dead.contains(n))
    }

    fn group_of(&self, n: u32) -> u32 {
        self.group.get(&n).copied().unwrap_or(0)
    }

    /// The surviving network carries messages faithfully: no partitions,
    /// no directed gray links, no loss burst. Only then are the detection
    /// invariants (INV8/INV9) judgeable — a detector cannot be blamed for
    /// what the network hid from it.
    fn network_clean(&self) -> bool {
        self.group.is_empty() && self.gray_links.is_empty() && !self.bursty
    }
}

/// Sliding-window state for the transient-tolerant invariants.
#[derive(Default)]
struct Watch {
    dual_leader_since: Option<u64>,
    dup_since: BTreeMap<InstanceKey, u64>,
    /// WAL recoveries already checked, keyed `(node, recovery_seq)` — each
    /// revive's report is judged exactly once.
    recoveries_seen: BTreeSet<(u32, u64)>,
    /// INV8 violations already reported, keyed `(dead node, died_at)` —
    /// one report per death, not one per observation quantum.
    detect_seen: BTreeSet<(u32, u64)>,
    /// INV9 violations already reported, keyed `(slow node, slowed_at)`.
    noslow_seen: BTreeSet<(u32, u64)>,
}

fn observe(vce: &mut Vce, mirror: &NetMirror, watch: &mut Watch, violations: &mut Vec<Violation>) {
    let now = vce.sim().now_us();
    // INV1: at most one coordinator per component.
    let mut leaders: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for n in mirror.alive() {
        if vce
            .with_daemon(NodeId(n), |d| d.is_leader())
            .unwrap_or(false)
        {
            leaders.entry(mirror.group_of(n)).or_default().push(n);
        }
    }
    let dual: Vec<(u32, Vec<u32>)> = leaders.into_iter().filter(|(_, v)| v.len() > 1).collect();
    if dual.is_empty() {
        watch.dual_leader_since = None;
    } else {
        let since = *watch.dual_leader_since.get_or_insert(now);
        if now - since > GRACE_LEADER_US {
            violations.push(Violation {
                invariant: Invariant::SingleLeader,
                at_us: now,
                detail: format!("coordinators {dual:?} coexisted for {}µs", now - since),
            });
            watch.dual_leader_since = Some(now); // re-arm, don't spam
        }
    }
    // INV3: a non-redundant instance executing on ≥2 machines the
    // executor (node 0) can reach must clear within the kill latency.
    let exec_group = mirror.group_of(0);
    let mut hosts: BTreeMap<InstanceKey, Vec<u32>> = BTreeMap::new();
    for n in mirror.alive() {
        if mirror.group_of(n) != exec_group {
            continue;
        }
        let detail = vce
            .with_daemon(NodeId(n), |d| d.resident_detail())
            .unwrap_or_default();
        for (key, redundant, running) in detail {
            if !redundant && running {
                hosts.entry(key).or_default().push(n);
            }
        }
    }
    // INV6/INV7: judge each WAL recovery exactly once — a restored
    // instance must not have its completion in the committed prefix, and
    // the replay must be a prefix of what was journaled.
    for n in mirror.alive() {
        let Some(rec) = vce
            .with_daemon(NodeId(n), |d| d.last_recovery.clone())
            .flatten()
        else {
            continue;
        };
        if !watch.recoveries_seen.insert((n, rec.seq)) {
            continue;
        }
        if !rec.resurrected.is_empty() {
            violations.push(Violation {
                invariant: Invariant::NoReexec,
                at_us: now,
                detail: format!(
                    "node {n} recovery #{} re-executed committed-done instances {:?}",
                    rec.seq, rec.resurrected
                ),
            });
        }
        if !rec.prefix_ok {
            violations.push(Violation {
                invariant: Invariant::PrefixRecovery,
                at_us: now,
                detail: format!(
                    "node {n} recovery #{} replayed {} of {} records but not as a prefix \
                     (fault {:?}, {} bytes truncated)",
                    rec.seq, rec.replayed, rec.appended, rec.fault, rec.truncated_bytes
                ),
            });
        }
    }
    // INV8/INV9: only judged while the surviving network is clean.
    if mirror.network_clean() {
        // INV8: a node continuously dead past the bound must be out of
        // every surviving daemon's view.
        for (&d, &since) in &mirror.died_at {
            if now.saturating_sub(since) <= DETECT_BOUND_US
                || watch.detect_seen.contains(&(d, since))
            {
                continue;
            }
            let holdouts: Vec<u32> = mirror
                .alive()
                .filter(|&m| {
                    vce.with_daemon(NodeId(m), |dm| {
                        dm.view().members.iter().any(|mm| mm.addr.node == NodeId(d))
                    })
                    .unwrap_or(false)
                })
                .collect();
            if !holdouts.is_empty() {
                watch.detect_seen.insert((d, since));
                violations.push(Violation {
                    invariant: Invariant::BoundedDetection,
                    at_us: now,
                    detail: format!(
                        "node {d} dead since {since}µs still in the views of {holdouts:?}"
                    ),
                });
            }
        }
        // INV9: a merely-slow node (alive, heartbeating) stays a member.
        for (&s, &since) in &mirror.slow {
            if mirror.dead.contains(&s)
                || now.saturating_sub(since) <= GRACE_SLOW_US
                || watch.noslow_seen.contains(&(s, since))
            {
                continue;
            }
            let evictors: Vec<u32> = mirror
                .alive()
                .filter(|&m| m != s)
                .filter(|&m| {
                    !vce.with_daemon(NodeId(m), |dm| {
                        dm.view().members.iter().any(|mm| mm.addr.node == NodeId(s))
                    })
                    .unwrap_or(true)
                })
                .collect();
            if !evictors.is_empty() {
                watch.noslow_seen.insert((s, since));
                violations.push(Violation {
                    invariant: Invariant::NoSlowEviction,
                    at_us: now,
                    detail: format!(
                        "slow-but-alive node {s} (degraded since {since}µs) evicted by {evictors:?}"
                    ),
                });
            }
        }
    }
    let mut still_dup: BTreeSet<InstanceKey> = BTreeSet::new();
    for (key, nodes) in hosts {
        if nodes.len() < 2 {
            continue;
        }
        still_dup.insert(key);
        let since = *watch.dup_since.entry(key).or_insert(now);
        if now - since > GRACE_DUP_US {
            violations.push(Violation {
                invariant: Invariant::NoDupExec,
                at_us: now,
                detail: format!(
                    "instance {key:?} executing on nodes {nodes:?} for {}µs",
                    now - since
                ),
            });
            watch.dup_since.insert(key, now);
        }
    }
    watch.dup_since.retain(|k, _| still_dup.contains(k));
}

// ----------------------------------------------------------------------
// The campaign driver
// ----------------------------------------------------------------------

/// Fault-free makespan of the campaign application for one technique —
/// the baseline the F-row's degradation column divides by.
pub fn baseline_makespan_us(technique: MigrationTechnique) -> u64 {
    let cfg = ChaosConfig {
        seed: 1,
        shape: ScheduleShape::Crashes,
        technique,
        trace: false,
    };
    let mut vce = fleet_vce(&cfg);
    vce.settle();
    let app = campaign_app(vce.db(), cfg.technique);
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, RECOVERY_US);
    report.makespan_us.expect("baseline run must complete")
}

/// Where a campaign run records its `.vct` trace, if anywhere.
pub enum RecordTo<'a> {
    /// No recording (the default campaign path).
    No,
    /// Record to a file at this path.
    File(&'a Path),
    /// Record into memory; the bytes come back with the outcome.
    Memory,
}

/// Snapshot cadence for recorded chaos runs, µs of sim time. One snapshot
/// per simulated second keeps bisection windows around a few thousand
/// events while adding ~120 frames to a full run.
pub const CHAOS_SNAPSHOT_US: u64 = 1_000_000;

/// Run one campaign cell.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_recorded(cfg, RecordTo::No).0
}

/// Run one campaign cell, optionally recording a `.vct` event/snapshot
/// trace of the whole run (see `vce_sim::record`). The second return is
/// the recording for [`RecordTo::Memory`], `None` otherwise.
pub fn run_chaos_recorded(
    cfg: &ChaosConfig,
    record: RecordTo<'_>,
) -> (ChaosOutcome, Option<Vec<u8>>) {
    let mut vce = fleet_vce(cfg);
    match record {
        RecordTo::No => {}
        RecordTo::File(path) => {
            vce.sim_mut()
                .record_to(path, &scenario_string(cfg), CHAOS_SNAPSHOT_US)
                .expect("cannot create trace file");
        }
        RecordTo::Memory => {
            vce.sim_mut()
                .record_to_memory(&scenario_string(cfg), CHAOS_SNAPSHOT_US);
        }
    }
    vce.settle();
    let app = campaign_app(vce.db(), cfg.technique);
    let handle = vce.submit(app, NodeId(0));
    let start_us = vce.sim().now_us();
    let schedule = generate(cfg, start_us);
    let faults = schedule.engine_ops.len() as u32 + schedule.driver_ops.len() as u32;
    for (at, op) in &schedule.engine_ops {
        vce.sim_mut().schedule_fault(*at, op.clone());
    }

    let mut mirror = NetMirror::default();
    let mut watch = Watch::default();
    let mut violations: Vec<Violation> = Vec::new();
    let mut pending_engine = schedule.engine_ops.clone();
    let mut pending_driver = schedule.driver_ops.clone();
    // Revives the driver schedules for its own leader kills.
    let mut pending_revives: Vec<(u64, u32)> = Vec::new();

    // Chaos phase: advance one observation quantum at a time, mirroring
    // schedule effects and running the per-step invariant checkers.
    let mut now = start_us;
    while now < schedule.end_us {
        now = (now + OBS_US).min(schedule.end_us);
        vce.sim_mut().run_until(now);
        while pending_engine.first().is_some_and(|&(t, _)| t <= now) {
            let (t, op) = pending_engine.remove(0);
            mirror.apply(t, &op);
        }
        for &(t, node) in &pending_revives {
            if t <= now {
                mirror.apply(t, &FaultOp::Revive(NodeId(node)));
            }
        }
        pending_revives.retain(|&(t, _)| t > now);
        while pending_driver.first().is_some_and(|&(t, _)| t <= now) {
            let (_, op) = pending_driver.remove(0);
            match op {
                DriverOp::KillLeader => {
                    let leader = vce.leader_of(MachineClass::Workstation);
                    if let Some(victim) = leader.filter(|l| l.0 != 0) {
                        if mirror.dead.len() < (FLEET as usize - 1) / 2 {
                            vce.kill_node(victim);
                            mirror.apply(now, &FaultOp::Kill(victim));
                            let back = now + 3_000_000;
                            vce.sim_mut().schedule_fault(back, FaultOp::Revive(victim));
                            pending_revives.push((back, victim.0));
                        }
                    }
                }
            }
        }
        observe(&mut vce, &mirror, &mut watch, &mut violations);
    }
    // Any leader-kill revive scheduled past the window still lands; run
    // to the latest of them so the mirror and plan agree before recovery.
    if let Some(&(t, _)) = pending_revives.iter().max_by_key(|&&(t, _)| t) {
        vce.sim_mut().run_until(t);
        for &(_, node) in &pending_revives {
            mirror.apply(t, &FaultOp::Revive(NodeId(node)));
        }
    }
    let heal_us = vce.sim().now_us();

    // Recovery phase: the schedule has healed everything; the app must
    // now finish (INV2/INV4) and the views must reconverge (INV5).
    let deadline = heal_us + RECOVERY_US;
    let mut reconverged_at: Option<u64> = None;
    loop {
        let now = vce.sim().now_us();
        let done = vce.with_executor(&handle, |e| e.is_done()).unwrap_or(true);
        if reconverged_at.is_none() && views_converged(&mut vce) {
            reconverged_at = Some(now);
        }
        if (done && reconverged_at.is_some()) || now >= deadline {
            break;
        }
        let next = (now + 500_000).min(deadline);
        vce.sim_mut().run_until(next);
        observe(&mut vce, &mirror, &mut watch, &mut violations);
    }
    let report = vce.report(&handle);
    if !report.completed {
        let invariant = if report.failed.is_some() {
            Invariant::NoTaskLost
        } else {
            Invariant::Termination
        };
        violations.push(Violation {
            invariant,
            at_us: vce.sim().now_us(),
            detail: format!(
                "app not complete {}µs after the last heal (failed: {:?})",
                vce.sim().now_us() - heal_us,
                report.failed
            ),
        });
    }
    match reconverged_at {
        Some(t) if t <= heal_us + RECONVERGE_US => {}
        _ => violations.push(Violation {
            invariant: Invariant::Reconverge,
            at_us: vce.sim().now_us(),
            detail: format!(
                "views not reconverged within {RECONVERGE_US}µs of the last heal (views: {})",
                view_summary(&mut vce)
            ),
        }),
    }
    // Zombie sweep: after the Terminate broadcast settles, no daemon may
    // still host instances of the finished application.
    if report.completed {
        let settle = vce.sim().now_us() + ZOMBIE_SETTLE_US;
        vce.sim_mut().run_until(settle);
        for n in 0..FLEET {
            let resident = vce
                .with_daemon(NodeId(n), |d| d.resident())
                .unwrap_or_default();
            let zombies: Vec<InstanceKey> = resident
                .into_iter()
                .filter(|k| k.app == handle.app)
                .collect();
            if !zombies.is_empty() {
                violations.push(Violation {
                    invariant: Invariant::Termination,
                    at_us: settle,
                    detail: format!("node {n} still hosts {zombies:?} after termination"),
                });
            }
        }
    }

    let allocations = report
        .timeline
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, vce_exm::events::AppEvent::Allocated { .. }))
        .count() as u64;
    let trace_tail = if cfg.trace && !violations.is_empty() {
        Some(vce.sim().trace().dump_tail(TRACE_TAIL_LINES))
    } else {
        None
    };
    let journal: Vec<String> = mirror
        .ever_crashed
        .iter()
        .map(|&n| {
            let s = vce
                .with_daemon(NodeId(n), |d| d.wal_summary())
                .unwrap_or_else(|| "daemon unavailable".to_string());
            format!("node {n}: {s}")
        })
        .collect();
    let recording = if vce.sim().is_recording() {
        vce.sim_mut()
            .finish_recording()
            .expect("trace write failed mid-run")
    } else {
        None
    };
    (
        ChaosOutcome {
            seed: cfg.seed,
            shape: cfg.shape,
            technique: cfg.technique,
            violations,
            faults,
            allocations,
            makespan_us: report.makespan_us,
            reconverge_heartbeats: reconverged_at
                .map(|t| (t.saturating_sub(heal_us)) / HEARTBEAT_US),
            trace_tail,
            journal,
        },
        recording,
    )
}

/// Re-run a failing cell with the trace enabled and return the outcome
/// (its `trace_tail` carries the replayable dump).
pub fn replay(seed: u64, shape: ScheduleShape, technique: MigrationTechnique) -> ChaosOutcome {
    run_chaos(&ChaosConfig {
        seed,
        shape,
        technique,
        trace: true,
    })
}

fn views_converged(vce: &mut Vce) -> bool {
    let mut seen: Option<(u64, Vec<NodeId>)> = None;
    let mut leaders = 0u32;
    for n in 0..FLEET {
        if vce.sim().is_node_dead(NodeId(n)) {
            return false;
        }
        let Some((view, leader)) = vce.with_daemon(NodeId(n), |d| {
            let v = d.view();
            (
                (
                    v.id,
                    v.members.iter().map(|m| m.addr.node).collect::<Vec<_>>(),
                ),
                d.is_leader(),
            )
        }) else {
            return false;
        };
        if view.1.len() != FLEET as usize {
            return false;
        }
        leaders += u32::from(leader);
        match &seen {
            None => seen = Some(view),
            Some(s) if *s != view => return false,
            Some(_) => {}
        }
    }
    leaders == 1
}

fn view_summary(vce: &mut Vce) -> String {
    let mut parts = Vec::new();
    for n in 0..FLEET {
        if let Some((id, len, lead)) = vce.with_daemon(NodeId(n), |d| {
            (d.view().id, d.view().members.len(), d.is_leader())
        }) {
            parts.push(format!("{n}:v{id}×{len}{}", if lead { "*" } else { "" }));
        }
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        let cfg = ChaosConfig {
            seed: 7,
            shape: ScheduleShape::Mixed,
            technique: MigrationTechnique::Checkpoint,
            trace: false,
        };
        let a = generate(&cfg, 2_500_000);
        let b = generate(&cfg, 2_500_000);
        assert_eq!(a.engine_ops, b.engine_ops);
        assert_eq!(a.driver_ops, b.driver_ops);
        assert_eq!(a.end_us, b.end_us);
        assert!(!a.engine_ops.is_empty());
    }

    #[test]
    fn the_printed_repro_command_parses_back_to_its_cell() {
        for shape in ScheduleShape::ALL {
            for technique in TECHNIQUES {
                let outcome = ChaosOutcome {
                    seed: 103,
                    shape,
                    technique,
                    violations: Vec::new(),
                    faults: 0,
                    allocations: 0,
                    makespan_us: None,
                    reconverge_heartbeats: None,
                    trace_tail: None,
                    journal: Vec::new(),
                };
                let report = outcome.report();
                let line = report
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("replay: exp_chaos --replay "))
                    .expect("a repro line");
                let args: Vec<&str> = line.split_whitespace().collect();
                let [seed, s, t] = args[..] else {
                    panic!("repro line {line:?} is not `seed shape technique`");
                };
                assert_eq!(
                    parse_cell(seed, s, t),
                    Ok((103, shape, technique)),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn shapes_generate_distinct_schedules() {
        let mk = |shape| {
            generate(
                &ChaosConfig {
                    seed: 7,
                    shape,
                    technique: MigrationTechnique::Recompile,
                    trace: false,
                },
                2_500_000,
            )
        };
        let crash = mk(ScheduleShape::Crashes);
        let burst = mk(ScheduleShape::Bursts);
        assert!(crash
            .engine_ops
            .iter()
            .any(|(_, op)| matches!(op, FaultOp::Kill(_))));
        assert!(burst
            .engine_ops
            .iter()
            .any(|(_, op)| matches!(op, FaultOp::DefaultLink(_))));
        assert!(!burst
            .engine_ops
            .iter()
            .any(|(_, op)| matches!(op, FaultOp::Kill(_))));
    }

    #[test]
    fn a_crash_heavy_run_stays_green_and_deterministic() {
        let cfg = ChaosConfig {
            seed: 3,
            shape: ScheduleShape::Crashes,
            technique: MigrationTechnique::Checkpoint,
            trace: false,
        };
        let a = run_chaos(&cfg);
        assert!(a.green(), "violations: {:#?}", a.violations);
        assert!(a.makespan_us.is_some());
        let b = run_chaos(&cfg);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.allocations, b.allocations);
        assert_eq!(a.reconverge_heartbeats, b.reconverge_heartbeats);
    }

    #[test]
    fn failing_reports_carry_the_journal_and_replay_line() {
        let out = ChaosOutcome {
            seed: 42,
            shape: ScheduleShape::TornTail,
            technique: MigrationTechnique::Checkpoint,
            violations: vec![Violation {
                invariant: Invariant::PrefixRecovery,
                at_us: 1_000_000,
                detail: "synthetic".to_string(),
            }],
            faults: 1,
            allocations: 0,
            makespan_us: None,
            reconverge_heartbeats: None,
            trace_tail: None,
            journal: vec!["node 3: records=2 ...".to_string()],
        };
        let r = out.report();
        assert!(r.contains("recovery-prefix"), "{r}");
        assert!(r.contains("--replay 42 torn-tail"), "{r}");
        assert!(r.contains("journal:"), "{r}");
        assert!(r.contains("node 3: records=2"), "{r}");
    }

    #[test]
    fn a_torn_tail_run_truncates_and_stays_green() {
        let cfg = ChaosConfig {
            seed: 5,
            shape: ScheduleShape::TornTail,
            technique: MigrationTechnique::Checkpoint,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
        // Every crashed node's journal line is reported.
        assert!(!out.journal.is_empty(), "crash shapes must report journals");
    }

    #[test]
    fn a_device_loss_run_falls_back_to_amnesia_and_stays_green() {
        let cfg = ChaosConfig {
            seed: 9,
            shape: ScheduleShape::DeviceLoss,
            technique: MigrationTechnique::Recompile,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
    }

    /// The asymmetry regression: the gray-link generator must install a
    /// *directed* fault and clear exactly that direction — never the
    /// reverse (the old burst generator could only fault both directions
    /// at once via `DefaultLink`).
    #[test]
    fn asym_schedules_fault_exactly_one_direction() {
        let cfg = ChaosConfig {
            seed: 13,
            shape: ScheduleShape::AsymLinks,
            technique: MigrationTechnique::Recompile,
            trace: false,
        };
        let s = generate(&cfg, 2_500_000);
        let mut faulted: Vec<(u32, u32)> = Vec::new();
        let mut cleared: Vec<(u32, u32)> = Vec::new();
        for (_, op) in &s.engine_ops {
            match op {
                FaultOp::Link(a, b, lf) => {
                    assert!(lf.drop_prob > 0.0);
                    faulted.push((a.0, b.0));
                }
                FaultOp::ClearLink(a, b) => cleared.push((a.0, b.0)),
                _ => {}
            }
        }
        assert!(!faulted.is_empty());
        for pair in &faulted {
            assert!(
                !faulted.contains(&(pair.1, pair.0)),
                "direction {pair:?} must not also be faulted in reverse"
            );
            assert!(
                cleared.contains(pair),
                "faulted direction {pair:?} must be cleared by its window"
            );
        }
    }

    #[test]
    fn slow_and_flap_schedules_carry_their_gray_ops() {
        let mk = |shape| {
            generate(
                &ChaosConfig {
                    seed: 21,
                    shape,
                    technique: MigrationTechnique::Checkpoint,
                    trace: false,
                },
                2_500_000,
            )
        };
        let slow = mk(ScheduleShape::SlowNodes);
        let mut degraded = 0;
        let mut restored = 0;
        for (_, op) in &slow.engine_ops {
            if let FaultOp::SlowNode(_, f) = op {
                if *f > 1 {
                    assert!((4..=6).contains(f));
                    degraded += 1;
                } else {
                    restored += 1;
                }
            }
        }
        assert!(degraded >= 1);
        assert_eq!(degraded, restored, "every slow-down must restore");
        // The flapper dies for real long enough for INV8 to bite, and the
        // final revive lands inside the window.
        let flap = mk(ScheduleShape::Flapping);
        let kills: Vec<u64> = flap
            .engine_ops
            .iter()
            .filter(|(_, op)| matches!(op, FaultOp::Kill(_)))
            .map(|&(t, _)| t)
            .collect();
        let revives: Vec<u64> = flap
            .engine_ops
            .iter()
            .filter(|(_, op)| matches!(op, FaultOp::Revive(_)))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(kills.len(), 4, "three flaps plus the real death");
        let last_kill = *kills.iter().max().unwrap();
        let last_revive = *revives.iter().max().unwrap();
        assert!(last_revive - last_kill > DETECT_BOUND_US + 2 * OBS_US);
        assert!(last_revive < flap.end_us);
    }

    #[test]
    fn a_slow_nodes_run_stays_green_with_no_false_evictions() {
        let cfg = ChaosConfig {
            seed: 2,
            shape: ScheduleShape::SlowNodes,
            technique: MigrationTechnique::Checkpoint,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
        assert!(out.makespan_us.is_some());
    }

    #[test]
    fn an_asym_links_run_stays_green() {
        let cfg = ChaosConfig {
            seed: 4,
            shape: ScheduleShape::AsymLinks,
            technique: MigrationTechnique::Recompile,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
    }

    #[test]
    fn a_flapping_run_is_damped_and_detected_in_bound() {
        let cfg = ChaosConfig {
            seed: 6,
            shape: ScheduleShape::Flapping,
            technique: MigrationTechnique::Checkpoint,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
    }

    #[test]
    fn a_leader_hunt_run_survives_targeted_kills() {
        let cfg = ChaosConfig {
            seed: 11,
            shape: ScheduleShape::LeaderHunt,
            technique: MigrationTechnique::Recompile,
            trace: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.green(), "violations: {:#?}", out.violations);
    }
}
