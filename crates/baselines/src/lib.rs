#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-baselines — the schedulers §4.3–4.4 argues against
//!
//! The paper positions the VCE against the idle-workstation systems of its
//! day: Condor (Litzkow: checkpoint/migrate long batch jobs, homogeneous),
//! Stealth (Krueger: *suspend* remote work when the owner returns, resume
//! later — avoiding migration), Spawn (Waldspurger: a computational
//! economy), and DAWGS (Clark). Its central §4.4 claim is that suspension
//! is wrong for virtual-computer workloads: "If a virtual machine task is
//! suspended to allow execution of local tasks, initiation of other tasks
//! dependent on the output of the suspended task could be delayed. This
//! ripple effect could adversely affect system throughput."
//!
//! This crate implements those baselines behind one [`Policy`] trait, on a
//! deliberately simpler substrate than the full VCE protocol — a central
//! scheduler endpoint plus one worker agent per machine, the shape those
//! 1990s systems actually had. Experiments B1 (scheduler comparison) and
//! M2 (ripple effect) run identical workloads through each policy and
//! through the real VCE stack.
//!
//! Simplifications are documented per policy: Condor-style migration moves
//! exact remaining state (ideal checkpoints); Spawn's time-sliced
//! second-price auctions become funding-by-waiting lotteries at fixed
//! auction rounds; owner reclamation under Spawn kills and requeues (its
//! sponsored tasks lost their slice).

pub mod agent;
pub mod harness;
pub mod msg;
pub mod policy;
pub mod sched;
pub mod workload;

pub use harness::{run_baseline, BaselineReport};
pub use policy::{condor, random, roundrobin, spawn, stealth, vcelike, Action, Policy, SchedView};
pub use sched::SchedulerEndpoint;
pub use workload::{Job, JobId, Workload};
