#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce — The Virtual Computing Environment
//!
//! A production-quality Rust reproduction of *The Virtual Computing
//! Environment* (Rousselle, Tymann, Hariri, Fox — Syracuse NPAC, HPDC
//! 1994): an early metacomputing system that assembles a *virtual
//! computer* from a heterogeneous network of machines, develops
//! applications as annotated task graphs, and schedules them with a
//! group-based bidding protocol built on Isis-style process groups.
//!
//! This crate is the facade tying the subsystem crates together:
//!
//! * [`Application`] — the Fig. 1 pipeline: problem specification (task
//!   graph or §5 application-description script) → design stage → coding
//!   level → compilation manager;
//! * [`VceBuilder`]/[`Vce`] — a virtual machine room: a simulated
//!   heterogeneous fleet running real VCE daemons (group membership,
//!   bidding, migration, fault tolerance) and executors, deterministic
//!   per seed;
//! * [`weather`] — the paper's worked example application.
//!
//! ```
//! use vce::prelude::*;
//!
//! // Five workstations and a SIMD machine.
//! let mut b = VceBuilder::new(42);
//! for i in 0..5 {
//!     b.machine(MachineInfo::workstation(NodeId(i), 100.0));
//! }
//! b.machine(
//!     MachineInfo::workstation(NodeId(5), 2000.0)
//!         .with_class(MachineClass::Simd)
//!         .with_mem_mb(512),
//! );
//! let mut vce = b.build();
//! vce.settle();
//!
//! // The paper's weather-forecasting script, end to end.
//! let app = Application::from_script("weather", vce_script::WEATHER_SCRIPT, vce.db()).unwrap();
//! let handle = vce.submit(app, NodeId(0));
//! let report = vce.run_until_done(&handle, 600_000_000);
//! assert!(report.completed, "weather app must finish");
//! ```

pub mod app;
pub mod cluster;
pub mod prelude;
pub mod report;
pub mod weather;

pub use app::{Application, PipelineError};
pub use cluster::{AppHandle, Vce, VceBuilder};
pub use report::RunReport;
