#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-script — the application description language
//!
//! §5 of the paper drives the prototype scheduler/dispatcher with a script:
//!
//! ```text
//! ASYNC 2 "/apps/snow/collector.vce"
//! WORKSTATION 1 "/apps/snow/usercollect.vce"
//! SYNC 1 "/apps/snow/predictor.vce"
//! LOCAL "/apps/snow/display.vce"
//! ```
//!
//! and promises extensions: *"constructs like `ASYNC 5-` to indicate five or
//! less remote instances are required, `SYNC 5,10` to indicate between five
//! and 10 remote instances and so on. Conditional statements and statements
//! describing the communication requirements of the application will also
//! be added."* This crate implements the published syntax **and** those
//! promised extensions:
//!
//! * count ranges: `ASYNC 5-` (up to five), `SYNC 5,10` (five to ten);
//! * conditionals: `IF IDLE(WORKSTATION) >= 4 ... ELSE ... END`, over the
//!   runtime quantities `IDLE(class)` and `TOTAL(class)`;
//! * communication statements: `CONNECT "a" "b" 64` declares a 64 KiB/step
//!   channel between two named programs;
//! * `#` comments and blank lines.
//!
//! Targets may be problem-architecture classes (`ASYNC`, `SYNC`, `LSYNC`)
//! or machine classes (`WORKSTATION`, `SIMD`, `MIMD`, `VECTOR`) — the paper
//! mixes both in its example.
//!
//! ```
//! use vce_script::{parse, WEATHER_SCRIPT};
//! let script = parse(WEATHER_SCRIPT).unwrap();
//! assert_eq!(script.statements().len(), 4);
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{CmpOp, Cond, CountSpec, Script, Stmt, TargetClass, Var};
pub use error::{ErrorKind, ScriptError};
pub use eval::{evaluate, EvalEnv, Evaluated, LocalRun, PlacementRequest};
pub use parser::parse;
pub use pretty::pretty;

/// The exact weather-forecasting script from §5 of the paper.
pub const WEATHER_SCRIPT: &str = r#"ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
SYNC 1 "/apps/snow/predictor.vce"
LOCAL "/apps/snow/display.vce"
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weather_script_parses_to_four_statements() {
        let s = parse(WEATHER_SCRIPT).unwrap();
        assert_eq!(s.statements().len(), 4);
    }
}
