#![forbid(unsafe_code)]
//! `vce-lint` — determinism & protocol-safety static analysis for the vce
//! workspace.
//!
//! The reproduction's load-bearing property is determinism: every number in
//! EXPERIMENTS.md is regenerated by one binary from committed seeds, and the
//! parallel sweep harness promises byte-identical-to-serial output. These
//! rules statically enforce what makes that true.
//!
//! Since PR 7 the linter is a **two-phase workspace analysis**: phase 1
//! walks every file once, building per-file fact registries ([`registry`]:
//! wire-tag consts, timer-token spaces, WAL record variants, function call
//! graphs, hash-typed fields); phase 2 checks rules that span files
//! ([`analysis`]). The per-line rules run between the phases with the
//! registry's workspace-global knowledge.
//!
//! | rule | forbids                                            |
//! |------|----------------------------------------------------|
//! | D001 | wall-clock time (`std::time::Instant`/`SystemTime`)|
//! | D002 | iteration over `HashMap`/`HashSet` (workspace-wide field knowledge) |
//! | D003 | unseeded RNGs (`thread_rng`, `rand::random`, ...)  |
//! | D004 | OS threads / `std::sync::mpsc`                     |
//! | D005 | priority queues without an insertion-order tie-break |
//! | D006 | calls that transitively reach wall-clock/entropy (interprocedural) |
//! | P001 | `unwrap`/`expect`/indexing in protocol handlers    |
//! | P002 | wire-tag registry violations (dup/dead tags, missing decode or handler arms) |
//! | P003 | timer-token space collisions within an endpoint namespace |
//! | P004 | WAL records journaled but not replayed (or vice versa) |
//! | S001 | shared mutable statics in sim-deterministic crates |
//! | S002 | sync primitives outside the sanctioned rendezvous module; `Relaxed`/`try_lock` inside it |
//!
//! D/S-rules apply to the sim-deterministic crates' `src/` trees, excluding
//! `#[cfg(test)]` items (tests of threaded components may block on real
//! threads). P001 applies to the message-handler files in
//! `isis` and `exm`; P002–P004 anchor at the registry/journal files they
//! check. Violations are suppressed line-by-line with
//! `// vce-lint: allow(RULE) reason` — the reason is mandatory, and stale
//! or malformed waivers are themselves findings (W001–W003). The full rule
//! catalog with examples lives in `docs/LINT.md`.

pub mod analysis;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod waiver;

pub use rules::{lint_files, lint_source, Finding};

use std::path::{Path, PathBuf};

/// Result of linting a tree: findings plus how much was scanned.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Lint every `crates/*/src/**/*.rs` under `root`, in sorted order, as one
/// workspace (cross-file rules see all registries at once). Unreadable
/// entries are skipped: the linter judges source, not the filesystem, and
/// CI's `cargo build` will complain about anything truly missing.
pub fn lint_workspace(root: &Path) -> Report {
    let mut files: Vec<(String, String)> = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        if src.is_dir() {
            collect_dir(root, &src, &mut files);
        }
    }
    let mut report = Report {
        files_scanned: files.len(),
        findings: lint_files(&files),
    };
    report.findings.sort();
    report
}

fn collect_dir(root: &Path, dir: &Path, files: &mut Vec<(String, String)>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_dir(root, &path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, src));
        }
    }
}
