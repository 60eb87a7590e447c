#![forbid(unsafe_code)]
//! CLI entry point: lint the workspace, print diagnostics, exit nonzero on
//! any unwaived finding.
//!
//! Usage: `cargo run -p vce-lint [-- <root>] [--format text|json]`.
//!
//! `--format json` emits one machine-readable object for CI annotation:
//! `{"files_scanned": N, "findings": [{file, line, rule, msg, hint}, ..]}`.
//! The exit code is the same in both modes.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => {
                json = matches!(args.next().as_deref(), Some("json"));
            }
            "--format=json" => json = true,
            "--format=text" => json = false,
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(|| {
        // crates/lint/../.. == the workspace root, wherever the binary
        // was built from.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });
    let report = vce_lint::lint_workspace(&root);
    if json {
        println!("{}", to_json(&report));
    } else {
        for f in &report.findings {
            println!("{}:{}: {}: {} [{}]", f.file, f.line, f.rule, f.msg, f.hint);
        }
        if report.findings.is_empty() {
            println!("vce-lint: {} files clean", report.files_scanned);
        } else {
            println!(
                "vce-lint: {} finding(s) in {} files — fix, or waive with `// vce-lint: allow(RULE) reason`",
                report.findings.len(),
                report.files_scanned
            );
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON: the lint crate is dependency-free by design (it lints
/// the workspace that builds it), so no serde.
fn to_json(report: &vce_lint::Report) -> String {
    let mut s = String::with_capacity(256 + report.findings.len() * 160);
    s.push_str(&format!(
        "{{\"files_scanned\":{},\"findings\":[",
        report.files_scanned
    ));
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"msg\":{},\"hint\":{}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.msg),
            json_str(f.hint)
        ));
    }
    s.push_str("]}");
    s
}

fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
