//! Inline waiver directives.
//!
//! Grammar (inside any comment):
//!
//! ```text
//! // vce-lint: allow(D002) iteration feeds a sort two lines down
//! // vce-lint: allow(D001,D004) the sweep harness times its own worker threads
//! ```
//!
//! A waiver on its own line suppresses the named rules on the next code
//! line; a trailing waiver (sharing a line with code) suppresses its own
//! line. The reason is mandatory: a reasonless or malformed directive is
//! itself a finding (W001), and a waiver that suppresses nothing is too
//! (W003) — waivers must pull their weight or leave the tree.
//!
//! Cross-file findings (P002–P004, D006) anchor at a line in some scanned
//! file — the const, the call site, the journal site — so the same
//! mechanics cover them; waivers apply after the cross-file pass.

use crate::lexer::Comment;

#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the directive appears on.
    pub line: u32,
    pub rules: Vec<String>,
    pub reason: String,
}

/// W001: directive present but unparseable or missing its reason.
/// (Unknown rule ids are validated against the rule table in `rules`.)
#[derive(Debug, Clone)]
pub struct WaiverIssue {
    pub line: u32,
    pub detail: String,
}

pub const MARKER: &str = "vce-lint:";

/// Extract waivers (and malformed-directive issues) from a comment stream.
/// Multi-line block comments are scanned per physical line. Doc comments
/// (`///`, `//!`, `/**`) are rendered documentation, not directives — they
/// are skipped so docs may quote waiver syntax verbatim.
pub fn parse_comments(comments: &[Comment]) -> (Vec<Waiver>, Vec<WaiverIssue>) {
    let mut waivers = Vec::new();
    let mut issues = Vec::new();
    for c in comments {
        let t = c.text.trim_start();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("/**")
            || t.starts_with("/*!")
        {
            continue;
        }
        for (off, text) in c.text.lines().enumerate() {
            let line = c.line + off as u32;
            let Some(pos) = text.find(MARKER) else {
                continue;
            };
            match parse_directive(&text[pos + MARKER.len()..]) {
                Ok((rules, reason)) => waivers.push(Waiver {
                    line,
                    rules,
                    reason,
                }),
                Err(detail) => issues.push(WaiverIssue { line, detail }),
            }
        }
    }
    (waivers, issues)
}

/// Parse the text after `vce-lint:`. Returns (rule ids, reason).
fn parse_directive(rest: &str) -> Result<(Vec<String>, String), String> {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(RULE[,RULE]) reason`".into());
    };
    let Some(close) = body.find(')') else {
        return Err("unclosed `allow(`".into());
    };
    let ids: Vec<String> = body[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    if ids.iter().any(String::is_empty) {
        return Err("empty rule id in `allow(...)`".into());
    }
    let reason = body[close + 1..].trim();
    if reason.is_empty() {
        return Err("waiver has no reason — say why the rule is safe to break here".into());
    }
    Ok((ids, reason.to_string()))
}
