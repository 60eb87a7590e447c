//! Rule definitions and the token-stream matchers behind them.
//!
//! Rules are deliberately heuristic: they match token shapes, not types.
//! A miss is acceptable (reviewers still exist); a false positive is
//! waivable inline with a written reason. What is *not* acceptable is a
//! silent nondeterminism source in a sim-deterministic crate, which is
//! exactly what each D-rule exists to keep out.

use crate::lexer::{lex, Lexed, Tok, Token};
use crate::registry::{FileFacts, FnDef};
use crate::waiver::{parse_comments, WaiverIssue};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose `src/` must stay sim-deterministic. `lint` polices itself.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "isis",
    "exm",
    "net",
    "sdm",
    "channels",
    "taskgraph",
    "script",
    "baselines",
    "workloads",
    "core",
    "lint",
    "storage",
];

/// Files whose message-handling paths must not panic on remote input.
pub const P001_FILES: &[&str] = &[
    "crates/isis/src/member.rs",
    "crates/exm/src/daemon.rs",
    "crates/exm/src/executor.rs",
    "crates/exm/src/policy.rs",
    "crates/exm/src/wal.rs",
    "crates/storage/src/lib.rs",
];

/// Crates whose `src/` trees are protocol hot paths for P005: every
/// message they encode rides the simulated (or live) wire, so a fresh
/// `Encoder::new()` there is a per-message heap allocation the pooled
/// encode path (`Host::encode_with`) exists to eliminate. `codec` itself
/// is exempt — it defines the encoder and its convenience wrappers.
pub const P005_CRATES: &[&str] = &["isis", "exm", "channels", "sdm", "baselines"];

/// Functions every bidding round runs once per bid (the bidder's `bid`,
/// the leader's `effective_bids_into`) or once per sweep (`serve_queue`).
/// Inside them P005 also rejects cloning a collection out of the
/// statuses — `.cloned().collect()` over the names, `.to_vec()` of the
/// bids — which costs an allocation per element per bid.
pub const P005_HOT_FNS: &[&str] = &["bid", "effective_bids_into", "serve_queue"];

/// Files allowed to hold cross-thread synchronization primitives (S002):
/// the sharded engine's rendezvous module, where the window barriers make
/// the sharing deterministic. Inside them S002 still rejects
/// `Ordering::Relaxed` and `try_lock` — every cross-shard access must be
/// a blocking, Release/Acquire-ordered rendezvous.
pub const S002_RENDEZVOUS_FILES: &[&str] = &["crates/sim/src/sharded.rs"];

pub const RULE_IDS: &[&str] = &[
    "D001", "D002", "D003", "D004", "D005", "D006", "P001", "P002", "P003", "P004", "P005", "S001",
    "S002", "W001", "W002", "W003",
];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
    pub hint: &'static str,
}

const HINT_D001: &str =
    "use sim time (Host::now_us); a harness timing itself is waivable with a reason";
const HINT_D002: &str =
    "switch to BTreeMap/BTreeSet, or waive with an order-insensitivity argument";
const HINT_D003: &str = "seed the RNG explicitly (e.g. SmallRng::seed_from_u64 from config)";
const HINT_D004: &str = "sim-deterministic code is single-threaded; threads live in vce-bench, the sharded engine or a test harness (waive)";
const HINT_D005: &str = "give the element a `seq` field assigned from a monotone insertion counter and include it in `Ord` (the `(at_us, seq)` contract), or waive with an ordering argument";
const HINT_D006: &str = "route time/randomness through the Host (sim time, seeded RNG) or break the call chain; harness plumbing is waivable with a reason";
const HINT_P001: &str = "remote input must not panic a node: drop/log or reply with an error, or waive with an invariant argument";
const HINT_P002: &str = "a wire tag must be unique, encoded once, decoded once, and its variant handled somewhere; fix the registry or waive with a protocol argument";
const HINT_P003: &str = "re-encode tokens as tag<<32|payload (docs/PROTOCOL.md token table) so id growth cannot bleed across token spaces";
const HINT_P004: &str = "replay the record in recover() or delete it; a diagnostic-only record is waivable with a reason";
const HINT_P005: &str = "encode through the pooled path (Host::encode_with) or pre-size a reused buffer (Encoder::with_capacity); on the bid path keep lists in wire form or in a reused scratch buffer; a genuinely cold path is waivable with a reason";
const HINT_S001: &str =
    "shard workers share no mutable statics; thread the state through Shard or the per-window plan";
const HINT_S002: &str = "cross-shard state belongs to the sanctioned rendezvous module, synchronized Release/Acquire at the window barriers";
const HINT_W001: &str = "write `// vce-lint: allow(RULE) reason`";
const HINT_W002: &str = "valid rules: D001-D006 P001-P005 S001 S002";
const HINT_W003: &str = "the waived line is clean — delete the waiver";

pub(crate) fn hint_of(rule: &str) -> &'static str {
    match rule {
        "D001" => HINT_D001,
        "D002" => HINT_D002,
        "D003" => HINT_D003,
        "D004" => HINT_D004,
        "D005" => HINT_D005,
        "D006" => HINT_D006,
        "P002" => HINT_P002,
        "P003" => HINT_P003,
        "P004" => HINT_P004,
        "P005" => HINT_P005,
        "S001" => HINT_S001,
        "S002" => HINT_S002,
        "W001" => HINT_W001,
        "W002" => HINT_W002,
        "W003" => HINT_W003,
        _ => HINT_P001,
    }
}

/// Lint one file's source. `relpath` is workspace-relative and drives
/// per-crate scoping (e.g. `crates/sim/src/engine.rs`). Single-file mode
/// runs the full pipeline over a one-file "workspace": cross-file rules
/// whose registries live entirely in this file (tag conformance,
/// intra-file token spaces) still apply.
pub fn lint_source(relpath: &str, src: &str) -> Vec<Finding> {
    lint_files(&[(relpath.to_string(), src.to_string())])
}

/// The two-phase pipeline over a set of files.
///
/// Phase 1 lexes each file once and builds its fact registry
/// ([`crate::registry`]); the per-line rules (D001–D005, P001, S001–S002)
/// then run per file, with D002's receiver knowledge widened by the
/// workspace-global hash-field set. Phase 2 runs the cross-file rules
/// ([`crate::analysis`]: P002–P004, D006) over all registries at once.
/// Only then are `#[cfg(test)]` exemptions and inline waivers applied, per
/// file — so a cross-file finding is waivable at the line it anchors to,
/// exactly like a per-line one.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    struct Prep {
        lexed: Lexed,
        exempt: Vec<(u32, u32)>,
    }
    let mut preps: Vec<Prep> = Vec::with_capacity(files.len());
    let mut facts: Vec<(String, FileFacts)> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let lexed = lex(src);
        let exempt = test_module_ranges(&lexed.tokens);
        facts.push((
            rel.clone(),
            crate::registry::collect(&lexed.tokens, &exempt),
        ));
        preps.push(Prep { lexed, exempt });
    }

    // Workspace-global hash-typed field names: a field declared
    // `HashMap`/`HashSet` in one file is hash-ordered wherever it is
    // iterated. Names also declared with a non-hash container anywhere
    // are ambiguous and vetoed.
    let mut global_hash: BTreeSet<String> = BTreeSet::new();
    for (_, f) in &facts {
        global_hash.extend(f.hash_fields.iter().cloned());
    }
    for (_, f) in &facts {
        for v in &f.nonhash_names {
            global_hash.remove(v);
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (((rel, _), p), (_, f)) in files.iter().zip(&preps).zip(&facts) {
        let in_scope = crate_of(rel).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
        if in_scope {
            check_d001(rel, &p.lexed.tokens, &mut findings);
            check_d002(rel, &p.lexed.tokens, &global_hash, &mut findings);
            check_d003(rel, &p.lexed.tokens, &mut findings);
            check_d004(rel, &p.lexed.tokens, &mut findings);
            check_d005(rel, &p.lexed.tokens, &mut findings);
            check_s001(rel, &p.lexed.tokens, &mut findings);
            check_s002(rel, &p.lexed.tokens, &mut findings);
        }
        if P001_FILES.contains(&rel.as_str()) {
            check_p001(rel, &p.lexed.tokens, &mut findings);
        }
        if crate_of(rel).is_some_and(|c| P005_CRATES.contains(&c)) {
            check_p005(rel, &p.lexed.tokens, &f.fns, &mut findings);
        }
    }
    crate::analysis::check_cross(&facts, &mut findings);

    let mut out: Vec<Finding> = Vec::new();
    for ((rel, _), p) in files.iter().zip(&preps) {
        let mut fs: Vec<Finding> = findings
            .iter()
            .filter(|f| &f.file == rel)
            .cloned()
            .collect();
        fs.retain(|f| !p.exempt.iter().any(|&(a, b)| f.line >= a && f.line <= b));
        fs.sort();
        fs.dedup();
        out.extend(apply_waivers(rel, &p.lexed, fs));
    }
    out.sort();
    out
}

/// Validate this file's waiver directives and apply them to its findings.
/// Runs after both phases so cross-file findings are waivable too.
fn apply_waivers(relpath: &str, lexed: &Lexed, mut findings: Vec<Finding>) -> Vec<Finding> {
    let (waivers, issues) = parse_comments(&lexed.comments);
    for WaiverIssue { line, detail } in issues {
        findings.push(Finding {
            file: relpath.into(),
            line,
            rule: "W001",
            msg: format!("malformed waiver: {detail}"),
            hint: HINT_W001,
        });
    }
    // Per-line code presence, for waiver targeting.
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    for w in &waivers {
        for r in &w.rules {
            if !RULE_IDS.contains(&r.as_str()) || r.starts_with('W') {
                findings.push(Finding {
                    file: relpath.into(),
                    line: w.line,
                    rule: "W002",
                    msg: format!("waiver names unknown rule `{r}`"),
                    hint: HINT_W002,
                });
            }
        }
    }
    // A waiver sharing its line with code guards that line; one on its own
    // line guards the next code line.
    let mut used: BTreeMap<usize, bool> = BTreeMap::new();
    for (wi, w) in waivers.iter().enumerate() {
        let target = if code_lines.contains(&w.line) {
            Some(w.line)
        } else {
            code_lines.range(w.line + 1..).next().copied()
        };
        used.insert(wi, false);
        if let Some(t) = target {
            let before = findings.len();
            findings.retain(|f| {
                !(f.line == t && w.rules.iter().any(|r| r == f.rule) && !f.rule.starts_with('W'))
            });
            if findings.len() != before {
                used.insert(wi, true);
            }
        }
    }
    for (wi, w) in waivers.iter().enumerate() {
        let fine = w
            .rules
            .iter()
            .all(|r| RULE_IDS.contains(&r.as_str()) && !r.starts_with('W'));
        if fine && !used[&wi] {
            findings.push(Finding {
                file: relpath.into(),
                line: w.line,
                rule: "W003",
                msg: format!("unused waiver for {}", w.rules.join(",")),
                hint: HINT_W003,
            });
        }
    }
    findings.sort();
    findings
}

/// `crates/<name>/src/...` → `<name>`.
pub(crate) fn crate_of(relpath: &str) -> Option<&str> {
    let mut parts = relpath.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    let name = parts.next()?;
    if parts.next() != Some("src") {
        return None;
    }
    Some(name)
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// Does `toks[i..]` start with the given idents separated by `::`?
fn path_at(toks: &[Token], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for (k, seg) in segs.iter().enumerate() {
        if ident(toks.get(j).unwrap_or(&NIL)) != Some(seg) {
            return false;
        }
        j += 1;
        if k + 1 < segs.len() {
            if !(is_punct(toks.get(j).unwrap_or(&NIL), ':')
                && is_punct(toks.get(j + 1).unwrap_or(&NIL), ':'))
            {
                return false;
            }
            j += 2;
        }
    }
    true
}

static NIL: Token = Token {
    tok: Tok::Punct('\0'),
    line: 0,
};

/// Line ranges (inclusive) covered by `#[cfg(test)]` items. Rules do not
/// apply inside test modules: tests of the live (threaded, wall-clock)
/// components are wall-clock by nature, and test-local ordering cannot leak
/// into experiment output.
fn test_module_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // `# [ ... ]` attribute?
        if !(is_punct(&toks[i], '#') && toks.get(i + 1).is_some_and(|t| is_punct(t, '['))) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        // Find the matching `]`, remembering whether `cfg` and `test`
        // both appear inside (covers `cfg(test)` and `cfg(all(test, ..))`).
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if s == "cfg" => saw_cfg = true,
                Tok::Ident(s) if s == "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then swallow the annotated item:
        // up to `;` (use/extern) or through its brace-matched body.
        let mut k = j + 1;
        while k < toks.len() && is_punct(&toks[k], '#') {
            let mut d = 0usize;
            k += 1;
            while k < toks.len() {
                if is_punct(&toks[k], '[') {
                    d += 1;
                } else if is_punct(&toks[k], ']') {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        let mut end_line = attr_start_line;
        let mut brace = 0usize;
        while k < toks.len() {
            if is_punct(&toks[k], '{') {
                brace += 1;
            } else if is_punct(&toks[k], '}') {
                if brace <= 1 {
                    end_line = toks[k].line;
                    break;
                }
                brace -= 1;
            } else if is_punct(&toks[k], ';') && brace == 0 {
                end_line = toks[k].line;
                break;
            }
            k += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = k + 1;
    }
    ranges
}

fn push(findings: &mut Vec<Finding>, file: &str, line: u32, rule: &'static str, msg: String) {
    findings.push(Finding {
        file: file.into(),
        line,
        rule,
        msg,
        hint: hint_of(rule),
    });
}

/// D001: no wall-clock time. Flags `use std::time::{..}` items importing
/// `Instant`/`SystemTime`, fully-qualified `std::time::Instant` paths, and
/// `Instant::now()` / `SystemTime::now()` construction sites. Bare type
/// mentions (struct fields) ride on their import's waiver.
fn check_d001(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) == Some("use") && path_at(toks, i + 1, &["std", "time"]) {
            // Scan the use-item for the forbidden names.
            let mut j = i + 1;
            while j < toks.len() && !is_punct(&toks[j], ';') {
                if let Some(name @ ("Instant" | "SystemTime")) = ident(&toks[j]) {
                    push(
                        findings,
                        file,
                        toks[j].line,
                        "D001",
                        format!(
                            "imports wall-clock `std::time::{name}` in a sim-deterministic crate"
                        ),
                    );
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if path_at(toks, i, &["std", "time"]) {
            // The segment after `std::time::` sits past the two colons.
            if let Some(name @ ("Instant" | "SystemTime")) =
                (is_punct(toks.get(i + 4).unwrap_or(&NIL), ':')
                    && is_punct(toks.get(i + 5).unwrap_or(&NIL), ':'))
                .then(|| ident(toks.get(i + 6).unwrap_or(&NIL)))
                .flatten()
            {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "D001",
                    format!("uses wall-clock `std::time::{name}`"),
                );
                i += 7;
                continue;
            }
        }
        if let Some(name @ ("Instant" | "SystemTime")) = ident(&toks[i]) {
            if is_punct(toks.get(i + 1).unwrap_or(&NIL), ':')
                && is_punct(toks.get(i + 2).unwrap_or(&NIL), ':')
                && ident(toks.get(i + 3).unwrap_or(&NIL)) == Some("now")
                && !preceded_by_path(toks, i)
            {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "D001",
                    format!("reads the wall clock via `{name}::now()`"),
                );
            }
        }
        i += 1;
    }
}

/// True when `toks[i]` is itself a path segment (preceded by `::`), so the
/// qualified-path matcher already judged it.
fn preceded_by_path(toks: &[Token], i: usize) -> bool {
    i >= 2 && is_punct(&toks[i - 1], ':') && is_punct(&toks[i - 2], ':')
}

/// Methods whose results expose hash-table ordering.
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// D002: no iteration over `HashMap`/`HashSet`. Two passes: learn which
/// names in this file are hash-typed (field/param/let declarations and
/// `type` aliases), then flag order-exposing method calls and `for` loops
/// over those names. `global_hash` carries hash-typed *field* names from
/// the whole workspace, so `self.table` iterated two files away from its
/// struct definition is still caught (the PR-7 D002 gap).
fn check_d002(
    file: &str,
    toks: &[Token],
    global_hash: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let mut hash_names: BTreeSet<String> = global_hash.clone();
    let mut hash_types: BTreeSet<String> = BTreeSet::new();
    hash_types.insert("HashMap".into());
    hash_types.insert("HashSet".into());

    // Aliases first: `type X = HashMap<..>` anywhere in the file.
    for i in 0..toks.len() {
        if ident(&toks[i]) == Some("type")
            && ident(toks.get(i + 1).unwrap_or(&NIL)).is_some()
            && is_punct(toks.get(i + 2).unwrap_or(&NIL), '=')
        {
            let mut j = i + 3;
            // Skip a path prefix (`std :: collections ::`).
            while j < toks.len() && !is_punct(&toks[j], ';') {
                if let Some(s) = ident(&toks[j]) {
                    if s == "HashMap" || s == "HashSet" {
                        hash_types.insert(ident(&toks[i + 1]).unwrap().to_string());
                        break;
                    }
                }
                j += 1;
            }
        }
    }
    // Declarations: `name : [&] [mut] [path ::] HashType [<..]`.
    for i in 0..toks.len() {
        let Some(t) = ident(&toks[i]) else { continue };
        if !hash_types.contains(t) {
            continue;
        }
        // Walk back over a path prefix and `&`/`mut`/lifetime noise to the
        // `:` that binds a name.
        let mut j = i;
        while j >= 2 && is_punct(&toks[j - 1], ':') && is_punct(&toks[j - 2], ':') {
            if ident(&toks[j - 3]).is_some() {
                j -= 3;
            } else {
                break;
            }
        }
        let mut k = j;
        while k >= 1 {
            match &toks[k - 1].tok {
                Tok::Punct('&') | Tok::Lifetime => k -= 1,
                Tok::Ident(s) if s == "mut" => k -= 1,
                _ => break,
            }
        }
        if k >= 2 && is_punct(&toks[k - 1], ':') && !is_punct(&toks[k - 2], ':') {
            if let Some(name) = ident(&toks[k - 2]) {
                hash_names.insert(name.to_string());
            }
        }
        // `let [mut] name = HashType :: new(..)` without annotation.
        if is_punct(toks.get(i.wrapping_sub(1)).unwrap_or(&NIL), '=') {
            let b = i - 1;
            if b >= 2
                && ident(&toks[b - 1]).is_some()
                && ident(&toks[b - 2]).is_some_and(|s| s == "let" || s == "mut")
            {
                hash_names.insert(ident(&toks[b - 1]).unwrap().to_string());
            }
        }
    }

    // Findings: `name.order_method(` …
    for i in 2..toks.len() {
        let Some(m) = ident(&toks[i]) else { continue };
        if !ORDER_METHODS.contains(&m) {
            continue;
        }
        if !is_punct(&toks[i - 1], '.') || !is_punct(toks.get(i + 1).unwrap_or(&NIL), '(') {
            continue;
        }
        if let Some(recv) = ident(&toks[i - 2]) {
            if hash_names.contains(recv) {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "D002",
                    format!("iterates hash-ordered `{recv}` via `.{m}()`"),
                );
            }
        }
    }
    // … and `for pat in [&][mut] [self.]name {`.
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) != Some("for") {
            i += 1;
            continue;
        }
        // Find `in` at bracket depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth -= 1,
                Tok::Ident(s) if s == "in" && depth == 0 => break,
                Tok::Punct('{') => break, // not a loop header
                _ => {}
            }
            j += 1;
        }
        if ident(toks.get(j).unwrap_or(&NIL)) != Some("in") {
            i = j;
            continue;
        }
        // Collect the iterated expression up to the loop `{`.
        let mut k = j + 1;
        let mut simple = true;
        let mut last_ident: Option<&str> = None;
        while k < toks.len() && !is_punct(&toks[k], '{') {
            match &toks[k].tok {
                Tok::Ident(s) if s == "mut" || s == "self" => last_ident = None,
                Tok::Ident(s) => last_ident = Some(s.as_str()),
                Tok::Punct('&' | '.') => {}
                _ => simple = false,
            }
            k += 1;
        }
        if simple {
            if let Some(name) = last_ident {
                if hash_names.contains(name) {
                    push(
                        findings,
                        file,
                        toks[j].line,
                        "D002",
                        format!("`for` loop iterates hash-ordered `{name}`"),
                    );
                }
            }
        }
        i = k;
    }
}

/// D003: RNGs must be seeded.
fn check_d003(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        match ident(&toks[i]) {
            Some("thread_rng") => push(
                findings,
                file,
                toks[i].line,
                "D003",
                "uses `thread_rng()` — OS-entropy RNG is unseeded".into(),
            ),
            Some("from_entropy") => push(
                findings,
                file,
                toks[i].line,
                "D003",
                "seeds an RNG from OS entropy (`from_entropy`)".into(),
            ),
            Some("rand") if path_at(toks, i, &["rand", "random"]) => push(
                findings,
                file,
                toks[i].line,
                "D003",
                "uses `rand::random()` — implicitly thread-local RNG".into(),
            ),
            _ => {}
        }
    }
}

/// D004: no OS threads or mpsc channels in sim-deterministic code.
fn check_d004(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    let mut thread_imported = false;
    for i in 0..toks.len() {
        if ident(&toks[i]) == Some("use") && path_at(toks, i + 1, &["std", "thread"]) {
            thread_imported = true;
        }
        if path_at(toks, i, &["std", "thread"]) && !preceded_by_path(toks, i) {
            push(
                findings,
                file,
                toks[i].line,
                "D004",
                "uses `std::thread` in a sim-deterministic crate".into(),
            );
        }
        if path_at(toks, i, &["std", "sync", "mpsc"]) && !preceded_by_path(toks, i) {
            push(
                findings,
                file,
                toks[i].line,
                "D004",
                "uses `std::sync::mpsc` in a sim-deterministic crate".into(),
            );
        }
        if thread_imported && path_at(toks, i, &["thread", "spawn"]) && !preceded_by_path(toks, i) {
            push(
                findings,
                file,
                toks[i].line,
                "D004",
                "spawns an OS thread (`thread::spawn`)".into(),
            );
        }
    }
}

/// Idents that are wrapper/path noise around a heap's element type, not
/// the element itself.
const D005_SKIP: &[&str] = &[
    "Reverse",
    "std",
    "core",
    "cmp",
    "collections",
    "Box",
    "Rc",
    "Arc",
];

/// D005: ad-hoc priority queues must carry an insertion-order tie-break.
/// The event-core contract is that heap pop order is a *total* order —
/// `(at_us, seq)` with `seq` a monotone insertion counter — because
/// same-key ties otherwise pop in heap-internal (layout-dependent) order,
/// which is invisible until a refactor reshuffles sift paths and every
/// golden trace shifts. Heuristic: a `BinaryHeap<..>` element in a
/// sim-deterministic crate should be a struct defined in the same file
/// with a `seq`-named field; heaps of tuples, primitives or foreign types
/// cannot be verified and are flagged for an explicit waiver.
fn check_d005(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    // Pass 1: structs defined in this file, and which of them have a field
    // whose name contains `seq`.
    let mut all_structs: BTreeSet<&str> = BTreeSet::new();
    let mut seq_structs: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("struct") {
            continue;
        }
        let Some(name) = ident(toks.get(i + 1).unwrap_or(&NIL)) else {
            continue;
        };
        all_structs.insert(name);
        // Walk past generics to the field block; `struct X;` / tuple
        // structs have no named fields and never qualify.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            if is_punct(&toks[j], '<') {
                angle += 1;
            } else if is_punct(&toks[j], '>') {
                angle -= 1;
            } else if angle == 0 && (is_punct(&toks[j], ';') || is_punct(&toks[j], '(')) {
                break;
            } else if angle == 0 && is_punct(&toks[j], '{') {
                // Field block: look for `<ident containing seq> :` (and not
                // `::`, which would be a path, not a field type binding).
                let mut depth = 1i32;
                let mut k = j + 1;
                while k < toks.len() && depth > 0 {
                    if is_punct(&toks[k], '{') {
                        depth += 1;
                    } else if is_punct(&toks[k], '}') {
                        depth -= 1;
                    } else if depth == 1 {
                        if let Some(f) = ident(&toks[k]) {
                            if f.contains("seq")
                                && is_punct(toks.get(k + 1).unwrap_or(&NIL), ':')
                                && !is_punct(toks.get(k + 2).unwrap_or(&NIL), ':')
                            {
                                seq_structs.insert(name);
                            }
                        }
                    }
                    k += 1;
                }
                break;
            }
            j += 1;
        }
    }

    // Pass 2: typed `BinaryHeap<..>` mentions (incl. turbofish).
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) != Some("BinaryHeap") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut g = i + 1;
        if is_punct(toks.get(g).unwrap_or(&NIL), ':')
            && is_punct(toks.get(g + 1).unwrap_or(&NIL), ':')
        {
            g += 2; // turbofish `BinaryHeap::<..>`
        }
        if !is_punct(toks.get(g).unwrap_or(&NIL), '<') {
            i += 1;
            continue; // bare mention (`use`, `BinaryHeap::new()`): no type info
        }
        // First non-wrapper ident inside the generic args is the element.
        let mut depth = 1i32;
        let mut j = g + 1;
        let mut elem: Option<&str> = None;
        while j < toks.len() && depth > 0 {
            if is_punct(&toks[j], '<') {
                depth += 1;
            } else if is_punct(&toks[j], '>') {
                depth -= 1;
            } else if elem.is_none() {
                if let Some(s) = ident(&toks[j]) {
                    if !D005_SKIP.contains(&s) {
                        elem = Some(s);
                    }
                }
            }
            j += 1;
        }
        match elem {
            Some(e) if seq_structs.contains(e) => {}
            Some(e) if all_structs.contains(e) => push(
                findings,
                file,
                line,
                "D005",
                format!(
                    "priority-queue element `{e}` has no insertion-seq field: \
                     same-key ties pop in heap-internal order"
                ),
            ),
            Some(e) => push(
                findings,
                file,
                line,
                "D005",
                format!(
                    "cannot verify the insertion-order tie-break for \
                     `BinaryHeap` element `{e}` (not defined in this file)"
                ),
            ),
            None => push(
                findings,
                file,
                line,
                "D005",
                "`BinaryHeap` of primitives/tuples has no insertion-order tie-break".into(),
            ),
        }
        i = j;
    }
}

/// Types whose presence in a `static` means shared mutable state.
const S001_INTERIOR_MUT: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "Cell",
    "RefCell",
    "UnsafeCell",
];

/// S001: no shared mutable statics in sim-deterministic crates. A
/// `static mut`, a `thread_local!`, or a `static` of an interior-mutable
/// type is process-global state: shard workers would observe each other's
/// writes in thread-timing order, outside the window rendezvous that makes
/// the sharded runner deterministic.
fn check_s001(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        match ident(&toks[i]) {
            Some("thread_local") if is_punct(toks.get(i + 1).unwrap_or(&NIL), '!') => {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "S001",
                    "`thread_local!` state diverges across shard workers".into(),
                );
            }
            Some("static") => {
                if ident(toks.get(i + 1).unwrap_or(&NIL)) == Some("mut") {
                    push(
                        findings,
                        file,
                        toks[i].line,
                        "S001",
                        "`static mut` is shared mutable state across shard workers".into(),
                    );
                    continue;
                }
                // `static NAME : TYPE = ..;` — scan the type for an
                // interior-mutable head (atomics included).
                if ident(toks.get(i + 1).unwrap_or(&NIL)).is_none()
                    || !is_punct(toks.get(i + 2).unwrap_or(&NIL), ':')
                {
                    continue;
                }
                let mut j = i + 3;
                let mut depth = 0i32;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('<' | '[' | '(') => depth += 1,
                        Tok::Punct('>' | ']' | ')') => depth -= 1,
                        Tok::Punct('=' | ';') if depth <= 0 => break,
                        Tok::Ident(t)
                            if S001_INTERIOR_MUT.contains(&t.as_str())
                                || t.starts_with("Atomic") =>
                        {
                            push(
                                findings,
                                file,
                                toks[i].line,
                                "S001",
                                format!(
                                    "interior-mutable `static` (`{t}`) is shared mutable \
                                     state across shard workers"
                                ),
                            );
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

/// `std::sync` items that mean cross-thread synchronization (Arc and Weak
/// are immutable sharing and stay legal; mpsc is D004's).
const S002_SYNC_PRIMS: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "LazyLock", "atomic",
];

/// S002: cross-thread synchronization primitives are confined to the
/// sanctioned rendezvous module(s). Flagged at the point the name enters
/// scope — the `use std::sync::..` item or a fully-qualified path — so a
/// file outside the rendezvous list needs one reasoned waiver per import,
/// mirroring D004's treatment of `use std::thread`. Inside a rendezvous
/// file the rule instead polices the access discipline: `Ordering::Relaxed`
/// and `try_lock` are non-rendezvous accesses (unordered, or racing past
/// a barrier) and are flagged per site.
fn check_s002(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    let rendezvous = S002_RENDEZVOUS_FILES.contains(&file);
    let mut i = 0usize;
    while i < toks.len() {
        if rendezvous {
            if path_at(toks, i, &["Ordering", "Relaxed"]) && !preceded_by_path(toks, i) {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "S002",
                    "`Ordering::Relaxed` in the rendezvous module: cross-shard state must \
                     publish Release/Acquire at the window barriers"
                        .into(),
                );
            }
            if ident(&toks[i]) == Some("try_lock")
                && i >= 1
                && is_punct(&toks[i - 1], '.')
                && is_punct(toks.get(i + 1).unwrap_or(&NIL), '(')
            {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "S002",
                    "`try_lock` races the window rendezvous: lock blocking or restructure \
                     so the access happens between barriers"
                        .into(),
                );
            }
            i += 1;
            continue;
        }
        if path_at(toks, i, &["std", "sync"]) && !preceded_by_path(toks, i) {
            // Collect the names this item brings in: to `;` for a `use`
            // item, else along the `::` path chain.
            let is_use = i >= 1 && ident(&toks[i - 1]) == Some("use");
            let mut names: Vec<&str> = Vec::new();
            let mut j = i + 3; // at the `sync` segment
            if is_use {
                j += 1;
                while j < toks.len() && !is_punct(&toks[j], ';') {
                    if let Some(n) = ident(&toks[j]) {
                        names.push(n);
                    }
                    j += 1;
                }
            } else {
                // Follow the `:: Name` chain of a qualified path.
                while is_punct(toks.get(j + 1).unwrap_or(&NIL), ':')
                    && is_punct(toks.get(j + 2).unwrap_or(&NIL), ':')
                {
                    if let Some(n) = ident(toks.get(j + 3).unwrap_or(&NIL)) {
                        names.push(n);
                        j += 3;
                    } else {
                        break;
                    }
                }
            }
            let prims: Vec<&str> = names
                .iter()
                .copied()
                .filter(|n| S002_SYNC_PRIMS.contains(n) || n.starts_with("Atomic"))
                .collect();
            if !prims.is_empty() {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "S002",
                    format!(
                        "brings cross-thread synchronization (`{}`) into a \
                         sim-deterministic crate outside the sanctioned rendezvous module",
                        prims.join("`, `")
                    ),
                );
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// P005: no fresh `Encoder::new()` on protocol paths. The pooled encode
/// path exists precisely so a steady-state protocol round performs zero
/// transient heap allocations; one forgotten `Encoder::new()` in a
/// handler silently reintroduces a per-message malloc that no test
/// notices until the allocation-gate benchmark regresses. Matches
/// `Encoder::new(` and `vce_codec::Encoder::new(` call sites; sized
/// construction (`with_capacity`, reused across calls) is deliberate and
/// allowed. Test modules are exempt via the shared `#[cfg(test)]` pass.
///
/// Inside the bid path's own functions ([`P005_HOT_FNS`]) the same rule
/// covers the other way a round used to allocate per bid: a collection
/// cloned out of the statuses.
fn check_p005(file: &str, toks: &[Token], fns: &[FnDef], findings: &mut Vec<Finding>) {
    let hot = |line: u32| {
        fns.iter().any(|f| {
            P005_HOT_FNS.contains(&f.name.as_str()) && f.line <= line && line <= f.end_line
        })
    };
    for i in 0..toks.len() {
        let method = |at: usize, name: &str| {
            is_punct(toks.get(at).unwrap_or(&NIL), '.')
                && ident(toks.get(at + 1).unwrap_or(&NIL)) == Some(name)
                && is_punct(toks.get(at + 2).unwrap_or(&NIL), '(')
        };
        // `.cloned().collect(` / `.to_vec(` — each method is `. name ( )`.
        let cloned = if method(i, "cloned") && method(i + 4, "collect") {
            Some(".cloned().collect()")
        } else if method(i, "to_vec") {
            Some(".to_vec()")
        } else {
            None
        };
        if let Some(what) = cloned.filter(|_| hot(toks[i].line)) {
            push(
                findings,
                file,
                toks[i].line,
                "P005",
                format!("clones a collection (`{what}`) on the bid path"),
            );
        }
        if ident(&toks[i]) != Some("Encoder") || !path_at(toks, i, &["Encoder", "new"]) {
            continue;
        }
        // `Encoder :: new (` — the `(` sits past the two colons and `new`.
        if is_punct(toks.get(i + 4).unwrap_or(&NIL), '(') {
            push(
                findings,
                file,
                toks[i].line,
                "P005",
                "allocates a fresh `Encoder` on a protocol path".into(),
            );
        }
    }
}

/// P001: no `unwrap()`/`expect()`/indexing in protocol message handlers —
/// scoped to the handler files; remote bytes reach every path in them.
fn check_p001(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if let Some(m @ ("unwrap" | "expect")) = ident(&toks[i]) {
            if i >= 1
                && is_punct(&toks[i - 1], '.')
                && is_punct(toks.get(i + 1).unwrap_or(&NIL), '(')
            {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "P001",
                    format!("`.{m}()` can panic a node on remote input"),
                );
            }
        }
        if is_punct(&toks[i], '[') && i >= 1 {
            // Indexing = `[` directly after a value (identifier or closing
            // bracket). `vec![` has a `!` before it; `#[`, `: [u8; 4]` and
            // slice patterns have punctuation — none of those match.
            let panics = match &toks[i - 1].tok {
                Tok::Ident(s) => !matches!(s.as_str(), "mut" | "in" | "dyn" | "where"),
                Tok::Punct(')') | Tok::Punct(']') => true,
                _ => false,
            };
            if panics {
                push(
                    findings,
                    file,
                    toks[i].line,
                    "P001",
                    "indexing can panic a node on remote input".into(),
                );
            }
        }
    }
}
