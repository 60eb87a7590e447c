//! Golden-file tests for every vce-lint rule: a known-bad snippet that must
//! fire (positive), a near-miss that must not (negative), and a waived copy
//! that must be suppressed — plus the waiver grammar's own failure modes and
//! a self-test that the shipped workspace is clean.

use vce_lint::{lint_source, Finding};

/// Path inside a determinism-scoped crate; engages D001–D004.
const SIM: &str = "crates/sim/src/fake.rs";
/// Path on the protocol-handler list; engages P001 as well.
const P001: &str = "crates/isis/src/member.rs";
/// Path outside every scoped crate; no rules apply.
const UNSCOPED: &str = "crates/viz/src/fake.rs";

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn assert_fires(path: &str, src: &str, rule: &str) {
    let findings = lint_source(path, src);
    assert!(
        rules_fired(&findings).contains(&rule),
        "expected {rule} on {path}, got {findings:?}"
    );
}

fn assert_clean(path: &str, src: &str) {
    let findings = lint_source(path, src);
    assert!(findings.is_empty(), "expected clean, got {findings:?}");
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_flags_wall_clock_types() {
    assert_fires(SIM, "use std::time::Instant;\n", "D001");
    assert_fires(
        SIM,
        "fn f() { let t = std::time::SystemTime::now(); }\n",
        "D001",
    );
    assert_fires(SIM, "use std::time::{Duration, Instant};\n", "D001");
}

#[test]
fn d001_ignores_duration_and_unscoped_crates() {
    // Duration is a plain value type: fine everywhere.
    assert_clean(SIM, "use std::time::Duration;\n");
    // Wall-clock reads are fine outside the deterministic crates.
    assert_clean(UNSCOPED, "use std::time::Instant;\n");
}

#[test]
fn d001_waived_is_suppressed() {
    assert_clean(
        SIM,
        "// vce-lint: allow(D001) bench harness is wall-clock by design\n\
         use std::time::Instant;\n",
    );
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_flags_hash_map_iteration() {
    let src = "\
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
impl S {
    fn f(&self) {
        for (k, v) in &self.m { drop((k, v)); }
    }
}
";
    assert_fires(SIM, src, "D002");
    // Method-call form on a local binding.
    let src = "\
use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    for k in m.keys() { drop(k); }
}
";
    assert_fires(SIM, src, "D002");
}

#[test]
fn d002_ignores_lookups_and_btree_iteration() {
    // Point lookups on a HashMap are order-free.
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }
";
    assert_clean(SIM, src);
    // BTreeMap iteration is deterministic.
    let src = "\
use std::collections::BTreeMap;
fn f(m: &BTreeMap<u32, u32>) { for k in m.keys() { drop(k); } }
";
    assert_clean(SIM, src);
}

#[test]
fn d002_waived_is_suppressed() {
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u32 {
    // vce-lint: allow(D002) order-insensitive: summing is commutative
    m.values().sum()
}
";
    assert_clean(SIM, src);
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_flags_ambient_randomness() {
    assert_fires(SIM, "fn f() { let r = rand::thread_rng(); }\n", "D003");
    assert_fires(SIM, "fn f() -> u64 { rand::random() }\n", "D003");
}

#[test]
fn d003_ignores_seeded_rng_names() {
    // Explicitly seeded generators are the sanctioned path.
    assert_clean(
        SIM,
        "fn f(seed: u64) { let rng = SmallRng::seed_from_u64(seed); }\n",
    );
}

#[test]
fn d003_waived_is_suppressed() {
    assert_clean(
        SIM,
        "// vce-lint: allow(D003) jitter for a non-replayed backoff path\n\
         fn f() -> u64 { rand::random() }\n",
    );
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_flags_threads_and_mpsc() {
    assert_fires(SIM, "fn f() { std::thread::spawn(|| {}); }\n", "D004");
    assert_fires(SIM, "use std::sync::mpsc;\n", "D004");
}

#[test]
fn d004_allows_threads_in_bench_and_tests() {
    // The bench crate is off the deterministic list entirely.
    assert_clean(
        "crates/bench/src/lib.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    // #[cfg(test)] modules are exempt from every rule.
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { std::thread::spawn(|| {}).join().unwrap(); }
}
";
    assert_clean(SIM, src);
}

#[test]
fn d004_waived_is_suppressed() {
    assert_clean(
        SIM,
        "// vce-lint: allow(D004) one OS thread per rank in the MPI harness\n\
         fn f() { std::thread::spawn(|| {}); }\n",
    );
}

/// The sharded window runner's exact shape: one trailing waiver on the
/// `use std::thread;` line covers the module's scoped-thread usage
/// (`thread::scope` / `scope.spawn` are not import sites, so the single
/// reasoned waiver is the only one the module needs).
#[test]
fn d004_sharded_runner_waiver_shape() {
    let waived = "\
use std::thread; // vce-lint: allow(D004) conservative barriers keep the run deterministic

fn run() {
    thread::scope(|scope| {
        scope.spawn(move || {});
    });
}
";
    assert_clean(SIM, waived);
    // The same module without the waiver must fire on the import line.
    let unwaived = "\
use std::thread;

fn run() {
    thread::scope(|scope| {
        scope.spawn(move || {});
    });
}
";
    assert_fires(SIM, unwaived, "D004");
}

// ---------------------------------------------------------------- D005

#[test]
fn d005_flags_heap_element_without_seq_field() {
    let src = "\
use std::collections::BinaryHeap;
struct Ev { at_us: u64 }
struct Q { heap: BinaryHeap<Ev> }
";
    assert_fires(SIM, src, "D005");
    // Wrapped in Reverse<..> is still the same element.
    let src = "\
use std::cmp::Reverse;
use std::collections::BinaryHeap;
struct Ev { at_us: u64 }
fn f() { let h: BinaryHeap<Reverse<Ev>> = BinaryHeap::new(); drop(h); }
";
    assert_fires(SIM, src, "D005");
    // Tuples / foreign element types cannot be verified: flagged too.
    assert_fires(
        SIM,
        "fn f() { let h: std::collections::BinaryHeap<(u64, u64)> = Default::default(); drop(h); }\n",
        "D005",
    );
}

#[test]
fn d005_accepts_seq_tie_break_and_unscoped_crates() {
    // The `(at_us, seq)` contract: element carries an insertion counter.
    let src = "\
use std::cmp::Reverse;
use std::collections::BinaryHeap;
struct Deadline { at_us: u64, seq: u64 }
struct Q { heap: BinaryHeap<Reverse<Deadline>> }
";
    assert_clean(SIM, src);
    // A `seq`-ish name (e.g. `push_seq`) also satisfies the contract.
    let src = "\
use std::collections::BinaryHeap;
struct Ev { at_us: u64, push_seq: u64 }
struct Q { heap: BinaryHeap<Ev> }
";
    assert_clean(SIM, src);
    // Outside the deterministic crates, heaps are unconstrained.
    assert_clean(
        "crates/bench/src/lib.rs",
        "struct Ev { at_us: u64 }\nstruct Q { h: std::collections::BinaryHeap<Ev> }\n",
    );
    // Bare mentions (imports, `new()` without a typed binding) say nothing
    // about the element and are not flagged.
    assert_clean(SIM, "use std::collections::BinaryHeap;\n");
}

#[test]
fn d005_waived_is_suppressed() {
    assert_clean(
        SIM,
        "struct Ev { at_us: u64 }\n\
         // vce-lint: allow(D005) ties impossible: at_us strictly monotone by construction\n\
         struct Q { heap: std::collections::BinaryHeap<Ev> }\n",
    );
}

// ---------------------------------------------------------------- P001

#[test]
fn p001_flags_panics_in_protocol_files() {
    assert_fires(P001, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n", "P001");
    assert_fires(
        P001,
        "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }\n",
        "P001",
    );
    assert_fires(P001, "fn f(v: &[u32]) -> u32 { v[0] }\n", "P001");
}

#[test]
fn p001_scoped_to_listed_files_only() {
    // Same code in a deterministic — but non-protocol — file is fine.
    assert_clean(SIM, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
}

#[test]
fn p001_ignores_non_indexing_brackets() {
    // Attribute/macro/type brackets are not indexing expressions.
    assert_clean(P001, "fn f() -> Vec<u32> { vec![1, 2, 3] }\n");
    assert_clean(P001, "fn f(v: &mut [u32]) -> usize { v.len() }\n");
}

#[test]
fn p001_waived_is_suppressed() {
    assert_clean(
        P001,
        "fn f(x: Option<u32>) -> u32 {\n\
         // vce-lint: allow(P001) x is produced two lines up, never remote\n\
         x.unwrap()\n\
         }\n",
    );
}

// ---------------------------------------------------------------- P005

#[test]
fn p005_flags_fresh_encoder_in_protocol_crates() {
    assert_fires(
        P001, // isis/member.rs — a P005-scoped crate too
        "fn send(host: &mut dyn Host) { let mut e = Encoder::new(); }\n",
        "P005",
    );
    assert_fires(
        "crates/exm/src/daemon.rs",
        "fn f() { let mut e = vce_codec::Encoder::new(); }\n",
        "P005",
    );
}

#[test]
fn p005_allows_sized_and_pooled_construction() {
    // Pre-sized, reused buffers are the sanctioned non-pooled form…
    assert_clean(P001, "fn f() { let mut e = Encoder::with_capacity(96); }\n");
    // …and the pooled path is the preferred one.
    assert_clean(
        P001,
        "fn f(host: &mut dyn Host) { let b = host.encode_with(&mut |e| m.encode(e)); }\n",
    );
    // Bare mentions without a call (imports, type positions) are fine.
    assert_clean(P001, "use vce_codec::Encoder;\n");
}

#[test]
fn p005_scoped_to_protocol_crates_only() {
    // The codec crate defines the encoder; the sim isn't a protocol crate.
    assert_clean(
        "crates/codec/src/lib.rs",
        "fn to_bytes() { let mut e = Encoder::new(); }\n",
    );
    assert_clean(SIM, "fn f() { let mut e = Encoder::new(); }\n");
}

#[test]
fn p005_test_modules_are_exempt() {
    assert_clean(
        P001,
        "#[cfg(test)]\n\
         mod tests {\n\
             fn roundtrip() { let mut e = Encoder::new(); }\n\
         }\n",
    );
}

#[test]
fn p005_waived_is_suppressed() {
    assert_clean(
        P001,
        "// vce-lint: allow(P005) once-per-join cold path, not message-rate\n\
         fn f() { let mut e = Encoder::new(); }\n",
    );
}

#[test]
fn p005_flags_collection_clones_on_the_bid_path() {
    let daemon = "crates/exm/src/daemon.rs";
    assert_fires(
        daemon,
        "fn bid(&self) -> DaemonStatus {\n\
         \x20   DaemonStatus { binaries: self.binaries.iter().cloned().collect() }\n\
         }\n",
        "P005",
    );
    assert_fires(
        daemon,
        "fn serve_queue(&mut self, bids: &[DaemonStatus]) {\n\
         \x20   let mut bids = bids.to_vec();\n\
         }\n",
        "P005",
    );
}

#[test]
fn p005_allows_the_same_clones_off_the_bid_path() {
    let daemon = "crates/exm/src/daemon.rs";
    // Same expressions, in a function no bidding round runs.
    assert_clean(
        daemon,
        "fn resident(&self) -> Vec<InstanceKey> { self.tasks.keys().cloned().collect() }\n\
         fn journal(&mut self, nodes: &NodeList) { self.wal.push(nodes.as_slice().to_vec()); }\n",
    );
    // On the bid path, scratch reuse and refcount bumps are the idiom.
    assert_clean(
        daemon,
        "fn bid(&mut self) -> Bytes {\n\
         \x20   let mut tasks = std::mem::take(&mut self.tasks_scratch);\n\
         \x20   tasks.extend(self.tasks.iter().map(|(k, r)| r.unit.clone()));\n\
         \x20   self.binaries.wire()\n\
         }\n",
    );
}

#[test]
fn p005_bid_path_clone_waived_is_suppressed() {
    assert_clean(
        "crates/exm/src/daemon.rs",
        "fn serve_queue(&mut self, bids: &[DaemonStatus]) {\n\
         \x20   // vce-lint: allow(P005) only reached with a non-empty queue, once per sweep\n\
         \x20   let mut bids = bids.to_vec();\n\
         }\n",
    );
}

// ------------------------------------------------------- waiver grammar

/// ISSUE regression test: an `allow` with no reason is itself an error,
/// and the finding it tried to cover still fires.
#[test]
fn waiver_without_reason_is_an_error_and_suppresses_nothing() {
    let src = "// vce-lint: allow(D001)\nuse std::time::Instant;\n";
    let fired = lint_source(SIM, src);
    let rules = rules_fired(&fired);
    assert!(
        rules.contains(&"W001"),
        "reasonless waiver must be W001: {fired:?}"
    );
    assert!(
        rules.contains(&"D001"),
        "unwaived finding must survive: {fired:?}"
    );
}

#[test]
fn waiver_with_malformed_directive_is_w001() {
    assert_fires(
        SIM,
        "// vce-lint: alow(D001) typo in verb\nfn f() {}\n",
        "W001",
    );
    assert_fires(
        SIM,
        "// vce-lint: allow D001 missing parens\nfn f() {}\n",
        "W001",
    );
}

#[test]
fn waiver_naming_unknown_rule_is_w002() {
    assert_fires(
        SIM,
        "// vce-lint: allow(D999) no such rule\nfn f() {}\n",
        "W002",
    );
}

#[test]
fn waiver_covering_nothing_is_w003() {
    assert_fires(
        SIM,
        "// vce-lint: allow(D001) but the next line is innocent\nfn f() {}\n",
        "W003",
    );
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    assert_clean(
        SIM,
        "use std::time::Instant; // vce-lint: allow(D001) bench-harness import\n",
    );
}

#[test]
fn doc_comments_quoting_the_marker_are_not_directives() {
    // Rendered docs may cite the syntax without being parsed as waivers.
    assert_clean(
        SIM,
        "/// Write `// vce-lint: allow(D001) reason` above the line.\nfn f() {}\n",
    );
}

#[test]
fn waiver_covers_multiple_rules_in_one_directive() {
    assert_clean(
        SIM,
        "// vce-lint: allow(D001,D004) bench harness: threads + wall clock\n\
         fn f() { std::thread::spawn(|| { let _ = std::time::Instant::now(); }); }\n",
    );
}

// ------------------------------------------------- cross-file helpers

/// Lint a synthetic multi-file workspace.
fn lint_multi(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    vce_lint::lint_files(&owned)
}

fn assert_fires_multi(files: &[(&str, &str)], rule: &str, in_file: &str) {
    let findings = lint_multi(files);
    assert!(
        findings.iter().any(|f| f.rule == rule && f.file == in_file),
        "expected {rule} in {in_file}, got {findings:?}"
    );
}

fn assert_clean_multi(files: &[(&str, &str)]) {
    let findings = lint_multi(files);
    assert!(findings.is_empty(), "expected clean, got {findings:?}");
}

// ------------------------------------------------- D002 (cross-file)

/// The PR-7 gap: a field declared `HashMap` in one file, iterated in
/// another. Single-file knowledge can't see the type; the workspace
/// registry can.
#[test]
fn d002_sees_hash_fields_across_files() {
    let decl = (
        "crates/sim/src/state.rs",
        "use std::collections::HashMap;\npub struct S { pub table: HashMap<u32, u32> }\n",
    );
    let for_loop = (
        "crates/sim/src/uses.rs",
        "pub fn f(s: &S) { for (k, v) in &s.table { drop((k, v)); } }\n",
    );
    assert_fires_multi(&[decl, for_loop], "D002", "crates/sim/src/uses.rs");
    let drain = (
        "crates/sim/src/uses.rs",
        "pub fn g(s: &mut S) { s.table.drain(); }\n",
    );
    assert_fires_multi(&[decl, drain], "D002", "crates/sim/src/uses.rs");
    let keys = (
        "crates/sim/src/uses.rs",
        "pub fn h(s: &S) -> usize { s.table.keys().count() }\n",
    );
    assert_fires_multi(&[decl, keys], "D002", "crates/sim/src/uses.rs");
}

#[test]
fn d002_cross_file_name_veto_and_lookups_stay_clean() {
    let decl = (
        "crates/sim/src/state.rs",
        "use std::collections::HashMap;\npub struct S { pub table: HashMap<u32, u32> }\n",
    );
    // The same field name declared with an ordered container anywhere in
    // the workspace makes the name ambiguous — no finding.
    let veto = (
        "crates/sim/src/other.rs",
        "pub struct T { pub table: Vec<u32> }\n",
    );
    let for_loop = (
        "crates/sim/src/uses.rs",
        "pub fn f(t: &T) { for v in &t.table { drop(v); } }\n",
    );
    assert_clean_multi(&[decl, veto, for_loop]);
    // Point lookups on a known hash field are fine; only iteration leaks
    // the hash order.
    let lookup = (
        "crates/sim/src/uses.rs",
        "pub fn f(s: &S) -> Option<&u32> { s.table.get(&1) }\n",
    );
    assert_clean_multi(&[decl, lookup]);
}

#[test]
fn d002_cross_file_waived_is_suppressed() {
    let decl = (
        "crates/sim/src/state.rs",
        "use std::collections::HashMap;\npub struct S { pub table: HashMap<u32, u32> }\n",
    );
    let waived = (
        "crates/sim/src/uses.rs",
        "// vce-lint: allow(D002) order-insensitive fold\n\
         pub fn f(s: &S) { for (k, v) in &s.table { drop((k, v)); } }\n",
    );
    assert_clean_multi(&[decl, waived]);
}

// ---------------------------------------------------------------- P002

/// A conformant single-tag registry: one const, one encode site, one
/// decode arm. The baseline every positive below perturbs.
const P002_OK: &str = "\
const T_PING: u8 = 1;
pub enum NodeMsg { Ping { n: u32 } }
pub fn enc(e: &mut Enc, m: &NodeMsg) {
    match m {
        NodeMsg::Ping { n } => { e.put_u8(T_PING); e.put_u32(*n); }
    }
}
pub fn dec(t: u8) {
    match t {
        T_PING => {}
        _ => {}
    }
}
";

#[test]
fn p002_conformant_registry_is_clean() {
    assert_clean(SIM, P002_OK);
}

#[test]
fn p002_flags_duplicate_tag_values() {
    let src = P002_OK.replace(
        "const T_PING: u8 = 1;",
        "const T_PING: u8 = 1;\nconst T_PONG: u8 = 1;\n// vce-lint: allow(P002) exercised below\nconst _X: u8 = 0;",
    );
    // T_PONG reuses value 1 (and is dead) — both findings are P002.
    let findings = lint_source(SIM, &src);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "P002" && f.msg.contains("reuses value")),
        "expected duplicate-value P002, got {findings:?}"
    );
}

#[test]
fn p002_flags_dead_tag_and_missing_decode_arm() {
    // Tag never encoded.
    let dead = P002_OK.replace("e.put_u8(T_PING); ", "");
    assert_fires(SIM, &dead, "P002");
    // Tag encoded but no decode arm.
    let undecoded = P002_OK.replace("        T_PING => {}\n", "");
    assert_fires(SIM, &undecoded, "P002");
}

#[test]
fn p002_flags_unhandled_wire_variant() {
    let proto = (
        "crates/isis/src/proto.rs",
        "\
const T_PING: u8 = 1;
pub enum IsisMsg { Ping { n: u32 } }
pub fn enc(e: &mut Enc, m: &IsisMsg) {
    match m {
        IsisMsg::Ping { n } => { e.put_u8(T_PING); e.put_u32(*n); }
    }
}
pub fn dec(t: u8) {
    match t {
        T_PING => {}
        _ => {}
    }
}
",
    );
    // Handler file present but no `IsisMsg::Ping` arm → uncovered variant.
    let deaf = ("crates/isis/src/member.rs", "pub fn on_msg() {}\n");
    assert_fires_multi(&[proto, deaf], "P002", "crates/isis/src/proto.rs");
    // Arm present → clean.
    let handles = (
        "crates/isis/src/member.rs",
        "pub fn on_msg(m: IsisMsg) {\n    match m {\n        IsisMsg::Ping { n } => drop(n),\n    }\n}\n",
    );
    assert_clean_multi(&[proto, handles]);
    // Handler file absent from the scan set → coverage not judged.
    assert_clean_multi(&[proto]);
}

#[test]
fn p002_flags_double_multiplex_route() {
    let src = "\
const T_ISIS: u8 = 9;
pub enum ExmMsg { Isis(IsisMsg), AlsoIsis(IsisMsg) }
pub fn enc(e: &mut Enc, m: &ExmMsg) {
    match m {
        ExmMsg::Isis(inner) => { e.put_u8(T_ISIS); drop(inner); }
        ExmMsg::AlsoIsis(inner) => drop(inner),
    }
}
pub fn dec(t: u8) {
    match t {
        T_ISIS => {}
        _ => {}
    }
}
";
    assert_fires_multi(
        &[("crates/exm/src/msg.rs", src)],
        "P002",
        "crates/exm/src/msg.rs",
    );
}

#[test]
fn p002_waived_is_suppressed() {
    let dead = P002_OK.replace(
        "const T_PING: u8 = 1;",
        "// vce-lint: allow(P002) tag reserved for the next protocol rev\nconst T_PING: u8 = 1;",
    )
    .replace("e.put_u8(T_PING); ", "");
    assert_clean(SIM, &dead);
}

// ---------------------------------------------------------------- P003

#[test]
fn p003_flags_overlapping_base_spaces() {
    // The daemon bug class this rule was built for: bases 2^20 apart with
    // a u32 payload.
    let src = "const TOKEN_A_BASE: u64 = 1 << 20;\nconst TOKEN_B_BASE: u64 = 2 << 20;\n";
    assert_fires(SIM, src, "P003");
}

#[test]
fn p003_accepts_tagged_encoding_and_well_known_points() {
    // tag<<32 spaces are disjoint by construction.
    let src = "\
const TOKEN_TAG_SHIFT: u32 = 32;
const TAG_A: u64 = 1;
const TAG_B: u64 = 2;
";
    assert_clean(SIM, src);
    // A point aliasing its own space's base is the idiomatic named head
    // (`TOKEN_PROBE = TAG_PROBE << SHIFT` in the executor).
    let src = "const TOKEN_X_BASE: u64 = 1 << 32;\nconst TOKEN_X_HEAD: u64 = 1 << 32;\n";
    assert_clean(SIM, src);
}

#[test]
fn p003_flags_point_inside_own_open_space() {
    // `BASE + k` claims the same token as payload id k: the sweep timer
    // here collides with whatever request gets seq 5.
    let src = "const TOKEN_X_BASE: u64 = 1 << 32;\nconst TOKEN_X_SWEEP: u64 = (1 << 32) + 5;\n";
    assert_fires(SIM, src, "P003");
}

#[test]
fn p003_accepts_the_isis_detector_layout() {
    // The member.rs shape: well-known singles (tick, quarantine sweep)
    // below the open collect space, which starts past the reserved head —
    // with the base resolved cross-file through the const evaluator.
    let lib = (
        "crates/isis/src/lib.rs",
        "pub const ISIS_TOKEN_BASE: u64 = 1 << 48;\n",
    );
    let member = (
        "crates/isis/src/member.rs",
        "const TOKEN_TICK: u64 = ISIS_TOKEN_BASE;\n\
         const TOKEN_QUARANTINE_SWEEP: u64 = ISIS_TOKEN_BASE + 1;\n\
         const TOKEN_COLLECT_BASE: u64 = ISIS_TOKEN_BASE + 16;\n",
    );
    assert_clean_multi(&[lib, member]);
    // Lowering the collect base under the sweep token must fire: collect
    // seq 1 would arm the quarantine sweep's token.
    let bad_member = (
        "crates/isis/src/member.rs",
        "const TOKEN_TICK: u64 = ISIS_TOKEN_BASE;\n\
         const TOKEN_QUARANTINE_SWEEP: u64 = ISIS_TOKEN_BASE + 1;\n\
         const TOKEN_COLLECT_BASE: u64 = ISIS_TOKEN_BASE;\n",
    );
    assert_fires_multi(&[lib, bad_member], "P003", "crates/isis/src/member.rs");
}

#[test]
fn p003_flags_cross_namespace_collision() {
    // daemon.rs and member.rs arrive at the same endpoint's on_timer.
    let daemon = (
        "crates/exm/src/daemon.rs",
        "const TOKEN_A_BASE: u64 = 1 << 20;\n",
    );
    let member = (
        "crates/isis/src/member.rs",
        "const TOKEN_COLLIDE: u64 = (1 << 20) + 7;\n",
    );
    let findings = lint_multi(&[daemon, member]);
    assert!(
        findings.iter().any(|f| f.rule == "P003"),
        "expected cross-namespace P003, got {findings:?}"
    );
    // Same pair of tokens in files that do NOT share an endpoint → clean.
    let a = (
        "crates/sim/src/a.rs",
        "const TOKEN_A_BASE: u64 = 1 << 20;\n",
    );
    let b = (
        "crates/sim/src/b.rs",
        "const TOKEN_B: u64 = (1 << 20) + 7;\n",
    );
    assert_clean_multi(&[a, b]);
}

#[test]
fn p003_waived_is_suppressed() {
    let src = "\
const TOKEN_A_BASE: u64 = 1 << 20;
// vce-lint: allow(P003) payload proven < 2^20 by the caller
const TOKEN_B_BASE: u64 = 2 << 20;
";
    assert_clean(SIM, src);
}

// ---------------------------------------------------------------- P004

const P004_WAL_OK: &str = "\
pub enum WalRecord { Loaded { n: u32 }, Gone { n: u32 } }
impl DaemonWal {
    pub fn recover(&mut self) {
        match r {
            WalRecord::Loaded { n } => drop(n),
            WalRecord::Gone { n } => drop(n),
        }
    }
}
";

#[test]
fn p004_journal_and_replay_in_balance_is_clean() {
    let wal = ("crates/exm/src/wal.rs", P004_WAL_OK);
    let daemon = (
        "crates/exm/src/daemon.rs",
        "pub fn j() { journal(&WalRecord::Loaded { n: 1 }); journal(&WalRecord::Gone { n: 2 }); }\n",
    );
    assert_clean_multi(&[wal, daemon]);
}

#[test]
fn p004_flags_journaled_but_never_replayed() {
    let wal = (
        "crates/exm/src/wal.rs",
        &*P004_WAL_OK.replace("            WalRecord::Gone { n } => drop(n),\n", ""),
    );
    let daemon = (
        "crates/exm/src/daemon.rs",
        "pub fn j() { journal(&WalRecord::Loaded { n: 1 }); journal(&WalRecord::Gone { n: 2 }); }\n",
    );
    assert_fires_multi(&[wal, daemon], "P004", "crates/exm/src/daemon.rs");
}

#[test]
fn p004_flags_replayed_but_never_journaled() {
    let wal = ("crates/exm/src/wal.rs", P004_WAL_OK);
    let daemon = (
        "crates/exm/src/daemon.rs",
        "pub fn j() { journal(&WalRecord::Loaded { n: 1 }); }\n",
    );
    assert_fires_multi(&[wal, daemon], "P004", "crates/exm/src/wal.rs");
}

#[test]
fn p004_waived_is_suppressed() {
    let wal = ("crates/exm/src/wal.rs", P004_WAL_OK);
    let daemon = (
        "crates/exm/src/daemon.rs",
        "// vce-lint: allow(P004) replay lands next PR with the schema bump\n\
         pub fn j() { journal(&WalRecord::Loaded { n: 1 }); journal(&WalRecord::Gone { n: 2 }); }\n",
    );
    let wal_short = (
        "crates/exm/src/wal.rs",
        &*P004_WAL_OK.replace("            WalRecord::Gone { n } => drop(n),\n", ""),
    );
    let _ = wal;
    assert_clean_multi(&[wal_short, daemon]);
}

/// Same-file journal mode (`include_same_file`): the `.vct` trace format
/// keeps writer and reader in one file, so constructor sites *outside*
/// the decode fn's span count as journal sites.
const P004_RECORD_OK: &str = "\
pub enum FrameKind { Header, Events, Snapshot, End }
impl TraceWriter {
    fn write_frame(&mut self) {
        emit(FrameKind::Header);
        emit(FrameKind::Events);
        emit(FrameKind::Snapshot);
        emit(FrameKind::End);
    }
}
fn decode_frame(kind: FrameKind) {
    match kind {
        FrameKind::Header => h(),
        FrameKind::Events => e(),
        FrameKind::Snapshot => s(),
        FrameKind::End => z(),
    }
}
";

#[test]
fn p004_same_file_writer_and_reader_in_balance_is_clean() {
    assert_clean_multi(&[("crates/sim/src/record.rs", P004_RECORD_OK)]);
}

#[test]
fn p004_same_file_flags_frame_written_but_never_decoded() {
    let src = P004_RECORD_OK.replace("        FrameKind::Snapshot => s(),\n", "");
    assert_fires_multi(
        &[("crates/sim/src/record.rs", &src)],
        "P004",
        "crates/sim/src/record.rs",
    );
}

#[test]
fn p004_same_file_flags_frame_decoded_but_never_written() {
    let src = P004_RECORD_OK.replace("        emit(FrameKind::End);\n", "");
    assert_fires_multi(
        &[("crates/sim/src/record.rs", &src)],
        "P004",
        "crates/sim/src/record.rs",
    );
}

#[test]
fn p004_same_file_arms_inside_decode_fn_are_not_journal_sites() {
    // Only the decode fn mentions the variants — every one should be
    // flagged as a dead record, not satisfied by its own match arms.
    let src = "\
pub enum FrameKind { Header, End }
fn decode_frame(kind: FrameKind) {
    match kind {
        FrameKind::Header => h(),
        FrameKind::End => z(),
    }
}
";
    assert_fires_multi(
        &[("crates/sim/src/record.rs", src)],
        "P004",
        "crates/sim/src/record.rs",
    );
}

// ---------------------------------------------------------------- D006

const D006_TAINTED_HELPER: (&str, &str) = (
    "crates/bench/src/util.rs",
    "pub fn stamp() -> u64 { let t = std::time::Instant::now(); drop(t); 0 }\n",
);

#[test]
fn d006_flags_cross_file_call_into_tainted_helper() {
    let caller = (
        "crates/sim/src/fake.rs",
        "pub fn caller() -> u64 { stamp() }\n",
    );
    assert_fires_multi(
        &[D006_TAINTED_HELPER, caller],
        "D006",
        "crates/sim/src/fake.rs",
    );
    // Transitively, through a clean middle function in a third file.
    let middle = (
        "crates/bench/src/mid.rs",
        "pub fn relay() -> u64 { stamp() }\n",
    );
    let caller2 = (
        "crates/sim/src/fake.rs",
        "pub fn caller() -> u64 { relay() }\n",
    );
    assert_fires_multi(
        &[D006_TAINTED_HELPER, middle, caller2],
        "D006",
        "crates/sim/src/fake.rs",
    );
}

#[test]
fn d006_method_and_type_qualified_calls_never_resolve() {
    // `x.stamp()` dispatches on a receiver type the lexer can't see —
    // flagging it on a name match would damn every `scope.spawn`.
    let method = (
        "crates/sim/src/fake.rs",
        "pub fn caller(x: &Clock) -> u64 { x.stamp() }\n",
    );
    assert_clean_multi(&[D006_TAINTED_HELPER, method]);
    let type_qualified = (
        "crates/sim/src/fake.rs",
        "pub fn caller() -> u64 { Clock::stamp() }\n",
    );
    assert_clean_multi(&[D006_TAINTED_HELPER, type_qualified]);
}

#[test]
fn d006_mixed_definition_sets_stay_silent() {
    // A second, clean definition of the same name makes bare-name
    // resolution ambiguous — no finding.
    let clean_twin = ("crates/sim/src/other.rs", "pub fn stamp() -> u64 { 0 }\n");
    let caller = (
        "crates/sim/src/fake.rs",
        "pub fn caller() -> u64 { stamp() }\n",
    );
    assert_clean_multi(&[D006_TAINTED_HELPER, clean_twin, caller]);
}

#[test]
fn d006_module_qualified_call_resolves_to_that_module() {
    // `util::stamp()` pins the callee to util.rs despite the clean twin.
    let clean_twin = ("crates/sim/src/other.rs", "pub fn stamp() -> u64 { 0 }\n");
    let caller = (
        "crates/sim/src/fake.rs",
        "pub fn caller() -> u64 { util::stamp() }\n",
    );
    assert_fires_multi(
        &[D006_TAINTED_HELPER, clean_twin, caller],
        "D006",
        "crates/sim/src/fake.rs",
    );
}

#[test]
fn d006_waived_is_suppressed() {
    let caller = (
        "crates/sim/src/fake.rs",
        "// vce-lint: allow(D006) diagnostics-only path, output not diffed\n\
         pub fn caller() -> u64 { stamp() }\n",
    );
    assert_clean_multi(&[D006_TAINTED_HELPER, caller]);
}

// ---------------------------------------------------------------- S001

#[test]
fn s001_flags_shared_mutable_statics() {
    assert_fires(SIM, "static mut COUNTER: u64 = 0;\n", "S001");
    assert_fires(
        SIM,
        "thread_local! { static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new()); }\n",
        "S001",
    );
    assert_fires(SIM, "static N: AtomicU64 = AtomicU64::new(0);\n", "S001");
    assert_fires(
        SIM,
        "static Q: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n",
        "S001",
    );
}

#[test]
fn s001_accepts_immutable_statics_and_unscoped_crates() {
    assert_clean(
        SIM,
        "static NAME: &str = \"vce\";\nstatic LIMIT: u64 = 8;\n",
    );
    assert_clean(UNSCOPED, "static mut COUNTER: u64 = 0;\n");
}

#[test]
fn s001_waived_is_suppressed() {
    assert_clean(
        SIM,
        "// vce-lint: allow(S001) write-once before any shard starts\n\
         static N: AtomicU64 = AtomicU64::new(0);\n",
    );
}

// ---------------------------------------------------------------- S002

#[test]
fn s002_flags_sync_primitives_outside_rendezvous_module() {
    assert_fires(SIM, "use std::sync::Mutex;\n", "S002");
    assert_fires(
        SIM,
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
        "S002",
    );
    assert_fires(
        SIM,
        "pub fn f() { let m = std::sync::RwLock::new(0u32); drop(m); }\n",
        "S002",
    );
}

#[test]
fn s002_allows_arc_and_the_rendezvous_module_imports() {
    // Arc is sharing, not synchronization; mpsc is D004's finding.
    assert_clean(SIM, "use std::sync::Arc;\n");
    // The sanctioned rendezvous module may import sync primitives freely…
    assert_clean(
        "crates/sim/src/sharded.rs",
        "use std::sync::{Barrier, Mutex};\nuse std::sync::atomic::{AtomicU64, Ordering};\n",
    );
    assert_clean(UNSCOPED, "use std::sync::Mutex;\n");
}

#[test]
fn s002_rendezvous_module_rejects_relaxed_and_try_lock() {
    // …but inside it, the window protocol's failure modes are flagged:
    // Relaxed breaks the publish/acquire pairing, try_lock drops mail.
    assert_fires(
        "crates/sim/src/sharded.rs",
        "pub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n",
        "S002",
    );
    assert_fires(
        "crates/sim/src/sharded.rs",
        "pub fn f(m: &Mutex<u32>) { if let Ok(g) = m.try_lock() { drop(g); } }\n",
        "S002",
    );
}

#[test]
fn s002_waived_is_suppressed() {
    assert_clean(
        SIM,
        "// vce-lint: allow(S002) counters merged after the run, order-free\n\
         use std::sync::atomic::{AtomicU64, Ordering};\n",
    );
}

// ---------------------------------------------------------- self-test

/// The shipped workspace must be clean: zero findings, every waiver used.
#[test]
fn shipped_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = vce_lint::lint_workspace(&root);
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 100, "walker saw the whole tree");
}
