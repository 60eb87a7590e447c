#!/usr/bin/env bash
# Repo CI gate: lint first (cheapest, fails fastest), then build, the
# full test suite, clippy/fmt, the experiment identity check (every
# deterministic exp_* table byte-equal to experiment-results/ at one shard
# and at four), and quick smoke runs of the pieces a perf/regression PR is
# most likely to break — the parallel-sweep determinism test, the shard and
# record/replay determinism gates (the latter with a pinned `.vct`
# digest), the zero-alloc bidding round, the queue sorted-insert and
# footprint gates with a longer heap-oracle soak, and a
# build + unit-test of the out-of-workspace benchmark plus a hard gate on
# four of its exactly repeatable counters — allocs_per_op,
# isis.heartbeats_per_op, codec.bytes_per_msg and sim_makespan_s_p50
# (benchmark/run.sh is what measures speed) — and last, a ceiling on the
# number of vce-lint waivers.
# Keep this cheap enough to run on every change.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Each stage prints its wall-clock time when the next one starts (and the
# last one before the size rows): printed, not gated.
stage_name="" stage_t0=0
stage_time() {
  if [ -n "$stage_name" ]; then
    echo "stage-time: $stage_name $(( ($(date +%s%N) - stage_t0) / 1000000 ))ms"
  fi
}
stage() {
  stage_time
  stage_name=$1 stage_t0=$(date +%s%N)
  echo "== $1 =="
}

stage "vce-lint"
# Build first so the timed run measures analysis, not compilation; consume
# the JSON report so CI logs show a per-rule summary even on a clean pass.
cargo build --offline -q -p vce-lint
lint_tmp=$(mktemp)
lint_t0=$(date +%s%N)
lint_rc=0
cargo run --offline -q -p vce-lint -- --format json > "$lint_tmp" || lint_rc=$?
lint_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
python3 - "$lint_tmp" "$lint_ms" <<'PY'
import collections, json, sys
report = json.load(open(sys.argv[1]))
by_rule = collections.Counter(f["rule"] for f in report["findings"])
summary = " ".join(f"{r}:{n}" for r, n in sorted(by_rule.items())) or "clean"
print(f"vce-lint: {report['files_scanned']} files, "
      f"{len(report['findings'])} finding(s) [{summary}] in {sys.argv[2]}ms")
for f in report["findings"]:
    print(f"  {f['file']}:{f['line']}: {f['rule']}: {f['msg']}")
PY
rm -f "$lint_tmp"
[ "$lint_rc" -eq 0 ] || { echo "vce-lint: findings above must be fixed or waived"; exit 1; }

stage "build (release)"
cargo build --release --offline -q

stage "tests"
cargo test --offline -q
# vendor/ is outside the workspace, but its buffer pool is this repo's own
# code and sits on every send.
cargo test --offline -q -p bytes

stage "clippy"
cargo clippy --all-targets --offline -q -- -D warnings

stage "fmt"
cargo fmt --check

# Every deterministic experiment, at VCE_SHARDS=1 and 4, against the
# checked-in tables: run-to-run determinism, shard invisibility (stdout
# with three worker threads beside the caller's must equal the one-shard
# run) and "no table moved" in one pass; prints which tables moved.
stage "experiment identity (VCE_SHARDS 1 and 4 vs experiment-results/)"
scripts/run_experiments.sh --check

# The identity stage above ran the whole 480-cell chaos campaign, at one
# shard and at four; a red cell moves its F4 row there.
# The gray shapes get a second, louder pass: one replayed cell per shape,
# so a detector/quarantine regression names the exact failing shape (and
# prints the per-invariant report) instead of hiding in the F4 grid.
stage "gray-shape chaos smoke"
for shape in slow-nodes asym-links link-ramp flapping; do
  ./target/release/exp_chaos --replay 100 "$shape" checkpoint \
    || { echo "gray chaos smoke: $shape violated an invariant"; exit 1; }
done

stage "sweep determinism"
cargo test --release --offline -q -p vce-bench --test sweep_determinism

# The sharded engine must be invisible. The identity stage above compared
# experiment stdout at one shard and four; the in-process suite
# additionally sweeps S in {1,2,4,8} and compares chaos traces.
stage "shard determinism (S in {1,2,4,8})"
cargo test --release --offline -q -p vce-sim --test proptest_shard
# (The pinned `.vct` digest in the same file runs in the record/replay
# stage below, where a failure reads as what it is.)
cargo test --release --offline -q -p vce-bench --test shard_determinism -- --skip membership_churn

# Record → replay must close: a `.vct` recording of a chaos cell, replayed
# on the same binary, reports zero divergence (exit 0); and the recording
# itself — frame layout, snapshot hash chain, every byte — must be
# identical no matter how many shards produced it.
stage "record/replay divergence gate"
# The bytes themselves are pinned too: an FNV-64 of a twelve-machine
# recording through a member kill/revive, a coordinator kill and a
# partition, pinned in experiment-results/exp_digests.txt (the identity
# stage above checks that file and `--repin` rewrites it) — every node's
# state hash is in there, so a change to what the isis layer sends or
# remembers, or to when it hears it (or to the order it is folded in),
# fails here, at one shard and at four.
cargo test --release --offline -q -p vce-bench --test shard_determinism membership_churn
vct_a=$(mktemp --suffix .vct); vct_b=$(mktemp --suffix .vct)
./target/release/vce_replay --record "$vct_a" 100 crashes checkpoint
./target/release/vce_replay --divergence "$vct_a" \
  || { echo "record/replay: same-binary replay diverged"; exit 1; }
VCE_SHARDS=1 ./target/release/vce_replay --record "$vct_a" 101 mixed recompile > /dev/null
VCE_SHARDS=4 ./target/release/vce_replay --record "$vct_b" 101 mixed recompile > /dev/null
cmp "$vct_a" "$vct_b" \
  || { echo "record/replay: .vct recording differs between VCE_SHARDS=1 and 4"; exit 1; }
rm -f "$vct_a" "$vct_b"
echo "record/replay: zero divergence; recording byte-identical at VCE_SHARDS=4"

# The barriers must make worker wake order irrelevant: sweep 32 seeded
# schedule permutations (each yields workers pseudo-randomly before the
# ship/publish phases) and require the serial digest every time.
stage "shard schedule-permutation gate (32 seeds)"
VCE_STAGGER_PERMS=32 cargo test --release --offline -q -p vce-bench --test shard_stagger

# The bidding round must stay off the heap, on a bare fleet, on one with
# staged binaries, a resident task and the rebalance sweep running, and
# on a bare fleet whose leader forgets grants past a short retry horizon.
# `cargo test` above ran these in the dev profile; this is the build the
# experiments use.
stage "zero-alloc bidding round (bare + staged fleets, served sweep)"
cargo test --release --offline -q -p vce-bench --test bidding_alloc

# The event queue's sorted-insert path must stay off an application's
# bill: entries shifted per event is a count, so it gates hard where the
# wall-clock it predicts cannot (≤ 2; the queue it guards against, whose
# cursor ran ahead of the clock, measured ≈ 34).
stage "queue sorted-insert gate (bag_of_tasks(64), S=1 and S=2)"
cargo test --release --offline -q -p vce-bench --test queue_shift
# Its memory is a count too: the capacity the queue retains, position
# list included, against the most it held at once plus its largest run
# (≤ 1.1; the warm-buffer pool it replaced read 5.0 at S=1 and 6.1 at
# S=2). The same storm gates what a cancel saves: its exact event count
# and at most 17 queued entries a node (count-based cancels queued 27 and
# popped one more event a node a tick); and, exactly, the entries bucket
# loads had to comparison-sort after the counting sort on the microsecond
# (0 at S=1, every delivery at S=2). And the heap oracle gets a longer
# soak than tier-1's 64 cases, bursts of up to three chunks into one
# bucket with causes out of push order included, as does the timer-table
# oracle.
stage "queue footprint gate (sharded_storm(2048), S=1 and S=2) + heap and timer oracles (4096 cases)"
cargo test --release --offline -q -p vce-bench --test queue_footprint
PROPTEST_CASES=4096 cargo test --release --offline -q -p vce-sim --test proptest_queue
PROPTEST_CASES=4096 cargo test --release --offline -q -p vce-sim --test proptest_timers

# benchmark/ is its own workspace and compiles against the crates' public
# API only: build and unit-test it here so a PR that breaks that API fails
# locally, not in the benchmark run.
stage "benchmark crate (build + unit tests)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# Heap allocations, heartbeats, encoded bytes per message and simulated
# makespan are counted, not timed: all four repeat exactly for a seed, so
# they are gated hard while wall-clock stays ungated. Each ceiling sits
# about 10 % above what the tree measures: 3,403 allocations an
# application (3,540 while a burst of requests piled onto one machine and
# the application ran twice as long, decision 38; 3,604 with three
# cast orders and a broadcast id on every cast, DESIGN decision 37; 3,918
# while every u64, i64 and f64 was an eight-byte word and fewer payloads
# fit `Bytes`' inline form, decision 36; 4,261 while the executor kept
# its per-instance state in keyed maps, decision 32; 4,682 before counts,
# lengths and narrow integers went to uvarints; the `Vec<String>` bid
# lists this guards against cost 55,995), 2,225 heartbeats (3,403 while
# the piled-up burst kept the fleet beating for 10 simulated seconds,
# decision 38; the O(n) liveness plane, with casts and replies standing
# in for heartbeats between view-mates, decision 35: 3,550 without that;
# all-candidates heartbeats cost 9,686), 14.85 bytes a message (14.4
# while the longer run carried proportionally more 5-byte heartbeats,
# decision 38; 15.2 while a cast carried a `BcastId`, its order and
# three empty options and a reply a `BcastId`, decision 37; 21.5 with fixed-width u64s, i64s and f64s and
# a random 8-byte heartbeat incarnation, decision 36; 21.4 before
# decision 35 removed the smallest frames, the heartbeats; no sequence
# number in the envelope header, decision 34: 23.1 with one; one integer
# rule, decision 31: 30.4 with fixed-width counts, lengths,
# discriminants and narrow integers; 68.0 before uvarint framing, whose
# heartbeat frame is 11 bytes where it was 59; 101.97 with bids that
# listed their machine's staged binaries), and a median makespan of
# 4.69 simulated seconds (10.34 while 55 of the 64-task bag's grants
# went to one machine, decision 38: this ceiling keeps that piling from
# coming back unseen).
stage "allocs_per_op, heartbeats_per_op, bytes_per_msg and makespan gates (app_dense, seed 1)"
allocs_ceiling=3750
heartbeats_ceiling=2450
bytes_per_msg_ceiling=16.0
makespan_s_ceiling=5.2
bash benchmark/run.sh --quick --workload app_dense --seed 1 --trace 1 | tail -n 1 \
  | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
over = False
names = ["allocs_per_op", "isis.heartbeats_per_op", "codec.bytes_per_msg", "sim_makespan_s_p50"]
for name, ceiling in zip(names, sys.argv[1:]):
    value = metrics[name]["value"]
    print(f"{name}: {value:.1f} on app_dense (ceiling {ceiling})")
    over |= value > float(ceiling)
sys.exit(over)' "$allocs_ceiling" "$heartbeats_ceiling" "$bytes_per_msg_ceiling" "$makespan_s_ceiling" \
  || { echo "counter gate: over a ceiling, or the traced pass failed"; exit 1; }

stage_time
# Tooling latency lives next to the perf numbers: the linter is the
# fastest gate and must stay that way as the registries grow.
echo "stage-time: vce-lint ${lint_ms}ms (analysis only, binary prebuilt)"
# The two rows a deletion PR is judged by (ROADMAP aim 2).
rust_lines=$(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)
# (Not under crates/lint/: the linter's own sources and golden fixtures
# spell the marker out dozens of times and waive nothing.)
waivers=$(grep -rn --include='*.rs' 'vce-lint: allow' crates | grep -v '^crates/lint/' | wc -l)
# Non-test lines: files outside */tests/, each counted up to its first
# `#[cfg(test)]` (printed, not gated).
code_lines=$(find crates -name '*.rs' -not -path '*/tests/*' -print0 \
  | xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }' \
  | awk '{ s += $1 } END { print s }')
echo "stage-size: ${rust_lines} Rust lines under crates/ (${code_lines} non-test), ${waivers} vce-lint waivers"
# The waiver count only falls: 5 is what is left after the live transport
# went (ROADMAP item 3). A new waiver needs this ceiling raised in the
# same change, where the diff shows it.
waiver_ceiling=5
[ "$waivers" -le "$waiver_ceiling" ] \
  || { echo "waiver gate: ${waivers} vce-lint waivers, ceiling ${waiver_ceiling}"; exit 1; }

echo "CI OK"
