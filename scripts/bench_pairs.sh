#!/usr/bin/env bash
# Alternating A/B pairs of two built benchmark binaries on one workload.
#
#   scripts/bench_pairs.sh <parent-bin> <change-bin> <workload> <seed> <pairs> [seconds]
#
# Runs `<bin> --workload W --seed N --seconds S --trace 0` (S defaults to
# 20) <pairs> times for each binary, alternating which goes first in a
# pair so drift on a shared box lands on both sides. Prints every run's
# ops_per_s; each side's median and quartiles, peak_rss_mb median and
# range and setup_s median; the change's win count and median move
# against the parent's interquartile range; and whether that meets the
# claim rule of docs/PROFILING.md (wins in 9 of 10 pairs, median move
# above the IQR).
#
# Exits nonzero if a run fails, reports "correct": false or a failed op,
# or if any sim_* metric differs between any two runs: a change that only
# moves host time must leave every simulated number bit-identical.
#
# Build the two binaries first, e.g. with `cargo build --release --offline
# --manifest-path benchmark/Cargo.toml` in each checkout
# (benchmark/target/release/vce-benchmark). Needs bash and python3.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    sed -n '4p' "$0" | sed 's/^#  *//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 seconds=${6:-20}
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "bench_pairs.sh: $bin is not an executable" >&2; exit 2; }
done

results=$(mktemp)
trap 'rm -f "$results"' EXIT

run() { # side pair
    local bin line
    if [ "$1" = parent ]; then bin=$parent; else bin=$change; fi
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    echo "$1 $2 $line" >>"$results"
    python3 -c '
import json, sys
ops = json.loads(sys.argv[3])["metrics"]["ops_per_s"]["value"]
print("pair %2s %-6s ops_per_s %.2f" % (sys.argv[2], sys.argv[1], ops))' "$1" "$2" "$line"
}

echo "bench_pairs.sh: $workload seed $seed, $pairs pairs of ${seconds} s"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"; run change "$i"
    else
        run change "$i"; run parent "$i"
    fi
done

python3 - "$results" <<'EOF'
import json, statistics, sys

runs = {"parent": {}, "change": {}}
bad = []
for line in open(sys.argv[1]):
    side, pair, doc = line.rstrip("\n").split(" ", 2)
    r = json.loads(doc)
    if not r.get("correct") or r.get("failed", 1) != 0:
        bad.append(f"{side} pair {pair}: correct {r.get('correct')}, failed {r.get('failed')}")
    runs[side][int(pair)] = r["metrics"]

def metric(side, name):
    return [m[name]["value"] for _, m in sorted(runs[side].items())]

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for side in ("parent", "change"):
    ops = metric(side, "ops_per_s")
    q1, q2, q3 = quartiles(ops)
    rss = metric(side, "peak_rss_mb")
    setup = statistics.median(metric(side, "setup_s"))
    print(f"{side:<6} ops_per_s median {q2:.2f}  quartiles {q1:.2f} / {q3:.2f}  "
          f"peak_rss_mb {statistics.median(rss):.2f} [{min(rss):.2f}, {max(rss):.2f}]  "
          f"setup_s {setup:.3f}")

p, c = metric("parent", "ops_per_s"), metric("change", "ops_per_s")
wins = sum(b > a for a, b in zip(p, c))
p1, pm, p3 = quartiles(p)
cm = statistics.median(c)
move = cm - pm
gain = wins * 10 >= 9 * len(p) and move > p3 - p1
print(f"change wins {wins}/{len(p)} pairs; median {move:+.2f} op/s ({100 * move / pm:+.1f} %), "
      f"parent IQR {p3 - p1:.2f} ({100 * (p3 - p1) / pm:.1f} %): "
      f"{'resolved' if abs(move) > p3 - p1 else 'unresolved'}, gain {'met' if gain else 'not met'}")

sims = {}
for side in runs:
    for pair, m in runs[side].items():
        sims[f"{side} pair {pair}"] = {k: v["value"] for k, v in m.items() if k.startswith("sim_")}
first = next(iter(sims.values()))
for who, s in sims.items():
    if s != first:
        bad.append(f"{who}: sim_* {s} differs from {first}")
if bad:
    print("\n".join(["bench_pairs.sh: FAILED"] + bad), file=sys.stderr)
    sys.exit(1)
print(f"sim_* identical over {len(sims)} runs: {first}")
EOF
