#!/usr/bin/env sh
# Regenerate every experiment table in EXPERIMENTS.md, or check that none
# of them moved.
#
# Usage: scripts/run_experiments.sh [--check] [dir]   (dir: experiment-results)
#
#   (no flag) run every experiment and write its stdout to dir/<exp>.txt.
#   --check   write nothing: run every deterministic experiment once at
#             VCE_SHARDS=1 and once at VCE_SHARDS=4, compare each stdout
#             byte for byte with the checked-in dir/<exp>.txt, and print
#             which tables moved; exits nonzero if any did. One pass covers
#             run-to-run determinism, shard invariance and "this change
#             altered no behaviour" (≈ 1 min per shard count).
#             exp_proxy is exempt: it is a live wall-clock microbenchmark
#             (marshal/round-trip ns), so its numbers vary by nature.
set -eu

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
dir="${1:-experiment-results}"
experiments="exp_pipeline exp_proxy exp_bidding exp_weather exp_placement
    exp_starvation exp_migration exp_ripple exp_freepar exp_anticipatory
    exp_baselines exp_failover exp_heterogeneity exp_loadbal exp_ablation
    exp_chaos exp_recovery exp_graydetect"
run() { cargo run --release --offline -q -p vce-bench --bin "$1"; }

if [ "$check" = 1 ]; then
    got=$(mktemp)
    trap 'rm -f "$got"' EXIT
    moved=""
    tables=0
    for shards in 1 4; do
        export VCE_SHARDS=$shards
        for e in $experiments; do
            [ "$e" = exp_proxy ] && continue
            tables=$((tables + 1))
            if run "$e" > "$got" && cmp -s "$dir/$e.txt" "$got"; then
                continue
            fi
            moved="$moved $e@VCE_SHARDS=$shards"
            diff -u "$dir/$e.txt" "$got" >&2 || true
        done
    done
    if [ -n "$moved" ]; then
        echo "identity: MOVED against $dir/:$moved" >&2
        exit 1
    fi
    echo "identity: 0 moved ($tables runs: every deterministic exp_* at VCE_SHARDS 1 and 4 equals $dir/)"
    exit 0
fi

mkdir -p "$dir"
for e in $experiments; do
    echo "== $e =="
    run "$e" | tee "$dir/$e.txt"
    echo
done
echo "All experiment outputs written to $dir/"
