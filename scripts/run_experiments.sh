#!/usr/bin/env sh
# Regenerate every experiment table in EXPERIMENTS.md, check that none of
# them moved, or re-pin the ones that did with the reason why.
#
# Usage: scripts/run_experiments.sh [--check | --repin "<reason>"] [dir]
#        (dir: experiment-results; run from the repository root)
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
#   --repin "<reason>"
#             run what --check runs, rewrite only the dir/<exp>.txt that
#             moved, and append one dated line per moved table — name,
#             reason — to EXPERIMENTS.md § "Raw outputs and identity".
#             Refuses an empty reason, and writes nothing when any table
#             differs between VCE_SHARDS 1 and 4 (that is a bug, not a
#             move).
set -eu

mode=write
reason=""
case "${1:-}" in
    --check)
        mode=check
        shift
        ;;
    --repin)
        mode=repin
        reason="${2:-}"
        case "$reason" in
            *[![:space:]]*) ;;
            *)
                echo "run_experiments.sh: --repin needs a reason: why did the tables move?" >&2
                exit 2
                ;;
        esac
        shift 2
        ;;
esac
dir="${1:-experiment-results}"
log=EXPERIMENTS.md
section="## Raw outputs and identity"
experiments="exp_pipeline exp_proxy exp_bidding exp_weather exp_placement
    exp_starvation exp_migration exp_ripple exp_freepar exp_anticipatory
    exp_baselines exp_failover exp_heterogeneity exp_loadbal exp_ablation
    exp_chaos exp_recovery exp_graydetect"
# exp_proxy measures wall-clock: it is regenerated but never compared.
deterministic=$(echo $experiments | tr ' ' '\n' | grep -v '^exp_proxy$')
run() { cargo run --release --offline -q -p vce-bench --bin "$1"; }

if [ "$mode" = write ]; then
    mkdir -p "$dir"
    for e in $experiments; do
        echo "== $e =="
        run "$e" | tee "$dir/$e.txt"
        echo
    done
    echo "All experiment outputs written to $dir/"
    exit 0
fi

# The re-pin log is appended to the end of the file, so its section must
# be the last one.
if [ "$mode" = repin ] && [ "$(grep '^## ' "$log" | tail -n 1)" != "$section" ]; then
    echo "run_experiments.sh: \"$section\" is not the last section of $log" >&2
    exit 2
fi

got=$(mktemp -d)
trap 'rm -rf "$got"' EXIT
moved=""
tables=0
for shards in 1 4; do
    export VCE_SHARDS=$shards
    mkdir "$got/$shards"
    for e in $deterministic; do
        tables=$((tables + 1))
        if ! run "$e" > "$got/$shards/$e.txt"; then
            if [ "$mode" = repin ]; then
                echo "run_experiments.sh: $e failed at VCE_SHARDS=$shards, nothing re-pinned" >&2
                exit 1
            fi
        elif cmp -s "$dir/$e.txt" "$got/$shards/$e.txt"; then
            continue
        fi
        moved="$moved $e@VCE_SHARDS=$shards"
        if [ "$mode" = check ]; then
            diff -u "$dir/$e.txt" "$got/$shards/$e.txt" >&2 || true
        fi
    done
done

if [ "$mode" = check ]; then
    if [ -n "$moved" ]; then
        echo "identity: MOVED against $dir/:$moved" >&2
        exit 1
    fi
    echo "identity: 0 moved ($tables runs: every deterministic exp_* at VCE_SHARDS 1 and 4 equals $dir/)"
    exit 0
fi

split=""
for e in $deterministic; do
    cmp -s "$got/1/$e.txt" "$got/4/$e.txt" || split="$split $e"
done
if [ -n "$split" ]; then
    echo "identity: VCE_SHARDS 1 and 4 disagree, nothing re-pinned:$split" >&2
    exit 1
fi
repinned=""
for e in $deterministic; do
    cmp -s "$dir/$e.txt" "$got/1/$e.txt" && continue
    cp "$got/1/$e.txt" "$dir/$e.txt"
    printf -- '- %s — `%s` re-pinned: %s\n' "$(date +%F)" "$e" "$reason" >> "$log"
    repinned="$repinned $e"
done
echo "identity: re-pinned${repinned:- nothing (0 moved)}"
