#!/usr/bin/env bash
# The benchmark's one command: build, then hand every argument to the
# binary (see README.md for the modes).
#
#   benchmark/run.sh                          every workload, both passes, result file
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run; last stdout line is the result JSON
#   benchmark/run.sh --selfcheck              timed pass twice, must agree
#   benchmark/run.sh --quick                  smoke run, a tenth of the ops per slice
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark/run.sh: $root is not a checkout of the repository" >&2
    exit 1
fi

# The benchmark must measure what ships: fail if its release profile has
# drifted from the root's.
profile() { awk '/^\[profile\.release\]/{p=1; print; next} /^\[/{p=0} p && NF' "$1"; }
if ! diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2; then
    echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
echo "benchmark/run.sh: build took $(( ($(date +%s%N) - build_start) / 1000000 )) ms" >&2

VCE_BENCH_RUSTC="$(rustc --version)"
VCE_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export VCE_BENCH_RUSTC VCE_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/vce-benchmark" "$@"
