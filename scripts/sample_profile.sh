#!/usr/bin/env bash
# Sampled stack profile of one benchmark workload's timed pass, for boxes
# without `perf`: an LD_PRELOAD shim arms ITIMER_PROF, its SIGPROF handler
# keeps `backtrace()` frames, and `addr2line` names them afterwards. Prints
# a leaf table (where the program counter was) and an inclusive table
# (share of samples with the function anywhere on the stack, inlined
# frames included). See docs/PROFILING.md for how to read it.
#
# Usage: scripts/sample_profile.sh <workload> [seconds] [seed]
#   e.g. scripts/sample_profile.sh app_dense 20
# Needs cc, addr2line and python3, and the benchmark already built
# (`bash benchmark/run.sh --quick` builds it). Not part of tier-1.
set -euo pipefail

workload="${1:?usage: scripts/sample_profile.sh <workload> [seconds] [seed]}"
seconds="${2:-20}"
seed="${3:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${CARGO_TARGET_DIR:-$root/benchmark/target}/release/vce-benchmark"
[ -x "$bin" ] || { echo "sample_profile: $bin not built; run: bash benchmark/run.sh --quick" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/shim.c" <<'C'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>
#define MAX_SAMPLES 40000
#define DEPTH 64
static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;
static void on_prof(int sig) {
    (void)sig;
    int i = __sync_fetch_and_add(&taken, 1);
    if (i < MAX_SAMPLES) depth[i] = backtrace(frames[i], DEPTH);
}
__attribute__((constructor)) static void arm(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}}; /* 250 Hz of CPU time */
    setitimer(ITIMER_PROF, &every, NULL);
}
__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("SAMPLE_PROFILE_DIR");
    char path[4096];
    if (!dir) return;
    snprintf(path, sizeof path, "%s/samples.%d", dir, (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < depth[i]; j++) fprintf(out, "%p ", frames[i][j]);
        fputc('\n', out);
    }
    fputs("MAPS\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}
C
cc -O2 -shared -fPIC -o "$tmp/shim.so" "$tmp/shim.c"

SAMPLE_PROFILE_DIR="$tmp" LD_PRELOAD="$tmp/shim.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print("profiled run: ops_per_s %.1f (under the sampler; do not quote it)" % m["ops_per_s"]["value"])'

python3 - "$bin" "$tmp"/samples.* <<'PY'
import bisect, collections, os, subprocess, sys

binary, dumps = os.path.realpath(sys.argv[1]), sys.argv[2:]
leaf, inclusive, total = collections.Counter(), collections.Counter(), 0
for dump in dumps:
    text = open(dump).read()
    stacks, _, maps = text.partition("MAPS\n")
    # File-backed mappings: (start, end, file offset, path).
    regions = []
    for line in maps.splitlines():
        f = line.split()
        if len(f) >= 6 and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            regions.append((lo, hi, int(f[2], 16), f[5]))
    regions.sort()
    starts = [r[0] for r in regions]
    base = {}  # path -> load address of file offset 0
    for lo, _, off, path in regions:
        base.setdefault(path, lo - off)

    def locate(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= regions[i][1]:
            return None, addr
        path = regions[i][3]
        return path, addr - base[path]

    samples = []
    for line in stacks.splitlines():
        pcs = [int(x, 16) for x in line.split()]
        # [0] the handler, [1] the signal trampoline, [2] the interrupted
        # pc; everything above is a return address (step back into the call).
        pcs = pcs[2:3] + [pc - 1 for pc in pcs[3:]]
        if pcs:
            samples.append([locate(pc) for pc in pcs])
    wanted = collections.defaultdict(set)
    for s in samples:
        for path, rel in s:
            if path:
                wanted[path].add(rel)
    names = {}  # (path, rel) -> [innermost inlined function, ..., outermost]
    for path, rels in wanted.items():
        if path != binary:
            # A stripped libc names only its exported symbols, and the
            # nearest one is usually a neighbour: name the object instead.
            names.update({(path, r): ["[%s]" % os.path.basename(path)] for r in rels})
            continue
        rels = sorted(rels)
        out = subprocess.run(
            ["addr2line", "-f", "-i", "-C", "-a", "-e", path],
            input="\n".join(hex(r) for r in rels),
            capture_output=True, text=True).stdout.splitlines()
        cur, expect_fn = None, False
        for line in out:
            if line.startswith("0x") and ":" not in line:
                cur, expect_fn = (path, int(line, 16)), True
                names[cur] = []
            elif expect_fn:
                names[cur].append(line if line != "??" else "%#x" % cur[1])
                expect_fn = False
            else:
                expect_fn = True  # a file:line row; the next row is a function
    for s in samples:
        chain = []
        for path, rel in s:
            chain += names.get((path, rel), ["[unmapped]"])
        total += 1
        # Time in a library is charged to it *and* to whoever called it:
        # "[libc.so.6] <- Vec::insert" is a memmove.
        caller = next((fn for fn in chain if not fn.startswith("[")), "?")
        leaf[chain[0] if chain[0] == caller else "%s <- %s" % (chain[0], caller)] += 1
        for fn in set(chain):
            inclusive[fn] += 1

def table(title, counts, rows):
    print("\n%s (%d samples)" % (title, total))
    for fn, n in counts.most_common(rows):
        print("%6.2f%%  %s" % (100.0 * n / max(total, 1), fn))

table("leaf", leaf, 40)
# Rows on nearly every stack are the runtime's and the harness's call chain.
for fn in [fn for fn, n in inclusive.items() if n > 0.9 * total]:
    del inclusive[fn]
table("inclusive, rows above 90 % omitted", inclusive, 60)
PY
