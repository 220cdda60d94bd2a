#!/usr/bin/env bash
# Parent/change pairs of one benchmark workload, the way a performance claim
# is to be measured here (benchmark/README.md): both sides built first, then
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
# once per side per pair, the side that goes first alternating.
#   ./scripts/ab_pairs.sh <workload> [--pairs N] [--seconds S] [--ref REF] [--pmu] [seed ...]
# The parent is REF (default HEAD~1), unpacked with `git archive` into
# target/ab/parent — no worktree is registered, so nothing is left in .git.
# The change is this working tree, copied into target/ab/change: its tracked
# files and the untracked ones git does not ignore, as they are on disk. Both
# sides build and run from paths of the same shape, so the directory alone
# moves no measurement (a build's paths end up in its binary and can shift
# its code layout). Pair i runs seed i mod the list
# (default 7 11 13). First, for each distinct seed the pairs use, prints both
# sides' export digests, from
#   ipipe-benchmark --child rep --workload W --seed S --scale 0.0833333
# Then prints every run, per metric each side's quartiles and the change's
# wins, and whether sim_goodput_rps / attempted / failed / correct matched in
# every pair. Exits 1 when they did not, or when a digest differed. Needs
# python3.
#
# --pmu also counts user-space instructions, cycles, cache misses and branch
# misses: an LD_PRELOAD library (built with cc, in the style of
# heap_census.sh) opens perf_event_open counters in every benchmark process,
# its worker threads included, and writes them at exit. A run's count is the median over its
# timed `--child rep` processes, each counted whole (set-up and the
# calibration kernel too). Each counter's quartiles per side and the change's
# delta print beside the wall-time ones. Instructions moved means the work
# changed; only cycles moved means locality or layout, and branch misses
# moving with them means prediction. Where the kernel hides
# the PMU a counter prints "unavailable" and the reason, never a zero.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: ab_pairs.sh <workload> [--pairs N] [--seconds S] [--ref REF] [--pmu] [seed ...]"
workload=${1:?$usage}
shift
pairs=10 seconds=20 ref=HEAD~1 pmu=0 seeds=()
while (($#)); do
    case $1 in
    --pairs) pairs=$2 && shift 2 ;;
    --seconds) seconds=$2 && shift 2 ;;
    --ref) ref=$2 && shift 2 ;;
    --pmu) pmu=1 && shift ;;
    -*) echo "$usage" >&2 && exit 2 ;;
    *) seeds+=("$1") && shift ;;
    esac
done
((${#seeds[@]})) || seeds=(7 11 13)

parent=target/ab/parent change=target/ab/change
rm -rf "$parent" "$change"
mkdir -p "$parent" "$change"
git archive "$ref" | tar -x -C "$parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
    tar -c --null -T - | tar -x -C "$change"
for side in "$parent" "$change"; do
    cargo build --release --offline --quiet \
        --manifest-path "$side/benchmark/Cargo.toml" --target-dir "$side/benchmark/target"
done

digest() { # <side dir> <seed>
    "$1/benchmark/target/release/ipipe-benchmark" --child rep --workload "$workload" \
        --seed "$2" --scale 0.0833333 | sed -n 's/^digest //p'
}
digests_moved=0 seen=" "
for ((i = 0; i < pairs && i < ${#seeds[@]}; i++)); do
    seed=${seeds[i]}
    [[ $seen == *" $seed "* ]] && continue
    seen+="$seed "
    a=$(digest "$parent" "$seed") b=$(digest "$change" "$seed")
    if [[ -n $a && $a == "$b" ]]; then
        echo "seed $seed export digest: parent $a, change $b"
    else
        echo "seed $seed export digest: parent $a, change $b -- DIFFERENT"
        digests_moved=1
    fi
done

pmu_dir=$PWD/target/ab/pmu
if ((pmu)); then
    rm -rf "$pmu_dir"
    mkdir -p "$pmu_dir"
    cat > "$pmu_dir/pmu.c" <<'EOF'
/* Hardware event counters for one process and the threads it starts:
 * user-space instructions, cycles, cache misses and branch misses, opened before main
 * (perf_event_open, exclude_kernel, inherited by threads but not by child
 * processes, which count themselves) and written at exit to
 * $PMU_COUNT_DIR/<pid> as `name value` lines after a `cmd` line. A counter
 * the kernel refused, never scheduled or that counted nothing is written as
 * `name unavailable: <reason>`; a multiplexed one is scaled to the time it
 * was enabled. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <linux/perf_event.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

static const struct {
    const char *name;
    uint64_t config;
} events[] = {
    {"instructions", PERF_COUNT_HW_INSTRUCTIONS},
    {"cycles", PERF_COUNT_HW_CPU_CYCLES},
    {"cache_misses", PERF_COUNT_HW_CACHE_MISSES},
    {"branch_misses", PERF_COUNT_HW_BRANCH_MISSES},
};
#define N_EVENTS (sizeof events / sizeof events[0])
static int fds[N_EVENTS];
static int errs[N_EVENTS];

__attribute__((constructor)) static void start(void) {
    for (unsigned i = 0; i < N_EVENTS; i++) {
        struct perf_event_attr a;
        memset(&a, 0, sizeof a);
        a.size = sizeof a;
        a.type = PERF_TYPE_HARDWARE;
        a.config = events[i].config;
        a.exclude_kernel = 1;
        a.exclude_hv = 1;
        a.inherit = 1;
        a.inherit_thread = 1;
        a.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
        fds[i] = (int)syscall(SYS_perf_event_open, &a, 0, -1, -1, PERF_FLAG_FD_CLOEXEC);
        errs[i] = fds[i] < 0 ? errno : 0;
    }
}

__attribute__((destructor)) static void stop(void) {
    const char *dir = getenv("PMU_COUNT_DIR");
    if (!dir)
        return;
    char cmd[2048] = {0}, path[4096];
    int c = open("/proc/self/cmdline", O_RDONLY);
    ssize_t n = c < 0 ? 0 : read(c, cmd, sizeof cmd - 1);
    if (c >= 0)
        close(c);
    for (ssize_t i = 0; i < n; i++)
        if (cmd[i] == '\0')
            cmd[i] = ' ';
    snprintf(path, sizeof path, "%s/%d", dir, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    fprintf(f, "cmd %s\n", cmd);
    for (unsigned i = 0; i < N_EVENTS; i++) {
        uint64_t v[3]; /* value, time enabled, time running */
        if (fds[i] < 0)
            fprintf(f, "%s unavailable: %s\n", events[i].name, strerror(errs[i]));
        else if (read(fds[i], v, sizeof v) != sizeof v || v[2] == 0)
            fprintf(f, "%s unavailable: never scheduled\n", events[i].name);
        else if (v[0] == 0)
            fprintf(f, "%s unavailable: counted nothing\n", events[i].name);
        else
            fprintf(f, "%s %.0f\n", events[i].name, (double)v[0] * v[1] / v[2]);
    }
    fclose(f);
}
EOF
    cc -O2 -shared -fPIC -o "$pmu_dir/pmu.so" "$pmu_dir/pmu.c"
fi

runs=target/ab/runs.jsonl
: > "$runs"
run() { # <side name> <side dir> <pair> <seed>
    local json counts=()
    if ((pmu)); then
        mkdir -p "$pmu_dir/$1-$3"
        counts=(env LD_PRELOAD="$pmu_dir/pmu.so" PMU_COUNT_DIR="$pmu_dir/$1-$3")
    fi
    json=$(${counts[@]+"${counts[@]}"} bash "$2/benchmark/run.sh" --workload "$workload" \
        --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "pair $3 seed $4 $1: $json"
    echo "{\"pair\": $3, \"seed\": $4, \"side\": \"$1\", \"result\": $json}" >> "$runs"
}
for ((i = 0; i < pairs; i++)); do
    seed=${seeds[i % ${#seeds[@]}]}
    if ((i % 2)); then
        run change "$change" "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    else
        run parent "$parent" "$i" "$seed"
        run change "$change" "$i" "$seed"
    fi
done

python3 - "$runs" "$workload" "$ref" "$pmu" "$pmu_dir" <<'EOF'
import json, os, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
        for s in ("parent", "change")}
n = len(side["parent"])
print(f"\n{sys.argv[2]}: {n} pairs, parent {sys.argv[3]} against the working tree")

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3

for name, meta in side["parent"][0]["result"]["metrics"].items():
    p, c = ([r["result"]["metrics"][name]["value"] for r in side[s]] for s in ("parent", "change"))
    if name == "sim_goodput_rps":
        continue  # simulated: must match, checked below
    wins = sum(b < a for a, b in zip(p, c))  # every host-side metric: lower is better
    ties = sum(b == a for a, b in zip(p, c))
    (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
    print(f"  {name} [{meta['unit']}]")
    print(f"    parent  q1 {p1:.4g}  median {p2:.4g}  q3 {p3:.4g}  (iqr {p3 - p1:.3g})")
    print(f"    change  q1 {c1:.4g}  median {c2:.4g}  q3 {c3:.4g}")
    print(f"    change wins {wins} of {n}, ties {ties}; medians {p2:.4g} -> {c2:.4g}"
          f" ({100 * (c2 - p2) / p2:+.1f}%), pairwise "
          + " ".join(f"{100 * (b - a) / a:+.0f}%" for a, b in zip(p, c)))

def counts(run_dir):
    """Each counter's median over one run's timed repetitions (`--child rep`
    at the run's largest scale, no reference or tracing variant), or the
    reason it is unavailable."""
    procs = []
    for name in os.listdir(run_dir):
        lines = dict(l.rstrip("\n").split(" ", 1) for l in open(os.path.join(run_dir, name)))
        cmd = lines.pop("cmd", "").split()
        variant = {"--serial", "--threaded", "--trace-ring", "--trace-out"} & set(cmd)
        if "rep" in cmd and "--child" in cmd and "--scale" in cmd and not variant:
            procs.append((float(cmd[cmd.index("--scale") + 1]), lines))
    top = max((scale for scale, _ in procs), default=None)
    timed = [lines for scale, lines in procs if scale == top]
    out = {}
    for counter in dict.fromkeys(k for lines in timed for k in lines):
        values = [lines.get(counter, "unavailable: not written") for lines in timed]
        hidden = [v for v in values if v.startswith("unavailable")]
        out[counter] = hidden[0] if hidden else statistics.median(map(float, values))
    return out

if sys.argv[4] == "1":
    pmu = {s: [counts(os.path.join(sys.argv[5], f"{s}-{r['pair']}")) for r in side[s]]
           for s in ("parent", "change")}
    names = dict.fromkeys(k for runs_of in pmu.values() for c in runs_of for k in c)
    print("  user-space counts, whole process, median over each run's timed repetitions")
    if not names:
        print("    unavailable: no timed repetition wrote its counters")
    for name in names:
        got = [c.get(name, "unavailable: not written") for runs_of in pmu.values() for c in runs_of]
        hidden = [v for v in got if isinstance(v, str)]
        if hidden:
            print(f"    {name}: {hidden[0]}")
            continue
        p, c = ([x[name] for x in pmu[s]] for s in ("parent", "change"))
        wins = sum(b < a for a, b in zip(p, c))
        (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
        print(f"    {name}")
        print(f"      parent  q1 {p1:.6g}  median {p2:.6g}  q3 {p3:.6g}  (iqr {p3 - p1:.3g})")
        print(f"      change  q1 {c1:.6g}  median {c2:.6g}  q3 {c3:.6g}")
        print(f"      change lower in {wins} of {n}; medians {p2:.6g} -> {c2:.6g}"
              f" ({c2 - p2:+.4g}, {100 * (c2 - p2) / p2:+.2f}%)")

def simulated(r):
    res = r["result"]
    return (res["correct"], res["attempted"], res["failed"],
            res["metrics"]["sim_goodput_rps"]["value"])

moved = [(a["pair"], simulated(a), simulated(b))
         for a, b in zip(side["parent"], side["change"]) if simulated(a) != simulated(b)]
for pair, a, b in moved:
    print(f"  pair {pair}: (correct, attempted, failed, sim_goodput_rps) {a} -> {b}")
if moved or not all(simulated(r)[0] for r in runs):
    sys.exit("simulated results moved, or a run was incorrect")
print("  correct / attempted / failed / sim_goodput_rps: identical in every pair")
EOF

if ((digests_moved)); then
    echo "export digests differ between the sides" >&2
    exit 1
fi
