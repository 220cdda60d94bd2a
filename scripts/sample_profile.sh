#!/usr/bin/env bash
# Where one benchmark workload spends its host time, by sampling: for boxes
# with no PMU, perf, valgrind or gdb. An LD_PRELOAD library takes a
# backtrace() on every ITIMER_PROF tick of a benchmark repetition; the
# addresses are symbolised with addr2line (inlined frames included) and
# reduced to three tables over the samples under one root function.
#   ./scripts/sample_profile.sh <workload> [seed] [reps] [cut] [root]
# <workload> is a benchmark/run.sh workload (rkv-steady, pod-par2, tcp-lossy,
# dse-grid), run at the size of `--seconds 20`. The kernel ticks ITIMER_PROF
# every 4 ms here, about 230 samples per repetition, hence 8 repetitions.
# The third table charges each sample to the innermost frame whose demangled
# name contains an entry of the cut list; [cut] = "a,b,..." replaces the list
# ("" keeps the default). [root] (default Cluster::run_for) keeps the samples
# with a frame whose name ends in it and cuts each stack there; "-" keeps
# every sample whole, set-up and work outside the cluster loop included (the
# fig16 cells of dse-grid run under EventQueue::run_until, not run_for).
# Needs cc, addr2line and python3; everything it writes goes under
# target/sample-profile.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: sample_profile.sh <workload> [seed] [reps] [cut] [root]}
seed=${2:-11}
reps=${3:-8}
# Layers of the request path and of the TCP transport (neither's names occur
# in the other's workloads), plus two that cut across them: hash-table probes,
# and "??", code outside the executable (libc's malloc, free, memcpy).
cut=${4:-DmoSkipList::,DmoTable::,NicScheduler::evaluate_regrouping,NicScheduler::,EventQueue<,MergePool<,NetModel::,AggKvStream::,tcp::stream,TcpSender::,TcpReceiver::,nstack::,FaultPlan::,Histogram::,obs::,hashbrown::,??}
root=${5:-Cluster::run_for}
dir=target/sample-profile
mkdir -p "$dir"

cat > "$dir/sampler.c" <<'EOF'
/* SIGPROF sampler: one backtrace() per tick into a preallocated buffer,
 * written out at exit as lines of ELF virtual addresses, innermost first. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define DEPTH 96
#define MAX_SAMPLES (1 << 16)
static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;
static unsigned long base;

static void on_tick(int sig) {
    (void)sig;
    int i = __sync_fetch_and_add(&taken, 1);
    if (i < MAX_SAMPLES)
        depth[i] = backtrace(frames[i], DEPTH);
}

static int first_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(unsigned long *)out = info->dlpi_addr; /* the executable comes first */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    dl_iterate_phdr(first_object, &base);
    struct sigaction sa = {.sa_handler = on_tick, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        /* frames 0 and 1 are the handler and the signal trampoline */
        for (int j = 2; j < depth[i]; j++)
            fprintf(f, "%lx ", (unsigned long)frames[i][j] - base);
        fputc('\n', f);
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

# The benchmark as the driver builds it, plus line tables and inlining info.
CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir/target"
bin=$dir/target/release/ipipe-benchmark

rm -f "$dir"/samples.*
for rep in $(seq "$reps"); do
    SAMPLE_OUT=$dir/samples.$rep LD_PRELOAD=$PWD/$dir/sampler.so "$bin" \
        --child rep --workload "$workload" --seed "$seed" --scale 0.083333 > /dev/null
done

python3 - "$bin" "$cut" "$root" "$dir"/samples.* <<'EOF'
import collections, re, subprocess, sys

binary, cut, root, files = sys.argv[1], sys.argv[2].split(","), sys.argv[3], sys.argv[4:]
samples = [l.split() for f in files for l in open(f) if l.strip()]
# The interrupted pc is exact; every outer frame is a return address, which
# belongs to the call one byte earlier.
samples = [[int(a, 16) - (i > 0) for i, a in enumerate(s)] for s in samples]
addrs = sorted({a for s in samples for a in s})
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="".join(f"{a:x}\n" for a in addrs),
                     capture_output=True, text=True, check=True).stdout.split("\n")
names, cur = {}, None  # address -> its functions, innermost (inlined) first
for line in out:  # per address: its 0x line, then (function, file:line) pairs
    if re.fullmatch(r"0x[0-9a-f]+", line):
        cur, is_function = names.setdefault(int(line, 16), []), True
    elif cur is not None:
        if is_function:
            cur.append(line)
        is_function = not is_function

def short(name):  # rt::shard::<impl rt::ShardState>::run_slice -> rt::ShardState::run_slice
    return re.sub(r"(?:\w+::)*<impl ([^<>]+)>", r"\1", name)

stacks = []
for s in samples:
    stack = [short(n) for a in s for n in names.get(a, ["??"])]
    if root == "-":  # libc's thread and process start frames are "??" too
        stacks.append(stack[:1] + [n for n in stack[1:] if n != "??"])
        continue
    roots = [i for i, n in enumerate(stack) if n.endswith(root)]
    if roots:
        stacks.append(stack[:roots[0]])
total = len(stacks)
under = "in the whole process" if root == "-" else f"under {root}"
print(f"{len(samples)} samples in {len(files)} repetitions, {total} {under}\n")
if not total:
    sys.exit(f"no sample under {root}: is this a cluster workload? (root - keeps every sample)")

def table(title, counts, rows=30):
    print(title)
    for name, n in counts.most_common(rows):
        print(f"  {100 * n / total:5.1f}%  {n:6d}  {name}")
    print()

table("self (innermost frame, inlined functions counted as themselves)",
      collections.Counter(s[0] if s else root for s in stacks))
table("inclusive (function anywhere in the stack, once per sample)",
      collections.Counter(n for s in stacks for n in set(s)), rows=40)
by_cut = collections.Counter()
for s in stacks:
    hit = next((c for n in s for c in cut if c in n), "(none of the cut list)")
    by_cut[hit] += 1
table("innermost function of the cut list (each sample counted once)", by_cut)
EOF
