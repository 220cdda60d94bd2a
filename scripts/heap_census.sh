#!/usr/bin/env bash
# What holds a benchmark workload's heap at its peak, by allocation site: for
# boxes with no heaptrack, valgrind or gdb. An LD_PRELOAD library interposes
# glibc's malloc family, keeps the exact live byte count, and samples every
# 64th allocation and every allocation of 4 KiB or more with a backtrace()
# (a sampled small allocation stands for 64 times its size). A freed sampled
# pointer is forgotten; the live bytes per stack are copied whenever the live
# total reaches a new high-water mark (1% above the last copy), so the copy
# that survives is the live set at the peak. The addresses are symbolised
# by scripts/symbolize.py (addr2line, inlined frames included), as in
# sample_profile.sh, and reduced to two tables: by site (the innermost frame
# of this workspace's crates) and by the site with its two nearest callers.
# The same repetition runs once more without the census, and the
# `peak_rss_mib` it reports (its VmHWM) is printed beside the peak live heap:
# a gap much larger than the workload's non-heap memory is memory malloc
# keeps but the program no longer holds, such as an idle thread's arena.
#   ./scripts/heap_census.sh <workload> [seed]
# <workload> is a benchmark/run.sh workload (rkv-steady, pod-par2, tcp-lossy,
# dse-grid), run at benchmark/run.sh's default size (20 s, `--scale` 20 /
# 240). Needs cc, addr2line and python3; it builds the benchmark with
# scripts/symbolize.py (under target/symbolize) and writes the rest under
# target/heap-census.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: heap_census.sh <workload> [seed]"
workload=${1:?$usage}
seed=${2:-11}
scale=$(awk 'BEGIN { printf "%.7g", 20 / 240 }')
dir=target/heap-census
mkdir -p "$dir"

cat > "$dir/census.c" <<'EOF'
/* Live-heap census: malloc, calloc, realloc, free and the aligned
 * allocators forward to glibc's __libc_* entry points and keep the live
 * byte count (malloc_usable_size), its peak, and the sampled allocations'
 * live bytes per stack. The report goes to stderr at exit as `census` lines.
 * A thread-local guard keeps the census's own calls (backtrace() loads the
 * unwinder with malloc) out of the count. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 24
#define EVERY 64
#define BIG 4096
#define MAX_STACKS (1 << 15)
#define STACK_SLOTS (1 << 16)
#define LIVE_SLOTS (1 << 18)

static __thread int busy __attribute__((tls_model("initial-exec")));
static volatile int lock;
static unsigned long base;

static int64_t live, peak, copied;
static uint64_t allocs, sampled, dropped;

static void *stack_frames[MAX_STACKS][DEPTH];
static int stack_depth[MAX_STACKS];
static int stack_count;
static int stack_slot[STACK_SLOTS]; /* stack id + 1, 0 = empty */
static int64_t stack_live[MAX_STACKS], stack_peak[MAX_STACKS];

static struct { void *ptr; int64_t bytes; int stack; } tab[LIVE_SLOTS];

static uint64_t mix(uint64_t x) {
    x ^= x >> 33; x *= 0xff51afd7ed558ccdULL; x ^= x >> 33;
    return x;
}

static int intern(void **frames, int n) {
    uint64_t h = (uint64_t)n;
    for (int i = 0; i < n; i++) h = mix(h ^ (uint64_t)frames[i]);
    for (uint64_t i = h;; i++) {
        int *slot = &stack_slot[i & (STACK_SLOTS - 1)];
        if (!*slot) {
            if (stack_count == MAX_STACKS) return -1;
            memcpy(stack_frames[stack_count], frames, n * sizeof *frames);
            stack_depth[stack_count] = n;
            *slot = ++stack_count;
            return stack_count - 1;
        }
        int s = *slot - 1;
        if (stack_depth[s] == n && !memcmp(stack_frames[s], frames, n * sizeof *frames))
            return s;
    }
}

/* Linear probing with backward-shift deletion: no tombstones. */
static size_t home(void *p) { return mix((uint64_t)p) & (LIVE_SLOTS - 1); }

static void forget(void *p) {
    size_t i = home(p);
    while (tab[i].ptr && tab[i].ptr != p) i = (i + 1) & (LIVE_SLOTS - 1);
    if (!tab[i].ptr) return;
    stack_live[tab[i].stack] -= tab[i].bytes;
    sampled--;
    for (size_t j = (i + 1) & (LIVE_SLOTS - 1); tab[j].ptr; j = (j + 1) & (LIVE_SLOTS - 1)) {
        size_t h = home(tab[j].ptr);
        if (((j - h) & (LIVE_SLOTS - 1)) >= ((j - i) & (LIVE_SLOTS - 1))) {
            tab[i] = tab[j];
            i = j;
        }
    }
    tab[i].ptr = NULL;
}

static void acquire(void) { while (__sync_lock_test_and_set(&lock, 1)) {} }
static void release(void) { __sync_lock_release(&lock); }

__attribute__((noinline)) static void on_alloc(void *p, size_t size) {
    if (!p || busy) return;
    busy = 1;
    void *frames[DEPTH + 2];
    int n = 0;
    uint64_t nth = __sync_fetch_and_add(&allocs, 1);
    int sample = size >= BIG || nth % EVERY == 0;
    if (sample) n = backtrace(frames, DEPTH + 2) - 2; /* drop on_alloc, the hook */
    acquire();
    live += malloc_usable_size(p);
    if (sample) {
        int s = n > 0 ? intern(frames + 2, n) : -1;
        if (s < 0 || sampled * 2 >= LIVE_SLOTS) {
            dropped++;
        } else {
            size_t i = home(p);
            while (tab[i].ptr) i = (i + 1) & (LIVE_SLOTS - 1);
            tab[i].ptr = p;
            tab[i].bytes = size >= BIG ? (int64_t)size : (int64_t)size * EVERY;
            tab[i].stack = s;
            stack_live[s] += tab[i].bytes;
            sampled++;
        }
    }
    if (live > peak) {
        peak = live;
        if (peak > copied + copied / 100) {
            memcpy(stack_peak, stack_live, stack_count * sizeof *stack_live);
            copied = peak;
        }
    }
    release();
    busy = 0;
}

static void on_free(void *p) {
    if (!p || busy) return;
    acquire();
    live -= malloc_usable_size(p);
    forget(p);
    release();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    on_alloc(p, size);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    on_alloc(p, n * size);
    return p;
}

void *realloc(void *old, size_t size) {
    on_free(old);
    void *p = __libc_realloc(old, size);
    if (!p && size && old) { /* failed: the old block is still live */
        on_alloc(old, malloc_usable_size(old));
        return p;
    }
    on_alloc(p, size);
    return p;
}

void free(void *p) {
    on_free(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    on_alloc(p, size);
    return p;
}

void *aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = memalign(align, size);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(unsigned long *)out = info->dlpi_addr; /* the executable comes first */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    busy = 1;
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside a hook */
    dl_iterate_phdr(first_object, &base);
    busy = 0;
}

__attribute__((destructor)) static void finish(void) {
    busy = 1;
    acquire();
    fprintf(stderr,
            "census peak %lld copied %lld allocs %llu dropped %llu\n", (long long)peak,
            (long long)copied, (unsigned long long)allocs, (unsigned long long)dropped);
    for (int s = 0; s < stack_count; s++) {
        if (stack_peak[s] <= 0) continue;
        fprintf(stderr, "census stack %lld", (long long)stack_peak[s]);
        for (int j = 0; j < stack_depth[s]; j++)
            fprintf(stderr, " %lx", (unsigned long)stack_frames[s][j] - base);
        fputc('\n', stderr);
    }
    release();
}
EOF
cc -O2 -shared -fPIC -o "$dir/census.so" "$dir/census.c"

bin=$(python3 scripts/symbolize.py build)
rep=("$bin" --child rep --workload "$workload" --seed "$seed" --scale "$scale")

LD_PRELOAD=$PWD/$dir/census.so "${rep[@]}" > /dev/null 2> "$dir/census.txt"
rss=$("${rep[@]}" | awk '$1 == "peak_rss_mib" { print $2 }')

PYTHONPATH=scripts python3 - "$bin" "$dir/census.txt" "$rss" <<'EOF'
import collections, re, sys
from symbolize import symbolize

binary, path, rss = sys.argv[1], sys.argv[2], float(sys.argv[3])
head, stacks = None, []
for line in open(path):
    f = line.split()
    if f[:2] == ["census", "peak"]:
        head = dict(zip(f[1::2], map(int, f[2::2])))
    elif f[:2] == ["census", "stack"]:
        # Every frame kept is a return address: the call is one byte earlier.
        stacks.append((int(f[2]), [int(a, 16) - 1 for a in f[3:]]))
if head is None:
    sys.exit(f"no census in {path}: did the workload run? (stderr is there)")
# A site is a frame of this workspace's crates; std, alloc, core and
# hashbrown frames (Vec::push, HashMap::insert, ...) are how it allocates, and
# so is the benchmark's counting GlobalAlloc.
ours = re.compile(r"^<?ipipe")
by_site, by_chain = collections.Counter(), collections.Counter()
for (bytes, _), frames in zip(stacks, symbolize(binary, [s for _, s in stacks])):
    mine = [n for n in frames if ours.match(n) and "GlobalAlloc>" not in n]
    by_site[mine[0] if mine else "(no frame of this workspace)"] += bytes
    by_chain[" <- ".join(mine[:3]) if mine else "(no frame of this workspace)"] += bytes
total = sum(by_site.values())
mib = 1 << 20
print(f"peak live heap {head['peak'] / mib:.2f} MiB beside peak_rss_mib {rss:.2f} MiB of the"
      f" same run without the census (census copied at"
      f" {head['copied'] / mib:.2f} MiB), {head['allocs']} allocations, {head['dropped']} samples"
      f" dropped; sampled bytes live at the copy: {total / mib:.2f} MiB\n")

def table(title, counts, rows):
    print(title)
    for name, n in counts.most_common(rows):
        print(f"  {n / mib:8.3f} MiB  {100 * n / max(total, 1):5.1f}%  {name}")
    print()

table("live at the peak, by site (innermost frame of this workspace)", by_site, 30)
table("live at the peak, by site <- caller <- caller", by_chain, 20)
EOF
