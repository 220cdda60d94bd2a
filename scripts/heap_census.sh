#!/usr/bin/env bash
# What holds a benchmark workload's heap at its peak, by allocation site: for
# boxes with no heaptrack, valgrind or gdb. An LD_PRELOAD library interposes
# glibc's malloc family, keeps the exact live byte count, and samples every
# 64th allocation and every allocation of 4 KiB or more with a backtrace()
# (a sampled small allocation stands for 64 times its size). A freed sampled
# pointer is forgotten; the live bytes per stack are copied whenever the live
# total reaches a new high-water mark (1% above the last copy), so the copy
# that survives is the live set at the peak. The addresses are symbolised
# with addr2line (inlined frames included), like sample_profile.sh, and
# reduced to two tables: by site (the innermost frame of this workspace's
# crates) and by the site with its two nearest callers. Beside the peak live
# heap it prints the process's VmHWM (peak RSS, read from /proc/self/status
# at exit) less the census's own tables (their pages resident at exit,
# counted with mincore, printed beside it): a gap much larger than the
# workload's non-heap memory is memory malloc keeps but the program no longer
# holds, such as an idle thread's arena.
#   ./scripts/heap_census.sh <workload> [seed]
# <workload> is a benchmark/run.sh workload (rkv-steady, pod-par2, tcp-lossy,
# dse-grid), run once at benchmark/run.sh's default size (20 s, `--scale` 20 /
# 240). Needs cc, addr2line and python3; everything it writes goes under
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
 * live bytes per stack. The report goes to stderr at exit as `census` lines,
 * with the process's VmHWM (-1 when /proc/self/status has none) and the bytes
 * of the census's own tables resident at exit (-1 when mincore fails).
 * A thread-local guard keeps the census's own calls (backtrace() loads the
 * unwinder with malloc) out of the count. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

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

/* VmHWM in bytes, read into a stack buffer (no malloc); -1 if absent. */
static long long vm_hwm(void) {
    char buf[8192];
    size_t len = 0;
    ssize_t n;
    int fd = open("/proc/self/status", O_RDONLY);
    if (fd < 0) return -1;
    while (len < sizeof buf - 1 && (n = read(fd, buf + len, sizeof buf - 1 - len)) > 0)
        len += (size_t)n;
    close(fd);
    buf[len] = 0;
    char *p = strstr(buf, "VmHWM:");
    return p ? strtoll(p + 6, NULL, 10) * 1024 : -1;
}

/* Bytes of the census's tables resident now, counted with mincore over the
 * pages from the lowest table to the end of the highest (all of it this
 * library's own data); -1 if mincore fails. */
static long long tables_resident(void) {
#define SPAN(x) {(uintptr_t)(x), (uintptr_t)(x) + sizeof(x)}
    uintptr_t t[][2] = {SPAN(stack_frames), SPAN(stack_depth), SPAN(stack_slot),
                        SPAN(stack_live),   SPAN(stack_peak),  SPAN(tab)};
    uintptr_t lo = UINTPTR_MAX, hi = 0;
    for (size_t i = 0; i < sizeof t / sizeof *t; i++) {
        if (t[i][0] < lo) lo = t[i][0];
        if (t[i][1] > hi) hi = t[i][1];
    }
    uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE), chunk = 4096 * page;
    unsigned char vec[4096];
    long long pages = 0;
    for (uintptr_t a = lo & ~(page - 1); a < hi; a += chunk) {
        size_t len = hi - a < chunk ? hi - a : chunk;
        if (mincore((void *)a, len, vec)) return -1;
        for (size_t i = 0; i < (len + page - 1) / page; i++) pages += vec[i] & 1;
    }
    return pages * (long long)page;
}

__attribute__((destructor)) static void finish(void) {
    busy = 1;
    acquire();
    fprintf(stderr,
            "census peak %lld copied %lld allocs %llu dropped %llu vmhwm %lld tables %lld\n",
            (long long)peak, (long long)copied, (unsigned long long)allocs,
            (unsigned long long)dropped, vm_hwm(), tables_resident());
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

# The benchmark as benchmark/run.sh builds it, plus line tables and inlining info.
CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir/target"
bin=$dir/target/release/ipipe-benchmark

LD_PRELOAD=$PWD/$dir/census.so "$bin" --child rep --workload "$workload" --seed "$seed" \
    --scale "$scale" > /dev/null 2> "$dir/census.txt"

python3 - "$bin" "$dir/census.txt" <<'EOF'
import collections, re, subprocess, sys

binary, path = sys.argv[1], sys.argv[2]
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
addrs = sorted({a for _, s in stacks for a in s})
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

# A site is a frame of this workspace's crates; std, alloc, core and
# hashbrown frames (Vec::push, HashMap::insert, ...) are how it allocates, and
# so is the benchmark's counting GlobalAlloc.
ours = re.compile(r"^<?ipipe")
by_site, by_chain = collections.Counter(), collections.Counter()
for bytes, s in stacks:
    frames = [short(n) for a in s for n in names.get(a, ["??"])]
    mine = [n for n in frames if ours.match(n) and "GlobalAlloc>" not in n]
    by_site[mine[0] if mine else "(no frame of this workspace)"] += bytes
    by_chain[" <- ".join(mine[:3]) if mine else "(no frame of this workspace)"] += bytes
total = sum(by_site.values())
mib = 1 << 20
hwm = "not read" if min(head["vmhwm"], head["tables"]) < 0 else (
    f"{(head['vmhwm'] - head['tables']) / mib:.2f} MiB (the census's own tables,"
    f" {head['tables'] / mib:.2f} MiB resident, taken out)")
print(f"peak live heap {head['peak'] / mib:.2f} MiB beside VmHWM {hwm} (census copied at"
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
