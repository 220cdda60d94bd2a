"""The benchmark binary with line tables, and its addresses as function names:
the part sample_profile.sh and heap_census.sh share.

    python3 scripts/symbolize.py build

builds the benchmark as benchmark/run.sh does, plus line tables and inlining
info, under target/symbolize, and prints the binary's path. The scripts'
own Python imports `symbolize` (with scripts/ on PYTHONPATH) to name the
addresses their preload libraries recorded.
"""
import os
import re
import subprocess
import sys

TARGET = "target/symbolize"


def build():
    env = dict(os.environ, CARGO_PROFILE_RELEASE_DEBUG="1")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", "benchmark/Cargo.toml", "--target-dir", TARGET],
                   env=env, check=True)
    return f"{TARGET}/release/ipipe-benchmark"


def short(name):  # rt::shard::<impl rt::ShardState>::run_slice -> rt::ShardState::run_slice
    return re.sub(r"(?:\w+::)*<impl ([^<>]+)>", r"\1", name)


def symbolize(binary, stacks):
    """Each stack of ELF virtual addresses as the names of its functions,
    innermost first, an address's inlined functions each counted as a frame,
    "??" for an address outside the executable."""
    addrs = sorted({a for s in stacks for a in s})
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                         input="".join(f"{a:x}\n" for a in addrs),
                         capture_output=True, text=True, check=True).stdout.split("\n")
    names, cur = {}, None  # address -> its functions, innermost (inlined) first
    for line in out:  # per address: its 0x line, then (function, file:line) pairs
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur, is_function = names.setdefault(int(line, 16), []), True
        elif cur is not None:
            if is_function:
                cur.append(short(line))
            is_function = not is_function
    return [[n for a in s for n in names.get(a, ["??"])] for s in stacks]


if __name__ == "__main__":
    if sys.argv[1:] != ["build"]:
        sys.exit("usage: symbolize.py build")
    print(build())
