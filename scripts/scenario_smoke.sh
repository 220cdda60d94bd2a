#!/usr/bin/env bash
# One scenario's determinism gate, at both sizes: the same seed twice at 4
# shards, in two processes, must write byte-identical summaries and exports,
# and the serial run must match the 4-shard one. The run itself asserts its
# audits (it panics if dirty).
#   ./scripts/scenario_smoke.sh <scenario>     (names: traceview --help)
set -euo pipefail
cd "$(dirname "$0")/.."
name=${1:?usage: scenario_smoke.sh <scenario>}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # <tag> <traceview args...>
    local tag=$1
    shift
    cargo run --release -q -p ipipe-bench --bin traceview -- \
        --scenario "$name" --seed 11 "$@" --out "$out/$tag" \
        > "$out/$tag.txt" 2> "$out/$tag.err" || { cat "$out/$tag.err" >&2; exit 1; }
}
metric_lines() { grep -E '"type":"(counter|gauge|hist|meta)"' "$1/metrics.jsonl"; }

for size in --smoke ""; do
    run a --shards 4 $size
    run b --shards 4 $size
    diff -u "$out/a.txt" "$out/b.txt"
    diff -r "$out/a" "$out/b"
    run serial --shards 1 $size
    if grep -q '"trace_dropped":0}' "$out/serial/metrics.jsonl"; then
        diff -u "$out/serial.txt" "$out/a.txt"
        diff -r "$out/serial" "$out/a"
    else
        # Every shard records into the cluster's one trace ring, so an
        # overflowing run records and drops as many records at any shard
        # count, but the ring keeps the newest in the order the shards pushed
        # them and can differ at the retention boundary (ROADMAP item 5(b)).
        # Its metric lines and its meta line must still match.
        echo "$name ${size:---full}: trace ring overflowed, comparing metric and meta lines only"
        diff <(metric_lines "$out/serial") <(metric_lines "$out/a")
    fi
    echo "$name ${size:---full}: byte-identical (same seed twice, 1 vs 4 shards)"
done
