#!/usr/bin/env bash
# Which exported metrics a change moves. Every scenario of `check.sh
# scenarios` runs at smoke size under one seed,
#   traceview --scenario S --smoke --seed N --out DIR
# once with REF's build and once with the working tree's, and the two
# metrics.jsonl files are compared line by line.
#   ./scripts/export_diff.sh [--ref REF] [seed]
# REF (default HEAD~1) is unpacked with `git archive` into
# target/export-diff/parent, as ab_pairs.sh does; the seed defaults to 7.
# Prints per scenario the names of the metrics whose lines differ, and
# exits 1 if any do.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: export_diff.sh [--ref REF] [seed]"
ref=HEAD~1 seed=7
while (($#)); do
    case $1 in
    --ref) ref=$2 && shift 2 ;;
    -*) echo "$usage" >&2 && exit 2 ;;
    *) seed=$1 && shift ;;
    esac
done
scenarios=$(sed -n 's/^ *for scenario in \(.*\); do$/\1/p' scripts/check.sh)
[ -n "$scenarios" ] || { echo "no scenario list in scripts/check.sh" >&2 && exit 2; }

out=target/export-diff
parent=$out/parent
rm -rf "$out"
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
for side in "$parent" .; do
    cargo build --release --offline --quiet --manifest-path "$side/Cargo.toml" \
        -p ipipe-bench --bin traceview
done

moved=0
for scenario in $scenarios; do
    for side in parent change; do
        bin=./target/release/traceview
        [ "$side" = change ] || bin=$parent/target/release/traceview
        "$bin" --scenario "$scenario" --smoke --seed "$seed" \
            --out "$out/$side/$scenario" > /dev/null 2>&1 ||
            { echo "$side traceview failed on $scenario" >&2 && exit 2; }
    done
    names=$(
        { diff <(sort "$out/parent/$scenario/metrics.jsonl") \
            <(sort "$out/change/$scenario/metrics.jsonl") || true; } |
            sed -n 's/^[<>] .*"name":"\([^"]*\)".*/\1/p' | sort -u | tr '\n' ' '
    )
    if [ -n "$names" ]; then
        moved=1
        echo "$scenario: $names"
    else
        echo "$scenario: identical"
    fi
done
exit "$moved"
