#!/usr/bin/env bash
# Which exported metrics a change moves. Every scenario of `check.sh
# scenarios` runs at smoke size under each seed given,
#   traceview --scenario S --smoke --seed N --out DIR
# once with REF's build and once with the working tree's, and the two
# metrics.jsonl files are compared metric by metric.
#   ./scripts/export_diff.sh [--ref REF] [seed ...]
# REF (default HEAD~1) is unpacked with `git archive` into
# target/export-diff/parent, as ab_pairs.sh does; the seeds default to 7.
# Prints per seed and scenario each metric line that differs, as `name
# node: parent → change` (a histogram's value is its count and quantiles;
# "absent" when one side lacks the line), then the names of trace records
# that differ; exits 1 if anything differs under any seed. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: export_diff.sh [--ref REF] [seed ...]"
ref=HEAD~1 seeds=()
while (($#)); do
    case $1 in
    --ref) ref=$2 && shift 2 ;;
    -*) echo "$usage" >&2 && exit 2 ;;
    *) seeds+=("$1") && shift ;;
    esac
done
((${#seeds[@]})) || seeds=(7)
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
for seed in "${seeds[@]}"; do
    runs=$out/seed-$seed
    for scenario in $scenarios; do
        for side in parent change; do
            bin=./target/release/traceview
            [ "$side" = change ] || bin=$parent/target/release/traceview
            "$bin" --scenario "$scenario" --smoke --seed "$seed" \
                --out "$runs/$side/$scenario" > /dev/null 2>&1 ||
                { echo "$side traceview failed on $scenario, seed $seed" >&2 && exit 2; }
        done
        report=$(python3 - "$runs"/{parent,change}/"$scenario"/metrics.jsonl <<'EOF'
import json, sys
from collections import Counter

def load(path):
    metrics, records = {}, Counter()
    for line in open(path):
        rec = json.loads(line)
        if rec["type"] not in ("counter", "gauge", "hist"):
            records[line] += 1
            continue
        rest = " ".join(f"{k}={v}" for k, v in rec.items() if k not in ("type", "name", "node"))
        metrics[rec["name"], rec["node"]] = rest.removeprefix("value=")
    return metrics, records

(parent, parent_records), (change, change_records) = map(load, sys.argv[1:])
for key in sorted(parent.keys() | change.keys()):
    old, new = parent.get(key, "absent"), change.get(key, "absent")
    if old != new:
        print(f"  {key[0]} {key[1]}: {old} → {new}")
differ = (parent_records - change_records) + (change_records - parent_records)
for name in sorted({json.loads(line).get("name", "meta") for line in differ}):
    print(f"  {name}: trace records differ")
EOF
        )
        if [ -n "$report" ]; then
            moved=1
            echo "seed $seed $scenario:"
            echo "$report"
        else
            echo "seed $seed $scenario: identical"
        fi
    done
done
exit "$moved"
