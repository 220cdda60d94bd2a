#!/usr/bin/env bash
# Parent/change pairs of one benchmark workload, the way a performance claim
# is to be measured here (benchmark/README.md): both sides built first, then
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
# once per side per pair, the side that goes first alternating.
#   ./scripts/ab_pairs.sh <workload> [--pairs N] [--seconds S] [--ref REF] [seed ...]
# The change is this working tree; the parent is REF (default HEAD~1),
# unpacked with `git archive` into target/ab/parent — no worktree is
# registered, so nothing is left in .git. Pair i runs seed i mod the list
# (default 7 11 13). First, for each distinct seed the pairs use, prints both
# sides' export digests, from
#   ipipe-benchmark --child rep --workload W --seed S --scale 0.0833333
# Then prints every run, per metric each side's quartiles and the change's
# wins, and whether sim_goodput_rps / attempted / failed / correct matched in
# every pair. Exits 1 when they did not, or when a digest differed. Needs
# python3.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: ab_pairs.sh <workload> [--pairs N] [--seconds S] [--ref REF] [seed ...]"
workload=${1:?$usage}
shift
pairs=10 seconds=20 ref=HEAD~1 seeds=()
while (($#)); do
    case $1 in
    --pairs) pairs=$2 && shift 2 ;;
    --seconds) seconds=$2 && shift 2 ;;
    --ref) ref=$2 && shift 2 ;;
    -*) echo "$usage" >&2 && exit 2 ;;
    *) seeds+=("$1") && shift ;;
    esac
done
((${#seeds[@]})) || seeds=(7 11 13)

parent=target/ab/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
for side in "$parent" .; do
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
    a=$(digest "$parent" "$seed") b=$(digest . "$seed")
    if [[ -n $a && $a == "$b" ]]; then
        echo "seed $seed export digest: parent $a, change $b"
    else
        echo "seed $seed export digest: parent $a, change $b -- DIFFERENT"
        digests_moved=1
    fi
done

runs=target/ab/runs.jsonl
: > "$runs"
run() { # <side name> <side dir> <pair> <seed>
    local json
    json=$(bash "$2/benchmark/run.sh" --workload "$workload" --seed "$4" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    echo "pair $3 seed $4 $1: $json"
    echo "{\"pair\": $3, \"seed\": $4, \"side\": \"$1\", \"result\": $json}" >> "$runs"
}
for ((i = 0; i < pairs; i++)); do
    seed=${seeds[i % ${#seeds[@]}]}
    if ((i % 2)); then
        run change . "$i" "$seed"
        run parent "$parent" "$i" "$seed"
    else
        run parent "$parent" "$i" "$seed"
        run change . "$i" "$seed"
    fi
done

python3 - "$runs" "$workload" "$ref" <<'EOF'
import json, statistics, sys

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
