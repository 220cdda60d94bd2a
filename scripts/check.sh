#!/usr/bin/env bash
# The gates, one definition each: CI jobs call them by stage name, and with
# no argument this is the full local gate, everything CI would require.
#   ./scripts/check.sh [stage ...]
#   stages: fmt build test clippy doc queue-deep bench-smoke scenarios figures (default), repin
set -euo pipefail
cd "$(dirname "$0")/.."

figures() { cargo run --release -q -p ipipe-bench --bin figures -- "$@"; }

stage_fmt() { cargo fmt --all --check; }
stage_build() { cargo build --release --workspace; }
stage_test() { cargo test --workspace -q; }
stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

# Intra-doc links (`[`Cluster::set_client`]`, ...) are checked by nothing
# else; a moved or renamed item must not leave one dangling.
stage_doc() { RUSTDOCFLAGS="-D warnings" cargo doc --no-deps; }

# The event queue against its BTreeMap reference, a client's retry deadline
# set against its BTreeSet reference, the scheduler's `decide` against its
# ALG 1/2 reference model, and the windowed latency histogram against its
# dense reference, at 4,000 cases each in release mode: the same
# differentials `test` runs at 64, 256, 64 and 64 (one shared body each).
stage_queue-deep() {
    cargo test --release -p ipipe-sim --test queue_ref -- --ignored
    cargo test --release -p ipipe --lib retry_deadlines -- --ignored
    cargo test --release -p ipipe --lib decide_matches_reference -- --ignored
    cargo test --release -p ipipe-sim --lib histogram_matches_dense_reference -- --ignored
}

# The benchmark at smoke size: every workload's audits, export digests and
# same-seed determinism checks; no wall-clock threshold — performance
# claims come from full `benchmark/run.sh` runs.
stage_bench-smoke() { bash benchmark/run.sh --smoke; }

# Every registered scenario, at both sizes: the run asserts its own audits,
# and the same seed twice at 4 shards and 1 vs 4 shards must export
# byte-identically.
stage_scenarios() {
    for scenario in rkv rkv-fault rkv-scale rkv-overload tcp-offload pod; do
        echo "==> scenario smoke: $scenario"
        ./scripts/scenario_smoke.sh "$scenario"
    done
    # `traceview --grep` prints only the counter rows, totals and histograms
    # it names, and at least one of them.
    echo "==> traceview --grep sched.migrate"
    cargo run --release -q -p ipipe-bench --bin traceview -- \
        --scenario pod --smoke --grep sched.migrate |
        awk '/^== counters/ { on = 1; next } /^== trace/ { on = 0 }
             on && !/^==/ && $1 != "name" {
                 if ($1 ~ /^sched\.migrate\./) n++; else { print "unfiltered: " $0; bad = 1 }
             }
             END { exit bad || n == 0 }'
}

stage_figures() {
    # The RTA/DT figures once differed between runs of one binary (HashMap
    # order reached the simulation): three fresh processes, each with its
    # own hasher seed, must print the same bytes.
    local figs
    figs=$(mktemp -d)
    for run in 1 2 3; do
        figures fig13 fig14 fig15 fig18 > "$figs/$run.txt"
    done
    cmp "$figs/1.txt" "$figs/2.txt" && cmp "$figs/2.txt" "$figs/3.txt"
    rm -rf "$figs"
    # Every figure, the full DSE grid included, against the committed ledger,
    # naming each moved number.
    cargo test --release -q -p ipipe-bench --lib every_figure_matches_the_ledger -- --ignored
}

# After a deliberate behaviour change, once `figures` has said what moved.
stage_repin() { figures all > figures_output.txt; }

[ $# -gt 0 ] || set -- fmt build test clippy doc queue-deep bench-smoke scenarios figures
for stage in "$@"; do
    declare -F "stage_$stage" > /dev/null || { echo "unknown stage: $stage" >&2; exit 2; }
done
for stage in "$@"; do
    echo "==> $stage"
    "stage_$stage"
done
echo "==> all checks passed"
