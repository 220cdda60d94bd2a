#!/usr/bin/env bash
# Full local gate: everything CI would require before merging.
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# The benchmark at smoke size: every workload's audits, export digests and
# same-seed determinism checks; no wall-clock threshold.
echo "==> benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

# Every registered scenario (mirrors the CI scenarios matrix): same seed
# twice and 1 vs 4 shards must export byte-identically, at both sizes.
for scenario in rkv rkv-fault rkv-scale rkv-overload tcp-offload pod; do
    echo "==> scenario smoke: $scenario"
    ./scripts/scenario_smoke.sh "$scenario"
done

# The RTA/DT figures once differed between runs of one binary (HashMap
# order reached the simulation): three fresh processes, each with its own
# hasher seed, must print the same bytes.
echo "==> figures fig13 fig14 fig15 fig18: three fresh-process runs, byte-identical"
figs=$(mktemp -d)
for run in 1 2 3; do
    ./target/release/figures fig13 fig14 fig15 fig18 > "$figs/$run.txt"
done
cmp "$figs/1.txt" "$figs/2.txt" && cmp "$figs/2.txt" "$figs/3.txt"
rm -rf "$figs"

# The committed copy of every table and figure is what the code prints now
# (the CI determinism job's command; regenerate the file with it when a
# figure moves on purpose).
echo "==> figures all vs figures_output.txt"
cargo run --release -q -p ipipe-bench --bin figures -- all | cmp - figures_output.txt

# DSE smoke (mirrors the CI dse-smoke job): the 16-design smoke grid's
# canonical export must be byte-identical between a serial run and a
# parallel run with the same seed. (Its property and unit suites, like
# every scenario's, already ran under `cargo test -q` above.)
echo "==> dse smoke (16-design grid; serial vs parallel byte-diff)"
cargo run --release -q -p ipipe-bench --bin dse -- \
    --smoke --seed 17 --serial --export /tmp/dse_serial.txt > /dev/null
cargo run --release -q -p ipipe-bench --bin dse -- \
    --smoke --seed 17 --export /tmp/dse_parallel.txt > /dev/null
diff /tmp/dse_serial.txt /tmp/dse_parallel.txt
echo "dse smoke exports are byte-identical (serial vs parallel)"

echo "==> all checks passed"
