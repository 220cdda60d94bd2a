#!/usr/bin/env bash
# Build the benchmark exactly as the root workspace builds the program
# (release, offline, no profile overrides) and run it. Every argument passes
# through: --seed N, --seconds S, --smoke, --traced, --check-repeat for the
# whole suite; --workload NAME --seed N --seconds S --trace 0|1 for one
# workload with the driver's JSON object as the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

# Build chatter goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/ipipe-benchmark" --out "$here/out" "$@"
