#!/usr/bin/env bash
# Build the shipped server (`rvsim-cli`, from the repository's own workspace)
# and the benchmark from source into one target directory, then run the
# benchmark with the given arguments.  Run it from the repository root:
#
#   bash benchmark/run.sh --workload gui_step --seed 1 --seconds 12 --trace 0
#
# The target directory is $CARGO_TARGET_DIR, or .bench_build when unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p rvsim-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/rvsim-benchmark" "$@"
