#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; see README.md.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   bench/run.sh [--sets N] [--seed N] [--seconds S]
#       every workload, untraced then traced, N times over, with each
#       bounded metric's spread across sets judged against its bound
#   bench/run.sh --print-benchmark-json
#       the text BENCHMARK.json must have
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the driver sets one) is relative to the
# directory the command runs from, so cargo is not run from elsewhere.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/wormbench" --out "$here/out" --commit "$commit" "$@"
