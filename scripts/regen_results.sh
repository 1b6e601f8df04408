#!/usr/bin/env bash
# The only writer of results/: regenerates every committed evaluation
# artifact. Each is a worm-bench paper-artifact bin's stdout; wall-clock
# numbers about the running system are not here, they come from
# `bash bench/run.sh`. No lint runs here: the source rules are clippy's
# and tier-1's (`tests/declared_sites.rs`), see docs/LINTS.md.
#
# Usage: scripts/regen_results.sh [--check]
#   --check  regenerate into a temporary directory instead and fail on
#            any byte of difference from results/, on a file in results/
#            that was not produced, and on a produced file that is not
#            committed. table2.txt is compared on its two model columns:
#            its `this machine` column and engines line are wall clock.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") out=results; mkdir -p "$out" ;;
  --check) out=$(mktemp -d); trap 'rm -rf "$out"' EXIT ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

# run <artifact> <bin> [--json]: the bin's stdout is the artifact. The
# bins' own assertions (shard_scaling: monotone per tier; powerfail:
# >= 1000 cut points, 100% clean; attack_matrix: every attack detected)
# fail the script through their exit status.
run() {
  local file="$1" bin="$2"; shift 2
  echo ">> $file"
  cargo run --release -q -p worm-bench --bin "$bin" -- "$@" > "$out/$file"
}

run table2.txt table2
run figure1.txt figure1
run ablation_merkle.txt ablation_merkle
run ablation_windows.txt ablation_windows
run ablation_deferred.txt ablation_deferred
run disk_bottleneck.txt disk_bottleneck
run attack_matrix.txt attack_matrix
run BENCH_shard_scaling.json shard_scaling --json
run BENCH_powerfail.json powerfail --json   # every write boundary x 4 cut styles, ~2 min

if [[ "$out" == results ]]; then
  echo "done; artifacts in results/"
  exit 0
fi

# Table 2 without this machine's wall clock: the rows cut after the
# P4-model column, the engines line dropped.
model_columns() {
  sed -E -e '/^engines on this machine:/d' \
    -e 's/^(.{58}) +[0-9.]+(\/s| MB\/s)$/\1/' "$1"
}

status=0
while read -r name; do
  if [[ ! -e "$out/$name" ]]; then
    echo "CHECK FAILED: results/$name is not produced by this script"
    status=1
  elif [[ ! -e "results/$name" || -z "$(git ls-files "results/$name")" ]]; then
    echo "CHECK FAILED: $name is produced but not committed under results/"
    status=1
  elif [[ "$name" == table2.txt ]]; then
    diff -u <(model_columns results/table2.txt) <(model_columns "$out/table2.txt") \
      || { echo "CHECK FAILED: results/table2.txt model columns differ"; status=1; }
  elif ! diff -u "results/$name" "$out/$name"; then
    echo "CHECK FAILED: results/$name differs from a fresh run"
    status=1
  fi
done < <( (ls results; ls "$out") | sort -u )
[[ $status -eq 0 ]] && echo "check passed: results/ matches a fresh run"
exit $status
