#!/usr/bin/env bash
# Regenerates every captured evaluation artifact under results/.
# Usage: scripts/regen_results.sh [--quick]
#   --quick  fewer records per point (faster, noisier shapes)
set -euo pipefail
cd "$(dirname "$0")/.."

RECORDS=40
if [[ "${1:-}" == "--quick" ]]; then
  RECORDS=10
fi

mkdir -p results

# Writes results/ATOMICS_AUDIT.json (wormlint.atomics.v1: every atomic
# Ordering site and its justification) and results/LOCK_AUDIT.json
# (wormlint.locks.v1: every lock acquisition, the observed nesting
# edges, and the — required-empty — cycle set).
echo ">> wormlint atomics + lock-order audits"
cargo run --release -q -p wormlint -- --workspace \
  --audit-out results/ATOMICS_AUDIT.json \
  --lock-audit-out results/LOCK_AUDIT.json

run() {
  local name="$1"; shift
  echo ">> $name"
  cargo run --release -q -p worm-bench --bin "$name" -- "$@" > "results/$name.txt"
}

run table2 --iters 32
run figure1 --records "$RECORDS"
run ablation_merkle
run ablation_windows --records 1500
run ablation_deferred
run disk_bottleneck --records 50
run attack_matrix

# Writes results/BENCH_read_scaling.json itself (wall-clock measurement).
echo ">> read_scaling"
cargo run --release -q -p worm-bench --bin read_scaling > /dev/null

# Writes results/BENCH_net_throughput.json itself: verified pipelined
# reads over the wormnet TCP serving layer at 1/2/4/8/16 client
# connections. Doubles as a regression gate: the binary exits nonzero
# if the scaling curve dips below 0.9x of the previous point or any
# connection was shed mid-measurement.
echo ">> net_throughput"
cargo run --release -q -p worm-bench --bin net_throughput > /dev/null

# Writes results/BENCH_shard_scaling.json itself: ablation A7, write
# throughput of the sharded witness plane at 1/2/4/8 SCPUs for the
# strong-1024 and deferred-512 tiers, with cross-shard wire reads
# verified against the composite head. The bin asserts monotone
# scaling per tier and exits nonzero on a regression.
echo ">> shard_scaling"
cargo run --release -q -p worm-bench --bin shard_scaling > /dev/null

# Writes results/BENCH_powerfail.json itself: the benchmark-scale
# power-fail sweep — a cut at every write boundary of a full record
# lifecycle (writes, deletions, shredding, compaction) in all four
# torn-sector styles, each recovered and re-verified. Gates on >=1000
# distinct cut points with 100% clean recovery and exits nonzero
# otherwise. --quick subsamples boundaries (same gate shape, lower floor).
echo ">> powerfail"
if [[ "${1:-}" == "--quick" ]]; then
  cargo run --release -q -p worm-bench --bin powerfail -- --smoke > /dev/null
else
  cargo run --release -q -p worm-bench --bin powerfail > /dev/null
fi

# Writes results/BENCH_audit_overhead.json itself: tamper-evident audit
# plane cost on remote verified reads, audited vs kill-switched. Exits
# nonzero if the overhead exceeds the 3% budget.
echo ">> audit_overhead"
cargo run --release -q -p worm-bench --bin audit_overhead > /dev/null

echo "done; artifacts in results/"
