#!/usr/bin/env bash
# Per-thread CPU share of one benchmark run: which side bounds a
# workload.
#
# Starts a 14 s single-workload run of the benchmark
# (`bench/run.sh --workload W --seed N --seconds 14 --trace 0`), reads
# every thread's user and system time from /proc/<pid>/task/*/stat
# 4.5 s and 9.5 s after the binary starts — the middle 5 s — and prints
# each thread's share of that wall time, busiest first, with the CPU
# time it spent per operation at the rate the run reports. The generator
# (the verifying client) is the main thread, `wormbench`; the server's
# reactor worker is `wormnet-worker0`. A thread near 100 % bounds the
# workload. The run's result line follows the table.
#
# Usage: scripts/thread_busy.sh WORKLOAD SEED
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 WORKLOAD SEED" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT

bash bench/run.sh --workload "$1" --seed "$2" --seconds 14 --trace 0 >"$out" &
pid=$!
# run.sh builds, then execs the binary in its own process.
until [ "$(cat "/proc/$pid/comm" 2>/dev/null)" = wormbench ]; do
  if ! kill -0 "$pid" 2>/dev/null; then
    cat "$out"
    exit 1
  fi
  sleep 0.05
done

# One line per thread: name (spaces made underscores), user ticks,
# system ticks. The fields after the name's closing parenthesis start
# at the state, so utime and stime are the 12th and 13th of them.
ticks() {
  for stat in /proc/"$pid"/task/*/stat; do
    awk '{
      name = $0
      sub(/^[0-9]+ \(/, "", name)
      sub(/\) [^)]*$/, "", name)
      gsub(/ /, "_", name)
      rest = $0
      sub(/^.*\) /, "", rest)
      split(rest, f, " ")
      print name, f[12], f[13]
    }' "$stat" 2>/dev/null || true
  done
}

sleep 4.5
t0=$(date +%s.%N)
first=$(ticks)
sleep 5
t1=$(date +%s.%N)
second=$(ticks)
wait "$pid"

result=$(tail -n 1 "$out")
ops=$(printf '%s\n' "$result" | sed -n 's/.*"ops_per_s": {"value": \([0-9.e+]*\).*/\1/p')
hz=$(getconf CLK_TCK)
printf '%s\n' "$first" "---" "$second" | awk -v hz="$hz" -v t0="$t0" -v t1="$t1" -v ops="${ops:-0}" '
  BEGIN { wall = t1 - t0 }
  $0 == "---" { after = 1; next }
  !after { u[$1] = $2; s[$1] = $3; next }
  ($1 in u) {
    du = ($2 - u[$1]) / hz / wall * 100
    ds = ($3 - s[$1]) / hz / wall * 100
    per_op = ops > 0 ? (du + ds) / 100 / ops * 1e6 : 0
    printf "%-22s %6.1f %6.1f %6.1f %9.3f\n", $1, du, ds, du + ds, per_op
  }' | sort -k4,4nr | {
  printf '%-22s %6s %6s %6s %9s\n' thread user% sys% busy% "cpu_us/op"
  cat
}
printf '%s\n' "$result"
