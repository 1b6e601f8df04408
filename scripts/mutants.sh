#!/usr/bin/env bash
# The mutant corpus: each mutants/NN-name.patch reintroduces one defect.
# For each patch this applies it to a scratch copy of a checkout, runs
# tier-1 (every test binary, then the doc tests) and `cargo clippy
# --workspace --all-targets -- -D warnings`, and prints one markdown
# table row naming what killed it: the failing tests (binary::test), the
# tests that hung, the clippy lints that fired. A mutant nothing kills
# is a SURVIVOR. A patch that no longer applies is a STALE row, and the
# script then exits non-zero: a stale mutant measures nothing, so it is
# regenerated against the code or retired, never skipped.
#
# Usage: scripts/mutants.sh [<checkout> [<scratch dir>]]
#   <checkout>     the code to mutate (default: this one); the patches
#                  always come from this checkout's mutants/
#   <scratch dir>  where the copy is built and kept (default: a new
#                  temporary directory)
# A test binary that runs past 150 s is a kill by hang, naming the tests
# libtest reported running for over 60 seconds.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)
src=$(cd "${1:-$here}" && pwd)
work=${2:-$(mktemp -d)}
limit=150
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

# The checkout's files as they stand (committed or not), under git so
# each mutant can be undone. Extracted with fresh mtimes (-m): a target
# directory kept from an earlier run must not take a file for unchanged
# that a mutant there last touched.
rm -rf "$tree" && mkdir -p "$tree"
(cd "$src" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) | tar -xmf - -C "$tree"
git -C "$tree" init -q && git -C "$tree" add -A
git -C "$tree" -c user.name=mutants -c user.email=mutants@localhost commit -qm base

# Tier-1, one binary at a time: prints the killers, one per line.
tier1() {
  local log="$work/log" exe dir status
  cargo test -q --no-run --message-format=json --manifest-path "$tree/Cargo.toml" 2>/dev/null \
    | python3 -c '
import json, os, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m.get("executable") and m["profile"]["test"]:
        print(m["executable"], os.path.dirname(m["manifest_path"]))' > "$work/bins" \
    || { echo "build-failed"; return; }
  while read -r exe dir; do
    status=0
    (cd "$dir" && timeout "$limit" "$exe" > "$log" 2>&1) || status=$?
    local name=${exe##*/}; name=${name%-*}
    sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | sed "s/^/$name::/"
    if [[ $status -eq 124 ]]; then
      sed -n 's/^test \(.*\) has been running for over 60 seconds$/\1/p' "$log" \
        | sed "s/^/hang $name::/"
      echo "hang $name (timed out after ${limit}s)"
    elif [[ $status -ne 0 ]] && ! grep -q '^test .* FAILED$' "$log"; then
      echo "crash $name (exit $status)"
    fi
  done < "$work/bins"
  (cd "$tree" && timeout "$limit" cargo test -q --doc > "$log" 2>&1) || true
  sed -n 's/^test \(.*\) \.\.\. FAILED$/doc::\1/p' "$log"
}

# Clippy over the workspace, as CI runs it: prints each lint that fired,
# where, and how often.
lint() {
  (cd "$tree" && cargo clippy -q --workspace --all-targets --message-format=json \
      -- -D warnings 2>/dev/null || true) \
    | python3 -c '
import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") != "compiler-message" or m["message"]["level"] != "error":
        continue
    msg, code = m["message"], m["message"].get("code") or {}
    span = next((s for s in msg["spans"] if s["is_primary"]), None)
    if span and code.get("code"):
        print(code["code"], "%s:%d" % (span["file_name"], span["line_start"]))' \
    | sort -u \
    | awk '{ n[$1]++; if (!($1 in at)) at[$1] = $2 }
           END { for (r in n) print r " " at[r] (n[r] > 1 ? " and " n[r] - 1 " more" : "") }' \
    | sort
}

# One cell: the killers, comma-separated, or "-".
cell() { paste -sd, - | sed -e 's/,/, /g' -e 's/^$/-/'; }

echo "checkout: $src ($(git -C "$src" rev-parse --short HEAD)$(git -C "$src" diff --quiet HEAD || echo ', with uncommitted changes'))"
base_tests=$(tier1 | cell)
base_lint=$(lint | cell)
echo "baseline: tier-1 $base_tests; clippy $base_lint"
echo
echo "| mutant | tier-1 | clippy | verdict |"
echo "|---|---|---|---|"
stale=0
for patch in "$here"/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  if ! git -C "$tree" apply "$patch"; then
    echo "| $name | does not apply | | STALE |"
    stale=$((stale + 1))
    continue
  fi
  tests=$(tier1 | cell)
  rules=$(lint | cell)
  verdict=killed
  [[ "$tests" == - && "$rules" == - ]] && verdict=SURVIVED
  echo "| $name | $tests | $rules | $verdict |"
  git -C "$tree" checkout -q -- . && git -C "$tree" clean -fdq
done
if (( stale > 0 )); then
  echo "$stale stale mutant(s): regenerate each against the code or retire it" >&2
  exit 1
fi
