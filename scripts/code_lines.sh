#!/usr/bin/env bash
# First-party non-test code lines, per crate and in total: the count
# ROADMAP item 9 sets its target against.
#
# Counted: every `.rs` file under `crates/*/src` and the root `src/`.
# A line counts unless it is blank or a `//` comment (doc comments
# included). A file ends at its trailing `#[cfg(test)] mod`; a
# `#[cfg(test)]` on anything else (`rsa.rs`'s `scalar_only`) cuts
# nothing; `tests/declared_sites.rs` reads code by the same cut.
# `tests/`, `examples/`, `bench/` and `vendor/` are not counted, and no
# first-party lint crate is left to count.
#
# Usage: scripts/code_lines.sh [<repo root>]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Code lines of the `.rs` files under one `src` directory. Each file is
# read twice: once to find the cut, once to count up to it.
code_lines() {
  find "$1" -name '*.rs' | sort | while read -r file; do
    awk '
      NR == FNR {
        if (prev ~ /^#\[cfg\(test\)\]$/ && $0 ~ /^mod /) cut = FNR - 1
        prev = $0
        next
      }
      cut && FNR >= cut { exit }
      !/^[[:space:]]*(\/\/|$)/ { n++ }
      END { print n + 0 }' "$file" "$file"
  done | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
  n=$(code_lines "$src")
  printf '%7d  %s\n' "$n" "${src%/src}"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
