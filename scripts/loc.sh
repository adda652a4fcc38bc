#!/bin/sh
# Counts non-test Rust lines: every line of a .rs file up to its first
# `#[cfg(test)]` line (blank and comment lines included), skipping files
# under a `tests/` directory and build output under `target/`. Prints one
# row per path and a total.
#
#   sh scripts/loc.sh [path ...]    (default: every crate and shim, the
#                                    benchmark package, src/ and examples/)
#
# A path may be a directory or a single file, e.g.
#   sh scripts/loc.sh crates/catalyst/src/pipeline.rs
set -e

if [ $# -eq 0 ]; then
    cd "$(dirname "$0")/.."
    set -- crates/* shims/* benchmark src examples
fi

total=0
for path in "$@"; do
    n=$(find "$path" \( -name target -o -name tests \) -prune -o -name '*.rs' -type f \
            -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ {nextfile} {print}' {} + | wc -l)
    printf '%8d  %s\n' "$n" "$path"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
