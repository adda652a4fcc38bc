#!/bin/sh
# Keeps the host cost of the root test binaries: builds them, then runs
# each once (`cargo test -q --offline --test <name>`) on the git checkout
# you are standing in and appends one
# {commit, label, test, wall_s, user_s, sys_s, ok} line per binary to the
# tracked ledger perf/tests.jsonl of the repository this script lives in.
#
#   sh scripts/test_times.sh <label> [test ...]     (default: all of tests/)
#
# user_s/sys_s are the CPU seconds of cargo and the test binary, read
# with the shell's `times` builtin; wall_s comes from `date`. For a
# parent/change pair, call this same script from a checkout of each
# commit, each with its own CARGO_TARGET_DIR, and alternate the sides.
set -e

[ -n "$1" ] || { echo "usage: $0 <label> [test ...]" >&2; exit 2; }
label=$1
shift
ledger="$(cd "$(dirname "$0")/.." && pwd)/perf/tests.jsonl"
mkdir -p "$(dirname "$ledger")"

cd "$(git rev-parse --show-toplevel)"
commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD || commit="$commit+dirty"
[ $# -gt 0 ] || set -- $(for f in tests/*.rs; do basename "$f" .rs; done)

targets=""
for t in "$@"; do targets="$targets --test $t"; done
cargo test -q --offline --no-run $targets

for t in "$@"; do
    # In this subshell `times` prints the subshell's own CPU time, then
    # that of the children it waited for (cargo and the test binary), as
    # "<m>m<s>s <m>m<s>s".
    run=$(
        t0=$(date +%s.%N)
        ok=true
        cargo test -q --offline --test "$t" >/dev/null 2>&1 || ok=false
        echo "$t0 $(date +%s.%N) $ok"
        times
    )
    line=$(echo "$run" | awk -v c="$commit" -v l="$label" -v t="$t" '
        function sec(x, p) { split(x, p, "m"); sub(/s$/, "", p[2]); return p[1] * 60 + p[2] }
        NR == 1 { wall = $2 - $1; ok = $3 }
        NR == 3 { user = sec($1); sys = sec($2) }
        END {
            printf "{\"commit\":\"%s\",\"label\":\"%s\",\"test\":\"%s\",", c, l, t
            printf "\"wall_s\":%.2f,\"user_s\":%.2f,\"sys_s\":%.2f,\"ok\":%s}\n", wall, user, sys, ok
        }')
    echo "$line" >> "$ledger"
    echo "$line"
done
