#!/bin/sh
# Keeps a benchmark number: runs the BENCHMARK.json command once per
# workload on the git checkout you are standing in and appends one
# {commit, label, workload, seed, result} line per run to the tracked
# ledger perf/history.jsonl of the repository this script lives in.
#
#   sh scripts/perf_record.sh <label> [workload ...]     (default: all)
#
# To record a parent/change pair, call this same script from a checkout of
# each commit (a clone of the parent under /root/scratch, say) and
# alternate which side runs first: the host's CPU rows drift by 10-25 %
# within an hour, so only interleaved pairs compare (benchmark/README.md).
# `results/` and `benchmark/out/` stay ignored scratch.
set -e

[ -n "$1" ] || { echo "usage: $0 <label> [workload ...]" >&2; exit 2; }
label=$1
shift
ledger="$(cd "$(dirname "$0")/.." && pwd)/perf/history.jsonl"
mkdir -p "$(dirname "$ledger")"

cd "$(git rev-parse --show-toplevel)"
commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD || commit="$commit+dirty"

# The command words, run length and workload names, as BENCHMARK.json
# (one string per line) declares them.
cmd=$(awk '/"command"/ {f = 1; next} f && /\]/ {exit}
           f {gsub(/[", ]/, ""); printf "%s ", $0}' BENCHMARK.json)
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
[ $# -gt 0 ] || set -- $(awk '/"workloads"/ {f = 1} /"end_to_end"/ {f = 0}
                              f && /"name"/ {gsub(/[", ]/, ""); sub(/name:/, ""); print}' BENCHMARK.json)
seed=42

for workload in "$@"; do
    # A failed check exits non-zero but still prints its result line: the
    # ledger keeps it (`"correct":false`) and the script carries on.
    out=$($cmd --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || true
    result=$(printf '%s\n' "$out" | tail -n 1)
    case $result in
        '{'*) ;;
        *) echo "$workload: no result line" >&2; exit 1 ;;
    esac
    printf '{"commit":"%s","label":"%s","workload":"%s","seed":%s,"result":%s}\n' \
        "$commit" "$label" "$workload" "$seed" "$result" >> "$ledger"
    echo "$label $workload ($commit): $result"
done
