#!/bin/sh
# Load test of the modeled clock: runs the BENCHMARK.json command for one
# workload twice on the git checkout you are standing in, once alone and
# once beside a single busy-loop sibling process this script starts, and
# appends the two results to perf/history.jsonl through perf_record.sh
# (labels <label>-alone and <label>-loaded; a failing run keeps its stderr
# in perf/failures/).
#
#   sh scripts/load_test.sh <label> <workload>
#
# Measured compute (host_cpu_ms_per_iter) may rise under load; a modeled
# figure such as virt_execute_ms should move by no larger a share, since
# virtual time charges thread CPU, not wall time. The sibling is killed on
# every exit path.
set -e

[ $# -eq 2 ] || { echo "usage: $0 <label> <workload>" >&2; exit 2; }
label=$1
workload=$2
record="$(cd "$(dirname "$0")" && pwd)/perf_record.sh"

sh "$record" "$label-alone" "$workload"

sh -c 'while :; do :; done' &
burner=$!
trap 'kill "$burner" 2>/dev/null || true' EXIT
trap 'exit 130' INT TERM HUP
sh "$record" "$label-loaded" "$workload"
