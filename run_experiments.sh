#!/bin/sh
# Regenerates every table and figure of the paper into results/.
# Preflight: build + full test suite + chaos suite must be green before
# burning hours on experiment runs (and it produces target/release).
#
# Every main ends through colza_bench::report: a panic on any thread or a
# failed --assert / --check-shape gate is a non-zero exit, and `set -e`
# stops the regeneration there instead of leaving a truncated
# results/*.txt behind the next figure.
set -e
sh "$(dirname "$0")/scripts/check.sh"

# A wired bench that silently produces no output file is a broken
# harness, not a slow one: fail the whole run loudly.
require_out() {
    if [ ! -s "$1" ]; then
        echo "ERROR: bench produced no output file: $1" >&2
        exit 1
    fi
}

set -x
B=./target/release
$B/table1_p2p --ops 1000 --trace results/BENCH_trace.json > results/table1.txt 2>&1
require_out results/BENCH_trace.json
$B/table2_reduce --procs 64 --ops 200 --check-shape --trace results/BENCH_trace_reduce.json > results/table2.txt 2>&1
require_out results/BENCH_trace_reduce.json
$B/bench_coll --assert --out results/BENCH_coll.json > results/bench_coll.txt 2>&1
require_out results/BENCH_coll.json
$B/fig1_dwi_growth --render              > results/fig1.txt   2>&1
$B/fig3_renders                          > results/fig3.txt   2>&1
$B/fig4_resize                           > results/fig4.txt   2>&1
$B/fig5_mandelbulb_weak --max-servers 8 --grid 20 --iters 6 > results/fig5.txt 2>&1
$B/fig6_grayscott_strong --max-servers 8 --grid 24 --clients 4 --iters 5 > results/fig6.txt 2>&1
$B/fig7_dwi_scaling                      > results/fig7.txt   2>&1
$B/fig8_frameworks --clients 8 --servers 8 --blocks-per-client 4 --iters 6 --grid 20 > results/fig8.txt 2>&1
$B/fig9_elastic_mandelbulb               > results/fig9.txt   2>&1
$B/fig10_elastic_dwi                     > results/fig10.txt  2>&1
$B/ablation_2pc                          > results/ablation_2pc.txt 2>&1
$B/bench_store --out results/BENCH_store.json > results/bench_store.txt 2>&1
require_out results/BENCH_store.json
$B/bench_recovery --out results/BENCH_recovery.json > results/bench_recovery.txt 2>&1
require_out results/BENCH_recovery.json
$B/bench_tenant --assert --out results/BENCH_tenant.json > results/bench_tenant.txt 2>&1
require_out results/BENCH_tenant.json
$B/bench_trigger --assert --out results/BENCH_trigger.json > results/bench_trigger.txt 2>&1
require_out results/BENCH_trigger.json
$B/bench_heal --assert --out results/BENCH_heal.json > results/bench_heal.txt 2>&1
require_out results/BENCH_heal.json
echo ALL_DONE
