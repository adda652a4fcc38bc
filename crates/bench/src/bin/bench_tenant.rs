//! **Multi-tenant QoS sweep** — a well-behaved tenant next to flooding
//! noisy tenants, enforcement off then on; the scenario and its gate
//! live in [`colza_bench::scenarios::tenant`] (DESIGN.md §14).
//!
//! Run: `cargo run --release -p colza-bench --bin bench_tenant
//!       [--out results/BENCH_tenant.json] [--bound-ns N] [--assert]`
//!
//! `--assert` exits nonzero unless, with enforcement on, the noisy
//! tenants were refused and throttled AND the well-behaved tenant's
//! worst iteration stayed within the latency bound (`tests/gates.rs`
//! runs the same check).

use colza_bench::report;
use colza_bench::scenarios::tenant;

fn main() {
    let args = report::begin();
    let bound_ns: u64 = args.get("bound-ns", tenant::DEFAULT_BOUND_NS);

    let rows = tenant::run(&[1, 2, 4], 8, 42);
    for row in &rows {
        println!(
            "{:>7} noisy={} iters={}  wb p50={:>9} ns  p99={:>9} ns  max={:>9} ns  \
             refused={:>3}  throttled={:>3}  noisy-bytes/iter={}",
            row.mode,
            row.noisy_tenants,
            row.iterations,
            row.wb_p50_ns,
            row.wb_p99_ns,
            row.wb_max_ns,
            row.quota_refused,
            row.exec_throttled,
            row.staged_bytes_peak_noisy,
        );
    }
    report::write_out(&args, "results/BENCH_tenant.json", &rows);
    report::finish_gated(&args, "assert", tenant::HOLDS, || {
        tenant::check(&rows, bound_ns)
    });
}
