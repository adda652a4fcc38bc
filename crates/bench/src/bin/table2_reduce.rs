//! **Table II** — time to complete 1000 binary-xor reduce operations as a
//! function of payload size, for the two MPI profiles and MoNA; the
//! measurement and its shape check live in
//! [`colza_bench::scenarios::table2`].
//!
//! Run: `cargo run --release -p colza-bench --bin table2_reduce
//!       [--procs 64] [--ops 200] [--per-node 16] [--check-shape]
//!       [--trace results/BENCH_trace_reduce.json]`
//!
//! `--check-shape` re-verifies the paper's Table II shape numerically and
//! exits nonzero on violation: Cray-mpich fastest at every size, the
//! OpenMPI collapse (>= 50x Cray at >= 16 KiB), and MoNA within a small
//! factor of Cray-mpich (`tests/gates.rs` runs the same check).

use colza_bench::scenarios::table2;
use colza_bench::{report, table, trace_out};

fn main() {
    let args = report::begin();
    let procs: usize = args.get("procs", 64);
    let ops: usize = args.get("ops", 200);
    let per_node: usize = args.get("per-node", 16);
    table::banner(
        "Table II: time (ms) to complete 1000 binary-xor reduce operations",
        &format!(
            "({procs} ranks, {per_node} per node; measured over {ops} ops of virtual time; \
             paper scale is 512 ranks)"
        ),
    );

    let rows = table2::run(procs, ops, per_node);
    let cells: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| (r.label.to_string(), vec![r.cray_ms, r.open_ms, r.mona_ms]))
        .collect();
    table::print_table(
        "Message size",
        &["Cray-mpich", "OpenMPI", "MoNA"],
        &cells,
        "milliseconds per 1000 operations",
    );
    println!();
    println!("Paper shape checks:");
    println!("  - Cray-mpich fastest throughout");
    println!("  - OpenMPI collapses by orders of magnitude at >= 16 KiB");
    println!("    (rendezvous penalty x linear-reduce fallback)");
    println!("  - MoNA stays within a small factor of Cray-mpich");

    // Separate traced capture run so the table rows stay dark.
    trace_out::capture(&args, |cluster| {
        table2::mona_reduce(cluster, procs.min(16), per_node, 2 * 1024, ops.min(20));
    });
    println!();
    report::finish_gated(&args, "check-shape", table2::HOLDS, || table2::check(&rows));
}
