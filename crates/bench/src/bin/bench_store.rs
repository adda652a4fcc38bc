//! **Store bench** — cost of live rebalance in the resilient staging
//! store as the replication factor sweeps 1..=3, for a crash and for a
//! drain-before-leave; the scenario lives in
//! [`colza_bench::scenarios::store`] (DESIGN.md §10).
//!
//! Run: `cargo run --release -p colza-bench --bin bench_store
//!       [--servers 4] [--blocks 24] [--out results/BENCH_store.json]`

use colza_bench::scenarios::store;
use colza_bench::{report, table};

fn main() {
    let args = report::begin();
    let servers: usize = args.get("servers", 4);
    let blocks: u64 = args.get("blocks", 24);
    table::banner(
        "Store bench: live rebalance cost vs replication factor",
        &format!("({servers} servers, {blocks} blocks; crash repair and drain-before-leave)"),
    );
    println!(
        "{:>4} {:>7} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "event", "servers", "staged B", "moved B", "drained B", "received B", "rebal ms"
    );

    let result = store::run(servers, blocks);
    for row in &result.rows {
        println!(
            "{:>4} {:>7} {:>5}->{:<2} {:>12} {:>12} {:>12} {:>12} {:>12.2}",
            row.replication,
            row.event,
            row.servers_before,
            row.servers_after,
            row.staged_bytes,
            row.moved_bytes,
            row.drain_bytes,
            row.recv_bytes,
            row.rebalance_virtual_ns as f64 / 1e6,
        );
    }
    report::write_out(&args, "results/BENCH_store.json", &result);
    println!("Shape: relocated bytes grow with k (more copies to restore); a");
    println!("leave always drains the victim's full holdings, while a crash at");
    println!("k=1 has nothing left to copy — the replicas are what make the");
    println!("repair possible at all.");
    report::finish();
}
