//! **Recovery bench** — mid-collective crash to recovered iteration; the
//! scenario lives in [`colza_bench::scenarios::recovery`]
//! (DESIGN.md §12).
//!
//! Run: `cargo run --release -p colza-bench --bin bench_recovery
//!       [--runs 3] [--blocks 4] [--out results/BENCH_recovery.json]`

use colza_bench::scenarios::recovery;
use colza_bench::{report, table};

fn main() {
    let args = report::begin();
    let runs: usize = args.get("runs", 3);
    let blocks: u64 = args.get("blocks", 4);
    table::banner(
        "Recovery bench: mid-collective crash to recovered iteration",
        &format!("(3 servers, {blocks} blocks, replication 2; {runs} runs)"),
    );
    println!(
        "{:>4} {:>8} {:>14} {:>12} {:>8} {:>10} {:>8} {:>9}",
        "run", "detect", "recover ms(v)", "wall ms", "aborted", "recovered", "revokes", "promoted"
    );

    let result = recovery::run(runs, blocks, 42);
    for row in &result.rows {
        println!(
            "{:>4} {:>8} {:>14.2} {:>12.2} {:>8} {:>10} {:>8} {:>9}",
            row.run,
            row.detect_rounds,
            row.crash_to_recover_virtual_ns as f64 / 1e6,
            row.crash_to_recover_wall_ms,
            row.aborted,
            row.recoveries,
            row.revoke_sent,
            row.promoted,
        );
    }
    report::write_out(&args, "results/BENCH_recovery.json", &result);
    println!("Shape: virtual recovery time is dominated by the failure");
    println!("detector (SWIM rounds at one period each); the abort, the");
    println!("re-activate 2PC, and the replayed collective round are cheap");
    println!("next to declaring the death.");
    report::finish();
}
