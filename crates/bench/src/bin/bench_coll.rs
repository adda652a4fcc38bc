//! **Collective engine sweep** — MoNA's size-adaptive collectives against
//! the naive whole-payload algorithms; the scenario and its gate live in
//! [`colza_bench::scenarios::coll`] (DESIGN.md §11).
//!
//! Emits JSON rows keyed by op/size/algorithm to `results/BENCH_coll.json`.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_coll
//!       [--out results/BENCH_coll.json] [--assert]`
//!
//! `--assert` exits nonzero unless the adaptive engine beats the naive
//! one for every op at sizes above the pipeline switchover
//! (`tests/gates.rs` runs the same check on a two-size sweep).

use colza_bench::report;
use colza_bench::scenarios::coll;

fn main() {
    let args = report::begin();
    const KIB: usize = 1024;
    let sizes = [128, 2 * KIB, 16 * KIB, 128 * KIB, 1024 * KIB, 4096 * KIB];
    let rows = coll::run(&sizes, &[16, 64], None);
    for r in &rows {
        println!(
            "{:>9} n={:<3} {:>9} B  {:<8} {:<22} {:>12} ns/op",
            r.op, r.ranks, r.size, r.engine, r.algorithm, r.ns_per_op
        );
    }
    report::write_out(&args, "results/BENCH_coll.json", &rows);
    report::finish_gated(&args, "assert", coll::HOLDS, || coll::check(&rows));
}
