//! **bench_heal** — crash → full-redundancy-restored latency with the
//! anti-entropy scrubber on vs off; the scenario and its gate live in
//! [`colza_bench::scenarios::heal`] (DESIGN.md §10).
//!
//! Run: `cargo run --release -p colza-bench --bin bench_heal
//!       [--out results/BENCH_heal.json] [--bound-ns N] [--assert]`
//!
//! `--assert` exits nonzero unless every `scrub_on` row restored full
//! redundancy and reported healthy within the bound and every
//! `scrub_off` row shows the gap (`tests/gates.rs` runs the same check).

use colza_bench::scenarios::heal;
use colza_bench::{report, table};
use hpcsim::stats::fmt_ns;

fn main() {
    let args = report::begin();
    let bound_ns: u64 = args.get("bound-ns", heal::DEFAULT_BOUND_NS);

    table::banner(
        "bench_heal: crash -> full-redundancy / healthy latency",
        "(anti-entropy scrub + supervised replacement, vs scrub off)",
    );
    println!(
        "{:>10} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "mode", "N", "redundant", "healthy", "miss@hl", "pushed", "healthy?"
    );
    let rows = heal::run(&[3, 4, 5], 8, 42);
    for row in &rows {
        println!(
            "{:>10} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8}",
            row.mode,
            row.servers,
            fmt_ns(row.crash_to_redundant_ns),
            fmt_ns(row.crash_to_healthy_ns),
            row.missing_after_heal_window,
            row.copies_pushed,
            row.healthy_converged
        );
    }
    report::write_out(&args, "results/BENCH_heal.json", &rows);
    report::finish_gated(&args, "assert", heal::HOLDS, || {
        heal::check(&rows, bound_ns)
    });
}
