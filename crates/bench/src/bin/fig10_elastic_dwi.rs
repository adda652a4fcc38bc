//! **Figure 10** — Deep Water Impact with elasticity: rendering time per
//! iteration for (a) an elastic staging area grown every other iteration
//! once the data gets heavy, (b) a small static deployment, and (c) a
//! large static deployment; the runs and their shape check live in
//! [`colza_bench::scenarios::fig10`].
//!
//! Run: `cargo run --release -p colza-bench --bin fig10_elastic_dwi
//!       [--small 2] [--large 8] [--blocks 16] [--clients 4] [--iters 30]
//!       [--grow-from 12] [--check-shape]`
//!
//! `--check-shape` exits nonzero unless, over iterations 26-30, the small
//! static area takes at least 1.25x the large one and the elastic area is
//! within 30 % of the large one (`tests/gates.rs` runs the same check).

use colza_bench::scenarios::fig10;
use colza_bench::{report, table};

fn main() {
    let args = report::begin();
    let defaults = fig10::Params::default();
    let p = fig10::Params {
        small: args.get("small", defaults.small),
        large: args.get("large", defaults.large),
        blocks: args.get("blocks", defaults.blocks),
        clients: args.get("clients", defaults.clients),
        iters: args.get("iters", defaults.iters),
        grow_from: args.get("grow-from", defaults.grow_from),
    };
    table::banner(
        "Figure 10: Deep Water Impact with an elastic staging area",
        &format!(
            "(servers: elastic {small}->{large} growing every other iteration from {grow_from}; \
             vs static {small} and static {large}; paper: 8 -> 72 from iteration 13)",
            small = p.small,
            large = p.large,
            grow_from = p.grow_from
        ),
    );

    let rows = fig10::run(&p);
    println!(
        "{:>10} {:>9} {:>18} {:>18} {:>18}",
        "iteration",
        "servers",
        "elastic",
        format!("static {}", p.small),
        format!("static {}", p.large)
    );
    for r in &rows {
        println!(
            "{:>10} {:>9} {:>18} {:>18} {:>18}",
            r.iteration,
            r.servers,
            hpcsim::stats::fmt_ns(r.elastic_ns),
            hpcsim::stats::fmt_ns(r.small_ns),
            hpcsim::stats::fmt_ns(r.large_ns),
        );
    }
    println!();
    println!("Paper shape: the small static deployment's rendering time grows");
    println!("unboundedly with the data; the elastic deployment keeps it bounded");
    println!("(spikes on join iterations from pipeline init); the large static");
    println!("deployment is the floor but wastes resources early in the run.");
    report::finish_gated(&args, "check-shape", fig10::HOLDS, || fig10::check(&rows));
}
