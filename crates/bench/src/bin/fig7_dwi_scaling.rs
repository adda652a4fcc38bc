//! **Figure 7** — Deep Water Impact: rendering time per iteration (the
//! payload grows every iteration) at several staging-area sizes, MPI vs
//! MoNA; the sweep and its shape check live in
//! [`colza_bench::scenarios::fig7`].
//!
//! Run: `cargo run --release -p colza-bench --bin fig7_dwi_scaling
//!       [--servers 2,4,8] [--blocks 16] [--clients 4] [--iters 30]
//!       [--check-shape]`
//!
//! `--check-shape` exits nonzero unless the mean execute over iterations
//! 26-30 falls with every added server in each comm mode and, on the
//! smallest area, is at least twice that of iterations 2-6
//! (`tests/gates.rs` runs the same check).

use colza_bench::scenarios::fig7;
use colza_bench::{report, table};

fn main() {
    let args = report::begin();
    let defaults = fig7::Params::default();
    let p = fig7::Params {
        servers: args.get_list("servers", "2,4,8"),
        blocks: args.get("blocks", defaults.blocks),
        clients: args.get("clients", defaults.clients),
        iters: args.get("iters", defaults.iters),
    };
    table::banner(
        "Figure 7: Deep Water Impact rendering time per iteration",
        &format!(
            "({} blocks over {} clients; growing mesh; \
             paper: 512 files, 8-64 Colza processes)",
            p.blocks, p.clients
        ),
    );

    let rows = fig7::run(&p);
    let columns: Vec<String> = rows
        .iter()
        .map(|r| format!("{}({})", r.mode, r.servers))
        .collect();
    let data: Vec<Vec<u64>> = (0..p.iters as usize)
        .map(|i| rows.iter().map(|r| r.execute_ns[i]).collect())
        .collect();
    table::print_series("iteration", &columns, &data);
    println!();
    println!("Paper shape: rendering time grows with the iteration number;");
    println!("more Colza processes keep it lower; MoNA is on par with MPI");
    println!("(occasionally faster at small scales thanks to shared memory).");
    report::finish_gated(&args, "check-shape", fig7::HOLDS, || fig7::check(&rows));
}
