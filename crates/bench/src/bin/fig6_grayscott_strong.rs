//! **Figure 6** — Gray–Scott strong scaling: fixed total data volume,
//! varying staging-area size, MPI vs MoNA.
//!
//! Paper scale: 512 clients on 16 nodes, 2 GB per iteration, 4–128
//! servers. Scaled defaults keep the protocol: a fixed global grid
//! partitioned across a fixed client count, servers swept.
//!
//! Run: `cargo run --release -p colza-bench --bin fig6_grayscott_strong
//!       [--max-servers 8] [--grid 32] [--clients 4] [--iters 5] [--steps 5]`

use colza::CommMode;
use colza_bench::{report, table, workloads, PipelineExperiment};
use hpcsim::stats::fmt_ns;

fn main() {
    let args = report::begin();
    let max_servers: usize = args.get("max-servers", 8);
    let grid: usize = args.get("grid", 32);
    let clients: usize = args.get("clients", 4);
    let iters: u64 = args.get("iters", 5);
    let steps_per_iter: usize = args.get("steps", 5);
    table::banner(
        "Figure 6: Gray-Scott strong scaling (pipeline execution time)",
        &format!(
            "(global grid {grid}^3 over {clients} clients, fixed; {iters} iterations + warmup; \
             paper: 2 GB per iteration over 4-128 servers)"
        ),
    );
    println!("{:>8} {:>16} {:>16}", "servers", "MPI", "MoNA");

    let mut servers = 1;
    while servers <= max_servers {
        let [mpi, mona_t] = [
            CommMode::MpiStatic(minimpi::Profile::Vendor),
            CommMode::Mona,
        ]
        .map(|comm| {
            let mut exp = PipelineExperiment::new(
                servers,
                clients,
                comm,
                catalyst::PipelineScript::gray_scott(256, 256),
                iters + 1,
            );
            exp.clients_per_node = 32.min(clients.max(1));
            workloads::mean_execute(exp, workloads::gray_scott(grid, steps_per_iter))
        });
        println!("{servers:>8} {:>16} {:>16}", fmt_ns(mpi), fmt_ns(mona_t));
        servers *= 2;
    }
    println!();
    println!("Paper shape: execution time falls with server count (strong scaling);");
    println!("MoNA tracks MPI closely at every size.");
    report::finish();
}
