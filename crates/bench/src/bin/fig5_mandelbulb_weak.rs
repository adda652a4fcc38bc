//! **Figure 5** — Mandelbulb weak scaling: average pipeline execution
//! time at several staging-area sizes, MPI vs MoNA, with the per-server
//! data volume held constant (blocks ∝ servers).
//!
//! Paper scale: 512 clients, 4–128 servers, 8 MB blocks, 6 iterations
//! with the first discarded. Scaled defaults here keep the same protocol.
//!
//! Run: `cargo run --release -p colza-bench --bin fig5_mandelbulb_weak
//!       [--max-servers 8] [--grid 24] [--iters 6]`

use colza::CommMode;
use colza_bench::{report, table, workloads, PipelineExperiment};
use hpcsim::stats::fmt_ns;

fn main() {
    let args = report::begin();
    let max_servers: usize = args.get("max-servers", 8);
    let grid: usize = args.get("grid", 24);
    let iters: u64 = args.get("iters", 6);
    table::banner(
        "Figure 5: Mandelbulb weak scaling (pipeline execution time)",
        &format!(
            "(grid {grid}x{grid}x(4*servers) blocks; {iters} iterations, first discarded; \
             paper runs 4-128 servers with 8 MB blocks)"
        ),
    );
    println!(
        "{:>8} {:>8} {:>16} {:>16}",
        "servers", "clients", "MPI", "MoNA"
    );

    let mut servers = 1;
    while servers <= max_servers {
        let clients = servers; // weak scaling: data grows with servers
        let [mpi, mona_t] = [
            CommMode::MpiStatic(minimpi::Profile::Vendor),
            CommMode::Mona,
        ]
        .map(|comm| {
            workloads::mean_execute(
                PipelineExperiment::new(
                    servers,
                    clients,
                    comm,
                    catalyst::PipelineScript::mandelbulb(256, 256),
                    iters,
                ),
                workloads::mandelbulb(grid, 4),
            )
        });
        println!(
            "{servers:>8} {clients:>8} {:>16} {:>16}",
            fmt_ns(mpi),
            fmt_ns(mona_t)
        );
        servers *= 2;
    }
    println!();
    println!("Paper shape: MoNA within noise of MPI at every scale (the pipeline");
    println!("is compute-bound; communication is only the final compositing).");
    report::finish();
}
