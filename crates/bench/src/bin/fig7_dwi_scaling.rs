//! **Figure 7** — Deep Water Impact: rendering time per iteration (the
//! payload grows every iteration) at several staging-area sizes, MPI vs
//! MoNA.
//!
//! Paper scale: 32 client processes reading 512 files per iteration;
//! 8/16/32/64 Colza processes. Scaled defaults sweep smaller sizes.
//!
//! Run: `cargo run --release -p colza-bench --bin fig7_dwi_scaling
//!       [--servers 2,4,8] [--blocks 16] [--clients 4] [--iters 30]`

use colza::CommMode;
use colza_bench::{report, run_pipeline_experiment, table, workloads, PipelineExperiment};
use sims::dwi::DwiSeries;

fn main() {
    let args = report::begin();
    let server_list: Vec<usize> = args.get_list("servers", "2,4,8");
    let blocks: usize = args.get("blocks", 16);
    let clients: usize = args.get("clients", 4);
    let iters: u64 = args.get("iters", 30);
    table::banner(
        "Figure 7: Deep Water Impact rendering time per iteration",
        &format!(
            "({blocks} blocks over {clients} clients; growing mesh; \
             paper: 512 files, 8-64 Colza processes)"
        ),
    );

    let series = DwiSeries::scaled_down(blocks);
    let mut columns = Vec::new();
    let mut data: Vec<Vec<u64>> = vec![Vec::new(); iters as usize];
    for &servers in &server_list {
        for (mode, label) in [
            (CommMode::MpiStatic(minimpi::Profile::Vendor), "MPI"),
            (CommMode::Mona, "MoNA"),
        ] {
            columns.push(format!("{label}({servers})"));
            let exp = PipelineExperiment::new(
                servers,
                clients,
                mode,
                catalyst::PipelineScript::deep_water_impact(256, 192),
                iters,
            );
            let times = run_pipeline_experiment(exp, workloads::dwi(series, 1));
            for (i, t) in times.iter().enumerate() {
                data[i].push(t.execute_ns);
            }
        }
    }
    table::print_series("iteration", &columns, &data);
    println!();
    println!("Paper shape: rendering time grows with the iteration number;");
    println!("more Colza processes keep it lower; MoNA is on par with MPI");
    println!("(occasionally faster at small scales thanks to shared memory).");
    report::finish();
}
