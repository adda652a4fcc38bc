//! **Figure 9** — exercising elasticity with the Mandelbulb workload:
//! per-iteration durations of `activate`, `stage`, `execute` and
//! `deactivate` while the staging area grows one node at a time.
//!
//! Paper scale: 256 clients × 1 block, Colza resized from 2 to 8 nodes
//! every 60 s. Here growth happens every other iteration (the paper's
//! Fig. 10 protocol), which exercises exactly the same machinery.
//!
//! Run: `cargo run --release -p colza-bench --bin fig9_elastic_mandelbulb
//!       [--start 2] [--end 8] [--clients 4] [--grid 16]
//!       [--blocks-per-client 4]`

use colza::CommMode;
use colza_bench::{report, run_pipeline_experiment, table, workloads, PipelineExperiment};

fn main() {
    let args = report::begin();
    let start: usize = args.get("start", 2);
    let end: usize = args.get("end", 8);
    let clients: usize = args.get("clients", 4);
    let grid: usize = args.get("grid", 16);
    let blocks_per_client: usize = args.get("blocks-per-client", 4);
    assert!(end >= start);

    // One new server every other iteration until `end` is reached, then a
    // few steady iterations.
    let growth_steps = end - start;
    let iterations = (growth_steps as u64) * 2 + 4;
    let grow_at: Vec<(u64, usize)> = (0..growth_steps).map(|i| (2 + 2 * i as u64, 1)).collect();

    table::banner(
        "Figure 9: per-call durations while the staging area grows",
        &format!(
            "(Mandelbulb, {clients} clients x {blocks_per_client} blocks; servers {start} -> {end}; \
             paper: 256 blocks, 2 -> 8 nodes)"
        ),
    );

    let mut exp = PipelineExperiment::new(
        start,
        clients,
        CommMode::Mona,
        catalyst::PipelineScript::mandelbulb(256, 256),
        iterations,
    );
    exp.grow_at = grow_at;
    let times = run_pipeline_experiment(exp, workloads::mandelbulb(grid, blocks_per_client));

    println!(
        "{:>10} {:>18} {:>18} {:>18} {:>18} {:>18}",
        "iteration", "servers", "activate", "stage", "execute", "deactivate"
    );
    for t in &times {
        print!("{:>10} {:>18}", t.iteration, t.servers);
        for ns in [t.activate_ns, t.stage_ns, t.execute_ns, t.deactivate_ns] {
            print!(" {:>18}", hpcsim::stats::fmt_ns(ns));
        }
        println!();
    }
    println!();
    println!("Paper shape: execute time falls as servers are added, spiking on");
    println!("join iterations (pipeline init on the new node); activate/stage/");
    println!("deactivate are negligible (ms-scale; paper: 4 ms / 100 ms / 0.6 ms).");
    report::finish();
}
