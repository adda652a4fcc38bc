//! **Figure 10** — Deep Water Impact with elasticity: rendering time per
//! iteration for (a) an elastic staging area grown every other iteration
//! once the data gets heavy, (b) a small static deployment, and (c) a
//! large static deployment.
//!
//! Paper scale: 8 → 72 processes, growing by 8 every other iteration from
//! iteration 13. Scaled default: 2 → 8, growing by 1 from iteration 12.
//!
//! Run: `cargo run --release -p colza-bench --bin fig10_elastic_dwi
//!       [--small 2] [--large 8] [--blocks 16] [--clients 4] [--iters 30]
//!       [--grow-from 12]`

use colza::CommMode;
use colza_bench::{report, run_pipeline_experiment, table, workloads, PipelineExperiment};
use sims::dwi::DwiSeries;

fn main() {
    let args = report::begin();
    let small: usize = args.get("small", 2);
    let large: usize = args.get("large", 8);
    let blocks: usize = args.get("blocks", 16);
    let clients: usize = args.get("clients", 4);
    let iters: u64 = args.get("iters", 30);
    let grow_from: u64 = args.get("grow-from", 12);
    table::banner(
        "Figure 10: Deep Water Impact with an elastic staging area",
        &format!(
            "(servers: elastic {small}->{large} growing every other iteration from {grow_from}; \
             vs static {small} and static {large}; paper: 8 -> 72 from iteration 13)"
        ),
    );

    let series = DwiSeries::scaled_down(blocks);
    let run = |servers: usize, grow_at: Vec<(u64, usize)>| {
        let script = catalyst::PipelineScript::deep_water_impact(256, 192);
        let mut exp = PipelineExperiment::new(servers, clients, CommMode::Mona, script, iters);
        exp.grow_at = grow_at;
        run_pipeline_experiment(exp, workloads::dwi(series, 1))
    };
    // Elastic: +1 server every other iteration from `grow_from`.
    let elastic_times = run(
        small,
        (0..(large - small))
            .map(|i| (grow_from + 2 * i as u64, 1))
            .filter(|&(at, _)| at < iters)
            .collect(),
    );
    let static_small = run(small, Vec::new());
    let static_large = run(large, Vec::new());

    println!(
        "{:>10} {:>9} {:>18} {:>18} {:>18}",
        "iteration",
        "servers",
        "elastic",
        format!("static {small}"),
        format!("static {large}")
    );
    for i in 0..iters as usize {
        println!(
            "{:>10} {:>9} {:>18} {:>18} {:>18}",
            i + 1,
            elastic_times[i].servers,
            hpcsim::stats::fmt_ns(elastic_times[i].execute_ns),
            hpcsim::stats::fmt_ns(static_small[i].execute_ns),
            hpcsim::stats::fmt_ns(static_large[i].execute_ns),
        );
    }
    println!();
    println!("Paper shape: the small static deployment's rendering time grows");
    println!("unboundedly with the data; the elastic deployment keeps it bounded");
    println!("(spikes on join iterations from pipeline init); the large static");
    println!("deployment is the floor but wastes resources early in the run.");
    report::finish();
}
