//! **Figure 8** — pipeline execution time for the Mandelbulb workload
//! across frameworks: Colza+MoNA, Colza+MPI, Damaris (dedicated-nodes
//! mode) and DataSpaces.
//!
//! Paper scale: 64 clients + 64 servers on 32 nodes, 1 MB × 32 blocks per
//! client. Scaled defaults keep the topology's proportions.
//!
//! Run: `cargo run --release -p colza-bench --bin fig8_frameworks
//!       [--clients 8] [--servers 8] [--blocks-per-client 4] [--iters 4]
//!       [--grid 16]`

use std::sync::Arc;

use baselines::damaris::{run_damaris, DamarisConfig};
use baselines::dataspaces::{DataSpacesDeployment, DsClient};
use colza::CommMode;
use colza_bench::workloads::{self, mean_after_warmup};
use colza_bench::{report, table, MakeBlocks, PipelineExperiment};
use hpcsim::stats::fmt_ns;

fn main() {
    let args = report::begin();
    let clients: usize = args.get("clients", 8);
    let servers: usize = args.get("servers", 8);
    let blocks_per_client: usize = args.get("blocks-per-client", 4);
    let iters: u64 = args.get("iters", 4);
    let grid: usize = args.get("grid", 16);
    table::banner(
        "Figure 8: Mandelbulb pipeline execution time across frameworks",
        &format!(
            "({clients} clients + {servers} servers, {blocks_per_client} blocks/client; \
             paper: 64 + 64 with 1 MB x 32 blocks)"
        ),
    );

    let script = catalyst::PipelineScript::mandelbulb(256, 256);
    // Every framework stages the same per-client blocks.
    let make = workloads::mandelbulb(grid, blocks_per_client);

    // --- Colza (MoNA and MPI) through the shared experiment runner.
    let [colza_mona, colza_mpi] = [
        CommMode::Mona,
        CommMode::MpiStatic(minimpi::Profile::Vendor),
    ]
    .map(|comm| {
        workloads::mean_execute(
            PipelineExperiment::new(servers, clients, comm, script.clone(), iters),
            Arc::clone(&make),
        )
    });

    // --- Damaris: same world size, dedicated cores.
    let damaris = {
        let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
        let fabric = na::Fabric::new(Arc::clone(cluster.shared()));
        let cfg = DamarisConfig {
            clients,
            servers,
            profile: minimpi::Profile::Vendor,
            script: script.clone(),
            iterations: iters,
        };
        let make = Arc::clone(&make);
        let times = run_damaris(&cluster, &fabric, cfg, move |rank, iter| {
            make(rank, iter, clients)
                .into_iter()
                .map(|(_, ds)| ds)
                .collect()
        });
        mean_after_warmup(&times)
    };

    // --- DataSpaces: put/exec over margo.
    let dataspaces = run_dataspaces(clients, servers, make, iters, &script);

    println!("{:>14} {:>16}", "framework", "avg exec time");
    for (name, t) in [
        ("Colza (MoNA)", colza_mona),
        ("Colza (MPI)", colza_mpi),
        ("Damaris", damaris),
        ("DataSpaces", dataspaces),
    ] {
        println!("{name:>14} {:>16}", fmt_ns(t));
    }
    println!();
    println!("Paper shape: Colza+MPI <= DataSpaces <= Colza+MoNA < Damaris");
    println!("(Damaris pays per-client trigger skew; DataSpaces matches Colza+MPI's");
    println!("pipeline but pays put-indexing overhead; MoNA adds its layer cost).");
    report::finish();
}

fn run_dataspaces(
    clients: usize,
    servers: usize,
    make: MakeBlocks,
    iters: u64,
    script: &catalyst::PipelineScript,
) -> u64 {
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
    let fabric = na::Fabric::new(Arc::clone(cluster.shared()));
    let deployment = DataSpacesDeployment::launch(
        &cluster,
        &fabric,
        servers,
        4,
        0,
        minimpi::Profile::Vendor,
        script.clone(),
    );
    let server_addrs = deployment.addrs().to_vec();
    // Clients form their own MPI world (the simulation side).
    let out = minimpi::MpiWorld::launch(
        &cluster,
        &fabric,
        clients,
        4,
        servers.div_ceil(4),
        minimpi::Profile::Vendor,
        move |comm| {
            let margo = margo::MargoInstance::from_endpoint(Arc::clone(comm.endpoint()));
            let client = DsClient::new(Arc::clone(&margo), server_addrs.clone());
            let ctx = hpcsim::current();
            let mut times = Vec::new();
            for iter in 0..iters {
                for (id, ds) in make(comm.rank(), iter, clients) {
                    let payload = colza::codec::dataset_to_bytes(&ds);
                    client.put("mandelbulb", iter, id, &payload).unwrap();
                }
                comm.barrier().unwrap();
                if comm.rank() == 0 {
                    let before = ctx.now();
                    client.exec(iter).unwrap();
                    times.push(ctx.now() - before);
                }
                comm.barrier().unwrap();
            }
            margo.finalize();
            times
        },
    );
    deployment.stop();
    let times: Vec<u64> = out.into_iter().flatten().collect();
    mean_after_warmup(&times)
}
