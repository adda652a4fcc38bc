//! The Gray–Scott simulation coupled to Colza, the way the paper runs it:
//! the simulation keeps using MPI for its own halo exchanges (unchanged,
//! unlike with Damaris), while each rank stages its slab to the elastic
//! staging area every few steps.
//!
//! Run: `cargo run --release --example gray_scott_insitu
//!       [grid] [clients] [servers]` (defaults 32, 4, 2)
//!
//! Set `COLZA_TRACE=/tmp/gs_trace.json` to record the whole coupled run —
//! halo exchanges, staging RDMA, 2PC, pipeline collectives — as a
//! Chrome-trace timeline viewable at <https://ui.perfetto.dev>.

use std::sync::Arc;

use colza::daemon::Session;
use colza::{BlockMeta, StagingArea};
use margo::MargoInstance;
use sims::gray_scott::{GrayScott, GrayScottParams};

fn main() {
    let mut argv = std::env::args().skip(1);
    let grid: usize = argv.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let clients: usize = argv.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let servers: usize = argv.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let steps_per_output = 10usize;
    let outputs = 3u64;

    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    let trace_path = std::env::var("COLZA_TRACE").ok();
    if trace_path.is_some() {
        area.shared().tracer().set_enabled(true);
    }
    area.launch(servers, 2);
    let contact = area.contact();
    println!("{servers} staging servers up; running Gray-Scott {grid}^3 on {clients} ranks");

    let out = minimpi::MpiWorld::launch(
        area.cluster(),
        area.fabric(),
        clients,
        4,
        servers,
        minimpi::Profile::Vendor,
        move |comm| {
            // The simulation's own MPI usage is untouched; Colza's client
            // just shares the endpoint.
            let s = Session::new(MargoInstance::from_endpoint(Arc::clone(comm.endpoint())));
            let client = &s.client;
            let rank = comm.rank();
            if rank == 0 {
                let script = catalyst::PipelineScript::gray_scott(320, 240).to_json();
                let view = client.view_from(contact).expect("view");
                s.admin
                    .create_pipeline_on_all(&view, "catalyst", "gs", &script)
                    .expect("deploy");
            }
            comm.barrier().unwrap();
            let handle = client.distributed_handle(contact, "gs").expect("handle");

            let mut sim = GrayScott::new(grid, rank, comm.size(), GrayScottParams::default());
            let ctx = &s.ctx;
            for iteration in 0..outputs {
                // Simulate (with MPI halo exchange), then stage the slab.
                sim.run(steps_per_output, Some(&comm)).expect("simulate");
                if rank == 0 {
                    handle.activate(iteration).expect("activate");
                }
                comm.barrier().unwrap();
                let payload = colza::codec::dataset_to_bytes(&sim.to_dataset());
                handle
                    .stage(
                        BlockMeta::new("gray-scott", rank as u64, iteration, payload.len()),
                        &payload,
                    )
                    .expect("stage");
                comm.barrier().unwrap();
                if rank == 0 {
                    let before = ctx.now();
                    handle.execute(iteration).expect("execute");
                    let span = ctx.now() - before;
                    handle.deactivate(iteration).expect("deactivate");
                    println!(
                        "iteration {iteration}: staged {} ranks, pipeline took {}",
                        comm.size(),
                        hpcsim::stats::fmt_ns(span)
                    );
                }
                comm.barrier().unwrap();
            }
            if rank == 0 {
                if let Some(bytes) = handle.fetch_result().expect("fetch") {
                    let img = vizkit::Image::from_bytes(&bytes);
                    let path = std::env::temp_dir().join("gray_scott_insitu.ppm");
                    img.write_ppm(&path).expect("write");
                    println!("final frame -> {}", path.display());
                }
            }
        },
    );
    drop(out);
    area.shutdown();
    if let Some(path) = trace_path {
        let snap = area.shared().trace_snapshot();
        match std::fs::write(&path, snap.to_chrome_json()) {
            Ok(()) => println!(
                "timeline ({} spans) -> {path} (open at https://ui.perfetto.dev)",
                snap.spans.len()
            ),
            Err(e) => eprintln!("failed to write trace {path}: {e}"),
        }
    }
}
