//! Side-by-side: the same Mandelbulb pipeline through Colza with the
//! elastic MoNA communication layer and with the static-MPI baseline
//! (`Colza+MPI`), demonstrating that the dependency-injected layer swap
//! is invisible to the pipeline (paper §II-D, Fig. 5).
//!
//! Run: `cargo run --release --example mandelbulb_compare`

use colza::{BlockMeta, CommMode, StagingArea};
use sims::mandelbulb::Mandelbulb;

fn main() {
    let servers = 2usize;
    let blocks = 4usize;
    let iterations = 3u64;
    for (mode, label) in [
        (CommMode::Mona, "Colza + MoNA (elastic)"),
        (
            CommMode::MpiStatic(minimpi::Profile::Vendor),
            "Colza + MPI (static baseline)",
        ),
    ] {
        let times = run_once(mode, servers, blocks, iterations);
        println!("{label}:");
        for (i, t) in times.iter().enumerate() {
            let note = if i == 0 { "  (includes pipeline init)" } else { "" };
            println!("  iteration {i}: {}{note}", hpcsim::stats::fmt_ns(*t));
        }
    }
    println!();
    println!("Same pipeline, same data, same API - only the injected");
    println!("communicator differs; execution times are on par (Fig. 5).");
}

fn run_once(mode: CommMode, servers: usize, blocks: usize, iterations: u64) -> Vec<u64> {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    area.config_mut().comm = mode;
    area.launch(servers, 2);
    let contact = area.contact();

    let times = area
        .client("sim", 8, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            let script = catalyst::PipelineScript::mandelbulb(256, 192).to_json();
            let view = client.view_from(contact).expect("view");
            admin
                .create_pipeline_on_all(&view, "catalyst", "viz", &script)
                .expect("deploy");
            let handle = client.distributed_handle(contact, "viz").expect("handle");
            let bulb = Mandelbulb {
                dims: [24, 24, 4 * blocks],
                ..Default::default()
            };
            let ctx = &s.ctx;
            let mut times = Vec::new();
            for iteration in 0..iterations {
                handle.activate(iteration).expect("activate");
                for b in 0..blocks {
                    let payload =
                        colza::codec::dataset_to_bytes(&bulb.generate_block(b, blocks));
                    handle
                        .stage(
                            BlockMeta::new("bulb", b as u64, iteration, payload.len()),
                            &payload,
                        )
                        .expect("stage");
                }
                let before = ctx.now();
                handle.execute(iteration).expect("execute");
                times.push(ctx.now() - before);
                handle.deactivate(iteration).expect("deactivate");
            }
            times
        })
        .join();
    area.shutdown();
    times
}
