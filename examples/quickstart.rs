//! Quickstart: the smallest end-to-end Colza session.
//!
//! Starts a simulated cluster, a 2-process staging area, deploys a
//! Catalyst pipeline, stages one data block from a "simulation" process,
//! executes, fetches the rendered image, and scales the staging area up
//! by one server before a second iteration.
//!
//! Run: `cargo run --release --example quickstart`

use colza::{BlockMeta, StagingArea};

fn main() {
    // 1. A staging area on a simulated cluster (the hpcsim stand-in for
    //    a real machine): two Colza daemons, one per node, bootstrapped
    //    through a connection file exactly as the real deployment does.
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    area.launch(2, 1);
    let contact = area.contact();
    println!(
        "staging area up: {:?}",
        area.daemons().iter().map(|d| d.address().to_string()).collect::<Vec<_>>()
    );

    // 2. A simulation process: deploys a Mandelbulb isosurface pipeline
    //    on every server. Its steps run on this thread, inside the
    //    simulated process, one `sim.run` at a time.
    let sim = area.session("simulation", 10);
    let script = catalyst::PipelineScript::mandelbulb(320, 240).to_json();
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).expect("staging area reachable");
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "viz", &script)
            .expect("deploy pipeline");
        s.client.distributed_handle(contact, "viz").expect("handle")
    });
    let bulb = sims::mandelbulb::Mandelbulb::default();

    for iteration in 0..2u64 {
        if iteration == 1 {
            // 3. The host grows the staging area mid-run (the paper's
            //    job-script trigger): one more daemon on the next free
            //    node. The simulation then deploys the pipeline on it.
            area.grow(1);
            area.settle();
            sim.run(|s| {
                let view = handle.refresh_view().expect("grown view");
                s.admin
                    .create_pipeline_on_all(&view, "catalyst", "viz", &script)
                    .expect("deploy on grown view");
                println!("staging area grew to {} servers", view.len());
            });
        }

        // 4. One iteration: stage blocks, execute, pull the image back.
        let image = sim.run(|_| {
            handle.activate(iteration).expect("activate (2PC)");
            for block in 0..4u64 {
                let ds = bulb.generate_block(block as usize, 4);
                let payload = colza::codec::dataset_to_bytes(&ds);
                handle
                    .stage(
                        BlockMeta::new("mandelbulb", block, iteration, payload.len()),
                        &payload,
                    )
                    .expect("stage");
            }
            handle.execute(iteration).expect("execute");
            let image = handle
                .fetch_result()
                .expect("fetch")
                .expect("rendered image at the root");
            handle.deactivate(iteration).expect("deactivate");
            image
        });

        let img = vizkit::Image::from_bytes(&image);
        let path = std::env::temp_dir().join(format!("quickstart_iter{iteration}.ppm"));
        img.write_ppm(&path).expect("write image");
        println!(
            "iteration {iteration}: rendered {}x{} image ({:.1}% coverage) -> {}",
            img.width,
            img.height,
            img.coverage() * 100.0,
            path.display()
        );
    }

    drop(sim);
    area.shutdown();
    println!("done.");
}
