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

    // 2. A simulation process: deploys the pipeline, stages a block,
    //    executes, and pulls the rendered image back.
    let (grow_tx, grow_rx) = crossbeam::channel::bounded::<()>(1);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("simulation", 10, move |s| {
        let (client, admin) = (&s.client, &s.admin);

        // Deploy a Mandelbulb isosurface pipeline on every server.
        let script = catalyst::PipelineScript::mandelbulb(320, 240).to_json();
        let view = client.view_from(contact).expect("staging area reachable");
        admin
            .create_pipeline_on_all(&view, "catalyst", "viz", &script)
            .expect("deploy pipeline");

        let handle = client.distributed_handle(contact, "viz").expect("handle");
        let bulb = sims::mandelbulb::Mandelbulb::default();

        for iteration in 0..2u64 {
            if iteration == 1 {
                // Ask the host to grow the staging area mid-run, then
                // deploy the pipeline on the newcomers.
                grow_tx.send(()).unwrap();
                grown_rx.recv().unwrap();
                let view = handle.refresh_view().expect("grown view");
                admin
                    .create_pipeline_on_all(&view, "catalyst", "viz", &script)
                    .expect("deploy on grown view");
                println!("staging area grew to {} servers", view.len());
            }

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
    });

    // 3. The host grows the staging area when asked (the paper's job-
    //    script trigger): one more daemon on the next free node.
    grow_rx.recv().unwrap();
    area.grow(1);
    area.settle();
    grown_tx.send(()).unwrap();

    sim.join();
    area.shutdown();
    println!("done.");
}
