//! The paper's headline scenario (Fig. 10): the Deep Water Impact proxy
//! feeds a staging area that *grows while the run progresses*, keeping
//! rendering time bounded as the data gets heavier. Also demonstrates
//! scale-down through the admin interface at the end of the run.
//!
//! Run: `cargo run --release --example elastic_deep_water`

use colza_repro::colza::{BlockMeta, StagingArea};
use colza_repro::sims::dwi::DwiSeries;

fn main() {
    let blocks = 8usize;
    let iterations = 12u64;
    let grow_every = 3u64; // grow by one server every 3 iterations

    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    area.launch(1, 2);
    let contact = area.contact();
    println!("starting with 1 staging server; data will outgrow it...");

    let (grow_tx, grow_rx) = crossbeam::channel::bounded::<u64>(4);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<Vec<na::Address>>(4);

    let sim = area.client("dwi-proxy", 10, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let script = catalyst::PipelineScript::deep_water_impact(320, 240).to_json();
        let view = client.view_from(contact).expect("view");
        admin
            .create_pipeline_on_all(&view, "catalyst", "dwi", &script)
            .expect("deploy");
        let handle = client.distributed_handle(contact, "dwi").expect("handle");
        let series = DwiSeries::scaled_down(blocks);
        let ctx = &s.ctx;

        for iteration in 0..iterations {
            if iteration > 0 && iteration % grow_every == 0 {
                grow_tx.send(iteration).unwrap();
                let fresh = grown_rx.recv().expect("grown");
                for addr in &fresh {
                    admin
                        .create_pipeline(*addr, "catalyst", "dwi", &script)
                        .expect("deploy on newcomer");
                }
                handle.refresh_view().expect("refresh");
            }
            handle.activate(iteration).expect("activate");
            let servers = handle.members().len();
            for b in 0..blocks {
                let ds = vizkit::DataSet::UGrid(series.generate_block(iteration + 1, b));
                let cells = ds.num_cells();
                let payload = colza_repro::colza::codec::dataset_to_bytes(&ds);
                let _ = cells;
                handle
                    .stage(
                        BlockMeta::new("dwi", b as u64, iteration, payload.len()),
                        &payload,
                    )
                    .expect("stage");
            }
            let before = ctx.now();
            handle.execute(iteration).expect("execute");
            let span = ctx.now() - before;
            handle.deactivate(iteration).expect("deactivate");
            println!(
                "iteration {iteration:>2}: ~{:>9} cells on {servers} server(s), render {}",
                series.cells_at(iteration + 1),
                hpcsim::stats::fmt_ns(span)
            );
        }

        // Scale down: politely ask the extra servers to leave.
        let view = handle.refresh_view().expect("view");
        for addr in view.iter().skip(1) {
            admin.request_leave(*addr).expect("leave request");
        }
        println!("asked {} server(s) to leave the staging area", view.len() - 1);
    });

    // Host side: serve growth requests.
    loop {
        crossbeam::channel::select! {
            recv(grow_rx) -> msg => match msg {
                Ok(iteration) => {
                    let fresh = area.grow_on(&[1 + area.daemons().len() / 2]);
                    area.settle();
                    println!(
                        "  [host] +1 server before iteration {iteration} (now {})",
                        area.daemons().len()
                    );
                    grown_tx.send(fresh).unwrap();
                }
                Err(_) => break,
            }
        }
    }

    sim.join();
    // Daemons asked to leave exit by themselves; shutdown joins them and
    // stops the rest.
    area.shutdown();
    println!("done.");
}
