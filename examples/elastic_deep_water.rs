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

    let sim = area.session("dwi-proxy", 10);
    let script = catalyst::PipelineScript::deep_water_impact(320, 240).to_json();
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).expect("view");
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "dwi", &script)
            .expect("deploy");
        s.client.distributed_handle(contact, "dwi").expect("handle")
    });
    let series = DwiSeries::scaled_down(blocks);

    for iteration in 0..iterations {
        if iteration > 0 && iteration % grow_every == 0 {
            // Host side: one more server, then the simulation deploys
            // the pipeline on it.
            let fresh = area.grow_on(&[1 + area.daemons().len() / 2]);
            area.settle();
            println!(
                "  [host] +1 server before iteration {iteration} (now {})",
                area.daemons().len()
            );
            sim.run(|s| {
                for addr in &fresh {
                    s.admin
                        .create_pipeline(*addr, "catalyst", "dwi", &script)
                        .expect("deploy on newcomer");
                }
                handle.refresh_view().expect("refresh");
            });
        }
        let (servers, span) = sim.run(|s| {
            handle.activate(iteration).expect("activate");
            let servers = handle.members().len();
            for b in 0..blocks {
                let ds = vizkit::DataSet::UGrid(series.generate_block(iteration + 1, b));
                let payload = colza_repro::colza::codec::dataset_to_bytes(&ds);
                handle
                    .stage(
                        BlockMeta::new("dwi", b as u64, iteration, payload.len()),
                        &payload,
                    )
                    .expect("stage");
            }
            let before = s.ctx.now();
            handle.execute(iteration).expect("execute");
            let span = s.ctx.now() - before;
            handle.deactivate(iteration).expect("deactivate");
            (servers, span)
        });
        println!(
            "iteration {iteration:>2}: ~{:>9} cells on {servers} server(s), render {}",
            series.cells_at(iteration + 1),
            hpcsim::stats::fmt_ns(span)
        );
    }

    // Scale down: politely ask the extra servers to leave.
    sim.run(|s| {
        let view = handle.refresh_view().expect("view");
        for addr in view.iter().skip(1) {
            s.admin.request_leave(*addr).expect("leave request");
        }
        println!("asked {} server(s) to leave the staging area", view.len() - 1);
    });
    drop(sim);
    // Daemons asked to leave exit by themselves; shutdown joins them and
    // stops the rest.
    area.shutdown();
    println!("done.");
}
