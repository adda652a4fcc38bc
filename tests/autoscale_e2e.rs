//! End-to-end automatic resizing (the paper's §IV-B future-work trigger):
//! the simulation feeds execute durations to the controller; when the
//! growing DWI data pushes analysis time over target, the controller asks
//! the host for more servers and the iteration time comes back down.

use colza::{
    drain_aware_victims, AutoScaleConfig, AutoScaler, BlockMeta, ScaleDecision, StagingArea,
};
use hpcsim::ClusterConfig;

#[test]
fn autoscaler_grows_the_staging_area_under_load() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(1, 2);
    let contact = area.contact();

    let script = catalyst::PipelineScript::deep_water_impact(128, 96).to_json();
    let sim = area.session("sim", 10);
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "dwi", &script)
            .unwrap();
        s.client.distributed_handle(contact, "dwi").unwrap()
    });
    let series = sims::dwi::DwiSeries {
        total_blocks: 8,
        scale: 1.0 / 2048.0,
        iterations: 16,
    };
    // Target far below what one server can deliver on the late, heavy
    // iterations: growth must trigger.
    let mut scaler = AutoScaler::new(AutoScaleConfig {
        cooldown_iters: 1,
        max_servers: 4,
        ..AutoScaleConfig::with_target(12 * hpcsim::MS)
    });
    let mut grew = 0usize;
    let mut had_join = false;
    let mut sizes = Vec::new();
    // Each newcomer goes on a node of its own.
    let mut next_node = 1usize;
    for iteration in 0..16u64 {
        let span = sim.run(|s| {
            handle.activate(iteration).unwrap();
            sizes.push(handle.members().len());
            for b in 0..8usize {
                let ds = vizkit::DataSet::UGrid(series.generate_block(iteration + 1, b));
                let payload = colza::codec::dataset_to_bytes(&ds);
                handle
                    .stage(
                        BlockMeta::new("dwi", b as u64, iteration, payload.len()),
                        &payload,
                    )
                    .unwrap();
            }
            let before = s.ctx.now();
            handle.execute(iteration).unwrap();
            let span = s.ctx.now() - before;
            handle.deactivate(iteration).unwrap();
            span
        });

        let decision = scaler.observe(span, handle.members().len(), had_join);
        had_join = false;
        if let ScaleDecision::Grow(n) = decision {
            let nodes: Vec<usize> = (next_node..next_node + n).collect();
            next_node += n;
            let fresh = area.grow_on(&nodes);
            area.settle();
            sim.run(|s| {
                for addr in &fresh {
                    s.admin
                        .create_pipeline(*addr, "catalyst", "dwi", &script)
                        .unwrap();
                }
                handle.refresh_view().unwrap();
            });
            grew += fresh.len();
            had_join = true;
        }
    }
    drop(sim);

    assert!(grew >= 1, "the controller never grew the staging area");
    assert_eq!(sizes[0], 1, "started with one server");
    assert!(
        *sizes.last().unwrap() > 1,
        "staging area should have grown by the end: {sizes:?}"
    );
    area.shutdown();
}

/// Shrink victim selection is drain-aware: with uneven staged load
/// across the area, [`drain_aware_victims`] scrapes each server's
/// staged-byte load over the metrics RPC and nominates the server whose
/// departure moves the fewest bytes.
#[test]
fn shrink_victims_are_chosen_by_staged_load() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.shared().tracer().set_enabled(true);
    area.launch(3, 1);
    let contact = area.contact();

    let sim = area.session("sim", 8);
    let (handle, victims) = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.activate(0).unwrap();
        // Enough blocks of varying size that the ring spreads a clearly
        // uneven byte load across the three servers.
        for b in 0..12u64 {
            let payload = bytes::Bytes::from(vec![1u8; 128 * (b as usize + 1)]);
            handle
                .stage(
                    BlockMeta::new("x", b, 0, payload.len()),
                    &payload,
                )
                .unwrap();
        }
        (handle, drain_aware_victims(&s.admin, &view, 1))
    });
    // Independent expectation, straight from the stores (not the metrics
    // RPC under test): least bytes wins; ties go to the later member.
    let mut loads: Vec<(na::Address, u64)> = area
        .daemons()
        .iter()
        .map(|d| (d.address(), d.provider().store().staged_bytes()))
        .collect();
    loads.sort_unstable_by_key(|&(addr, _)| addr);
    let expected = colza::select_victims(&loads, 1);
    assert_eq!(victims, expected, "victim must be the least-loaded server");
    assert_eq!(
        area.shared()
            .trace_snapshot()
            .counter_total("autoscale.victim.drain_aware"),
        1,
        "each nomination must be counted in the trace"
    );
    sim.run(|_| handle.deactivate(0).unwrap());
    drop(sim);
    area.shutdown();
}
