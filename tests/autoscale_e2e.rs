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

    let (grow_tx, grow_rx) = crossbeam::channel::bounded::<usize>(4);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<Vec<na::Address>>(4);

    let sim = area.client("sim", 10, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let script = catalyst::PipelineScript::deep_water_impact(128, 96).to_json();
        let view = client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&view, "catalyst", "dwi", &script)
            .unwrap();
        let handle = client.distributed_handle(contact, "dwi").unwrap();
        let series = sims::dwi::DwiSeries {
            total_blocks: 8,
            scale: 1.0 / 2048.0,
            iterations: 16,
        };
        let ctx = &s.ctx;
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
        for iteration in 0..16u64 {
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
            let before = ctx.now();
            handle.execute(iteration).unwrap();
            let span = ctx.now() - before;
            handle.deactivate(iteration).unwrap();

            let decision = scaler.observe(span, handle.members().len(), had_join);
            had_join = false;
            if let ScaleDecision::Grow(n) = decision {
                grow_tx.send(n).unwrap();
                let fresh = grown_rx.recv().unwrap();
                for addr in &fresh {
                    admin
                        .create_pipeline(*addr, "catalyst", "dwi", &script)
                        .unwrap();
                }
                handle.refresh_view().unwrap();
                grew += fresh.len();
                had_join = true;
            }
        }
        (grew, sizes)
    });

    // Host: serve growth requests until the simulation finishes, each
    // newcomer on a node of its own.
    let mut next_node = 1usize;
    while let Ok(n) = grow_rx.recv() {
        let nodes: Vec<usize> = (next_node..next_node + n).collect();
        next_node += n;
        let fresh = area.grow_on(&nodes);
        area.settle();
        grown_tx.send(fresh).unwrap();
    }

    let (grew, sizes) = sim.join();
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

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (victim_tx, victim_rx) = crossbeam::channel::bounded::<Vec<na::Address>>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
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
        staged_tx.send(()).unwrap();
        victim_tx
            .send(drain_aware_victims(&s.admin, &view, 1))
            .unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(0).unwrap();
    });

    staged_rx.recv().unwrap();
    let victims = victim_rx.recv().unwrap();
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
    done_tx.send(()).unwrap();
    sim.join();
    area.shutdown();
}
