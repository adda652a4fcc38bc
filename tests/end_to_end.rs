//! Workspace-level integration tests: whole-system flows spanning the
//! simulation applications, the Colza staging service, the visualization
//! stack, and the baselines.

use std::sync::Arc;

use colza::daemon::{wait_until, Session};
use colza::{BlockMeta, StagingArea};
use hpcsim::ClusterConfig;
use margo::MargoInstance;
use na::Fabric;

#[test]
fn gray_scott_through_colza_produces_an_image() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(2, 1);
    let contact = area.contact();
    let coverage = minimpi::MpiWorld::launch(
        area.cluster(),
        area.fabric(),
        2,
        2,
        2,
        minimpi::Profile::Vendor,
        move |comm| {
            let s = Session::new(MargoInstance::from_endpoint(Arc::clone(comm.endpoint())));
            if comm.rank() == 0 {
                let script = catalyst::PipelineScript::gray_scott(96, 96).to_json();
                let view = s.client.view_from(contact).unwrap();
                s.admin
                    .create_pipeline_on_all(&view, "catalyst", "gs", &script)
                    .unwrap();
            }
            comm.barrier().unwrap();
            let handle = s.client.distributed_handle(contact, "gs").unwrap();
            let mut sim = sims::gray_scott::GrayScott::new(
                24,
                comm.rank(),
                comm.size(),
                sims::gray_scott::GrayScottParams::default(),
            );
            sim.run(20, Some(&comm)).unwrap();
            if comm.rank() == 0 {
                handle.activate(0).unwrap();
            }
            comm.barrier().unwrap();
            let payload = colza::codec::dataset_to_bytes(&sim.to_dataset());
            handle
                .stage(
                    BlockMeta::new("gs", comm.rank() as u64, 0, payload.len()),
                    &payload,
                )
                .unwrap();
            comm.barrier().unwrap();
            let out = if comm.rank() == 0 {
                handle.execute(0).unwrap();
                let img = handle.fetch_result().unwrap().expect("image");
                handle.deactivate(0).unwrap();
                vizkit::Image::from_bytes(&img).coverage()
            } else {
                -1.0
            };
            comm.barrier().unwrap();
            out
        },
    );
    assert!(coverage[0] > 0.0, "root coverage {}", coverage[0]);
    area.shutdown();
}

#[test]
fn elastic_grow_and_admin_shrink_under_load() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(2, 1);
    let contact = area.contact();
    let script = catalyst::PipelineScript::mandelbulb(48, 48).to_json();

    let (grow_tx, grow_rx) = crossbeam::channel::bounded::<()>(1);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<na::Address>(1);

    let sim = area.client("sim", 8, move |s| {
        let admin = &s.admin;
        let view = s.client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&view, "catalyst", "m", &script)
            .unwrap();
        let handle = s.client.distributed_handle(contact, "m").unwrap();
        let bulb = sims::mandelbulb::Mandelbulb {
            dims: [12, 12, 12],
            ..Default::default()
        };

        let mut server_counts = Vec::new();
        for iteration in 0..4u64 {
            if iteration == 1 {
                grow_tx.send(()).unwrap();
                let fresh = grown_rx.recv().unwrap();
                admin
                    .create_pipeline(fresh, "catalyst", "m", &script)
                    .unwrap();
                handle.refresh_view().unwrap();
            }
            if iteration == 3 {
                // Scale down: ask the newest member to leave, wait for the
                // view to shrink, then keep iterating.
                let view = handle.refresh_view().unwrap();
                admin.request_leave(*view.last().unwrap()).unwrap();
                wait_until("the leaver left the client's view", || {
                    handle.refresh_view().map(|v| v.len()) == Ok(view.len() - 1)
                });
            }
            handle.activate(iteration).unwrap();
            server_counts.push(handle.members().len());
            for b in 0..4u64 {
                let payload =
                    colza::codec::dataset_to_bytes(&bulb.generate_block(b as usize, 4));
                handle
                    .stage(
                        BlockMeta::new("m", b, iteration, payload.len()),
                        &payload,
                    )
                    .unwrap();
            }
            handle.execute(iteration).unwrap();
            handle.deactivate(iteration).unwrap();
        }
        server_counts
    });

    grow_rx.recv().unwrap();
    let fresh = area.grow_on(&[4]);
    area.settle();
    grown_tx.send(fresh[0]).unwrap();

    let counts = sim.join();
    assert_eq!(counts[0], 2);
    assert_eq!(counts[1], 3, "grew before iteration 1");
    assert_eq!(counts[3], 2, "shrank before iteration 3");

    // The leaver exits by itself; collect it before stopping the rest.
    area.wait(2);
    area.shutdown();
}

#[test]
fn all_three_pipelines_render_through_the_catalyst_backend() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(1, 1);
    let contact = area.contact();
    let coverages = area
        .client("sim", 8, move |s| {
            let (client, admin) = (&s.client, &s.admin);
            let view = client.view_from(contact).unwrap();
            let mut out = Vec::new();

            // Gray-Scott (contour + clip), Mandelbulb (contour), DWI
            // (merge + volume) on the same staging area.
            let mut gs = sims::gray_scott::GrayScott::serial(
                16,
                sims::gray_scott::GrayScottParams::default(),
            );
            gs.run(30, None).unwrap();
            let bulb = sims::mandelbulb::Mandelbulb {
                dims: [16, 16, 16],
                ..Default::default()
            };
            let dwi = sims::dwi::DwiSeries::scaled_down(2);
            let cases: Vec<(&str, String, Vec<vizkit::DataSet>)> = vec![
                (
                    "gs",
                    catalyst::PipelineScript::gray_scott(64, 64).to_json(),
                    vec![gs.to_dataset()],
                ),
                (
                    "bulb",
                    catalyst::PipelineScript::mandelbulb(64, 64).to_json(),
                    vec![bulb.generate_block(0, 1)],
                ),
                (
                    "dwi",
                    catalyst::PipelineScript::deep_water_impact(64, 64).to_json(),
                    (0..2)
                        .map(|b| vizkit::DataSet::UGrid(dwi.generate_block(20, b)))
                        .collect(),
                ),
            ];
            for (name, script, blocks) in cases {
                admin
                    .create_pipeline_on_all(&view, "catalyst", name, &script)
                    .unwrap();
                let handle = client.distributed_handle(contact, name).unwrap();
                handle.activate(0).unwrap();
                for (b, ds) in blocks.iter().enumerate() {
                    let payload = colza::codec::dataset_to_bytes(ds);
                    handle
                        .stage(
                            BlockMeta::new(name, b as u64, 0, payload.len()),
                            &payload,
                        )
                        .unwrap();
                }
                handle.execute(0).unwrap();
                let img = handle.fetch_result().unwrap().expect("image");
                handle.deactivate(0).unwrap();
                out.push((name, vizkit::Image::from_bytes(&img).coverage()));
            }
            out
        })
        .join();
    for (name, cov) in coverages {
        assert!(cov > 0.0, "{name} rendered an empty image");
    }
    area.shutdown();
}

#[test]
fn killed_server_is_detected_and_protocol_recovers() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(3, 1);
    let contact = area.contact();
    let victim_addr = area.daemons()[2].address();

    let (killed_tx, killed_rx) = crossbeam::channel::bounded::<()>(1);
    let (ready_tx, ready_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let view = s.client.view_from(contact).unwrap();
        assert_eq!(view.len(), 3);
        s.admin
            .create_pipeline_on_all(&view, "null", "p", "")
            .unwrap();
        let handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.activate(0).unwrap();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();

        // Wait for the harness to crash a server and SWIM to notice.
        ready_tx.send(()).unwrap();
        killed_rx.recv().unwrap();
        wait_until("the contact dropped the victim", || {
            s.client.view_from(contact).map(|v| !v.contains(&victim_addr)) == Ok(true)
        });
        // The 2PC in activate adopts the survivor view; the protocol keeps
        // working on 2 servers.
        handle.refresh_view().unwrap();
        handle.activate(1).unwrap();
        let n = handle.members().len();
        handle.execute(1).unwrap();
        handle.deactivate(1).unwrap();
        n
    });

    ready_rx.recv().unwrap();
    area.kill(2);
    // Drive gossip so suspicion matures (ticks also advance rounds).
    area.settle();
    killed_tx.send(()).unwrap();
    let n = sim.join();
    assert_eq!(n, 2, "protocol must continue on the survivors");
    area.shutdown();
}

#[test]
fn baselines_and_colza_run_the_same_workload() {
    // Fig. 8's comparability check at smoke scale: all four frameworks
    // process the same Mandelbulb blocks without error.
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let script = catalyst::PipelineScript::mandelbulb(32, 32);

    // Damaris.
    let times = baselines::damaris::run_damaris(
        &cluster,
        &fabric,
        baselines::damaris::DamarisConfig {
            clients: 2,
            servers: 2,
            profile: minimpi::Profile::Vendor,
            script: script.clone(),
            iterations: 1,
        },
        |rank, _| {
            vec![sims::mandelbulb::Mandelbulb {
                dims: [8, 8, 8],
                ..Default::default()
            }
            .generate_block(rank % 2, 2)]
        },
    );
    assert_eq!(times.len(), 1);

    // DataSpaces.
    let deployment = baselines::dataspaces::DataSpacesDeployment::launch(
        &cluster,
        &fabric,
        2,
        1,
        10,
        minimpi::Profile::Vendor,
        script,
    );
    let servers = deployment.addrs().to_vec();
    let f2 = fabric.clone();
    cluster
        .spawn("ds-client", 20, move || {
            let margo = MargoInstance::init(&f2);
            let client = baselines::dataspaces::DsClient::new(Arc::clone(&margo), servers);
            let bulb = sims::mandelbulb::Mandelbulb {
                dims: [8, 8, 8],
                ..Default::default()
            };
            for b in 0..2u64 {
                let payload =
                    colza::codec::dataset_to_bytes(&bulb.generate_block(b as usize, 2));
                client.put("m", 0, b, &payload).unwrap();
            }
            client.exec(0).unwrap();
            margo.finalize();
        })
        .join();
    deployment.stop();
}
