//! Workspace-level integration tests: whole-system flows spanning the
//! simulation applications, the Colza staging service, the visualization
//! stack, and the baselines.

use std::sync::Arc;

use colza::daemon::{wait_until, Session};
use colza::{BlockMeta, StagingArea};
use colza_bench::scenarios::crash;
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

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "m", &script)
            .unwrap();
        s.client.distributed_handle(contact, "m").unwrap()
    });
    let bulb = sims::mandelbulb::Mandelbulb {
        dims: [12, 12, 12],
        ..Default::default()
    };

    let mut counts = Vec::new();
    for iteration in 0..4u64 {
        if iteration == 1 {
            let fresh = area.grow_on(&[4]);
            area.settle();
            sim.run(|s| {
                s.admin
                    .create_pipeline(fresh[0], "catalyst", "m", &script)
                    .unwrap();
                handle.refresh_view().unwrap();
            });
        }
        let members = sim.run(|s| {
            if iteration == 3 {
                // Scale down: ask the newest member to leave, wait for the
                // view to shrink, then keep iterating.
                let view = handle.refresh_view().unwrap();
                s.admin.request_leave(*view.last().unwrap()).unwrap();
                wait_until("the leaver left the client's view", || {
                    handle.refresh_view().map(|v| v.len()) == Ok(view.len() - 1)
                });
            }
            handle.activate(iteration).unwrap();
            let members = handle.members().len();
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
            members
        });
        counts.push(members);
    }
    drop(sim);
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
    let coverages = area.session("sim", 8).run(|s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        let mut out = Vec::new();

        // Gray-Scott (contour + clip), Mandelbulb (contour), DWI
        // (merge + volume) on the same staging area.
        let mut gs =
            sims::gray_scott::GrayScott::serial(16, sims::gray_scott::GrayScottParams::default());
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
                    .stage(BlockMeta::new(name, b as u64, 0, payload.len()), &payload)
                    .unwrap();
            }
            handle.execute(0).unwrap();
            let img = handle.fetch_result().unwrap().expect("image");
            handle.deactivate(0).unwrap();
            out.push((name, vizkit::Image::from_bytes(&img).coverage()));
        }
        out
    });
    for (name, cov) in coverages {
        assert!(cov > 0.0, "{name} rendered an empty image");
    }
    area.shutdown();
}

/// A script naming a field the staged data lacks fails `execute` with an
/// error naming the field — not a server-side panic that leaves the
/// client waiting out its retry deadline — and the same servers go on to
/// execute a valid pipeline. A filter handed the wrong data type (a
/// contour over a DWI grid) fails the same way. Two servers and one
/// block: the server that holds no block must fail the collective
/// `execute` too, not wait in it for a peer that already gave up.
#[test]
fn contouring_a_missing_field_fails_execute_and_the_server_keeps_serving() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(2, 1);
    let contact = area.contact();
    let mut gs =
        sims::gray_scott::GrayScott::serial(16, sims::gray_scott::GrayScottParams::default());
    gs.run(30, None).unwrap();
    let payload = colza::codec::dataset_to_bytes(&gs.to_dataset());
    let mut broken = catalyst::PipelineScript::gray_scott(32, 32);
    broken.filters[0] = catalyst::FilterSpec::Contour {
        field: "nope".to_string(),
        isovalues: vec![0.3],
    };
    let valid = catalyst::PipelineScript::gray_scott(32, 32);
    // Contour needs image data: a DWI block is the wrong data type.
    let dwi = sims::dwi::DwiSeries::scaled_down(4).generate_block(1, 0);
    let dwi = colza::codec::dataset_to_bytes(&vizkit::DataSet::UGrid(dwi));

    area.session("sim", 8).run(|s| {
        let view = s.client.view_from(contact).unwrap();
        assert_eq!(view.len(), 2);
        let run = |name: &str, script: &catalyst::PipelineScript, payload: &bytes::Bytes| {
            s.admin
                .create_pipeline_on_all(&view, "catalyst", name, &script.to_json())
                .unwrap();
            let mut handle = s.client.distributed_handle(contact, name).unwrap();
            // A lost reply would only time out: keep that short.
            handle.set_heavy_retry(margo::RetryConfig {
                deadline: Some(std::time::Duration::from_secs(5)),
                ..Default::default()
            });
            handle.activate(0).unwrap();
            // Stage on the second member, so the first, whose reply the
            // client reports, holds no block.
            let block = (0..)
                .find(|&b| area.primary_of(name, b, 1) != handle.members()[0])
                .unwrap();
            handle
                .stage(BlockMeta::new(name, block, 0, payload.len()), payload)
                .unwrap();
            let executed = handle.execute(0);
            handle.deactivate(0).unwrap();
            executed
        };
        let err =
            run("broken", &broken, &payload).expect_err("contouring a missing field must fail");
        assert!(
            err.to_string().contains("\"nope\""),
            "error must name the field: {err}"
        );
        let err = run("dwi", &valid, &dwi).expect_err("contouring a DWI grid must fail");
        assert!(
            err.to_string().contains("cannot apply"),
            "error must name the type mismatch: {err}"
        );
        run("gs", &valid, &payload).expect("the same server executes a valid pipeline");
    });
    area.shutdown();
}

#[test]
fn killed_server_is_detected_and_protocol_recovers() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(3, 1);
    let contact = area.contact();

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| crash::null_iteration(s, contact, 3));

    // Crash a server and drive gossip until every survivor dropped it.
    area.kill(2);
    area.settle();
    // The 2PC in activate adopts the survivor view; the protocol keeps
    // working on 2 servers.
    let n = sim.run(|_| crash::iterate_on_fresh_view(&handle, 1));
    drop(sim);
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
