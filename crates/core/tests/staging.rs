//! End-to-end staging tests: daemons + simulation clients exercising the
//! full activate/stage/execute/deactivate protocol, elasticity, 2PC under
//! view churn, and the admin interface.

use std::sync::Arc;

use bytes::Bytes;

use colza::daemon::{launch_group, settle_views};
use colza::{AdminClient, BlockMeta, ColzaClient, CommMode, DaemonConfig};
use margo::MargoInstance;
use na::Fabric;

fn fresh_env(name: &str) -> (hpcsim::Cluster, Fabric, DaemonConfig) {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let path = std::env::temp_dir().join(format!(
        "colza-test-{name}-{}.addrs",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    (cluster, fabric, DaemonConfig::new(path))
}

fn image_block(n: usize, offset: f32, field: &str) -> Bytes {
    let mut img = vizkit::ImageData::new([n, n, n]);
    img.origin = [offset, 0.0, 0.0];
    let c = (n - 1) as f32 / 2.0;
    let mut vals = Vec::with_capacity(n * n * n);
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let d = ((i as f32 - c).powi(2) + (j as f32 - c).powi(2) + (k as f32 - c).powi(2))
                    .sqrt();
                vals.push(30.0 - 4.0 * d);
            }
        }
    }
    img.point_data.set(field, vizkit::DataArray::F32(vals));
    colza::codec::dataset_to_bytes(&vizkit::DataSet::Image(img))
}

#[test]
fn full_iteration_with_null_backend() {
    let (cluster, fabric, cfg) = fresh_env("null");
    let daemons = launch_group(&cluster, &fabric, 3, 1, 0, &cfg);
    let contact = daemons[0].address();

    let f2 = fabric.clone();
    cluster
        .spawn("sim", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            let client = ColzaClient::new(Arc::clone(&margo));
            let members = client.view_from(contact).unwrap();
            assert_eq!(members.len(), 3);
            admin
                .create_pipeline_on_all(&members, "null", "p", "")
                .unwrap();

            let handle = client.distributed_handle(contact, "p").unwrap();
            for iter in 0..3u64 {
                handle.activate(iter).unwrap();
                for block in 0..6u64 {
                    let payload = Bytes::from(vec![block as u8; 100]);
                    handle
                        .stage(
                            BlockMeta::new("x".to_string(), block, iter, payload.len()),
                            &payload,
                        )
                        .unwrap();
                }
                handle.execute(iter).unwrap();
                handle.deactivate(iter).unwrap();
            }
            margo.finalize();
        })
        .join();

    // Each of the 3 servers saw 2 of the 6 blocks per iteration.
    for d in daemons {
        d.stop();
    }
}

#[test]
fn catalyst_pipeline_renders_across_servers() {
    let (cluster, fabric, cfg) = fresh_env("catalyst");
    let daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let contact = daemons[0].address();

    let f2 = fabric.clone();
    let coverage = cluster
        .spawn("sim", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            let client = ColzaClient::new(Arc::clone(&margo));
            let members = client.view_from(contact).unwrap();
            let script = catalyst::PipelineScript::mandelbulb(32, 32).to_json();
            admin
                .create_pipeline_on_all(&members, "catalyst", "viz", &script)
                .unwrap();

            let handle = client.distributed_handle(contact, "viz").unwrap();
            handle.activate(0).unwrap();
            for block in 0..2u64 {
                let payload = image_block(8, block as f32 * 9.0, "iterations");
                handle
                    .stage(
                        BlockMeta::new("mandelbulb".to_string(), block, 0, payload.len()),
                        &payload,
                    )
                    .unwrap();
            }
            handle.execute(0).unwrap();
            let img_bytes = handle.fetch_result().unwrap().expect("root image");
            handle.deactivate(0).unwrap();
            margo.finalize();
            vizkit::Image::from_bytes(&img_bytes).coverage()
        })
        .join();
    assert!(coverage > 0.0, "composited image is empty");
    for d in daemons {
        d.stop();
    }
}

#[test]
fn scaling_up_mid_run_is_visible_to_the_client() {
    let (cluster, fabric, cfg) = fresh_env("scaleup");
    let mut daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let contact = daemons[0].address();
    let script = catalyst::PipelineScript::mandelbulb(24, 24).to_json();

    // Run iteration 0 on two servers, grow to three, run iteration 1.
    let f2 = fabric.clone();
    let cfg2 = cfg.clone();
    let (grow_tx, grow_rx) = crossbeam::channel::bounded::<()>(1);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<()>(1);

    let sim = cluster.spawn("sim", 10, move || {
        let margo = MargoInstance::init(&f2);
        let admin = AdminClient::new(Arc::clone(&margo));
        let client = ColzaClient::new(Arc::clone(&margo));
        let members = client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&members, "catalyst", "viz", &script)
            .unwrap();
        let handle = client.distributed_handle(contact, "viz").unwrap();

        handle.activate(0).unwrap();
        assert_eq!(handle.members().len(), 2);
        let payload = image_block(8, 0.0, "iterations");
        handle
            .stage(
                BlockMeta::new("m".to_string(), 0, 0, payload.len()),
                &payload,
            )
            .unwrap();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();

        // Ask the harness to add a server, then wait for it.
        grow_tx.send(()).unwrap();
        grown_rx.recv().unwrap();

        // The 2PC in activate adopts the grown view, and the new server
        // needs the pipeline too (admin deploys on the refreshed view).
        let view = handle.refresh_view().unwrap();
        assert_eq!(view.len(), 3);
        admin
            .create_pipeline_on_all(&view, "catalyst", "viz", &script)
            .unwrap();
        handle.activate(1).unwrap();
        assert_eq!(handle.members().len(), 3);
        handle.execute(1).unwrap();
        handle.deactivate(1).unwrap();
        margo.finalize();
    });

    grow_rx.recv().unwrap();
    let newcomer = colza::ColzaDaemon::spawn(&cluster, &fabric, 5, cfg2);
    daemons.push(newcomer);
    settle_views(&daemons, 3);
    grown_tx.send(()).unwrap();

    sim.join();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn activate_2pc_retries_through_view_change() {
    let (cluster, fabric, cfg) = fresh_env("2pc");
    let mut daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let contact = daemons[0].address();

    // Inject a joiner *between* view_from and activate: the handle's
    // member list is stale, so prepare sees mismatched views and must
    // retry with the refreshed one.
    let f2 = fabric.clone();
    let client_setup = cluster.spawn("sim-pre", 10, move || {
        let margo = MargoInstance::init(&f2);
        let admin = AdminClient::new(Arc::clone(&margo));
        let client = ColzaClient::new(Arc::clone(&margo));
        let members = client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&members, "null", "p", "")
            .unwrap();
        margo.finalize();
        members.len()
    });
    assert_eq!(client_setup.join(), 2);

    let newcomer = colza::ColzaDaemon::spawn(&cluster, &fabric, 5, cfg.clone());
    // Deploy the pipeline on the newcomer too (it must be able to vote
    // and execute once the client's 2PC adopts the grown view).
    let f3 = fabric.clone();
    let new_addr = newcomer.address();
    cluster
        .spawn("admin2", 11, move || {
            let margo = MargoInstance::init(&f3);
            let admin = AdminClient::new(Arc::clone(&margo));
            admin.create_pipeline(new_addr, "null", "p", "").unwrap();
            margo.finalize();
        })
        .join();
    daemons.push(newcomer);
    settle_views(&daemons, 3);

    let f4 = fabric.clone();
    let final_members = cluster
        .spawn("sim", 12, move || {
            let margo = MargoInstance::init(&f4);
            let client = ColzaClient::new(Arc::clone(&margo));
            let handle = client.distributed_handle(contact, "p").unwrap();
            handle.activate(0).unwrap();
            let n = handle.members().len();
            handle.execute(0).unwrap();
            handle.deactivate(0).unwrap();
            margo.finalize();
            n
        })
        .join();
    assert_eq!(final_members, 3, "2PC must settle on the grown view");
    for d in daemons {
        d.stop();
    }
}

#[test]
fn admin_leave_shrinks_the_group() {
    let (cluster, fabric, cfg) = fresh_env("leave");
    let daemons = launch_group(&cluster, &fabric, 3, 1, 0, &cfg);
    let victim = daemons[2].address();
    let contact = daemons[0].address();

    let f2 = fabric.clone();
    cluster
        .spawn("admin", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            admin.request_leave(victim).unwrap();
            margo.finalize();
        })
        .join();

    // The victim's daemon loop notices the flag, leaves, and exits.
    let mut daemons = daemons;
    let leaver = daemons.remove(2);
    leaver.wait();

    // The survivors converge on a 2-member view.
    for _ in 0..2000 {
        if daemons.iter().all(|d| d.view().len() == 2) {
            break;
        }
        for d in &daemons {
            d.tick();
        }
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
    for d in &daemons {
        assert_eq!(d.view().len(), 2);
        assert!(!d.view().contains(&victim));
    }
    let _ = contact;
    for d in daemons {
        d.stop();
    }
}

#[test]
fn admin_create_and_destroy_pipelines() {
    let (cluster, fabric, cfg) = fresh_env("adminpipe");
    let daemons = launch_group(&cluster, &fabric, 1, 1, 0, &cfg);
    let server = daemons[0].address();

    let f2 = fabric.clone();
    cluster
        .spawn("admin", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            admin.create_pipeline(server, "null", "a", "").unwrap();
            admin.create_pipeline(server, "null", "b", "").unwrap();
            assert_eq!(admin.list_pipelines(server).unwrap(), vec!["a", "b"]);
            admin.destroy_pipeline(server, "a").unwrap();
            assert_eq!(admin.list_pipelines(server).unwrap(), vec!["b"]);
            assert!(admin.destroy_pipeline(server, "zzz").is_err());
            // Unknown library is a clean error.
            assert!(admin
                .create_pipeline(server, "libdoesnotexist.so", "c", "")
                .is_err());
            margo.finalize();
        })
        .join();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn static_mpi_mode_runs_the_same_pipeline() {
    let (cluster, fabric, mut cfg) = fresh_env("mpistatic");
    cfg.comm = CommMode::MpiStatic(minimpi::Profile::Vendor);
    let daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let contact = daemons[0].address();

    let f2 = fabric.clone();
    let coverage = cluster
        .spawn("sim", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            let client = ColzaClient::new(Arc::clone(&margo));
            let members = client.view_from(contact).unwrap();
            let script = catalyst::PipelineScript::mandelbulb(24, 24).to_json();
            admin
                .create_pipeline_on_all(&members, "catalyst", "viz", &script)
                .unwrap();
            let handle = client.distributed_handle(contact, "viz").unwrap();
            handle.activate(0).unwrap();
            let payload = image_block(8, 0.0, "iterations");
            handle
                .stage(
                    BlockMeta::new("m".to_string(), 0, 0, payload.len()),
                    &payload,
                )
                .unwrap();
            handle.execute(0).unwrap();
            let img = handle.fetch_result().unwrap().expect("image");
            handle.deactivate(0).unwrap();
            margo.finalize();
            vizkit::Image::from_bytes(&img).coverage()
        })
        .join();
    assert!(coverage > 0.0);
    for d in daemons {
        d.stop();
    }
}

#[test]
fn nonblocking_stage_and_execute() {
    let (cluster, fabric, cfg) = fresh_env("nonblocking");
    let daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let contact = daemons[0].address();

    let f2 = fabric.clone();
    cluster
        .spawn("sim", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            let client = ColzaClient::new(Arc::clone(&margo));
            let members = client.view_from(contact).unwrap();
            admin
                .create_pipeline_on_all(&members, "null", "p", "")
                .unwrap();
            let handle = Arc::new(client.distributed_handle(contact, "p").unwrap());
            handle.activate(0).unwrap();
            let pending: Vec<_> = (0..4u64)
                .map(|b| {
                    let payload = Bytes::from(vec![b as u8; 64]);
                    handle.istage(
                        BlockMeta::new("x".to_string(), b, 0, payload.len()),
                        payload,
                    )
                })
                .collect();
            for p in pending {
                p.wait().unwrap();
            }
            let exec = handle.iexecute(0);
            exec.wait().unwrap();
            handle.deactivate(0).unwrap();
            margo.finalize();
        })
        .join();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn single_server_pipeline_handle_full_protocol() {
    let (cluster, fabric, cfg) = fresh_env("single");
    let daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let target = daemons[1].address();
    let f2 = fabric.clone();
    cluster
        .spawn("sim", 10, move || {
            let margo = MargoInstance::init(&f2);
            let admin = AdminClient::new(Arc::clone(&margo));
            let client = ColzaClient::new(Arc::clone(&margo));
            admin.create_pipeline(target, "null", "solo", "").unwrap();
            // The paper: a plain pipeline handle references one pipeline
            // instance on one server, with the same four calls.
            let handle = client.pipeline_handle(target, "solo");
            handle.activate(0).unwrap();
            let payload = Bytes::from(vec![7u8; 256]);
            handle
                .stage(
                    BlockMeta::new("x", 0, 0, payload.len()),
                    &payload,
                )
                .unwrap();
            handle.execute(0).unwrap();
            let staged = handle.fetch_result().unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(staged.try_into().unwrap()), 256);
            handle.deactivate(0).unwrap();
            margo.finalize();
        })
        .join();
    for d in daemons {
        d.stop();
    }
}
