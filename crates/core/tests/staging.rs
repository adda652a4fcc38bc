//! End-to-end staging tests: daemons + simulation clients exercising the
//! full activate/stage/execute/deactivate protocol, elasticity, 2PC under
//! view churn, and the admin interface.

use std::sync::Arc;

use bytes::Bytes;

use colza::backend::NullBackend;
use colza::{BlockMeta, CommMode, StagingArea};

/// A self-ticking area of `n` daemons, one per node, on the default
/// (zero-latency) cluster.
fn launched(n: usize) -> StagingArea {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::default());
    area.launch(n, 1);
    area
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
    let mut area = launched(3);
    let contact = area.contact();

    area.session("sim", 10).run(|s| {
        let (admin, client) = (&s.admin, &s.client);
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
    });

    // Each of the 3 servers saw 2 of the 6 blocks per iteration.
    area.shutdown();
}

#[test]
fn catalyst_pipeline_renders_across_servers() {
    let mut area = launched(2);
    let contact = area.contact();

    let coverage = area.session("sim", 10).run(|s| {
        let (admin, client) = (&s.admin, &s.client);
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
        vizkit::Image::from_bytes(&img_bytes).coverage()
    });
    assert!(coverage > 0.0, "composited image is empty");
    area.shutdown();
}

#[test]
fn scaling_up_mid_run_is_visible_to_the_client() {
    let mut area = launched(2);
    let contact = area.contact();
    let script = catalyst::PipelineScript::mandelbulb(24, 24).to_json();

    // Run iteration 0 on two servers, grow to three, run iteration 1.
    let sim = area.session("sim", 10);
    let handle = sim.run(|s| {
        let (admin, client) = (&s.admin, &s.client);
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
        handle
    });

    area.grow_on(&[5]);
    area.settle();

    sim.run(|s| {
        // The 2PC in activate adopts the grown view, and the new server
        // needs the pipeline too (admin deploys on the refreshed view).
        let view = handle.refresh_view().unwrap();
        assert_eq!(view.len(), 3);
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "viz", &script)
            .unwrap();
        handle.activate(1).unwrap();
        assert_eq!(handle.members().len(), 3);
        handle.execute(1).unwrap();
        handle.deactivate(1).unwrap();
    });
    drop(sim);
    area.shutdown();
}

#[test]
fn activate_2pc_retries_through_view_change() {
    let mut area = launched(2);
    let contact = area.contact();

    // Inject a joiner *between* view_from and activate: the handle's
    // member list is stale, so prepare sees mismatched views and must
    // retry with the refreshed one.
    let setup_members = area.session("sim-pre", 10).run(|s| {
        let members = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&members, "null", "p", "")
            .unwrap();
        members.len()
    });
    assert_eq!(setup_members, 2);

    let new_addr = area.grow_on(&[5])[0];
    // Deploy the pipeline on the newcomer too (it must be able to vote
    // and execute once the client's 2PC adopts the grown view).
    area.session("admin2", 11).run(|s| {
        s.admin.create_pipeline(new_addr, "null", "p", "").unwrap();
    });
    area.settle();

    let final_members = area.session("sim", 12).run(|s| {
        let handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.activate(0).unwrap();
        let n = handle.members().len();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();
        n
    });
    assert_eq!(final_members, 3, "2PC must settle on the grown view");
    area.shutdown();
}

#[test]
fn admin_leave_shrinks_the_group() {
    let mut area = launched(3);
    let victim = area.daemons()[2].address();

    area.session("admin", 10).run(|s| {
        s.admin.request_leave(victim).unwrap();
    });

    // The victim's daemon loop notices the flag, leaves, and exits.
    area.wait(2);

    // The survivors converge on a 2-member view.
    area.settle();
    for d in area.daemons() {
        assert_eq!(d.view().len(), 2);
        assert!(!d.view().contains(&victim));
    }
    area.shutdown();
}

#[test]
fn admin_create_and_destroy_pipelines() {
    let mut area = launched(1);
    let server = area.contact();

    area.session("admin", 10).run(|s| {
        let admin = &s.admin;
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
    });
    area.shutdown();
}

#[test]
fn static_mpi_mode_runs_the_same_pipeline() {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::default());
    area.config_mut().comm = CommMode::MpiStatic(minimpi::Profile::Vendor);
    area.launch(2, 1);
    let contact = area.contact();

    let coverage = area.session("sim", 10).run(|s| {
        let (admin, client) = (&s.admin, &s.client);
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
        vizkit::Image::from_bytes(&img).coverage()
    });
    assert!(coverage > 0.0);
    area.shutdown();
}

#[test]
fn nonblocking_stage_and_execute() {
    let mut area = launched(2);
    let contact = area.contact();

    area.session("sim", 10).run(|s| {
        let (admin, client) = (&s.admin, &s.client);
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
    });
    area.shutdown();
}

#[test]
fn single_server_pipeline_handle_full_protocol() {
    let mut area = launched(2);
    let target = area.daemons()[1].address();
    area.session("sim", 10).run(|s| {
        let (admin, client) = (&s.admin, &s.client);
        admin.create_pipeline(target, "null", "solo", "").unwrap();
        // The paper: a plain pipeline handle references one pipeline
        // instance on one server, with the same four calls.
        let handle = client.pipeline_handle(target, "solo");
        handle.activate(0).unwrap();
        let payload = Bytes::from(vec![7u8; 256]);
        handle
            .stage(BlockMeta::new("x", 0, 0, payload.len()), &payload)
            .unwrap();
        handle.execute(0).unwrap();
        // The null backend reports what its execute was handed.
        let report = handle.fetch_result().unwrap().unwrap();
        assert_eq!(NullBackend::handed(&report), (256, vec![0]));
        handle.deactivate(0).unwrap();
    });
    area.shutdown();
}

/// A corrupt stateless frame is refused by the `stage` that delivered it
/// to its primary — decoded there, not at `execute` — and the server
/// keeps serving: the intact frame stages and is handed over decoded.
#[test]
fn truncated_shuffle_lz_frame_fails_the_stage_rpc() {
    use colza::codec::{encode_block, CodecSpec};
    use colza::ColzaError;

    let mut area = launched(1);
    let target = area.contact();
    area.session("sim", 10).run(|s| {
        s.admin.create_pipeline(target, "null", "solo", "").unwrap();
        let handle = s.client.pipeline_handle(target, "solo");
        let payload = image_block(8, 0.0, "v");
        let enc = encode_block(CodecSpec::ShuffleLz, &payload, None).unwrap();
        let meta = |block_id, frame: &Bytes| BlockMeta {
            codec: enc.codec,
            encoded_size: frame.len(),
            ..BlockMeta::new("x", block_id, 0, payload.len())
        };
        handle.activate(0).unwrap();
        let cut = enc.frame.slice(0..enc.frame.len() / 2);
        let refused = handle.stage(meta(0, &cut), &cut);
        assert!(
            matches!(refused, Err(ColzaError::Rpc(_))),
            "a truncated frame must fail its stage, typed: {refused:?}"
        );
        handle.stage(meta(1, &enc.frame), &enc.frame).unwrap();
        handle.execute(0).unwrap();
        let report = handle.fetch_result().unwrap().unwrap();
        assert_eq!(
            NullBackend::handed(&report),
            (payload.len() as u64, vec![1]),
            "only the intact block"
        );
        handle.deactivate(0).unwrap();
    });
    area.shutdown();
}

/// A frame whose header declares a length its metadata does not — or one
/// no body of its size could expand to — fails its `stage` RPC with a
/// typed error before anything is allocated for it (a header declaring
/// 2^62 bytes used to abort the whole process), and the server keeps
/// serving.
#[test]
fn frame_declaring_an_impossible_length_fails_the_stage_rpc() {
    use colza::codec::{encode_block, CodecSpec};
    use colza::ColzaError;

    let mut area = launched(1);
    let target = area.contact();
    area.session("sim", 10).run(|s| {
        s.admin.create_pipeline(target, "null", "solo", "").unwrap();
        let handle = s.client.pipeline_handle(target, "solo");
        let payload = image_block(8, 0.0, "v");
        let enc = encode_block(CodecSpec::ShuffleLz, &payload, None).unwrap();
        let huge = 1usize << 62;
        let mut forged = enc.frame.to_vec();
        forged[2..10].copy_from_slice(&(huge as u64).to_le_bytes());
        let forged = Bytes::from(forged);
        let meta = |block_id, size| BlockMeta {
            codec: enc.codec,
            encoded_size: enc.frame.len(),
            ..BlockMeta::new("x", block_id, 0, size)
        };
        handle.activate(0).unwrap();
        // The header disagrees with the metadata: refused at admission.
        match handle.stage(meta(0, payload.len()), &forged) {
            Err(ColzaError::Rpc(m)) => assert!(m.contains("decoded length"), "{m}"),
            other => panic!("a length mismatch must fail its stage, typed: {other:?}"),
        }
        // Header and metadata agree, but the body cannot expand that far:
        // refused by the decoder, before it allocates.
        match handle.stage(meta(1, huge), &forged) {
            Err(ColzaError::Rpc(m)) => assert!(m.contains("bad frame"), "{m}"),
            other => panic!("an impossible length must fail its stage, typed: {other:?}"),
        }
        handle.stage(meta(2, payload.len()), &enc.frame).unwrap();
        handle.execute(0).unwrap();
        let report = handle.fetch_result().unwrap().unwrap();
        assert_eq!(
            NullBackend::handed(&report),
            (payload.len() as u64, vec![2]),
            "only the intact block"
        );
        handle.deactivate(0).unwrap();
    });
    area.shutdown();
}
