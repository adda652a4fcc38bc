//! Drivers for the layers that compute: sims, wire, the codecs, store,
//! qos, vizkit, catalyst, argo and hpcsim's compute charging. Each times
//! the layer's public functions on inputs built by the workloads' own
//! generators for the run's seed and reports the median of its reps.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use catalyst::trigger::TriggerSpec;
use catalyst::{CatalystConfig, CatalystPipeline, PipelineScript};
use colza::codec::{dataset_from_bytes, dataset_to_bytes, decode_block, encode_block};
use colza::{BlockMeta, CodecSpec, DrrScheduler, TenantId};
use na::{Address, BulkHandle};
use sims::gray_scott::GrayScott;
use store::ring::{BlockKey, HashRing, RingConfig};
use store::scrub::StoreDigest;
use store::store::{Role, StagingStore, StoredBlock};
use vizkit::controller::DummyComm;
use vizkit::filters::{clip, contour, merge_blocks, resample_to_image};
use vizkit::render::{render_surface, render_volume, Camera, ColorMap, TransferFunction};
use vizkit::{Controller, DataSet, UnstructuredGrid};

use super::{surface_clip_plane, Ctx, Sizes, SURFACE_ISOVALUES};
use crate::meter::{median, median_ns};
use crate::report::Values;
use crate::workloads::{dwi_block, dwi_series, gray_scott_params, mandelbulb, split_z};

/// The Deep Water Impact blocks one client rank stages at iteration 30.
fn dwi_rank_blocks(cx: &Ctx) -> Vec<DataSet> {
    let series = dwi_series(cx.smoke);
    (0..series.total_blocks / 2)
        .map(|b| dwi_block(&series, cx.seed, 30, b))
        .collect()
}

fn ugrids(blocks: &[DataSet]) -> Vec<&UnstructuredGrid> {
    blocks.iter().filter_map(|b| b.as_ugrid()).collect()
}

/// `sims`: cost of producing the inputs (kept out of the workloads' own
/// numbers where the ISSUE asks for pre-generation, reported here).
pub fn sims(cx: &Ctx) -> Values {
    let n = if cx.smoke { 16 } else { 32 };
    let mut gs = GrayScott::serial(n, gray_scott_params(cx.seed));
    let step = median_ns(cx.reps, || {
        gs.exchange_ghosts(None).expect("serial ghosts");
        gs.step();
    });
    let bulb = mandelbulb(cx.seed, [n, n, n]);
    let voxels = (n * n * (n / 8 + 1)) as f64;
    let gen = median_ns(cx.reps, || {
        std::hint::black_box(bulb.generate_block(0, 8));
    });
    let series = dwi_series(cx.smoke);
    let cells = series.generate_block(30, 4).num_cells().max(1) as f64;
    let dwi = median_ns(cx.reps, || {
        std::hint::black_box(series.generate_block(30, 4));
    });
    Values::from([
        (
            "sims.gray_scott.step_ns_per_cell",
            step / (n * n * n) as f64,
        ),
        ("sims.mandelbulb.gen_ns_per_voxel", gen / voxels),
        ("sims.dwi.gen_ns_per_cell", dwi / cells),
    ])
}

/// The shape of the `colza.stage` / `colza.store.push` RPC arguments
/// (the crate keeps its own structs private; the fields are public types).
#[derive(Serialize, Deserialize)]
struct StageLike {
    pipeline: String,
    meta: BlockMeta,
    role: Role,
    bulk: BulkHandle,
}

/// `wire`: encode/decode of one stage-RPC argument struct.
pub fn wire(cx: &Ctx) -> Values {
    const OPS: usize = 1000;
    let args = StageLike {
        pipeline: "pipeline".to_string(),
        meta: BlockMeta::new("field", 42, 17, 1 << 20),
        role: Role::Primary,
        bulk: BulkHandle {
            owner: Address(3),
            key: 99,
            size: 1 << 20,
        },
    };
    let mut buf = Vec::with_capacity(256);
    let enc = median_ns(cx.reps, || {
        for _ in 0..OPS {
            buf.clear();
            wire::to_extend(&args, &mut buf).expect("encodes");
            std::hint::black_box(buf.len());
        }
    });
    let bytes = wire::to_vec(&args).expect("encodes");
    let dec = median_ns(cx.reps, || {
        for _ in 0..OPS {
            std::hint::black_box(wire::from_slice::<StageLike>(&bytes).expect("decodes"));
        }
    });
    Values::from([
        ("wire.encode_ns_per_op", enc / OPS as f64),
        ("wire.decode_ns_per_op", dec / OPS as f64),
    ])
}

/// `core::codec`: dataset (de)serialization and the two real codecs, on
/// two consecutive Gray–Scott snapshots like the ones `gs_stage_delta`
/// stages.
pub fn codec(cx: &Ctx) -> Values {
    let n = if cx.smoke { 16 } else { 64 };
    let mut sim = GrayScott::serial(n, gray_scott_params(cx.seed));
    let mut snapshot = |steps: usize| {
        sim.run(steps, None).expect("serial gray-scott");
        let DataSet::Image(img) = sim.to_dataset() else {
            unreachable!("gray-scott exports a regular grid");
        };
        DataSet::Image(split_z(&img, 4).swap_remove(1))
    };
    let base_ds = snapshot(8);
    let next_ds = snapshot(2);
    let base = dataset_to_bytes(&base_ds);
    let next = dataset_to_bytes(&next_ds);
    let mb = next.len() as f64 / 1e6;
    let mbps = |ns: f64| mb / (ns / 1e9);

    let serialize = median_ns(cx.reps, || {
        std::hint::black_box(dataset_to_bytes(&next_ds));
    });
    let parse = median_ns(cx.reps, || {
        std::hint::black_box(dataset_from_bytes(&next).expect("parses"));
    });
    let mut out = Values::from([
        ("core.codec.serialize_mbps", mbps(serialize)),
        ("core.codec.parse_mbps", mbps(parse)),
    ]);
    for (spec, base, enc_name, dec_name) in [
        (
            CodecSpec::Delta,
            Some(&base),
            "core.codec.delta.encode_mbps",
            "core.codec.delta.decode_mbps",
        ),
        (
            CodecSpec::ShuffleLz,
            None,
            "core.codec.shufflelz.encode_mbps",
            "core.codec.shufflelz.decode_mbps",
        ),
    ] {
        let frame = encode_block(spec, &next, base.map(|b| (b, 1))).expect("encodes");
        let enc = median_ns(cx.reps, || {
            std::hint::black_box(encode_block(spec, &next, base.map(|b| (b, 1))).expect("encodes"));
        });
        let dec = median_ns(cx.reps, || {
            std::hint::black_box(decode_block(frame.codec, &frame.frame, base).expect("decodes"));
        });
        assert_eq!(
            decode_block(frame.codec, &frame.frame, base).expect("decodes"),
            next,
            "codec round trip"
        );
        out.insert(enc_name, mbps(enc));
        out.insert(dec_name, mbps(dec));
        if spec == CodecSpec::Delta {
            out.insert(
                "core.codec.delta.ratio",
                next.len() as f64 / frame.frame.len() as f64,
            );
        }
    }
    out
}

/// `core::qos`: one deficit-round-robin dispatch decision.
pub fn qos(cx: &Ctx) -> Values {
    const PER_TENANT: u64 = 100;
    let tenants: Vec<TenantId> = ["bronze", "gold", "silver"].map(TenantId::new).to_vec();
    let samples: Vec<f64> = (0..cx.reps)
        .map(|_| {
            let mut drr = DrrScheduler::new(1_000);
            for ticket in 0..PER_TENANT {
                for (w, t) in tenants.iter().enumerate() {
                    drr.arrive(t, w as u64 + 1, ticket, 500 + 100 * (ticket % 7));
                }
            }
            let t0 = Instant::now();
            let mut served = 0u64;
            while drr.dispatch().is_some() {
                served += 1;
            }
            assert_eq!(served, PER_TENANT * tenants.len() as u64);
            t0.elapsed().as_nanos() as f64 / served as f64
        })
        .collect();
    Values::from([("core.qos.dispatch_ns", median(&samples))])
}

/// `store`: ring construction and lookup, admission, release, and the
/// digest + rebalance planning a scrub or commit-time sync starts from.
pub fn store(cx: &Ctx) -> Values {
    const BLOCKS: u64 = 256;
    let members: Vec<Address> = (0..4).map(Address).collect();
    let cfg = RingConfig {
        replication: 2,
        ..RingConfig::default()
    };
    let build = median_ns(cx.reps, || {
        std::hint::black_box(HashRing::build(&members, |_| None, cfg));
    });
    let ring = HashRing::build(&members, |_| None, cfg);
    let keys: Vec<BlockKey> = (0..BLOCKS).map(|b| BlockKey::new("pipeline", b)).collect();
    let owners = median_ns(cx.reps, || {
        for k in &keys {
            std::hint::black_box(ring.owners(k));
        }
    });
    let payload = Bytes::from(vec![0xB5u8; 4096]);
    let blocks: Vec<StoredBlock> = keys
        .iter()
        .map(|k| StoredBlock {
            key: k.clone(),
            name: "field".to_string(),
            tenant: "default".to_string(),
            iteration: 0,
            role: Role::Primary,
            fed: false,
            data: payload.clone(),
            codec: 0,
            decoded_len: payload.len(),
            plain: None,
        })
        .collect();
    let (mut admit, mut release, mut plan) = (Vec::new(), Vec::new(), Vec::new());
    let old_ring = HashRing::build(&members[..3], |_| None, cfg);
    for _ in 0..cx.reps {
        let st = StagingStore::new();
        let fresh = blocks.clone();
        let t0 = Instant::now();
        for b in fresh {
            std::hint::black_box(st.admit(b, u64::MAX));
        }
        admit.push(t0.elapsed().as_nanos() as f64 / BLOCKS as f64);
        let t0 = Instant::now();
        let digest = StoreDigest::of(&st.snapshot());
        let moves = store::plan::rebalance_plan(&old_ring, &ring, &keys);
        plan.push(t0.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box((digest.total(), moves.len()));
        let t0 = Instant::now();
        let released = st.release_iteration("pipeline", 0);
        release.push(t0.elapsed().as_nanos() as f64 / BLOCKS as f64);
        assert_eq!(released as u64, BLOCKS);
    }
    Values::from([
        ("store.ring.build_us", build / 1e3),
        ("store.ring.owners_ns", owners / BLOCKS as f64),
        ("store.admit_ns", median(&admit)),
        ("store.release_ns_per_block", median(&release)),
        ("store.scrub_plan_us", median(&plan)),
    ])
}

/// `vizkit`: the six kernels the two render paths are made of, at the
/// workloads' own sizes (end-of-cycle Gray–Scott field, last Deep Water
/// Impact iteration).
pub fn vizkit(cx: &Ctx) -> Values {
    let Sizes {
        surface_px: px_s,
        volume_px: px_v,
        ..
    } = cx.sizes();
    let field = cx.gray_scott_field();
    let isovalues = SURFACE_ISOVALUES;
    let contour_ns = median_ns(cx.reps, || {
        std::hint::black_box(contour(&field, "v", &isovalues));
    });
    let surface = contour(&field, "v", &isovalues);
    let plane = surface_clip_plane();
    let clip_ns = median_ns(cx.reps, || {
        std::hint::black_box(clip(&surface, plane));
    });
    let clipped = clip(&surface, plane);
    let (lo, hi) = field.bounds();
    let camera = Camera::fit_bounds(lo, hi);
    let colors = ColorMap::cool_to_warm((0.0, 0.6));
    let raster_ns = median_ns(cx.reps, || {
        std::hint::black_box(render_surface(
            &clipped,
            &camera,
            &colors,
            Some("v"),
            px_s.0,
            px_s.1,
        ));
    });

    let blocks = dwi_rank_blocks(cx);
    let grids = ugrids(&blocks);
    let merge_ns = median_ns(cx.reps, || {
        std::hint::black_box(merge_blocks(&grids));
    });
    let merged = merge_blocks(&grids);
    let cells = merged.num_cells().max(1) as f64;
    let dim = ((cells.cbrt() * 1.6).clamp(16.0, 96.0)) as usize;
    let resample_ns = median_ns(cx.reps, || {
        std::hint::black_box(resample_to_image(
            &merged,
            "v02",
            [dim; 3],
            f32::NEG_INFINITY,
        ));
    });
    let volume = resample_to_image(&merged, "v02", [dim; 3], f32::NEG_INFINITY);
    let (vlo, vhi) = volume.bounds();
    let vcam = Camera::fit_bounds(vlo, vhi);
    let tf = TransferFunction::ramp(ColorMap::cool_to_warm((0.0, 6.0)), 0.9);
    let step = ((vhi - vlo).length() / dim as f32).max(1e-3);
    let raycast_ns = median_ns(cx.reps, || {
        std::hint::black_box(render_volume(
            &volume, "v02", &vcam, &tf, px_v.0, px_v.1, step,
        ));
    });
    Values::from([
        (
            "vizkit.contour_ns_per_cell",
            contour_ns / field.num_cells().max(1) as f64,
        ),
        (
            "vizkit.clip_ns_per_tri",
            clip_ns / surface.num_triangles().max(1) as f64,
        ),
        (
            "vizkit.raster_ns_per_tri",
            raster_ns / clipped.num_triangles().max(1) as f64,
        ),
        ("vizkit.merge_ns_per_cell", merge_ns / cells),
        (
            "vizkit.resample_ns_per_voxel",
            resample_ns / (dim * dim * dim) as f64,
        ),
        (
            "vizkit.raycast_ns_per_px",
            raycast_ns / (px_v.0 * px_v.1) as f64,
        ),
    ])
}

/// `catalyst`: the two pipelines on one rank (filters + render, no
/// compositing), and one trigger evaluation that decides to skip.
pub fn catalyst(cx: &Ctx) -> Values {
    let Sizes {
        surface_px: s,
        volume_px: v,
        ..
    } = cx.sizes();
    let ctrl = Controller::new(Arc::new(DummyComm));
    // The modeled one-time initialisation is a constant; leave it out.
    let config = CatalystConfig { init_cost_ns: 0 };
    let surface_blocks = vec![DataSet::Image(cx.gray_scott_field())];
    let surface = CatalystPipeline::new(PipelineScript::gray_scott(s.0, s.1), config);
    let surface_ns = median_ns(cx.reps, || {
        let image = surface
            .execute(&surface_blocks, &ctrl)
            .expect("surface pipeline");
        assert!(
            image.is_some_and(|i| i.coverage() > 0.0),
            "surface pipeline rendered nothing"
        );
    });
    let volume_blocks = dwi_rank_blocks(cx);
    let volume = CatalystPipeline::new(PipelineScript::deep_water_impact(v.0, v.1), config);
    let volume_ns = median_ns(cx.reps, || {
        let image = volume
            .execute(&volume_blocks, &ctrl)
            .expect("volume pipeline");
        assert!(
            image.is_some_and(|i| i.coverage() > 0.0),
            "volume pipeline rendered nothing"
        );
    });
    let mut gated = PipelineScript::gray_scott(s.0, s.1);
    gated.triggers = vec![TriggerSpec::new("iter % 16 == 0 && max(v) > 0.0", "run")];
    let gated = CatalystPipeline::new(gated, config);
    let trigger_ns = median_ns(cx.reps, || {
        let outcome = gated
            .execute_reactive(&surface_blocks, &ctrl, 1)
            .expect("trigger evaluation");
        assert!(
            outcome.skipped,
            "iteration 1 must be skipped by `iter % 16 == 0`"
        );
    });
    Values::from([
        ("catalyst.surface_local_ms", surface_ns / 1e6),
        ("catalyst.volume_local_ms", volume_ns / 1e6),
        ("catalyst.trigger_eval_us", trigger_ns / 1e3),
    ])
}

/// `argo`: latency from posting a task to it running, and from setting an
/// eventual to its waiter running again.
pub fn argo(cx: &Ctx) -> Values {
    let pool = argo::Pool::new("bench");
    let spawn: Vec<f64> = (0..cx.reps.max(30))
        .map(|_| {
            let posted = Instant::now();
            let started: Instant = pool.spawn(Instant::now).wait();
            started.duration_since(posted).as_nanos() as f64 / 1e3
        })
        .collect();
    let wake: Vec<f64> = (0..cx.reps.max(30))
        .map(|_| {
            let ev = pool.spawn(|| {
                // Give the waiter time to block first.
                std::thread::sleep(std::time::Duration::from_micros(200));
                Instant::now()
            });
            let set_at: Instant = ev.wait();
            set_at.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    pool.shutdown();
    Values::from([
        ("argo.spawn_to_run_us", median(&spawn)),
        ("argo.eventual_wait_us", median(&wake)),
    ])
}

/// `hpcsim`: what one `charge_compute` costs around an empty closure
/// (two thread-CPU clock reads and a clock advance).
pub fn charge_compute(cx: &Ctx) -> Values {
    const CALLS: usize = 10_000;
    let ctx = hpcsim::current();
    let ns = median_ns(cx.reps, || {
        for _ in 0..CALLS {
            ctx.charge_compute(|| std::hint::black_box(()));
        }
    });
    Values::from([("hpcsim.charge_compute.overhead_ns", ns / CALLS as f64)])
}
