//! Drivers for the layers that communicate: na, margo, mona, minimpi, ssg
//! and icet. Each boots its own small virtual cluster (Aries fabric, the
//! run's seed), makes the layer's public calls from simulated processes
//! and reports the median of its reps in both currencies: `virt` is the
//! calling process's virtual-clock delta, `host` the wall time around the
//! same calls.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::unbounded;

use colza::daemon::launch_group;
use colza::{ColzaDaemon, DaemonConfig};
use icet::{CompositeOp, Strategy};
use margo::MargoInstance;
use na::{Address, BulkHandle, Fabric, RecvSelector};
use vizkit::filters::{clip, contour, merge_blocks, resample_to_image};
use vizkit::render::{render_surface, render_volume, Camera, ColorMap, TransferFunction};
use vizkit::{DataSet, Image, VtkComm};

use super::{surface_clip_plane, Ctx, Sizes, SURFACE_ISOVALUES};
use crate::harness::{latest_clock_ns, views_agree};
use crate::meter::median;
use crate::report::{wire_bytes, Values};
use crate::workloads::{dwi_block, dwi_series, split_z};

const MIB: usize = 1 << 20;

fn cluster(cx: &Ctx) -> hpcsim::Cluster {
    hpcsim::Cluster::new(hpcsim::ClusterConfig {
        seed: cx.seed,
        ..hpcsim::ClusterConfig::aries()
    })
}

/// `(virtual ns, host ns)` of one call to `f` on the calling process.
fn both(f: impl FnOnce()) -> (f64, f64) {
    let ctx = hpcsim::current();
    let (v0, t0) = (ctx.now(), Instant::now());
    f();
    ((ctx.now() - v0) as f64, t0.elapsed().as_nanos() as f64)
}

/// Medians of the two columns of `samples`, each divided by `per`.
fn medians(samples: &[(f64, f64)], per: f64) -> (f64, f64) {
    let col = |f: fn(&(f64, f64)) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>()) / per;
    (col(|s| s.0), col(|s| s.1))
}

/// `na`: an 8-byte eager message and a 1 MiB one-sided get between two
/// processes on different nodes.
pub fn na(cx: &Ctx) -> Values {
    const PINGS: usize = 200;
    let reps = cx.reps;
    let cluster = cluster(cx);
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let (addr_tx, addr_rx) = unbounded::<(Address, BulkHandle)>();
    let (done_tx, done_rx) = unbounded::<()>();

    let f = fabric.clone();
    let echo = cluster.spawn("na-echo", 1, move || {
        let ep = f.open();
        let region = ep.expose(Bytes::from(vec![7u8; MIB]));
        addr_tx
            .send((ep.address(), region))
            .expect("driver is waiting");
        for _ in 0..reps * PINGS {
            let msg = ep.recv(RecvSelector::tag(1)).expect("ping");
            ep.send(msg.src, 2, msg.data).expect("pong");
        }
        done_rx.recv().expect("driver finishes");
        ep.unexpose(region).expect("region registered");
    });
    let f = fabric.clone();
    let driver = cluster.spawn("na-driver", 0, move || {
        let ep = f.open();
        let (peer, region) = addr_rx.recv().expect("echo is up");
        let payload = Bytes::from(vec![1u8; 8]);
        let eager: Vec<(f64, f64)> = (0..reps)
            .map(|_| {
                both(|| {
                    for _ in 0..PINGS {
                        ep.send(peer, 1, payload.clone()).expect("ping");
                        ep.recv(RecvSelector::exact(peer, 2)).expect("pong");
                    }
                })
            })
            .collect();
        let rdma: Vec<(f64, f64)> = (0..reps)
            .map(|_| {
                both(|| {
                    std::hint::black_box(ep.rdma_get(region, 0, MIB).expect("get"));
                })
            })
            .collect();
        done_tx.send(()).expect("echo is waiting");
        (medians(&eager, 2.0 * PINGS as f64), medians(&rdma, 1e3))
    });
    let ((eager_virt, eager_host), (rdma_virt, rdma_host)) = driver.join();
    echo.join();
    Values::from([
        ("na.eager_8b.virt_ns", eager_virt),
        ("na.eager_8b.host_ns", eager_host),
        ("na.rdma_1mib.virt_us", rdma_virt),
        ("na.rdma_1mib.host_us", rdma_host),
    ])
}

/// `margo`: an empty RPC, and an RPC whose handler pulls 1 MiB from the
/// caller (the shape of `colza.stage`).
pub fn margo(cx: &Ctx) -> Values {
    const CALLS: usize = 100;
    let reps = cx.reps;
    let cluster = cluster(cx);
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let (addr_tx, addr_rx) = unbounded::<Address>();
    let (done_tx, done_rx) = unbounded::<()>();

    let f = fabric.clone();
    let server = cluster.spawn("margo-server", 1, move || {
        let margo = MargoInstance::init(&f);
        margo.register("bench.null", |_: (), _ctx| Ok(()));
        margo.register("bench.bulk", |region: BulkHandle, ctx| {
            ctx.endpoint
                .rdma_get(region, 0, region.size)
                .map(|data| data.len())
                .map_err(|e| e.to_string())
        });
        addr_tx.send(margo.address()).expect("driver is waiting");
        done_rx.recv().expect("driver finishes");
        margo.finalize();
    });
    let f = fabric.clone();
    let client = cluster.spawn("margo-client", 0, move || {
        let margo = MargoInstance::init(&f);
        let server = addr_rx.recv().expect("server is up");
        let null: Vec<(f64, f64)> = (0..reps)
            .map(|_| {
                both(|| {
                    for _ in 0..CALLS {
                        margo
                            .forward::<(), ()>(server, "bench.null", &())
                            .expect("null rpc");
                    }
                })
            })
            .collect();
        let region = margo.endpoint().expose(Bytes::from(vec![9u8; MIB]));
        let bulk: Vec<(f64, f64)> = (0..reps)
            .map(|_| {
                both(|| {
                    let pulled: usize = margo
                        .forward(server, "bench.bulk", &region)
                        .expect("bulk rpc");
                    assert_eq!(pulled, MIB);
                })
            })
            .collect();
        margo
            .endpoint()
            .unexpose(region)
            .expect("region registered");
        done_tx.send(()).expect("server is waiting");
        margo.finalize();
        (medians(&null, CALLS as f64 * 1e3), medians(&bulk, 1e3))
    });
    let ((null_virt, null_host), (_, bulk_host)) = client.join();
    server.join();
    Values::from([
        ("margo.null_rpc.virt_us", null_virt),
        ("margo.null_rpc.host_us", null_host),
        ("margo.bulk_1mib.host_us", bulk_host),
    ])
}

fn xor(acc: &mut [u8], other: &[u8]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a ^= b;
    }
}

/// `mona` (and the `minimpi` parity baseline): small and large allreduce
/// on four ranks over two nodes, and the cost of building the per-iteration
/// communicator `execute` creates.
pub fn collectives(cx: &Ctx) -> Values {
    const SMALL_OPS: usize = 100;
    const BUILDS: usize = 100;
    let reps = cx.reps;
    let large = if cx.smoke { 64 * 1024 } else { MIB };
    let mona_out = mona::testing::run_ranks(
        &cluster(cx),
        4,
        2,
        mona::MonaConfig::default(),
        move |comm| {
            let small = vec![comm.rank() as u8; 8];
            let big = vec![comm.rank() as u8; large];
            let mut s8 = Vec::new();
            let mut s1m = Vec::new();
            let mut build = Vec::new();
            for _ in 0..reps {
                comm.barrier().expect("barrier");
                s8.push(both(|| {
                    for _ in 0..SMALL_OPS {
                        comm.allreduce(&small, &mona::ops::bxor_u8)
                            .expect("allreduce");
                    }
                }));
                comm.barrier().expect("barrier");
                s1m.push(both(|| {
                    std::hint::black_box(
                        comm.allreduce(&big, &mona::ops::bxor_u8)
                            .expect("allreduce"),
                    );
                }));
                build.push(both(|| {
                    for _ in 0..BUILDS {
                        std::hint::black_box(
                            comm.instance()
                                .comm_create(comm.members().to_vec())
                                .expect("communicator"),
                        );
                    }
                }));
            }
            (
                medians(&s8, SMALL_OPS as f64 * 1e3),
                medians(&s1m, 1e3),
                medians(&build, BUILDS as f64 * 1e3),
            )
        },
    );
    let ((s8_virt, s8_host), (s1m_virt, s1m_host), (_, build_host)) = mona_out[0];

    let cluster = cluster(cx);
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let mpi_out = minimpi::MpiWorld::launch(
        &cluster,
        &fabric,
        4,
        2,
        0,
        minimpi::Profile::Vendor,
        move |comm| {
            let small = vec![comm.rank() as u8; 8];
            let samples: Vec<(f64, f64)> = (0..reps)
                .map(|_| {
                    comm.barrier().expect("barrier");
                    both(|| {
                        for _ in 0..SMALL_OPS {
                            comm.allreduce(&small, &xor).expect("allreduce");
                        }
                    })
                })
                .collect();
            medians(&samples, SMALL_OPS as f64 * 1e3)
        },
    );
    Values::from([
        ("mona.allreduce_8b.virt_us", s8_virt),
        ("mona.allreduce_8b.host_us", s8_host),
        ("mona.allreduce_1mib.virt_us", s1m_virt),
        ("mona.allreduce_1mib.host_us", s1m_host),
        ("mona.comm_build.host_us", build_host),
        ("minimpi.allreduce_8b.virt_us", mpi_out[0].0),
    ])
}

/// `ssg`: one SWIM round on a settled four-member group, and the virtual
/// time for a fourth member to join three (daemon start-up plus the
/// protocol periods until every view agrees). The daemons' own timers are
/// parked so only the harness ticks, one member at a time.
pub fn ssg(cx: &Ctx) -> Values {
    let cluster = cluster(cx);
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let conn = cx
        .out_dir
        .join(format!("ssg-driver-{}.addrs", std::process::id()));
    std::fs::remove_file(&conn).ok();
    let mut cfg = DaemonConfig::new(&conn);
    cfg.tick_interval = Duration::from_secs(3600);
    let mut daemons = launch_group(&cluster, &fabric, 3, 2, 0, &cfg);
    let settle = |daemons: &[ColzaDaemon]| {
        for _ in 0..64 {
            if views_agree(daemons) {
                return;
            }
            for d in daemons {
                d.tick_sync();
            }
        }
        panic!("ssg driver: views did not converge in 64 rounds");
    };
    let clock = |daemons: &[ColzaDaemon]| latest_clock_ns(&cluster, daemons);

    let joins: Vec<f64> = (0..cx.reps)
        .map(|_| {
            let t0 = clock(&daemons);
            daemons.push(ColzaDaemon::spawn(&cluster, &fabric, 1, cfg.clone()));
            settle(&daemons);
            let virt_ms = (clock(&daemons) - t0) as f64 / 1e6;
            daemons.pop().expect("the joiner").stop();
            settle(&daemons);
            virt_ms
        })
        .collect();

    daemons.push(ColzaDaemon::spawn(&cluster, &fabric, 1, cfg.clone()));
    settle(&daemons);
    let ticks: Vec<f64> = (0..cx.reps.max(30) * 4)
        .map(|i| {
            let t0 = Instant::now();
            daemons[i % 4].tick_sync();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    for d in daemons {
        d.stop();
    }
    std::fs::remove_file(&conn).ok();
    Values::from([
        ("ssg.tick.host_us", median(&ticks)),
        ("ssg.join.virt_ms", median(&joins)),
    ])
}

/// Each of four ranks' locally rendered image of its quarter of the data,
/// so compositing sees the sparsity the workloads produce.
fn local_images(cx: &Ctx) -> (Vec<Image>, Vec<Image>) {
    let Sizes {
        surface_px: s,
        volume_px: v,
        ..
    } = cx.sizes();
    let field = cx.gray_scott_field();
    let (lo, hi) = field.bounds();
    let camera = Camera::fit_bounds(lo, hi);
    let colors = ColorMap::cool_to_warm((0.0, 0.6));
    let plane = surface_clip_plane();
    let surfaces = split_z(&field, 4)
        .iter()
        .map(|slab| {
            let mesh = clip(&contour(slab, "v", &SURFACE_ISOVALUES), plane);
            render_surface(&mesh, &camera, &colors, Some("v"), s.0, s.1)
        })
        .collect();

    let series = dwi_series(cx.smoke);
    let per_rank = series.total_blocks / 4;
    let all: Vec<DataSet> = (0..series.total_blocks)
        .map(|b| dwi_block(&series, cx.seed, 30, b))
        .collect();
    let whole = merge_blocks(&all.iter().filter_map(|b| b.as_ugrid()).collect::<Vec<_>>());
    let (vlo, vhi) = whole.bounds().expect("the series has cells");
    let vcam = Camera::fit_bounds(vlo, vhi);
    let tf = TransferFunction::ramp(ColorMap::cool_to_warm((0.0, 6.0)), 0.9);
    let volumes = all
        .chunks(per_rank)
        .map(|chunk| {
            let merged = merge_blocks(
                &chunk
                    .iter()
                    .filter_map(|b| b.as_ugrid())
                    .collect::<Vec<_>>(),
            );
            let vol = resample_to_image(&merged, "v02", [32; 3], f32::NEG_INFINITY);
            let step = ((vhi - vlo).length() / 32.0).max(1e-3);
            render_volume(&vol, "v02", &vcam, &tf, v.0, v.1, step)
        })
        .collect();
    (surfaces, volumes)
}

/// One compositing strategy on four ranks: root-side `(virt us, host us)`
/// per composite and the bytes all ranks put on the wire for one.
fn composite(cx: &Ctx, images: &[Image], op: CompositeOp, strategy: Strategy) -> (f64, f64, f64) {
    let reps = cx.reps;
    let cluster = cluster(cx);
    cluster.shared().tracer().set_enabled(true);
    let images = images.to_vec();
    let order: Vec<usize> = (0..4).rev().collect();
    let out = mona::testing::run_ranks(&cluster, 4, 2, mona::MonaConfig::default(), move |comm| {
        let vtk: Arc<dyn VtkComm> = catalyst::MonaVtkComm::new(comm);
        let rank = vtk.rank();
        let icet_comm = catalyst::icet_context::icet_comm_for(&vtk).expect("mona converter");
        let samples: Vec<(f64, f64)> = (0..reps)
            .map(|_| {
                let local = images[rank].clone();
                vtk.barrier().expect("barrier");
                both(|| {
                    let image = icet::composite(
                        icet_comm.as_ref(),
                        local,
                        op,
                        strategy,
                        (op == CompositeOp::Blend).then_some(&order[..]),
                        0,
                    )
                    .expect("composite");
                    if rank == 0 {
                        assert!(
                            image.is_some_and(|i| i.coverage() > 0.0),
                            "the root holds the composited image"
                        );
                    }
                })
            })
            .collect();
        medians(&samples, 1e3)
    });
    let bytes = wire_bytes(&cluster.shared().trace_snapshot()) as f64 / reps as f64;
    (out[0].0, out[0].1, bytes)
}

/// `icet`: binary swap and tree on surface images (closest-wins), direct
/// send on volume images (ordered blend).
pub fn icet(cx: &Ctx) -> Values {
    let (surfaces, volumes) = local_images(cx);
    let (bs_virt, bs_host, bs_bytes) =
        composite(cx, &surfaces, CompositeOp::Closest, Strategy::BinarySwap);
    let (_, tree_host, _) = composite(cx, &surfaces, CompositeOp::Closest, Strategy::Tree);
    let (d_virt, d_host, d_bytes) = composite(cx, &volumes, CompositeOp::Blend, Strategy::Direct);
    Values::from([
        ("icet.binswap.virt_us", bs_virt),
        ("icet.binswap.host_us", bs_host),
        ("icet.binswap.bytes", bs_bytes),
        ("icet.direct.virt_us", d_virt),
        ("icet.direct.host_us", d_host),
        ("icet.direct.bytes", d_bytes),
        ("icet.tree.host_us", tree_host),
    ])
}
