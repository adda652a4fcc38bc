//! Demonstrates the deterministic fault-injection plan and the RPC retry
//! layer at the public API: a client calls an echo server through 20%
//! message loss and prints the injector's fault trace.
//!
//! Run it twice with the same seed and the output is byte-identical —
//! the plan seed fully decides the chaos:
//!
//! ```sh
//! cargo run --release --offline --example chaos_demo
//! COLZA_CHAOS_SEED=7 cargo run --release --offline --example chaos_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use hpcsim::FaultPlan;
use margo::{CallCtx, MargoInstance, RetryConfig};
use na::Fabric;

fn main() {
    let seed = colza_repro::chaos_seed();
    let plan = colza_bench::scenarios::crash::rpc_scoped(
        FaultPlan::seeded(seed)
            .with_loss(0.20)
            .with_delay(0.3, 10_000, 80_000),
    );
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig {
        faults: plan,
        ..hpcsim::ClusterConfig::aries()
    });
    let fabric = Fabric::new(Arc::clone(cluster.shared()));

    let (addr_tx, addr_rx) = crossbeam::channel::bounded(1);
    let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
    let f2 = fabric.clone();
    let server = cluster.spawn("server", 1, move || {
        let margo = MargoInstance::init(&f2);
        margo.register("echo", |x: u64, _: &CallCtx| Ok(x + 1));
        addr_tx.send(margo.address()).unwrap();
        stop_rx.recv().ok();
        margo.finalize();
    });
    let dst = addr_rx.recv().unwrap();

    let f3 = fabric.clone();
    let end_ns = cluster
        .spawn("client", 0, move || {
            let margo = MargoInstance::init(&f3);
            let cfg = RetryConfig {
                per_try_timeout: Duration::from_millis(100),
                deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            };
            for i in 0..20u64 {
                let r: u64 = margo.forward_retry(dst, "echo", &i, &cfg).unwrap();
                assert_eq!(r, i + 1);
            }
            let now = hpcsim::current().now();
            margo.finalize();
            now
        })
        .join();
    stop_tx.send(()).unwrap();
    server.join();

    println!("seed {seed}: 20 echo RPCs completed through 20% loss");
    println!("client virtual end time: {end_ns} ns");
    for r in cluster.shared().faults().trace() {
        println!(
            "  {:?} on link {}->{} seq {} (+{} ns)",
            r.kind, r.src, r.dst, r.seq, r.delay_ns
        );
    }
}
