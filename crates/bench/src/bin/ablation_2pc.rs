//! **Ablation (§II-E / DESIGN.md §6)** — cost of the `activate` two-phase
//! commit: (a) when the group has not changed since the last iteration
//! (the common case — the paper reports "no overhead"), and (b) when the
//! group changed right before activate, forcing view refresh and retry
//! (the paper reports "an overhead in the order of a second", dominated
//! by gossip propagation).
//!
//! Also sweeps the SWIM gossip period to show the Fig. 4 sensitivity the
//! paper mentions ("this overhead depends on SSG's configuration").
//!
//! Run: `cargo run --release -p colza-bench --bin ablation_2pc`

use colza::StagingArea;
use colza_bench::{report, table};
use hpcsim::stats::fmt_ns;

fn main() {
    let args = report::begin();
    let servers: usize = args.get("servers", 4);
    let iters: usize = args.get("iters", 20);
    table::banner(
        "Ablation: activate-2PC cost, unchanged vs changed group",
        &format!("({servers} servers, {iters} steady activations)"),
    );

    // (a) Steady state: repeated activates on an unchanged group.
    let steady = steady_activate_ns(servers, iters);
    println!(
        "steady-state activate (group unchanged): mean {} over {iters} calls",
        fmt_ns(steady)
    );

    // (b) A join lands between the client's view fetch and its activate:
    // the 2PC must abort, refresh, and retry.
    let churn = churn_activate_ns(servers);
    println!("activate across a membership change:    {}", fmt_ns(churn));
    println!();

    // SWIM period sensitivity (Fig. 4's "depends on SSG configuration").
    println!("SWIM-period sensitivity of join propagation:");
    for period_ms in [250u64, 500, 1000, 2000] {
        let t = join_propagation_ns(4, period_ms);
        println!("  period {period_ms:>5} ms -> propagation {}", fmt_ns(t));
    }
    println!();
    println!("Paper shape: no overhead when the group is unchanged. The ~1 s");
    println!("order the paper reports for a changed group is dominated by gossip");
    println!("propagation (the sensitivity sweep above); the 2PC retry itself,");
    println!("measured here against an already-settled view, costs microseconds.");
    report::finish();
}

/// A self-ticking area of `servers` daemons, four per node.
fn launched(servers: usize, tune: impl FnOnce(&mut colza::DaemonConfig)) -> StagingArea {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    tune(area.config_mut());
    area.launch(servers, 4);
    area
}

fn steady_activate_ns(servers: usize, iters: usize) -> u64 {
    let mut area = launched(servers, |_| {});
    let contact = area.contact();
    let mean = area
        .client("sim", 8, move |s| {
            let view = s.client.view_from(contact).unwrap();
            s.admin
                .create_pipeline_on_all(&view, "null", "p", "")
                .unwrap();
            let handle = s.client.distributed_handle(contact, "p").unwrap();
            let mut total = 0u64;
            for i in 0..iters as u64 {
                let before = s.ctx.now();
                handle.activate(i).unwrap();
                total += s.ctx.now() - before;
                handle.deactivate(i).unwrap();
            }
            total / iters as u64
        })
        .join();
    area.shutdown();
    mean
}

fn churn_activate_ns(servers: usize) -> u64 {
    let mut area = launched(servers, |_| {});
    let contact = area.contact();
    let (go_tx, go_rx) = crossbeam::channel::bounded::<()>(1);
    let (grown_tx, grown_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&view, "null", "p", "")
            .unwrap();
        let handle = client.distributed_handle(contact, "p").unwrap();
        // Handle's view is now stale: the harness grows the group.
        go_tx.send(()).unwrap();
        grown_rx.recv().unwrap();
        // The newcomer also needs the pipeline before activate can commit.
        let fresh = client.view_from(contact).unwrap();
        admin
            .create_pipeline_on_all(&fresh, "null", "p", "")
            .unwrap();
        let before = s.ctx.now();
        handle.activate(0).unwrap();
        let span = s.ctx.now() - before;
        handle.deactivate(0).unwrap();
        span
    });
    go_rx.recv().unwrap();
    area.grow_on(&[9]);
    area.settle();
    grown_tx.send(()).unwrap();
    let span = sim.join();
    area.shutdown();
    span
}

fn join_propagation_ns(n: usize, period_ms: u64) -> u64 {
    let mut area = launched(n, |cfg| cfg.ssg.period_ns = period_ms * hpcsim::MS);
    let t0 = area.shared().max_clock_ns();
    area.grow_on(&[5]);
    area.settle();
    let t1 = area.now_ns();
    area.shutdown();
    t1.saturating_sub(t0)
}
