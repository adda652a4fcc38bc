//! **Store bench** — cost of live rebalance in the resilient staging
//! store (DESIGN.md §10) as the replication factor sweeps 1..=3, for the
//! two membership changes that can strike a staging area mid-iteration:
//!
//! * **crash** — a server dies after `stage`; SWIM detects the death and
//!   the survivors re-replicate from the remaining copies when the client
//!   re-activates the iteration.
//! * **leave** — a server is retired via `request_leave`; it drains its
//!   holdings to the surviving owners before exiting.
//!
//! Reported per event: bytes relocated (push counters) and the virtual
//! time from the membership change to quiescence.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_store
//!       [--servers 4] [--blocks 24] [--out results/BENCH_store.json]`

use colza::daemon::wait_until;
use colza::{drain_aware_victims, BlockMeta, StagingArea};
use colza_bench::{table, write_json, Args};

#[derive(Clone, Copy, PartialEq)]
enum Event {
    Crash,
    Leave,
}

#[derive(serde::Serialize)]
struct Row {
    replication: usize,
    event: &'static str,
    servers_before: usize,
    servers_after: usize,
    blocks: u64,
    staged_bytes: u64,
    moved_bytes: u64,
    drain_bytes: u64,
    recv_bytes: u64,
    rebalance_virtual_ns: u64,
}

#[derive(serde::Serialize)]
struct Report {
    bench: &'static str,
    servers: usize,
    blocks: u64,
    rows: Vec<Row>,
}

fn main() {
    let args = Args::parse();
    let servers: usize = args.get("servers", 4);
    let blocks: u64 = args.get("blocks", 24);
    let out = args.get_str("out", "results/BENCH_store.json");
    table::banner(
        "Store bench: live rebalance cost vs replication factor",
        &format!("({servers} servers, {blocks} blocks; crash repair and drain-before-leave)"),
    );
    println!(
        "{:>4} {:>7} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "k", "event", "servers", "staged B", "moved B", "drained B", "received B", "rebal ms"
    );

    let mut rows = Vec::new();
    for replication in 1..=3usize {
        for event in [Event::Crash, Event::Leave] {
            let row = run_event(replication, event, servers, blocks);
            println!(
                "{:>4} {:>7} {:>5}->{:<2} {:>12} {:>12} {:>12} {:>12} {:>12.2}",
                row.replication,
                row.event,
                row.servers_before,
                row.servers_after,
                row.staged_bytes,
                row.moved_bytes,
                row.drain_bytes,
                row.recv_bytes,
                row.rebalance_virtual_ns as f64 / 1e6,
            );
            rows.push(row);
        }
    }

    let report = Report {
        bench: "store_rebalance",
        servers,
        blocks,
        rows,
    };
    write_json(&out, &report);
    println!("\nwrote {out}");
    println!("Shape: relocated bytes grow with k (more copies to restore); a");
    println!("leave always drains the victim's full holdings, while a crash at");
    println!("k=1 has nothing left to copy — the replicas are what make the");
    println!("repair possible at all.");
}

/// Runs one membership event against a freshly staged iteration and
/// returns the relocation counters plus the virtual time the rebalance
/// took (membership change to quiescence, staging-area clocks).
fn run_event(replication: usize, event: Event, servers: usize, blocks: u64) -> Row {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    area.shared().tracer().set_enabled(true);
    area.launch(servers, 1);
    let contact = area.contact();

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<u64>(1);
    let (victim_tx, victim_rx) = crossbeam::channel::bounded::<na::Address>(1);
    let (settled_tx, settled_rx) = crossbeam::channel::bounded::<()>(1);
    let (synced_tx, synced_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);

    let sim = area.client("sim", 16, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
        handle.set_replication(replication);
        handle.activate(0).unwrap();
        let mut staged = 0u64;
        for b in 0..blocks {
            let payload = bytes::Bytes::from(vec![0xB5u8; 4096 * (b as usize % 4 + 1)]);
            staged += payload.len() as u64;
            handle
                .stage(
                    BlockMeta::new("bench", b, 0, payload.len()),
                    &payload,
                )
                .unwrap();
        }
        staged_tx.send(staged).unwrap();

        match event {
            Event::Crash => {
                // The host picks the victim; we wait for the survivors to
                // notice the death, then re-activate the same iteration:
                // the 2PC commit carries the shrunken view and every
                // survivor re-syncs its holdings to the new ring.
                settled_rx.recv().unwrap();
                wait_until("the client never saw the shrunken view", || {
                    let _ = handle.refresh_view();
                    handle.members().len() == servers - 1
                });
                handle.activate(0).unwrap();
                synced_tx.send(()).unwrap();
            }
            Event::Leave => {
                // Drain-aware shrink: nominate the cheapest server.
                let victim = drain_aware_victims(admin, &handle.members(), 1)[0];
                victim_tx.send(victim).unwrap();
                admin.request_leave(victim).unwrap();
            }
        }

        done_rx.recv().unwrap();
        // The view changed under us; finish the iteration with the usual
        // refresh-and-retry loop.
        wait_until("deactivate never completed", || match handle.deactivate(0) {
            Ok(()) => true,
            Err(e) if e.is_retryable() => {
                let _ = handle.refresh_view();
                false
            }
            Err(e) => panic!("deactivate failed: {e}"),
        });
    });

    let staged_bytes = staged_rx.recv().unwrap();
    let shared = area.shared().clone();
    let before = shared.trace_snapshot();
    let t0 = shared.max_clock_ns();

    match event {
        Event::Crash => {
            // Kill a non-contact server and wait for the daemons' own
            // SWIM ticks to converge (explicit rounds would advance the
            // virtual clocks this bench measures).
            let victim_addr = area.daemons()[1].address();
            area.kill(1);
            wait_until("the survivors never declared the victim dead", || {
                area.daemons().iter().all(|d| !d.view().contains(&victim_addr))
            });
            settled_tx.send(()).unwrap();
            synced_rx.recv().unwrap();
        }
        Event::Leave => {
            let victim_addr = victim_rx.recv().unwrap();
            let victim = area.index_of(victim_addr);
            // Quiescent when every survivor dropped the leaver from its
            // view and the leaver's store is empty (drain finished).
            wait_until("the leave never completed", || {
                let gone = area
                    .daemons()
                    .iter()
                    .enumerate()
                    .all(|(i, d)| i == victim || !d.view().contains(&victim_addr));
                gone && area.daemons()[victim].provider().store().is_empty()
            });
        }
    }

    let t1 = shared.max_clock_ns();
    let after = shared.trace_snapshot();
    done_tx.send(()).unwrap();
    sim.join();
    area.shutdown();

    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);
    Row {
        replication,
        event: if event == Event::Crash { "crash" } else { "leave" },
        servers_before: servers,
        servers_after: servers - 1,
        blocks,
        staged_bytes,
        moved_bytes: delta("colza.store.moved.bytes"),
        drain_bytes: delta("colza.store.drain.bytes"),
        recv_bytes: delta("colza.store.recv.bytes"),
        rebalance_virtual_ns: t1.saturating_sub(t0),
    }
}
