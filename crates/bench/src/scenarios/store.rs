//! Cost of live rebalance in the resilient staging store (DESIGN.md §10)
//! as the replication factor sweeps 1..=3, for the two membership changes
//! that can strike a staging area mid-iteration:
//!
//! * **crash** — a server dies after `stage`; SWIM detects the death and
//!   the survivors re-replicate from the remaining copies when the client
//!   re-activates the iteration.
//! * **leave** — a server is retired via `request_leave`; it drains its
//!   holdings to the surviving owners before exiting.
//!
//! Reported per event: bytes relocated (push counters) and the virtual
//! time from the membership change to quiescence.

use colza::daemon::wait_until;
use colza::{drain_aware_victims, BlockMeta, StagingArea};

#[derive(Clone, Copy, PartialEq)]
enum Event {
    Crash,
    Leave,
}

#[derive(serde::Serialize)]
pub struct Row {
    pub replication: usize,
    pub event: &'static str,
    pub servers_before: usize,
    pub servers_after: usize,
    pub blocks: u64,
    pub staged_bytes: u64,
    pub moved_bytes: u64,
    pub drain_bytes: u64,
    pub recv_bytes: u64,
    pub rebalance_virtual_ns: u64,
}

#[derive(serde::Serialize)]
pub struct Report {
    pub bench: &'static str,
    pub servers: usize,
    pub blocks: u64,
    pub rows: Vec<Row>,
}

/// Runs both events at every replication factor.
pub fn run(servers: usize, blocks: u64) -> Report {
    let mut rows = Vec::new();
    for replication in 1..=3usize {
        for event in [Event::Crash, Event::Leave] {
            rows.push(run_event(replication, event, servers, blocks));
        }
    }
    Report {
        bench: "store_rebalance",
        servers,
        blocks,
        rows,
    }
}

/// Runs one membership event against a freshly staged iteration and
/// returns the relocation counters plus the virtual time the rebalance
/// took (membership change to quiescence, staging-area clocks).
fn run_event(replication: usize, event: Event, servers: usize, blocks: u64) -> Row {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    area.shared().tracer().set_enabled(true);
    area.launch(servers, 1);
    let contact = area.contact();

    let sim = area.session("sim", 16);
    let (handle, staged_bytes) = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "null", "p", "")
            .unwrap();
        let mut handle = s.client.distributed_handle(contact, "p").unwrap();
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
        (handle, staged)
    });

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
            // Once the client sees the shrunken view it re-activates the
            // same iteration: the 2PC commit carries the new view and
            // every survivor re-syncs its holdings to the new ring.
            sim.run(|_| {
                wait_until("the client never saw the shrunken view", || {
                    let _ = handle.refresh_view();
                    handle.members().len() == servers - 1
                });
                handle.activate(0).unwrap();
            });
        }
        Event::Leave => {
            // Drain-aware shrink: the client nominates the cheapest
            // server and asks it to leave.
            let victim_addr = sim.run(|s| {
                let victim = drain_aware_victims(&s.admin, &handle.members(), 1)[0];
                s.admin.request_leave(victim).unwrap();
                victim
            });
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
    // The view changed under the client; it finishes the iteration with
    // the usual refresh-and-retry loop.
    sim.run(|_| {
        wait_until("deactivate never completed", || {
            match handle.deactivate(0) {
                Ok(()) => true,
                Err(e) if e.is_retryable() => {
                    let _ = handle.refresh_view();
                    false
                }
                Err(e) => panic!("deactivate failed: {e}"),
            }
        })
    });
    drop(sim);
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
