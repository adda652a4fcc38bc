//! **bench_heal** — crash → full-redundancy-restored latency with the
//! anti-entropy scrubber on vs off (DESIGN.md §10).
//!
//! Each run stages a replicated iteration, kills the primary that holds
//! block 0 mid-iteration, and measures (in virtual time) how long the
//! deployment takes to (a) restore full redundancy among the survivors
//! and (b) report `healthy` again after a supervised replacement daemon
//! joins and is scrub-verified. The `scrub_off` rows quantify the gap:
//! with no background scrubber, nothing restores the lost copies while
//! the iteration is in flight — the residue persists until the client
//! itself re-commits — and the deployment can never pass the health
//! probe, because health demands at least one verified (clean) pass.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_heal
//!       [--smoke] [--out results/BENCH_heal.json]
//!       [--bound-ns N] [--assert]`

use std::sync::Arc;

use bytes::Bytes;
use colza::{BlockMeta, StagingArea, Supervisor, SupervisorAction};
use colza_bench::{table, write_json, Args};
use hpcsim::stats::fmt_ns;
use na::Address;

const REPLICATION: usize = 2;
/// Default virtual-time bound on crash → healthy (generous: SWIM
/// suspicion must mature, the replacement must bootstrap and join, and
/// scrub passes must go clean).
const DEFAULT_BOUND_NS: u64 = 600_000_000_000;

#[derive(serde::Serialize)]
struct Row {
    mode: &'static str,
    servers: usize,
    blocks: u64,
    replication: usize,
    /// Missing copies right after the view converged on the crash —
    /// before any heal path ran (the degradation the crash caused).
    missing_after_crash: u64,
    /// Missing copies at the end of the background-heal window: zero
    /// with the scrubber, unchanged without it (the scrub-off gap).
    missing_after_heal_window: u64,
    /// Virtual ns from the crash until a steady scrub pass proved the
    /// survivors fully redundant (0 when the scrubber is off).
    crash_to_redundant_ns: u64,
    /// Virtual ns from the crash until `wait_healthy` converged over
    /// the replaced deployment (0 when it never did).
    crash_to_healthy_ns: u64,
    healthy_polls: u32,
    healthy_converged: bool,
    supervisor_replaced: bool,
    scrub_passes: u64,
    copies_pushed: u64,
}

/// Copies of iteration-0 blocks the pool is short of: for each block,
/// `min(replication, pool size)` minus the copies actually held.
fn missing_copies(area: &StagingArea, blocks: u64) -> u64 {
    let want = REPLICATION.min(area.daemons().len()) as u64;
    (0..blocks)
        .map(|b| {
            let have = area
                .daemons()
                .iter()
                .filter(|d| {
                    d.provider()
                        .store()
                        .snapshot()
                        .iter()
                        .any(|x| x.key.block_id == b && x.iteration == 0)
                })
                .count() as u64;
            want.saturating_sub(have)
        })
        .sum()
}

/// One crash-and-heal episode, on the same `StagingArea` steps as the
/// heal test suite: harness-driven daemons (no self-ticking), a
/// mid-iteration kill, client recovery on the survivor view, a
/// supervisor-classified replacement through the normal join path, and —
/// with the scrubber on — serialized scrub passes that restore
/// redundancy and verify the newcomer before the health probe runs.
fn run_mode(scrub_on: bool, servers: usize, blocks: u64, seed: u64) -> Row {
    let mode = if scrub_on { "scrub_on" } else { "scrub_off" };
    let mut area = StagingArea::harness_driven(hpcsim::ClusterConfig {
        seed,
        ..hpcsim::ClusterConfig::aries()
    });
    area.config_mut().auto_repair = false; // isolate the scrubber as the only healer
    area.launch(servers, 1);
    area.settle();

    // The victim is block 0's primary under the shared ring; the
    // client's contact must be a survivor (it asks it for fresh views
    // after the kill), and the same survivor's event stream drives the
    // supervisor.
    let victim_addr = area.primary_of("p", 0, REPLICATION);
    let watcher = area
        .daemons()
        .iter()
        .find(|d| d.address() != victim_addr)
        .unwrap();
    let contact = watcher.address();
    let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    watcher
        .provider()
        .group()
        .observe(move |e| ev2.lock().push(e));

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (killed_tx, killed_rx) = crossbeam::channel::bounded::<()>(1);
    let (recovered_tx, recovered_rx) = crossbeam::channel::bounded::<()>(1);
    let (replaced_tx, replaced_rx) = crossbeam::channel::bounded::<Address>(1);
    let (staged2_tx, staged2_rx) = crossbeam::channel::bounded::<()>(1);
    let (scrubbed_tx, scrubbed_rx) = crossbeam::channel::bounded::<()>(1);
    let (healthy_tx, healthy_rx) = crossbeam::channel::bounded::<Option<u32>>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 16, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
        handle.set_replication(REPLICATION);
        handle.activate(0).unwrap();
        for b in 0..blocks {
            let payload = Bytes::from(vec![b as u8 + 1; 256 * (b as usize + 1)]);
            handle
                .stage(BlockMeta::new("x", b, 0, payload.len()), &payload)
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        killed_rx.recv().unwrap();

        // Finish the interrupted iteration on the survivors; deactivate
        // unfreezes the group so the replacement can join.
        let r = handle.execute(0);
        assert!(matches!(&r, Err(e) if e.is_retryable()));
        handle.refresh_view().unwrap();
        handle.activate(0).unwrap();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();
        recovered_tx.send(()).unwrap();

        let newcomer = replaced_rx.recv().unwrap();
        admin.create_pipeline(newcomer, "null", "p", "").unwrap();
        let view = client.view_from(contact).unwrap();
        handle.refresh_view().unwrap();
        handle.activate(1).unwrap();
        for b in 0..blocks {
            let payload = Bytes::from(vec![b as u8 + 1; 256 * (b as usize + 1)]);
            handle
                .stage(BlockMeta::new("x", b, 1, payload.len()), &payload)
                .unwrap();
        }
        staged2_tx.send(()).unwrap();
        scrubbed_rx.recv().unwrap();
        // The probe: with the scrubber on this converges on the first
        // poll; with it off no server has a verified pass, so it can't.
        let polls = admin.wait_healthy(&view, 3, |_| {});
        healthy_tx.send(polls).unwrap();
        handle.execute(1).unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(1).unwrap();
    });

    staged_rx.recv().unwrap();
    let t_crash = area.now_ns();
    area.kill(area.index_of(victim_addr));
    area.settle();
    let missing_after_crash = missing_copies(&area, blocks);

    // The background-heal window: with the scrubber on, serialized
    // passes until steady; with it off, nothing runs — that IS the gap.
    let mut scrubbed = Vec::new();
    let mut crash_to_redundant_ns = 0;
    if scrub_on {
        scrubbed.append(&mut area.scrub_until_steady(8));
        crash_to_redundant_ns = area.now_ns().saturating_sub(t_crash);
    }
    let missing_after_heal_window = missing_copies(&area, blocks);
    killed_tx.send(()).unwrap();
    recovered_rx.recv().unwrap();

    // Supervisor: classify the watcher's event stream; the crash must
    // yield exactly one Replace decision, which we act on.
    let mut supervisor = Supervisor::new();
    let seen: Vec<ssg::Event> = events.lock().clone();
    let replaces: Vec<Address> = seen
        .iter()
        .filter_map(|e| match supervisor.observe(e) {
            SupervisorAction::Replace(addr) => Some(addr),
            SupervisorAction::Ignore => None,
        })
        .collect();
    let supervisor_replaced = replaces == vec![victim_addr];
    let newcomer = area.grow(1)[0];
    area.settle();
    replaced_tx.send(newcomer).unwrap();

    staged2_rx.recv().unwrap();
    if scrub_on {
        scrubbed.append(&mut area.scrub_until_steady(8));
    }
    scrubbed_tx.send(()).unwrap();
    let polls = healthy_rx.recv().unwrap();
    let crash_to_healthy_ns = if polls.is_some() {
        area.now_ns().saturating_sub(t_crash)
    } else {
        0
    };
    done_tx.send(()).unwrap();
    sim.join();
    area.shutdown();

    Row {
        mode,
        servers,
        blocks,
        replication: REPLICATION,
        missing_after_crash,
        missing_after_heal_window,
        crash_to_redundant_ns,
        crash_to_healthy_ns,
        healthy_polls: polls.unwrap_or(0),
        healthy_converged: polls.is_some(),
        supervisor_replaced,
        scrub_passes: scrubbed.iter().map(|pass| pass.len() as u64).sum(),
        copies_pushed: scrubbed.iter().flatten().map(|r| r.pushed).sum(),
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let out_path = args.get_str("out", "results/BENCH_heal.json");
    let bound_ns: u64 = args.get("bound-ns", DEFAULT_BOUND_NS);
    let (server_counts, blocks): (&[usize], u64) =
        if smoke { (&[3], 4) } else { (&[3, 4, 5], 8) };

    table::banner(
        "bench_heal: crash -> full-redundancy / healthy latency",
        "(anti-entropy scrub + supervised replacement, vs scrub off)",
    );
    println!(
        "{:>10} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "mode", "N", "redundant", "healthy", "miss@hl", "pushed", "healthy?"
    );

    let mut rows = Vec::new();
    for &n in server_counts {
        for scrub_on in [true, false] {
            let row = run_mode(scrub_on, n, blocks, 42);
            println!(
                "{:>10} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8}",
                row.mode,
                row.servers,
                fmt_ns(row.crash_to_redundant_ns),
                fmt_ns(row.crash_to_healthy_ns),
                row.missing_after_heal_window,
                row.copies_pushed,
                row.healthy_converged
            );
            rows.push(row);
        }
    }
    write_json(&out_path, &rows);
    println!("\nwrote {} rows to {out_path}", rows.len());

    if args.has("assert") {
        let mut ok = true;
        for row in &rows {
            if row.missing_after_crash == 0 {
                eprintln!("Assert FAILED: {}/{}: crash caused no degradation", row.mode, row.servers);
                ok = false;
            }
            if row.mode == "scrub_on" {
                // The tentpole gate: redundancy restored, replacement
                // supervised in, health converged — in bounded time.
                if !row.healthy_converged || !row.supervisor_replaced {
                    eprintln!(
                        "Assert FAILED: scrub_on N={}: healthy={} replaced={}",
                        row.servers, row.healthy_converged, row.supervisor_replaced
                    );
                    ok = false;
                }
                if row.missing_after_heal_window != 0 || row.copies_pushed == 0 {
                    eprintln!(
                        "Assert FAILED: scrub_on N={}: residue {} after heal, {} pushed",
                        row.servers, row.missing_after_heal_window, row.copies_pushed
                    );
                    ok = false;
                }
                if row.crash_to_healthy_ns == 0 || row.crash_to_healthy_ns > bound_ns {
                    eprintln!(
                        "Assert FAILED: scrub_on N={}: crash->healthy {} outside (0, {}]",
                        row.servers,
                        fmt_ns(row.crash_to_healthy_ns),
                        fmt_ns(bound_ns)
                    );
                    ok = false;
                }
            } else {
                // The scrub-off gap: the under-replication persists for
                // the whole background window and the deployment never
                // reports healthy (no verified pass exists).
                if row.missing_after_heal_window == 0 || row.healthy_converged {
                    eprintln!(
                        "Assert FAILED: scrub_off N={}: residue {} healthy={} — no gap",
                        row.servers, row.missing_after_heal_window, row.healthy_converged
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("Assert: crash->healthy bounded with scrub+supervisor; scrub-off gap shown (OK)");
    }
}
