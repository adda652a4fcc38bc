//! Crash-to-recovered-iteration latency for the fault-tolerant
//! collective path (DESIGN.md §12).
//!
//! A staging server is killed *inside a MoNA collective round* of
//! `execute` via a send-count crash rule: its Nth MoNA-plane send is the
//! last thing it ever produces, and everything outbound afterwards is
//! silently dropped. Survivors revoke the communicator instead of
//! hanging, their execute handlers abort the iteration retryably, and the
//! client's `execute_with_recovery` re-runs the activate 2PC on the
//! shrunk view and re-executes from store replicas.
//!
//! Reported per run: the virtual time and wall time from the crash trip
//! to the recovered iteration's completion, the SWIM rounds it took the
//! survivors to declare the death, and the abort/revoke/promotion
//! counters behind the recovery.

use std::time::{Duration, Instant};

use colza::{BlockMeta, StagingArea};
use margo::RetryConfig;

#[derive(serde::Serialize)]
pub struct Row {
    pub run: usize,
    pub blocks: u64,
    /// Serialized SWIM rounds until every survivor declared the death.
    pub detect_rounds: u64,
    /// Virtual ns from the crash trip to the recovered `execute` return.
    pub crash_to_recover_virtual_ns: u64,
    /// Wall-clock ms for the same interval (host-dependent).
    pub crash_to_recover_wall_ms: f64,
    pub aborted: u64,
    pub recoveries: u64,
    pub revoke_sent: u64,
    pub promoted: u64,
}

#[derive(serde::Serialize)]
pub struct Report {
    pub bench: &'static str,
    pub servers: usize,
    pub runs: usize,
    pub blocks: u64,
    pub rows: Vec<Row>,
}

/// Runs `runs` independent crash-and-recover cycles.
pub fn run(runs: usize, blocks: u64) -> Report {
    Report {
        bench: "crash_recovery",
        servers: 3,
        runs,
        blocks,
        rows: (0..runs).map(|run| run_once(run, blocks)).collect(),
    }
}

/// One crash-and-recover cycle — the area steps of the chaos suite's
/// mid-collective crash scenario — returning the latency and counters.
fn run_once(run: usize, blocks: u64) -> Row {
    let mut area = StagingArea::harness_driven(hpcsim::ClusterConfig::aries());
    area.shared().tracer().set_enabled(true);
    let cfg = area.config_mut();
    cfg.auto_repair = false; // all migration at the 2PC boundary
    // Generous deadline backstop: SWIM detects the death first; the
    // deadline only guards against a detector that never fires.
    cfg.mona.fault.recv_deadline = Some(Duration::from_secs(5));
    area.launch(3, 1);
    area.tick_rounds(60);
    assert!(
        area.daemons().iter().all(|d| d.view().len() == 3),
        "serialized gossip failed to converge"
    );
    let contact = area.contact();

    // The victim is block 0's primary under the shared ring, so the
    // crash provably forces replica promotion during recovery. Kill
    // switch: its 3rd MoNA-plane send (inside the execute collectives)
    // is its moment of death.
    let victim_addr = area.primary_of("m", 0, 2);
    area.crash_after_mona_sends(victim_addr, 2);

    let script = catalyst::PipelineScript::mandelbulb(48, 48).to_json();
    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "m", &script)
            .unwrap();
        let mut handle = s.client.distributed_handle(contact, "m").unwrap();
        handle.set_replication(2);
        // Short per-try: the victim's reply is swallowed, so the call to
        // it must be re-probed without a ten-second stall.
        handle.set_heavy_retry(RetryConfig {
            max_attempts: 0,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            per_try_timeout: Duration::from_secs(2),
            deadline: Some(Duration::from_secs(120)),
            ..Default::default()
        });
        let bulb = sims::mandelbulb::Mandelbulb {
            dims: [12, 12, 12],
            ..Default::default()
        };
        handle.activate(0).unwrap();
        for b in 0..blocks {
            let payload = colza::codec::dataset_to_bytes(
                &bulb.generate_block(b as usize, blocks as usize),
            );
            handle
                .stage(
                    BlockMeta::new("m", b, 0, payload.len()),
                    &payload,
                )
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        handle
            .execute_with_recovery(0)
            .expect("iteration must recover from the mid-collective crash");
        executed_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(0).unwrap();
    });

    staged_rx.recv().unwrap();
    area.wait_crash_tripped(victim_addr);
    // The crash instant: start both clocks, then make it a real crash by
    // closing the victim's endpoint so probes fail fast, and count the
    // serialized SWIM rounds until every survivor declared the death.
    let shared = area.shared().clone();
    let t0_virtual = shared.max_clock_ns();
    let t0_wall = Instant::now();
    area.kill(area.index_of(victim_addr));
    let detect_rounds = area.settle();

    executed_rx.recv().unwrap();
    let t1_virtual = shared.max_clock_ns();
    let wall = t0_wall.elapsed();
    done_tx.send(()).unwrap();
    sim.join();

    let snap = shared.trace_snapshot();
    let row = Row {
        run,
        blocks,
        detect_rounds,
        crash_to_recover_virtual_ns: t1_virtual.saturating_sub(t0_virtual),
        crash_to_recover_wall_ms: wall.as_secs_f64() * 1e3,
        aborted: snap.counter_total("colza.exec.aborted"),
        recoveries: snap.counter_total("colza.exec.recoveries"),
        revoke_sent: snap.counter_total("mona.revoke.sent"),
        promoted: snap.counter_total("colza.store.promoted.blocks")
            + snap.counter_total("colza.store.exec.promoted"),
    };
    area.shutdown();
    row
}
