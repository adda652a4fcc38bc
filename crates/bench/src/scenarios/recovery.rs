//! Crash-to-recovered-iteration latency for the fault-tolerant
//! collective path (DESIGN.md §12).
//!
//! A staging server is killed *inside a MoNA collective round* of
//! `execute` via a send-count crash rule: its Nth MoNA-plane send is the
//! last thing it ever produces, and everything outbound afterwards is
//! silently dropped. Survivors revoke the communicator instead of
//! hanging, their execute handlers abort the iteration retryably, and the
//! client's `execute_with_recovery` re-runs the activate 2PC on the
//! shrunk view and re-executes from store replicas. The chaos suite runs
//! this episode twice under its pinned seed and holds [`check`] plus
//! same-seed equality of the deterministic outcome.
//!
//! Reported per run: the virtual time and wall time from the crash trip
//! to the recovered iteration's completion, the SWIM rounds it took the
//! survivors to declare the death, the abort/revoke/promotion counters
//! behind the recovery, and what two same-seed runs must reproduce
//! exactly — the fault-trace export, the counters and the final image.

use std::time::{Duration, Instant};

use colza::daemon::Session;
use colza::{BlockMeta, DistributedPipelineHandle, StagingArea};
use hpcsim::FaultPlan;
use na::Address;

use super::crash::{
    assert_each_block_fed_once, driven_trio, probe_retry, promoted_blocks, rpc_scoped,
};

#[derive(serde::Serialize, Default)]
pub struct Row {
    pub run: usize,
    pub blocks: u64,
    /// Serialized SWIM rounds until every survivor declared the death.
    pub detect_rounds: u64,
    /// Virtual ns from the crash trip to the recovered `execute` return.
    pub crash_to_recover_virtual_ns: u64,
    /// Wall-clock ms for the same interval (host-dependent).
    pub crash_to_recover_wall_ms: f64,
    /// `colza.exec.aborted`: execute handlers that aborted on a revoked
    /// communicator (one per survivor).
    pub aborted: u64,
    /// `colza.exec.recoveries`: client-side abort-and-recover cycles.
    pub recoveries: u64,
    /// `mona.revoke.sent`: revoke notices delivered to survivors.
    pub revoke_sent: u64,
    /// Replica promotions at either promotion point.
    pub promoted: u64,
    /// Canonical (sorted, line-per-record) export of the fault trace —
    /// here exclusively `Crash` records for the victim's swallowed
    /// outbound sends.
    pub trace_export: String,
    /// The recovered iteration's rendered image.
    pub image: Frame,
}

/// A rendered image, compared byte for byte; a JSON row carries its
/// pixel coverage instead of the bytes.
#[derive(Debug, PartialEq, Default)]
pub struct Frame(pub Vec<u8>);

impl Frame {
    /// The fraction of pixels the render covered (0 for no image).
    pub fn coverage(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        vizkit::Image::from_bytes(&self.0).coverage()
    }
}

impl serde::Serialize for Frame {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(self.coverage())
    }
}

#[derive(serde::Serialize)]
pub struct Report {
    pub bench: &'static str,
    pub servers: usize,
    pub runs: usize,
    pub blocks: u64,
    pub rows: Vec<Row>,
}

/// Runs `runs` independent crash-and-recover cycles under `seed`'s
/// fault plan. The plan has no random rule: the chaos is the crash, and
/// the client's recovery spinning is wall-clock-paced, so seq-consuming
/// randomization would couple the fault stream to host timing.
pub fn run(runs: usize, blocks: u64, seed: u64) -> Report {
    Report {
        bench: "crash_recovery",
        servers: 3,
        runs,
        blocks,
        rows: (0..runs).map(|run| run_once(run, blocks, seed)).collect(),
    }
}

/// Everything up to the crash inside `execute`'s collectives: a driven
/// trio under `seed`'s plan, the catalyst pipeline `name` running
/// `script` on every member, and iteration 0's Mandelbulb blocks staged
/// with replication 2 by the session's client. The victim is block 0's
/// primary under the shared ring, so its crash provably forces replica
/// promotion, and it dies at its 3rd MoNA-plane send — inside the
/// execute collectives (a 3-rank collective is send-light, so the budget
/// must be small to land mid-stream). Returns the area, the session, its
/// handle and the victim.
pub fn stage_for_crash(
    seed: u64,
    name: &str,
    script: &str,
    blocks: u64,
) -> (StagingArea, Session, DistributedPipelineHandle, Address) {
    // Generous deadline backstop: SWIM detects the death first; the
    // deadline only guards against a detector that never fires.
    let area = driven_trio(rpc_scoped(FaultPlan::seeded(seed)), |cfg| {
        cfg.mona.fault.recv_deadline = Some(Duration::from_secs(5));
    });
    let contact = area.contact();
    let victim_addr = area.primary_of(name, 0, 2);
    area.crash_after_mona_sends(victim_addr, 2);

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", name, script)
            .unwrap();
        let mut handle = s.client.distributed_handle(contact, name).unwrap();
        handle.set_replication(2);
        handle.set_heavy_retry(probe_retry());
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
                .stage(BlockMeta::new(name, b, 0, payload.len()), &payload)
                .unwrap();
        }
        handle
    });
    (area, sim, handle, victim_addr)
}

/// One crash-and-recover cycle, returning the latency, the counters and
/// the deterministic outcome.
fn run_once(run: usize, blocks: u64, seed: u64) -> Row {
    let script = catalyst::PipelineScript::mandelbulb(48, 48).to_json();
    let (mut area, sim, handle, victim_addr) = stage_for_crash(seed, "m", &script, blocks);

    // The client blocks in the crashed execute while the harness acts.
    let shared = area.shared().clone();
    let (detect_rounds, t0_virtual, t0_wall) = std::thread::scope(|scope| {
        let exec = scope.spawn(|| {
            sim.run(|_| {
                handle
                    .execute_with_recovery(0)
                    .expect("iteration must recover from the mid-collective crash")
            })
        });
        area.wait_crash_tripped(victim_addr);
        // The crash instant: start both clocks, then make it a real
        // crash by closing the victim's endpoint so probes fail fast,
        // and count the serialized SWIM rounds until every survivor
        // declared the death.
        let t0_virtual = shared.max_clock_ns();
        let t0_wall = Instant::now();
        area.kill(area.index_of(victim_addr));
        let detect_rounds = area.settle();
        exec.join().expect("the recovering execute panicked");
        (detect_rounds, t0_virtual, t0_wall)
    });
    let t1_virtual = shared.max_clock_ns();
    let wall = t0_wall.elapsed();
    let image = sim.run(|_| handle.fetch_result().unwrap().expect("image"));
    assert_each_block_fed_once(&area, blocks, 0);
    sim.run(|_| handle.deactivate(0).unwrap());
    drop(sim);

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
        promoted: promoted_blocks(&snap),
        trace_export: area.fault_trace_export(),
        image: Frame(image),
    };
    area.shutdown();
    row
}

/// Names every run that did not abort and recover the way the
/// fault-tolerant collective path must: every survivor aborted, the
/// client recovered, revoke notices went out, the victim's primaries
/// were promoted, the crash rule fired, and the recovered iteration
/// rendered.
pub fn check(report: &Report) -> Vec<String> {
    let mut violations = Vec::new();
    for row in &report.rows {
        let at = format!("run {}", row.run);
        if row.aborted != report.servers as u64 - 1 {
            violations.push(format!(
                "{at}: {} aborts, not one per survivor",
                row.aborted
            ));
        }
        for (what, n) in [
            ("abort-and-recover cycle", row.recoveries),
            ("revoke notice", row.revoke_sent),
            ("promoted replica", row.promoted),
        ] {
            if n == 0 {
                violations.push(format!("{at}: no {what}"));
            }
        }
        if row.trace_export.is_empty() {
            violations.push(format!("{at}: the crash rule swallowed no send"));
        }
        if row.image.coverage() <= 0.0 {
            violations.push(format!(
                "{at}: the recovered iteration rendered an empty image"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_that_did_not_recover_is_named() {
        let mut image = vizkit::Image::new(2, 1);
        image.depth[0] = 0.5;
        let recovered = Row {
            aborted: 2,
            recoveries: 1,
            revoke_sent: 2,
            promoted: 1,
            trace_export: "crash".to_string(),
            image: Frame(image.to_bytes()),
            ..Default::default()
        };
        let broken = Row {
            run: 1,
            aborted: 1,
            promoted: 0,
            image: Frame(Vec::new()),
            ..Default::default()
        };
        let report = Report {
            bench: "crash_recovery",
            servers: 3,
            runs: 2,
            blocks: 4,
            rows: vec![recovered, broken],
        };
        let v = check(&report);
        assert_eq!(v.len(), 6, "{v:?}");
        assert!(v.iter().all(|m| m.starts_with("run 1:")), "{v:?}");
        assert!(
            v[0].contains("1 aborts") && v[5].contains("empty image"),
            "{v:?}"
        );
    }
}
