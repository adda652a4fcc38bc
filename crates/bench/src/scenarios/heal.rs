//! Crash → full-redundancy-restored latency with the anti-entropy
//! scrubber on vs off (DESIGN.md §10).
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

use std::sync::Arc;

use colza::{ServerLifecycle, StagingArea, Supervisor, SupervisorAction};
use hpcsim::stats::fmt_ns;
use na::Address;

use super::crash::{self, assert_each_block_fed_once, NULL_PIPELINE, REPLICATION};

/// Default virtual-time bound on crash → healthy (generous: SWIM
/// suspicion must mature, the replacement must bootstrap and join, and
/// scrub passes must go clean).
pub const DEFAULT_BOUND_NS: u64 = 600_000_000_000;
/// What [`check`] verifies.
pub const HOLDS: &str = "crash->healthy bounded with scrub+supervisor; scrub-off gap shown";

#[derive(serde::Serialize, Default)]
pub struct Row {
    pub mode: &'static str,
    pub servers: usize,
    pub blocks: u64,
    pub replication: usize,
    /// Missing copies right after the view converged on the crash —
    /// before any heal path ran (the degradation the crash caused).
    pub missing_after_crash: u64,
    /// Missing copies at the end of the background-heal window: zero
    /// with the scrubber, unchanged without it (the scrub-off gap).
    pub missing_after_heal_window: u64,
    /// Virtual ns from the crash until a steady scrub pass proved the
    /// survivors fully redundant (0 when the scrubber is off).
    pub crash_to_redundant_ns: u64,
    /// Virtual ns from the crash until `wait_healthy` converged over
    /// the replaced deployment (0 when it never did).
    pub crash_to_healthy_ns: u64,
    pub healthy_polls: u32,
    pub healthy_converged: bool,
    /// The supervisor made exactly one `Replace` decision, for the
    /// victim, and holds it `Dead`.
    pub supervisor_replaced: bool,
    pub scrub_passes: u64,
    pub copies_pushed: u64,
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

/// One crash-and-heal episode: harness-driven daemons (no self-ticking),
/// a mid-iteration kill, client recovery on the survivor view, a
/// supervisor-classified replacement through the normal join path, and —
/// with the scrubber on — serialized scrub passes that restore
/// redundancy and verify the newcomer before the health probe runs. The
/// heal suite runs the `scrub_on` episode as its supervised-replacement
/// test; what holds in both modes is asserted here, the rest is judged
/// by [`check`].
pub fn run_mode(scrub_on: bool, servers: usize, blocks: u64, seed: u64) -> Row {
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
    let victim_addr = area.primary_of(NULL_PIPELINE, 0, REPLICATION);
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

    let sim = area.session("sim", 16);
    let handle = sim.run(|s| crash::stage_replicated(s, contact, blocks, 256));

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

    // Finish the interrupted iteration on the survivors; deactivate
    // unfreezes the group so the replacement can join.
    sim.run(|_| {
        crash::recover_on_survivors(&handle, 0, servers - 1);
        handle.deactivate(0).unwrap();
    });

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
    let supervisor_replaced = replaces == vec![victim_addr]
        && supervisor.lifecycle_of(victim_addr) == Some(ServerLifecycle::Dead);
    // The replacement joins on a fresh node through the normal join
    // path (stale connection-file entries for the dead member are
    // tolerated).
    let newcomer = area.grow(1)[0];
    area.settle();
    let newcomer_state = |area: &StagingArea| area.daemons().last().unwrap().provider().lifecycle();
    assert_eq!(
        newcomer_state(&area),
        ServerLifecycle::Joining,
        "a fresh replacement with no commit and no clean scrub is Joining"
    );

    let view = sim.run(|s| {
        // The replacement is in — but unverified: no clean scrub pass
        // yet, so the deployment must not report healthy.
        let view = s.client.view_from(contact).unwrap();
        assert_eq!(view.len(), servers, "the replacement must be in the view");
        assert!(
            !s.admin.healthy(&view),
            "an unverified Joining replacement must not count as healthy"
        );
        s.admin
            .create_pipeline(newcomer, "null", NULL_PIPELINE, "")
            .unwrap();
        // The next iteration runs over the replaced deployment.
        handle.refresh_view().unwrap();
        assert_eq!(handle.members().len(), servers);
        handle.activate(1).unwrap();
        crash::stage_blocks(&handle, 1, blocks, 256);
        view
    });
    // Mid-iteration scrub: verifies every holding against the ring and
    // gives each server the clean pass `healthy` demands.
    if scrub_on {
        scrubbed.append(&mut area.scrub_until_steady(8));
    }
    // Iteration 1's commit — and a clean scrub pass, where one ran —
    // caught the replacement up.
    assert_eq!(newcomer_state(&area), ServerLifecycle::Ready);
    // The probe: with the scrubber on this converges on the first poll;
    // with it off no server has a verified pass, so it can't.
    let polls = sim.run(|s| s.admin.wait_healthy(&view, 3, |_| {}));
    let crash_to_healthy_ns = if polls.is_some() {
        area.now_ns().saturating_sub(t_crash)
    } else {
        0
    };
    sim.run(|_| handle.execute(1).unwrap());
    assert_each_block_fed_once(&area, blocks, 1);
    sim.run(|_| handle.deactivate(1).unwrap());
    drop(sim);
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

/// The sweep: a `scrub_on` and a `scrub_off` episode per server count.
pub fn run(server_counts: &[usize], blocks: u64, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in server_counts {
        for scrub_on in [true, false] {
            rows.push(run_mode(scrub_on, n, blocks, seed));
        }
    }
    rows
}

/// Names every row that breaks the heal shape.
pub fn check(rows: &[Row], bound_ns: u64) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let at = format!("{} N={}", row.mode, row.servers);
        if row.missing_after_crash == 0 {
            violations.push(format!("{at}: crash caused no degradation"));
        }
        if row.mode == "scrub_on" {
            // The tentpole gate: redundancy restored, replacement
            // supervised in, health converged — in bounded time.
            if row.healthy_polls != 1 || !row.supervisor_replaced {
                violations.push(format!(
                    "{at}: healthy after {} polls, replaced={}",
                    row.healthy_polls, row.supervisor_replaced
                ));
            }
            if row.missing_after_heal_window != 0 || row.copies_pushed == 0 {
                violations.push(format!(
                    "{at}: residue {} after heal, {} pushed",
                    row.missing_after_heal_window, row.copies_pushed
                ));
            }
            if row.crash_to_healthy_ns == 0 || row.crash_to_healthy_ns > bound_ns {
                violations.push(format!(
                    "{at}: crash->healthy {} outside (0, {}]",
                    fmt_ns(row.crash_to_healthy_ns),
                    fmt_ns(bound_ns)
                ));
            }
        } else if row.missing_after_heal_window == 0 || row.healthy_converged {
            // The scrub-off gap: the under-replication persists for the
            // whole background window and the deployment never reports
            // healthy (no verified pass exists).
            violations.push(format!(
                "{at}: residue {} healthy={} — no scrub-off gap",
                row.missing_after_heal_window, row.healthy_converged
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scrub_off_row_that_reports_healthy_is_named() {
        let gap = || Row {
            mode: "scrub_off",
            servers: 3,
            missing_after_crash: 3,
            missing_after_heal_window: 3,
            ..Default::default()
        };
        assert!(check(&[gap()], DEFAULT_BOUND_NS).is_empty());
        let healthy = Row {
            healthy_converged: true,
            ..gap()
        };
        let v = check(&[gap(), healthy], DEFAULT_BOUND_NS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("scrub_off N=3") && v[0].contains("healthy=true"),
            "{v:?}"
        );

        // A healed row whose probe needed a second poll is named too.
        let healed = || Row {
            mode: "scrub_on",
            servers: 3,
            missing_after_crash: 3,
            crash_to_healthy_ns: 1,
            healthy_polls: 1,
            healthy_converged: true,
            supervisor_replaced: true,
            copies_pushed: 3,
            ..Default::default()
        };
        assert!(check(&[healed()], DEFAULT_BOUND_NS).is_empty());
        let slow = Row {
            healthy_polls: 2,
            ..healed()
        };
        let v = check(&[healed(), slow], DEFAULT_BOUND_NS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("healthy after 2 polls"), "{v:?}");
    }
}
