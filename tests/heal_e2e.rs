//! Self-healing tests (DESIGN.md §10): the anti-entropy scrubber, the
//! pending-handoff reclaim path, and supervised daemon replacement.
//!
//! The centerpiece is the suppressed-observer chaos rule: a named
//! server's departure event is swallowed before observer delivery, so
//! *nothing reactive* fires — no repair request, no client hint. SWIM
//! still converges the view, leaving silent under-replication that only
//! the scrubber can find. Every scenario is deterministic at the pinned
//! seed (`COLZA_CHAOS_SEED`, default 42): daemons never tick on their
//! own, every SWIM round and scrub pass is serialized from the harness
//! thread, and two same-seed runs must produce byte-identical outcomes.

use std::sync::Arc;

use bytes::Bytes;
use colza::{
    BlockMeta, ScrubReport, ServerLifecycle, StagingArea, Supervisor, SupervisorAction,
    TenancyConfig, TenantConfig,
};
use colza_repro::{assert_each_block_fed_once, chaos_seed, rpc_scoped};
use hpcsim::{ClusterConfig, FaultPlan};
use na::Address;

/// A harness-driven area (no daemon ever ticks on its own) under `plan`,
/// tracer on, with `n` daemons — one per node — settled by serialized
/// SWIM rounds.
fn driven_area(plan: FaultPlan, auto_repair: bool, n: usize) -> StagingArea {
    let mut area = StagingArea::harness_driven(ClusterConfig {
        faults: plan,
        ..ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    area.config_mut().auto_repair = auto_repair;
    area.launch(n, 1);
    area.settle();
    area
}

/// Everything one run of the suppressed-departure scenario produced that
/// must be identical across runs with the same seed.
#[derive(Debug, PartialEq)]
struct SuppressedHealOutcome {
    /// Canonical (sorted, line-per-record) export of the fault trace.
    trace_export: String,
    /// Per-pass, per-survivor scrub reports, in harness order.
    scrub_reports: Vec<Vec<ScrubReport>>,
    /// `ssg.event.suppressed`: departure events the chaos rule swallowed.
    suppressed: u64,
    /// `colza.store.repair.runs`: reactive repairs — must stay zero.
    repair_runs: u64,
    /// Per-survivor `(address, blocks held, staged bytes)`, sorted.
    survivors: Vec<(u64, usize, u64)>,
}

/// One deterministic run of the tentpole scenario: three harness-driven
/// daemons with replication 2, **auto-repair armed**, and the
/// suppressed-observer rule targeting block 0's primary. The victim is
/// killed mid-iteration; SWIM converges the view but the departure event
/// never reaches an observer, so the reactive repair path provably never
/// runs. The harness then drives serialized scrub passes: the first pass
/// re-replicates everything the survivors lack, the next proves there is
/// nothing left to do, and the client completes the iteration on the
/// healed survivors.
fn suppressed_heal_run(seed: u64) -> SuppressedHealOutcome {
    const BLOCKS: u64 = 4;
    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    // Reactive path armed — and provably silent.
    let mut area = driven_area(plan, true, 3);
    let contact = area.contact();

    // The victim is block 0's primary under the shared three-member ring.
    let victim_addr = area.primary_of("p", 0, 2);
    // Arm the chaos rule: this member's departure is never observed.
    area.shared().faults().suppress_departure_now(victim_addr.0);

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.set_replication(2);
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; 256 * (b as usize + 1)]);
            handle
                .stage(BlockMeta::new("x", b, 0, payload.len()), &payload)
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        healed_rx.recv().unwrap();
        // The frozen member list still names the dead primary: execute
        // fails fast and retryably; the scrub already restored full
        // redundancy, so re-activating on the survivor view finds
        // nothing left to move.
        let r = handle.execute(0);
        assert!(
            matches!(&r, Err(e) if e.is_retryable()),
            "execute against the crashed member must fail retryably: {r:?}"
        );
        handle.refresh_view().unwrap();
        assert_eq!(handle.members().len(), 2);
        handle.activate(0).unwrap();
        handle.execute(0).unwrap();
        executed_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(0).unwrap();
    });

    staged_rx.recv().unwrap();
    // Quiesced crash point: client blocked, daemons idle.
    area.kill(area.index_of(victim_addr));
    area.settle();
    // The reactive path had every chance to fire by now — it must not
    // have: the only departure event was swallowed.
    let scrub_reports = area.scrub_until_steady(8);
    // Convergence in bounded virtual time: the final pass measured zero
    // under-replication and zero orphans on every survivor.
    for r in scrub_reports.last().unwrap() {
        assert_eq!(r.under_replicated, 0, "scrub left under-replication");
        assert_eq!(r.orphans, 0, "scrub left orphans");
    }
    // With k = 2 over 2 survivors, every survivor holds every block.
    for d in area.daemons() {
        assert_eq!(
            d.provider().store().len(),
            BLOCKS as usize,
            "every survivor must hold every block after the scrub"
        );
    }
    healed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    // Post-execute, pre-deactivate: each block fed exactly one backend.
    assert_each_block_fed_once(&area, BLOCKS, 0);
    done_tx.send(()).unwrap();
    sim.join();

    let snap = area.shared().trace_snapshot();
    let out = SuppressedHealOutcome {
        trace_export: area.fault_trace_export(),
        scrub_reports,
        suppressed: snap.counter_total("ssg.event.suppressed"),
        repair_runs: snap.counter_total("colza.store.repair.runs"),
        survivors: area.holdings(),
    };
    area.shutdown();
    out
}

/// ISSUE acceptance: the suppressed departure leaves the group silently
/// under-replicated (zero reactive repairs fired), the scrubber alone
/// converges it back to full redundancy in a bounded number of passes,
/// and two same-seed runs are byte-identical.
#[test]
fn suppressed_departure_heals_via_scrub_deterministically() {
    let seed = chaos_seed();
    let a = suppressed_heal_run(seed);
    assert!(a.suppressed >= 1, "the chaos rule never swallowed an event");
    assert_eq!(
        a.repair_runs, 0,
        "reactive repair must never fire — its trigger was suppressed"
    );
    assert!(
        a.scrub_reports[0].iter().any(|r| r.pushed > 0),
        "the first scrub pass must re-replicate the victim's blocks"
    );
    assert!(!a.trace_export.is_empty(), "1% loss injected nothing");
    let b = suppressed_heal_run(seed);
    assert_eq!(
        a.trace_export, b.trace_export,
        "fault-trace exports diverged for one seed"
    );
    assert_eq!(a, b, "heal outcomes diverged for one seed");
}

/// Everything one run of the double-crash scenario produced that must be
/// identical across runs with the same seed.
#[derive(Debug, PartialEq)]
struct DoubleCrashOutcome {
    trace_export: String,
    scrub_reports: Vec<Vec<ScrubReport>>,
    survivors: Vec<(u64, usize, u64)>,
}

/// One deterministic run of the double-crash scenario: four daemons,
/// replication 2, reactive repair off (the scrubber is the only healer).
/// Block 0's primary is killed first; after exactly one scrub pass on
/// one survivor — mid-heal, with re-replication underway but not yet
/// converged everywhere — a second server dies too. The scrubber must
/// converge the remaining pair from that compound degradation.
fn double_crash_run(seed: u64) -> DoubleCrashOutcome {
    const BLOCKS: u64 = 6;
    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    // Reactive repair off: scrub is the only repair path.
    let mut area = driven_area(plan, false, 4);
    let contact = area.contact();
    let first_victim = area.primary_of("p", 0, 2);

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.set_replication(2);
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; 128 * (b as usize + 1)]);
            handle
                .stage(BlockMeta::new("x", b, 0, payload.len()), &payload)
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        healed_rx.recv().unwrap();
        let r = handle.execute(0);
        assert!(
            matches!(&r, Err(e) if e.is_retryable()),
            "execute against the crashed members must fail retryably: {r:?}"
        );
        handle.refresh_view().unwrap();
        assert_eq!(handle.members().len(), 2);
        handle.activate(0).unwrap();
        handle.execute(0).unwrap();
        executed_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(0).unwrap();
    });

    staged_rx.recv().unwrap();
    area.kill(area.index_of(first_victim));
    area.settle();

    // One scrub pass on each survivor: the heal of crash #1 is underway
    // (every holder has pushed its under-replicated copies to their new
    // owners) but no steady pass has *verified* convergence — the
    // gauges are unsettled and no server earned a clean pass. Now the
    // second crash lands: the primary of block 1 under the *post-crash*
    // ring, so freshly re-replicated state is degraded again. (Every
    // survivor must get its one pass in first: anti-entropy pushes from
    // holders, so a holder that dies without ever scrubbing takes any
    // sole copy down with it — that is lost data, not residue.)
    let first_pass: Vec<ScrubReport> = area.daemons().iter().map(|d| d.scrub_sync()).collect();
    let mut scrub_reports = vec![first_pass];
    let second_victim = area.primary_of("p", 1, 2);
    area.kill(area.index_of(second_victim));
    area.settle();

    scrub_reports.append(&mut area.scrub_until_steady(10));
    // With k = 2 over 2 survivors, every survivor holds every block.
    for d in area.daemons() {
        assert_eq!(
            d.provider().store().len(),
            BLOCKS as usize,
            "every survivor must hold every block after the double heal"
        );
    }
    healed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    assert_each_block_fed_once(&area, BLOCKS, 0);
    done_tx.send(()).unwrap();
    sim.join();

    let out = DoubleCrashOutcome {
        trace_export: area.fault_trace_export(),
        scrub_reports,
        survivors: area.holdings(),
    };
    area.shutdown();
    out
}

/// ISSUE acceptance: a second primary dies mid-scrub of the first crash;
/// the scrubber still converges the remaining pair to full redundancy,
/// deterministically at the pinned seed.
#[test]
fn double_crash_mid_scrub_still_converges_deterministically() {
    let seed = chaos_seed();
    let a = double_crash_run(seed);
    assert!(
        a.scrub_reports.iter().flatten().any(|r| r.pushed > 0),
        "the scrub passes must have re-replicated something"
    );
    let b = double_crash_run(seed);
    assert_eq!(
        a.trace_export, b.trace_export,
        "fault-trace exports diverged for one seed"
    );
    assert_eq!(a, b, "double-crash outcomes diverged for one seed");
}

/// Satellite acceptance: a leaver whose drain is quota-refused parks its
/// leftovers in the pending-handoff set instead of abandoning them; the
/// scrubber re-offers them every pass, and once the quota is raised the
/// copies land — counted as `colza.store.scrub.reclaimed` — with zero
/// `drain.abandoned` losses.
#[test]
fn quota_refused_drain_parks_blocks_and_scrub_reclaims_them() {
    const BLOCKS: u64 = 6;
    const BLOCK_BYTES: usize = 256;
    let mut area = driven_area(FaultPlan::default(), false, 2);
    let contact = area.contact();

    // Tight quota: each server can hold up to five blocks of tenant "t"
    // — enough for its own staged share, never for the whole set — so
    // the leaver's drain gets quota-refused partway through.
    let tight = TenancyConfig::enforcing().with_tenant(
        "t",
        TenantConfig {
            staged_byte_quota: 5 * BLOCK_BYTES as u64 + BLOCK_BYTES as u64 / 2,
            ..TenantConfig::default()
        },
    );
    let generous = TenancyConfig::enforcing().with_tenant("t", TenantConfig::default());

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (left_tx, left_rx) = crossbeam::channel::bounded::<()>(1);
    let (relaxed_tx, relaxed_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let admin = &s.admin;
        let view = s.client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        admin.set_tenancy_on_all(&view, &tight).unwrap();
        let mut handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.set_tenant("t");
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; BLOCK_BYTES]);
            handle
                .stage(BlockMeta::new("x", b, 0, payload.len()), &payload)
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        // The harness stops the non-contact daemon; its drain is refused
        // at the survivor's quota and the leftovers ride the handoff.
        left_rx.recv().unwrap();
        // Raise the quota so the next scrub pass can finally place the
        // parked copies (the re-offer-on-next-pass satellite).
        admin.set_tenancy(contact, &generous).unwrap();
        relaxed_tx.send(()).unwrap();
        healed_rx.recv().unwrap();
        // The healed survivor is the whole deployment now: one poll of
        // the convergence probe must pass.
        assert_eq!(
            admin.wait_healthy(&[contact], 4, |_| {}),
            Some(1),
            "healed single-survivor deployment must report healthy"
        );
    });

    staged_rx.recv().unwrap();
    let leaver_held = area.daemons()[1].provider().store().len();
    assert!(
        leaver_held >= 1,
        "the leaver must hold staged blocks for the scenario to bite"
    );
    // Stop = drain + (on refusal) handoff. The tight quota guarantees
    // the survivor cannot absorb the full set through the normal drain.
    area.stop(1);
    // The goodbye may be refused while the iteration keeps the group
    // frozen; serialized probe rounds then mature suspicion into death.
    area.tick_until("the leaver never left the view", |a| {
        a.daemons()[0].view().len() == 1
    });
    let survivor = &area.daemons()[0];
    assert!(
        survivor.provider().pending_handoff_len() >= 1,
        "the refused drain must have parked leftovers in the handoff set"
    );
    // The drain's refused pushes are booked as quota refusals (per
    // tenant), like every other pass's — not as transient failures.
    assert!(
        area.shared()
            .trace_snapshot()
            .counter_total("colza.tenant.t.push_refused")
            >= 1,
        "a quota-refused drain push must count as push_refused for its tenant"
    );

    // First scrub pass: still quota-bound, so the parked copies are
    // re-offered and refused — parked again, not lost.
    let first = survivor.scrub_sync();
    assert!(first.refused >= 1, "the tight quota must refuse the re-offer");
    assert_eq!(first.reclaimed, 0);
    assert!(
        survivor.provider().pending_handoff_len() >= 1,
        "refused copies must stay parked for the next pass"
    );

    left_tx.send(()).unwrap();
    relaxed_rx.recv().unwrap();
    // Next pass after the quota raise: every parked copy lands.
    let second = survivor.scrub_sync();
    assert!(second.reclaimed >= 1, "raised quota must reclaim the parked copies");
    assert_eq!(survivor.provider().pending_handoff_len(), 0);
    assert_eq!(
        survivor.provider().store().len(),
        BLOCKS as usize,
        "every staged block must survive the refused drain"
    );

    let snap = area.shared().trace_snapshot();
    assert_eq!(
        snap.counter_total("colza.store.drain.abandoned"),
        0,
        "the handoff path must prevent abandonment"
    );
    assert!(snap.counter_total("colza.store.handoff.parked") >= 1);
    assert_eq!(
        snap.counter_total("colza.store.scrub.reclaimed"),
        second.reclaimed,
        "reclaim counter must match the report"
    );
    healed_tx.send(()).unwrap();
    sim.join();
    area.shutdown();
}

/// Tentpole acceptance: the supervisor classifies a crash (vs. a
/// voluntary leave), a replacement daemon joins through the normal join
/// path once the interrupted iteration unfreezes, the scrubber verifies
/// its holdings (flipping it Joining → Ready), and `wait_healthy`
/// converges over the replaced deployment — while an expected shrink
/// departure triggers no replacement.
#[test]
fn supervisor_replaces_crash_and_wait_healthy_converges() {
    const BLOCKS: u64 = 4;
    let mut area = driven_area(FaultPlan::default(), false, 3);
    let victim_addr = area.primary_of("p", 0, 2);
    // The client's contact must survive the crash (it keeps asking this
    // address for fresh views after the kill), and the supervisor must
    // observe membership from a survivor: the first daemon that is
    // definitely not the victim serves as both.
    let watcher = area
        .daemons()
        .iter()
        .find(|d| d.address() != victim_addr)
        .unwrap();
    let contact = watcher.address();
    let events = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    watcher
        .provider()
        .group()
        .observe(move |e| ev2.lock().unwrap().push(e));

    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (killed_tx, killed_rx) = crossbeam::channel::bounded::<()>(1);
    let (recovered_tx, recovered_rx) = crossbeam::channel::bounded::<()>(1);
    let (replaced_tx, replaced_rx) = crossbeam::channel::bounded::<Address>(1);
    let (staged2_tx, staged2_rx) = crossbeam::channel::bounded::<()>(1);
    let (scrubbed_tx, scrubbed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = area.client("sim", 8, move |s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
        handle.set_replication(2);
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; 256]);
            handle
                .stage(BlockMeta::new("x", b, 0, payload.len()), &payload)
                .unwrap();
        }
        staged_tx.send(()).unwrap();
        killed_rx.recv().unwrap();

        // Finish the interrupted iteration on the survivors; deactivate
        // unfreezes the group so the replacement can join.
        let r = handle.execute(0);
        assert!(
            matches!(&r, Err(e) if e.is_retryable()),
            "execute against the crashed member must fail retryably: {r:?}"
        );
        handle.refresh_view().unwrap();
        assert_eq!(handle.members().len(), 2);
        handle.activate(0).unwrap();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();
        recovered_tx.send(()).unwrap();

        // The replacement is in — but unverified: no clean scrub pass
        // yet, so the deployment must NOT yet report healthy.
        let newcomer = replaced_rx.recv().unwrap();
        let view = client.view_from(contact).unwrap();
        assert_eq!(view.len(), 3, "the replacement must be in the view");
        assert!(
            !admin.healthy(&view),
            "an unverified Joining replacement must not count as healthy"
        );
        admin.create_pipeline(newcomer, "null", "p", "").unwrap();

        // The next iteration runs over the replaced trio.
        handle.refresh_view().unwrap();
        assert_eq!(handle.members().len(), 3);
        handle.activate(1).unwrap();
        for b in 0..BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; 256]);
            handle
                .stage(BlockMeta::new("x", b, 1, payload.len()), &payload)
                .unwrap();
        }
        staged2_tx.send(()).unwrap();
        scrubbed_rx.recv().unwrap();
        assert_eq!(
            admin.wait_healthy(&view, 4, |_| {}),
            Some(1),
            "replaced and scrubbed deployment must report healthy"
        );
        handle.execute(1).unwrap();
        executed_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        handle.deactivate(1).unwrap();
    });

    staged_rx.recv().unwrap();
    let mut supervisor = Supervisor::new();
    area.kill(area.index_of(victim_addr));
    area.settle();
    killed_tx.send(()).unwrap();
    recovered_rx.recv().unwrap();

    // Feed the watcher's event stream to the supervisor: exactly one
    // Replace for the crash, regardless of how many SWIM events the
    // death produced.
    let seen: Vec<ssg::Event> = events.lock().unwrap().clone();
    let replaces: Vec<Address> = seen
        .iter()
        .filter_map(|e| match supervisor.observe(e) {
            SupervisorAction::Replace(addr) => Some(addr),
            SupervisorAction::Ignore => None,
        })
        .collect();
    assert_eq!(replaces, vec![victim_addr], "exactly one replacement decision");
    assert_eq!(
        supervisor.lifecycle_of(victim_addr),
        Some(ServerLifecycle::Dead)
    );

    // Spawn the replacement on a fresh node through the normal join path
    // (stale connection-file entries for the dead member are tolerated).
    let newcomer = area.grow(1)[0];
    area.settle();
    assert_eq!(
        area.daemons().last().unwrap().provider().lifecycle(),
        ServerLifecycle::Joining,
        "a fresh replacement with no commit and no clean scrub is Joining"
    );
    replaced_tx.send(newcomer).unwrap();

    staged2_rx.recv().unwrap();
    // Mid-iteration scrub over the trio verifies every holding against
    // the ring and gives each server the clean pass `healthy` demands.
    area.scrub_until_steady(8);
    assert_eq!(
        area.daemons().last().unwrap().provider().lifecycle(),
        ServerLifecycle::Ready,
        "a clean scrub pass flips the replacement to Ready"
    );
    scrubbed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    assert_each_block_fed_once(&area, BLOCKS, 1);

    // An *expected* departure must not trigger a second replacement.
    let leaver = area.daemons()[0].address();
    supervisor.expect_leave(leaver);
    assert_eq!(
        supervisor.observe(&ssg::Event::Died(leaver)),
        SupervisorAction::Ignore,
        "an expected shrink departure is voluntary, not a crash"
    );

    done_tx.send(()).unwrap();
    sim.join();
    area.shutdown();
}
