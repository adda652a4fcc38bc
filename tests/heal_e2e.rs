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
use std::time::Duration;

use bytes::Bytes;
use colza::{
    AdminClient, BlockMeta, ColzaClient, ColzaDaemon, DaemonConfig, ScrubReport, ServerLifecycle,
    Supervisor, SupervisorAction, TenancyConfig, TenantConfig,
};
use hpcsim::FaultPlan;
use margo::MargoInstance;
use na::{Address, Fabric};
use store::{BlockKey, HashRing, RingConfig};

/// The pinned chaos seed (override with `COLZA_CHAOS_SEED`).
fn chaos_seed() -> u64 {
    std::env::var("COLZA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A plan scoped to the retryable RPC plane (requests + responses).
fn rpc_scoped(plan: FaultPlan) -> FaultPlan {
    plan.scope_tags(na::tags::RPC_BASE, na::tags::MONA_BASE - 1)
}

fn env(name: &str, plan: FaultPlan) -> (hpcsim::Cluster, Fabric, DaemonConfig) {
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig {
        faults: plan,
        ..hpcsim::ClusterConfig::aries()
    });
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let conn = std::env::temp_dir().join(format!("colza-heal-{name}-{}.addrs", std::process::id()));
    std::fs::remove_file(&conn).ok();
    (cluster, fabric, DaemonConfig::new(conn))
}

/// Serialized SWIM rounds until every daemon's view has exactly `expect`
/// members (bounded; panics if convergence never happens).
fn settle_sync(daemons: &[ColzaDaemon], expect: usize) {
    for _ in 0..500 {
        if daemons.iter().all(|d| d.view().len() == expect) {
            // A few extra rounds so epochs converge too.
            for _ in 0..10 {
                for d in daemons {
                    d.tick_sync();
                }
            }
            return;
        }
        for d in daemons {
            d.tick_sync();
        }
    }
    panic!(
        "serialized gossip failed to converge at {expect}: {:?}",
        daemons.iter().map(|d| d.view().len()).collect::<Vec<_>>()
    );
}

/// Runs serialized scrub passes over all daemons until a steady pass —
/// one where nobody pushed, reclaimed, refused, failed, or measured any
/// residue — and returns the per-pass reports. The bound is the
/// convergence guarantee: a scrubber that keeps finding work past it is
/// failing to converge, and the test dies loudly.
fn scrub_until_steady(daemons: &[ColzaDaemon], max_passes: usize) -> Vec<Vec<ScrubReport>> {
    let mut all = Vec::new();
    for _ in 0..max_passes {
        let reports: Vec<ScrubReport> = daemons.iter().map(|d| d.scrub_sync()).collect();
        let steady = reports.iter().all(|r| {
            r.pushed == 0
                && r.reclaimed == 0
                && r.refused == 0
                && r.failed == 0
                && r.unreachable == 0
                && r.under_replicated == 0
                && r.orphans == 0
                && r.collected == 0
        });
        all.push(reports);
        if steady {
            return all;
        }
    }
    panic!("scrub never reached a steady pass: {all:?}");
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
fn suppressed_heal_run(seed: u64, tag: &str) -> SuppressedHealOutcome {
    const BLOCKS: u64 = 4;
    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    let (cluster, fabric, mut cfg) = env(&format!("suppress-{tag}"), plan);
    cluster.shared().tracer().set_enabled(true);
    cfg.tick_interval = Duration::from_secs(3600); // harness-driven only
    cfg.auto_repair = true; // reactive path armed — and provably silent
    let mut daemons: Vec<ColzaDaemon> = (0..3)
        .map(|i| ColzaDaemon::spawn(&cluster, &fabric, i, cfg.clone()))
        .collect();
    settle_sync(&daemons, 3);
    let contact = daemons[0].address();

    // The victim is block 0's primary under the shared three-member ring.
    let members: Vec<Address> = {
        let mut m: Vec<Address> = daemons.iter().map(|d| d.address()).collect();
        m.sort_unstable();
        m
    };
    let ring_cfg = RingConfig {
        replication: 2,
        ..RingConfig::default()
    };
    let shared = Arc::clone(cluster.shared());
    let ring = HashRing::build(&members, |a| shared.node_of(a.pid()), ring_cfg);
    let victim_addr = ring.primary(&BlockKey::new("p", 0)).unwrap();
    let victim_idx = daemons
        .iter()
        .position(|d| d.address() == victim_addr)
        .unwrap();
    // Arm the chaos rule: this member's departure is never observed.
    cluster
        .shared()
        .faults()
        .suppress_departure_now(victim_addr.0);

    let f2 = fabric.clone();
    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = cluster.spawn("sim", 8, move || {
        let margo = MargoInstance::init(&f2);
        let client = ColzaClient::new(Arc::clone(&margo));
        let admin = AdminClient::new(Arc::clone(&margo));
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
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
        margo.finalize();
    });

    staged_rx.recv().unwrap();
    // Quiesced crash point: client blocked, daemons idle.
    daemons.remove(victim_idx).kill();
    settle_sync(&daemons, 2);
    // The reactive path had every chance to fire by now — it must not
    // have: the only departure event was swallowed.
    let scrub_reports = scrub_until_steady(&daemons, 8);
    // Convergence in bounded virtual time: the final pass measured zero
    // under-replication and zero orphans on every survivor.
    for r in scrub_reports.last().unwrap() {
        assert_eq!(r.under_replicated, 0, "scrub left under-replication");
        assert_eq!(r.orphans, 0, "scrub left orphans");
    }
    // With k = 2 over 2 survivors, every survivor holds every block.
    for d in &daemons {
        assert_eq!(
            d.provider().store().len(),
            BLOCKS as usize,
            "every survivor must hold every block after the scrub"
        );
    }
    healed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    // Post-execute, pre-deactivate: each block fed exactly one backend.
    for b in 0..BLOCKS {
        let fed: usize = daemons
            .iter()
            .flat_map(|d| d.provider().store().snapshot())
            .filter(|x| x.key.block_id == b && x.fed)
            .count();
        assert_eq!(fed, 1, "block {b} must feed exactly one backend");
    }
    done_tx.send(()).unwrap();
    sim.join();

    let snap = cluster.shared().trace_snapshot();
    let mut survivors: Vec<(u64, usize, u64)> = daemons
        .iter()
        .map(|d| {
            let s = d.provider().store();
            (d.address().0, s.len(), s.staged_bytes())
        })
        .collect();
    survivors.sort_unstable();
    let mut trace = cluster.shared().faults().trace();
    trace.sort_unstable();
    let trace_export = trace
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<_>>()
        .join("\n");
    let out = SuppressedHealOutcome {
        trace_export,
        scrub_reports,
        suppressed: snap.counter_total("ssg.event.suppressed"),
        repair_runs: snap.counter_total("colza.store.repair.runs"),
        survivors,
    };
    for d in daemons {
        d.stop();
    }
    out
}

/// ISSUE acceptance: the suppressed departure leaves the group silently
/// under-replicated (zero reactive repairs fired), the scrubber alone
/// converges it back to full redundancy in a bounded number of passes,
/// and two same-seed runs are byte-identical.
#[test]
fn suppressed_departure_heals_via_scrub_deterministically() {
    let seed = chaos_seed();
    let a = suppressed_heal_run(seed, "a");
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
    let b = suppressed_heal_run(seed, "b");
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
fn double_crash_run(seed: u64, tag: &str) -> DoubleCrashOutcome {
    const BLOCKS: u64 = 6;
    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    let (cluster, fabric, mut cfg) = env(&format!("double-{tag}"), plan);
    cluster.shared().tracer().set_enabled(true);
    cfg.tick_interval = Duration::from_secs(3600); // harness-driven only
    cfg.auto_repair = false; // scrub is the only repair path
    let mut daemons: Vec<ColzaDaemon> = (0..4)
        .map(|i| ColzaDaemon::spawn(&cluster, &fabric, i, cfg.clone()))
        .collect();
    settle_sync(&daemons, 4);
    let contact = daemons[0].address();

    let members: Vec<Address> = {
        let mut m: Vec<Address> = daemons.iter().map(|d| d.address()).collect();
        m.sort_unstable();
        m
    };
    let ring_cfg = RingConfig {
        replication: 2,
        ..RingConfig::default()
    };
    let shared = Arc::clone(cluster.shared());
    let ring = HashRing::build(&members, |a| shared.node_of(a.pid()), ring_cfg);
    let first_victim = ring.primary(&BlockKey::new("p", 0)).unwrap();

    let f2 = fabric.clone();
    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = cluster.spawn("sim", 8, move || {
        let margo = MargoInstance::init(&f2);
        let client = ColzaClient::new(Arc::clone(&margo));
        let admin = AdminClient::new(Arc::clone(&margo));
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
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
        margo.finalize();
    });

    staged_rx.recv().unwrap();
    let idx = daemons
        .iter()
        .position(|d| d.address() == first_victim)
        .unwrap();
    daemons.remove(idx).kill();
    settle_sync(&daemons, 3);

    // One scrub pass on each survivor: the heal of crash #1 is underway
    // (every holder has pushed its under-replicated copies to their new
    // owners) but no steady pass has *verified* convergence — the
    // gauges are unsettled and no server earned a clean pass. Now the
    // second crash lands: the primary of block 1 under the *post-crash*
    // ring, so freshly re-replicated state is degraded again. (Every
    // survivor must get its one pass in first: anti-entropy pushes from
    // holders, so a holder that dies without ever scrubbing takes any
    // sole copy down with it — that is lost data, not residue.)
    let mut first_reports = vec![daemons.iter().map(|d| d.scrub_sync()).collect::<Vec<_>>()];
    let survivors3: Vec<Address> = {
        let mut m: Vec<Address> = daemons.iter().map(|d| d.address()).collect();
        m.sort_unstable();
        m
    };
    let shared2 = Arc::clone(cluster.shared());
    let ring3 = HashRing::build(&survivors3, |a| shared2.node_of(a.pid()), ring_cfg);
    let second_victim = ring3.primary(&BlockKey::new("p", 1)).unwrap();
    let idx2 = daemons
        .iter()
        .position(|d| d.address() == second_victim)
        .unwrap();
    daemons.remove(idx2).kill();
    settle_sync(&daemons, 2);

    let mut rest = scrub_until_steady(&daemons, 10);
    first_reports.append(&mut rest);
    // With k = 2 over 2 survivors, every survivor holds every block.
    for d in &daemons {
        assert_eq!(
            d.provider().store().len(),
            BLOCKS as usize,
            "every survivor must hold every block after the double heal"
        );
    }
    healed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    for b in 0..BLOCKS {
        let fed: usize = daemons
            .iter()
            .flat_map(|d| d.provider().store().snapshot())
            .filter(|x| x.key.block_id == b && x.fed)
            .count();
        assert_eq!(fed, 1, "block {b} must feed exactly one backend");
    }
    done_tx.send(()).unwrap();
    sim.join();

    let mut survivors: Vec<(u64, usize, u64)> = daemons
        .iter()
        .map(|d| {
            let s = d.provider().store();
            (d.address().0, s.len(), s.staged_bytes())
        })
        .collect();
    survivors.sort_unstable();
    let mut trace = cluster.shared().faults().trace();
    trace.sort_unstable();
    let trace_export = trace
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<_>>()
        .join("\n");
    let out = DoubleCrashOutcome {
        trace_export,
        scrub_reports: first_reports,
        survivors,
    };
    for d in daemons {
        d.stop();
    }
    out
}

/// ISSUE acceptance: a second primary dies mid-scrub of the first crash;
/// the scrubber still converges the remaining pair to full redundancy,
/// deterministically at the pinned seed.
#[test]
fn double_crash_mid_scrub_still_converges_deterministically() {
    let seed = chaos_seed();
    let a = double_crash_run(seed, "a");
    assert!(
        a.scrub_reports.iter().flatten().any(|r| r.pushed > 0),
        "the scrub passes must have re-replicated something"
    );
    let b = double_crash_run(seed, "b");
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
    let (cluster, fabric, mut cfg) = env("handoff", FaultPlan::default());
    cluster.shared().tracer().set_enabled(true);
    cfg.tick_interval = Duration::from_secs(3600); // harness-driven only
    cfg.auto_repair = false;
    let daemons: Vec<ColzaDaemon> = (0..2)
        .map(|i| ColzaDaemon::spawn(&cluster, &fabric, i, cfg.clone()))
        .collect();
    settle_sync(&daemons, 2);
    let contact = daemons[0].address();

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

    let f2 = fabric.clone();
    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (left_tx, left_rx) = crossbeam::channel::bounded::<()>(1);
    let (relaxed_tx, relaxed_rx) = crossbeam::channel::bounded::<()>(1);
    let (healed_tx, healed_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = cluster.spawn("sim", 8, move || {
        let margo = MargoInstance::init(&f2);
        let client = ColzaClient::new(Arc::clone(&margo));
        let admin = AdminClient::new(Arc::clone(&margo));
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        admin.set_tenancy_on_all(&view, &tight).unwrap();
        let mut handle = client.distributed_handle(contact, "p").unwrap();
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
        margo.finalize();
    });

    staged_rx.recv().unwrap();
    let mut rest = daemons.into_iter();
    let survivor = rest.next().unwrap();
    let leaver = rest.next().unwrap();
    let leaver_held = leaver.provider().store().len();
    assert!(
        leaver_held >= 1,
        "the leaver must hold staged blocks for the scenario to bite"
    );
    // Stop = drain + (on refusal) handoff. The tight quota guarantees
    // the survivor cannot absorb the full set through the normal drain.
    leaver.stop();
    // The goodbye may be refused while the iteration keeps the group
    // frozen; serialized probe rounds then mature suspicion into death.
    let mut rounds = 0;
    while survivor.view().len() > 1 {
        survivor.tick_sync();
        rounds += 1;
        assert!(rounds < 500, "the leaver never left the view");
    }
    assert!(
        survivor.provider().pending_handoff_len() >= 1,
        "the refused drain must have parked leftovers in the handoff set"
    );
    // The drain's refused pushes are booked as quota refusals (per
    // tenant), like every other pass's — not as transient failures.
    assert!(
        cluster
            .shared()
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

    let snap = cluster.shared().trace_snapshot();
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
    survivor.stop();
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
    let (cluster, fabric, mut cfg) = env("supervise", FaultPlan::default());
    cluster.shared().tracer().set_enabled(true);
    cfg.tick_interval = Duration::from_secs(3600); // harness-driven only
    cfg.auto_repair = false;
    let mut daemons: Vec<ColzaDaemon> = (0..3)
        .map(|i| ColzaDaemon::spawn(&cluster, &fabric, i, cfg.clone()))
        .collect();
    settle_sync(&daemons, 3);

    let members: Vec<Address> = {
        let mut m: Vec<Address> = daemons.iter().map(|d| d.address()).collect();
        m.sort_unstable();
        m
    };
    let ring_cfg = RingConfig {
        replication: 2,
        ..RingConfig::default()
    };
    let shared = Arc::clone(cluster.shared());
    let ring = HashRing::build(&members, |a| shared.node_of(a.pid()), ring_cfg);
    let victim_addr = ring.primary(&BlockKey::new("p", 0)).unwrap();
    // The client's contact must survive the crash: it keeps asking this
    // address for fresh views after the kill.
    let contact = daemons
        .iter()
        .map(|d| d.address())
        .find(|&a| a != victim_addr)
        .unwrap();
    // Observe membership from a survivor that is definitely not the
    // victim; its event stream drives the supervisor.
    let watcher_idx = daemons
        .iter()
        .position(|d| d.address() != victim_addr)
        .unwrap();
    let events = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    daemons[watcher_idx]
        .provider()
        .group()
        .observe(move |e| ev2.lock().unwrap().push(e));

    let f2 = fabric.clone();
    let (staged_tx, staged_rx) = crossbeam::channel::bounded::<()>(1);
    let (killed_tx, killed_rx) = crossbeam::channel::bounded::<()>(1);
    let (recovered_tx, recovered_rx) = crossbeam::channel::bounded::<()>(1);
    let (replaced_tx, replaced_rx) = crossbeam::channel::bounded::<Address>(1);
    let (staged2_tx, staged2_rx) = crossbeam::channel::bounded::<()>(1);
    let (scrubbed_tx, scrubbed_rx) = crossbeam::channel::bounded::<()>(1);
    let (executed_tx, executed_rx) = crossbeam::channel::bounded::<()>(1);
    let (done_tx, done_rx) = crossbeam::channel::bounded::<()>(1);
    let sim = cluster.spawn("sim", 8, move || {
        let margo = MargoInstance::init(&f2);
        let client = ColzaClient::new(Arc::clone(&margo));
        let admin = AdminClient::new(Arc::clone(&margo));
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
        margo.finalize();
    });

    staged_rx.recv().unwrap();
    let mut supervisor = Supervisor::new();
    let victim_idx = daemons
        .iter()
        .position(|d| d.address() == victim_addr)
        .unwrap();
    daemons.remove(victim_idx).kill();
    settle_sync(&daemons, 2);
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
    let replacement = ColzaDaemon::spawn(&cluster, &fabric, 3, cfg.clone());
    let newcomer = replacement.address();
    daemons.push(replacement);
    settle_sync(&daemons, 3);
    assert_eq!(
        daemons.last().unwrap().provider().lifecycle(),
        ServerLifecycle::Joining,
        "a fresh replacement with no commit and no clean scrub is Joining"
    );
    replaced_tx.send(newcomer).unwrap();

    staged2_rx.recv().unwrap();
    // Mid-iteration scrub over the trio verifies every holding against
    // the ring and gives each server the clean pass `healthy` demands.
    scrub_until_steady(&daemons, 8);
    assert_eq!(
        daemons.last().unwrap().provider().lifecycle(),
        ServerLifecycle::Ready,
        "a clean scrub pass flips the replacement to Ready"
    );
    scrubbed_tx.send(()).unwrap();

    executed_rx.recv().unwrap();
    for b in 0..BLOCKS {
        let fed: usize = daemons
            .iter()
            .flat_map(|d| d.provider().store().snapshot())
            .filter(|x| x.key.block_id == b && x.iteration == 1 && x.fed)
            .count();
        assert_eq!(fed, 1, "block {b} must feed exactly one backend");
    }

    // An *expected* departure must not trigger a second replacement.
    supervisor.expect_leave(daemons[0].address());
    assert_eq!(
        supervisor.observe(&ssg::Event::Died(daemons[0].address())),
        SupervisorAction::Ignore,
        "an expected shrink departure is voluntary, not a crash"
    );

    done_tx.send(()).unwrap();
    sim.join();
    for d in daemons {
        d.stop();
    }
}
