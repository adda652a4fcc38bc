//! Chaos tests: whole-system flows under injected faults.
//!
//! Every scenario runs against a [`hpcsim::FaultPlan`] attached to the
//! cluster, so the chaos is deterministic: the plan's seed fully decides
//! which messages are dropped, delayed, duplicated, or reordered. The
//! seed is pinned through `COLZA_CHAOS_SEED` (default 42) so a failing
//! run can be reproduced exactly.
//!
//! Loss is scoped to the RPC tag plane (requests and responses): the RPC
//! layer owns retry and duplicate suppression, while MoNA/MPI collectives
//! model a reliable transport underneath (they have no retry layer and an
//! unscoped drop would wedge a reduction forever).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use colza::daemon::wait_until;
use colza::{
    BlockMeta, ColzaError, DistributedPipelineHandle, PriorityClass, StagingArea, TenancyConfig,
    TenantConfig,
};
use colza_bench::scenarios::crash::{
    assert_each_block_fed_once, driven_trio, iterate_on_fresh_view, null_iteration,
    promoted_blocks, recover_on_survivors, rpc_scoped, stage_replicated,
};
use colza_bench::scenarios::recovery;
use colza_repro::chaos_seed;
use hpcsim::{ClusterConfig, FaultPlan};
use margo::{MargoInstance, RetryConfig};
use na::Fabric;

/// The aries cluster with `plan` attached to its fabric.
fn faulty(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        faults: plan,
        ..ClusterConfig::aries()
    }
}

/// Retries `op` through retryable failures (a draining refusal, a dead
/// target, an aborted 2PC), refreshing the handle's view in between;
/// any other failure is fatal.
fn through_churn<T>(
    what: &str,
    handle: &DistributedPipelineHandle,
    mut op: impl FnMut() -> Result<T, ColzaError>,
) -> T {
    let mut out = None;
    wait_until(what, || match op() {
        Ok(v) => {
            out = Some(v);
            true
        }
        Err(e) if e.is_retryable() => {
            let _ = handle.refresh_view();
            false
        }
        Err(e) => panic!("{what}: hard failure: {e}"),
    });
    out.expect("wait_until returned")
}

/// A provider crashes in the middle of the activate 2PC. The prepare
/// round fails fast on the dead endpoint, the coordinator aborts, and the
/// client's retry loop adopts the survivor view once SWIM notices.
#[test]
fn activate_recovers_when_a_provider_crashes_mid_2pc() {
    let mut area = StagingArea::new(faulty(FaultPlan::default()));
    area.launch(3, 1);
    let contact = area.contact();

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| null_iteration(s, contact, 3));

    // The harness crashes a provider *now*; the next activate walks
    // straight into the dead member mid-prepare. Abort-and-retry: each
    // failure refreshes to whatever view the survivors have converged on
    // by then.
    area.kill(2);
    let members = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            sim.run(|_| {
                through_churn("activate never recovered from the crash", &handle, || {
                    handle.activate(1)
                });
                let members = handle.members().len();
                handle.execute(1).unwrap();
                handle.deactivate(1).unwrap();
                members
            })
        });
        // Drive gossip so suspicion matures while the client keeps retrying.
        area.settle();
        client.join().expect("the retrying client panicked")
    });
    drop(sim);
    assert_eq!(members, 2, "2PC must complete on the survivor view");
    area.shutdown();
}

/// A full stage/execute pipeline runs to completion through 2% message
/// loss (plus a little duplication) on the RPC plane.
#[test]
fn stage_and_execute_complete_through_message_loss() {
    let plan = rpc_scoped(
        FaultPlan::seeded(chaos_seed())
            .with_loss(0.02)
            .with_duplication(0.002),
    );
    let mut area = StagingArea::new(faulty(plan));
    area.launch(2, 1);
    let contact = area.contact();
    let script = catalyst::PipelineScript::mandelbulb(48, 48).to_json();

    let coverage = area.session("sim", 8).run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "m", &script)
            .unwrap();
        let handle = s.client.distributed_handle(contact, "m").unwrap();
        let bulb = sims::mandelbulb::Mandelbulb {
            dims: [12, 12, 12],
            ..Default::default()
        };
        let mut cov = -1.0;
        for iteration in 0..3u64 {
            handle.activate(iteration).unwrap();
            for b in 0..2u64 {
                let payload = colza::codec::dataset_to_bytes(&bulb.generate_block(b as usize, 2));
                handle
                    .stage(BlockMeta::new("m", b, iteration, payload.len()), &payload)
                    .unwrap();
            }
            handle.execute(iteration).unwrap();
            let img = handle.fetch_result().unwrap().expect("image");
            cov = vizkit::Image::from_bytes(&img).coverage();
            handle.deactivate(iteration).unwrap();
        }
        cov
    });
    assert!(
        area.shared().faults().fault_count() > 0,
        "the plan injected nothing — the scenario tested a clean wire"
    );
    assert!(coverage > 0.0, "final image empty under loss: {coverage}");
    area.shutdown();
}

/// A network partition opens while the staging area is growing: the
/// joiner's first contact sits on the wrong side of the cut, so its join
/// retries fail over to a reachable member. After the partition heals,
/// all four daemons converge on one view and the protocol completes.
#[test]
fn elastic_grow_survives_a_partition_that_later_heals() {
    let mut area = StagingArea::new(faulty(FaultPlan::default()));
    // Long suspicion budget: nobody may be declared dead (permanently in
    // this SWIM variant) over a partition we intend to heal; short probe
    // timeouts keep the partitioned rounds quick.
    let cfg = area.config_mut();
    cfg.ssg.swim.suspect_rounds = 500;
    cfg.ssg.ping_timeout = Duration::from_millis(50);
    cfg.rpc_timeout = Duration::from_millis(100);
    area.launch(3, 1);
    let contact0 = area.contact();

    // Cut node 0 (the first daemon — and the joiner's first contact) off
    // from everyone else, then grow.
    area.shared().faults().partition_now(&[0], &[1, 2, 3]);
    area.grow(1);

    // A few probe rounds inside the partition: failures surface as
    // suspicion, never as death.
    area.tick_rounds(3);

    area.shared().faults().heal_partitions();
    area.settle();

    let members = area.session("sim", 8).run(|s| {
        let view = s.client.view_from(contact0).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "null", "p", "")
            .unwrap();
        let handle = s.client.distributed_handle(contact0, "p").unwrap();
        handle.activate(0).unwrap();
        let n = handle.members().len();
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();
        n
    });
    assert_eq!(members, 4, "healed group must serve with all four members");
    area.shutdown();
}

/// One deterministic run of a sequential RPC workload under loss, delay,
/// and reorder. Returns the injector's fault trace and the client's final
/// virtual time.
///
/// Duplication is deliberately absent: whether a duplicate is answered
/// from the reply cache or dropped as in-flight depends on a real-time
/// race in the handler, which perturbs virtual clocks. Everything else is
/// decided by per-link counters and the plan seed alone.
fn deterministic_run(seed: u64) -> (Vec<hpcsim::FaultRecord>, u64, hpcsim::TraceSnapshot) {
    let plan = rpc_scoped(
        FaultPlan::seeded(seed)
            .with_loss(0.05)
            .with_delay(0.2, 10_000, 50_000)
            .with_reorder(0.1),
    );
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig {
        faults: plan,
        ..hpcsim::ClusterConfig::aries()
    });
    cluster.shared().tracer().set_enabled(true);
    let fabric = Fabric::new(Arc::clone(cluster.shared()));

    let (addr_tx, addr_rx) = crossbeam::channel::bounded(1);
    let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
    let f2 = fabric.clone();
    let server = cluster.spawn("server", 1, move || {
        let margo = MargoInstance::init(&f2);
        margo.register("echo", |x: u64, _ctx: &margo::CallCtx| Ok(x.wrapping_mul(3)));
        addr_tx.send(margo.address()).unwrap();
        stop_rx.recv().ok();
        margo.finalize();
    });
    let dst = addr_rx.recv().unwrap();

    let f3 = fabric.clone();
    let final_time = cluster
        .spawn("client", 0, move || {
            let margo = MargoInstance::init(&f3);
            // Generous per-try timeout: only injected drops may trigger a
            // retry, never host scheduling jitter.
            let cfg = RetryConfig {
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
                per_try_timeout: Duration::from_millis(200),
                deadline: Some(Duration::from_secs(60)),
                ..Default::default()
            };
            for i in 0..30u64 {
                let r: u64 = margo.forward_retry(dst, "echo", &i, &cfg).unwrap();
                assert_eq!(r, i.wrapping_mul(3));
            }
            let now = hpcsim::current().now();
            margo.finalize();
            now
        })
        .join();
    stop_tx.send(()).unwrap();
    server.join();
    let snapshot = cluster.shared().trace_snapshot();
    (cluster.shared().faults().trace(), final_time, snapshot)
}

/// The acceptance property of the fault plan: the same seed reproduces
/// the exact fault trace *and* the exact virtual-time outcome across two
/// fresh clusters; a different seed produces a different trace.
#[test]
fn same_seed_reproduces_the_exact_virtual_time_trace() {
    let seed = chaos_seed();
    let (trace_a, time_a, _) = deterministic_run(seed);
    let (trace_b, time_b, _) = deterministic_run(seed);
    assert!(!trace_a.is_empty(), "plan injected nothing at 5% loss");
    assert_eq!(trace_a, trace_b, "fault traces diverged for one seed");
    assert_eq!(time_a, time_b, "virtual end times diverged for one seed");

    let (trace_c, _, _) = deterministic_run(seed.wrapping_add(1));
    assert_ne!(trace_a, trace_c, "distinct seeds produced identical chaos");
}

/// What the injector says it did is exactly what the observability layer
/// saw happen: every `Drop` record in the canonical fault trace is one
/// `na.dropped.msgs` increment, and on the retryable RPC plane every drop
/// costs precisely one timed-out attempt and one retry.
#[test]
fn injected_faults_reconcile_with_observed_counters() {
    let (trace, _, snap) = deterministic_run(chaos_seed());

    let injected_drops = trace
        .iter()
        .filter(|r| matches!(r.kind, hpcsim::FaultKind::Drop))
        .count() as u64;
    let injected_dups = trace
        .iter()
        .filter(|r| matches!(r.kind, hpcsim::FaultKind::Duplicate))
        .count() as u64;
    assert!(injected_drops > 0, "5% loss over 30 RPCs injected nothing");
    assert_eq!(
        snap.counter_total("na.dropped.msgs"),
        injected_drops,
        "drop counter disagrees with the injector's canonical trace"
    );
    assert_eq!(snap.counter_total("na.duplicated.msgs"), injected_dups);

    // Each failed attempt lost exactly one message (its request, or the
    // reply — original or replayed), and the generous per-try timeout
    // means nothing else can fail an attempt. All calls succeed, so every
    // timeout was retried: drops == timeouts == retries.
    let retries = snap.counter_total("rpc.retries");
    assert_eq!(snap.counter_total("rpc.timeouts"), retries);
    assert_eq!(injected_drops, retries);
    assert_eq!(snap.counter_total("rpc.retry.giveup"), 0);

    // 30 logical calls: one send per attempt, one handler execution per
    // request id (dedup absorbs re-deliveries), and the NA plane counted
    // every message anyone put on the wire — dropped ones included.
    assert_eq!(snap.counter_total("rpc.sent.msgs"), 30 + retries);
    assert_eq!(snap.counter_total("rpc.handled.msgs"), 30);
    assert_eq!(
        snap.counter_total("na.plane.rpc.msgs"),
        snap.counter_total("rpc.sent.msgs")
            + snap.counter_total("rpc.handled.msgs")
            + snap.counter_total("rpc.dedup.replayed")
    );
}

/// Everything one run of the replica-recovery scenario produced that must
/// be identical across runs with the same seed: the canonical fault-trace
/// export, the store-migration counter totals, and the survivors' final
/// holdings.
#[derive(Debug, PartialEq)]
struct RecoveryOutcome {
    /// Canonical (sorted, line-per-record) export of the fault trace.
    trace_export: String,
    /// Replica promotions at either promotion point.
    promoted: u64,
    /// `colza.store.recv.blocks`: blocks received over server pushes.
    pushed: u64,
    /// Per-survivor `(address, blocks held, staged bytes)`, sorted.
    survivors: Vec<(u64, usize, u64)>,
}

/// One deterministic run of the acceptance scenario (ISSUE: resilient
/// staging store): three harness-driven daemons with replication 2, a
/// client that stages four blocks, then a crash of block 0's primary
/// *after* `stage` and *before* `execute`. The daemons never tick on
/// their own (huge tick interval, auto-repair off): every SWIM round is a
/// serialized `tick_sync` from this thread, so the whole run — fault
/// stream included — is a pure function of the seed.
///
/// Recovery is client-driven: `execute` against the frozen view fails
/// fast on the dead member (though the survivors' execute-time role
/// pass already promotes the dead primary's replicas), the
/// client refreshes and re-activates the same iteration, and the
/// commit-boundary sync re-replicates what is still missing. The client
/// never re-stages a block.
fn replica_recovery_run(seed: u64) -> RecoveryOutcome {
    const BLOCKS: u64 = 4;
    let total_bytes: u64 = (0..BLOCKS).map(|b| 256 * (b + 1)).sum();

    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    let mut area = driven_trio(plan, |_| {});
    let contact = area.contact();

    // The victim is block 0's primary under the ring the client and the
    // servers will both compute over the three-member view.
    let victim_addr = area.primary_of("p", 0, 2);

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| stage_replicated(s, contact, BLOCKS, 256));

    // Quiesced crash point: client between steps, daemons idle. Then
    // serialized SWIM rounds until both survivors declare the death.
    area.kill(area.index_of(victim_addr));
    area.settle();

    sim.run(|_| recover_on_survivors(&handle, 0, 2));
    // Post-execute, pre-deactivate: with k = 2 over 2 survivors, every
    // survivor holds every block, and each block is fed exactly once
    // across the group.
    for d in area.daemons() {
        let s = d.provider().store();
        assert_eq!(s.len(), BLOCKS as usize, "every survivor holds every block");
        assert_eq!(s.staged_bytes(), total_bytes);
    }
    assert_each_block_fed_once(&area, BLOCKS, 0);
    sim.run(|_| handle.deactivate(0).unwrap());
    drop(sim);

    let snap = area.shared().trace_snapshot();
    let out = RecoveryOutcome {
        trace_export: area.fault_trace_export(),
        promoted: promoted_blocks(&snap),
        pushed: snap.counter_total("colza.store.recv.blocks"),
        survivors: area.holdings(),
    };
    area.shutdown();
    out
}

/// ISSUE acceptance: a staging server crashes after `stage` and before
/// `execute` with replication factor 2; `execute` completes from the
/// replicas with no resubmission, and the same seed yields a
/// byte-identical fault-trace export (plus identical migration counters
/// and final holdings).
#[test]
fn crashed_primary_recovers_from_replicas_deterministically() {
    let seed = chaos_seed();
    let a = replica_recovery_run(seed);
    assert!(
        a.promoted >= 1,
        "the crashed primary's blocks must be promoted on a replica"
    );
    assert!(a.pushed >= 1, "re-replication must push blocks");
    assert!(!a.trace_export.is_empty(), "1% loss injected nothing");
    let b = replica_recovery_run(seed);
    assert_eq!(
        a.trace_export, b.trace_export,
        "fault-trace exports diverged for one seed"
    );
    assert_eq!(a, b, "recovery outcomes diverged for one seed");
}

/// ISSUE acceptance: a server killed mid-execute — inside a MoNA
/// collective round, via the send-count crash rule — causes no hang.
/// Survivors get `Revoked` and abort, the client re-activates on the
/// shrunk view and re-executes from store replicas, and two same-seed
/// runs produce byte-identical output and fault traces.
#[test]
fn mid_collective_crash_aborts_and_recovers_deterministically() {
    let report = recovery::run(2, 4, chaos_seed());
    let violations = recovery::check(&report);
    assert!(violations.is_empty(), "{violations:#?}");
    let outcome = |r: &recovery::Row| {
        (
            r.trace_export.clone(),
            r.image.0.clone(),
            [r.aborted, r.recoveries, r.revoke_sent, r.promoted],
        )
    };
    let [a, b] = &report.rows[..] else {
        unreachable!("two runs")
    };
    assert_eq!(
        outcome(a),
        outcome(b),
        "crash-recovery outcomes diverged for one seed"
    );
}

/// Everything one run of the codec crash-repair scenario produced that
/// must be identical across runs with the same seed.
#[derive(Debug, PartialEq)]
struct CodecCrashOutcome {
    /// Canonical (sorted, line-per-record) export of the fault trace.
    trace_export: String,
    /// The recovered iteration's rendered image, byte for byte.
    image: Vec<u8>,
    /// Replica promotions at either promotion point.
    promoted: u64,
    /// `colza.store.recv.blocks`: blocks received over server pushes.
    pushed: u64,
    /// `colza.codec.enc.delta_diff.frames`: delta frames the client cut.
    delta_frames: u64,
    /// Per-survivor `(address, blocks held, staged encoded bytes)`, sorted.
    survivors: Vec<(u64, usize, u64)>,
}

/// A smooth "v" field block for the Gray–Scott render script: spans the
/// contour isovalues, drifts slightly per iteration (so iteration 1 is a
/// genuine small delta over iteration 0, same byte length).
fn codec_block_payload(dim: usize, block: u64, iteration: u64) -> Bytes {
    use vizkit::data::{DataArray, ImageData};
    let mut g = ImageData::new([dim, dim, dim]);
    g.origin = [0.0, 0.0, (block as usize * dim) as f32];
    let v: Vec<f32> = (0..dim * dim * dim)
        .map(|j| {
            let phase = j as f32 * 0.05 + block as f32;
            0.3 + 0.25 * phase.sin() + 0.002 * iteration as f32
        })
        .collect();
    g.point_data.set("v", DataArray::F32(v));
    colza::codec::dataset_to_bytes(&vizkit::DataSet::Image(g))
}

/// One deterministic run of the codec crash-repair scenario (DESIGN.md
/// §13): the client stages with the delta codec, so iteration 0 anchors
/// full frames and iteration 1 cuts delta-diff frames against them. Block
/// 0's primary — holding compressed, delta-encoded blocks — is killed
/// after the iteration-1 stage and before its execute. Recovery promotes
/// the dead server's replicas (decoding from their eagerly reconstructed
/// plains) and re-replicates over server pushes that carry the diff frame
/// plus the reconstructed plain, so the fresh owner never needs a base
/// the survivor set lost. The recovered execute then renders the image.
fn codec_crash_run(seed: u64) -> CodecCrashOutcome {
    const BLOCKS: u64 = 4;
    const DIM: usize = 12;

    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    let mut area = driven_trio(plan, |_| {});
    let contact = area.contact();

    // The victim is block 0's primary under the shared ring.
    let victim_addr = area.primary_of("g", 0, 2);

    let script = catalyst::PipelineScript::gray_scott(48, 48).to_json();
    let sim = area.session("sim", 8);
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin
            .create_pipeline_on_all(&view, "catalyst", "g", &script)
            .unwrap();
        let mut handle = s.client.distributed_handle(contact, "g").unwrap();
        handle.set_replication(2);
        handle.set_codec(colza::CodecConfig::uniform(colza::CodecSpec::Delta));

        // Iteration 0: every block anchors a self-contained full frame.
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            let payload = codec_block_payload(DIM, b, 0);
            handle
                .stage(BlockMeta::new("g", b, 0, payload.len()), &payload)
                .unwrap();
        }
        handle.execute(0).unwrap();
        handle.deactivate(0).unwrap();

        // Iteration 1: same-shaped blocks ride as delta-diff frames.
        handle.activate(1).unwrap();
        for b in 0..BLOCKS {
            let payload = codec_block_payload(DIM, b, 1);
            handle
                .stage(BlockMeta::new("g", b, 1, payload.len()), &payload)
                .unwrap();
        }
        handle
    });

    // Quiesced crash point: client between steps, daemons idle.
    area.kill(area.index_of(victim_addr));
    area.settle();

    let img = sim.run(|_| {
        recover_on_survivors(&handle, 1, 2);
        handle.fetch_result().unwrap().expect("image")
    });

    // Post-recovery, pre-deactivate: both survivors hold every iteration-1
    // block and each block fed exactly one backend.
    for d in area.daemons() {
        assert_eq!(d.provider().store().len(), BLOCKS as usize);
    }
    assert_each_block_fed_once(&area, BLOCKS, 1);
    sim.run(|_| handle.deactivate(1).unwrap());
    drop(sim);

    let snap = area.shared().trace_snapshot();
    // Every reconstructed plain a push carried was received in full.
    assert_eq!(
        snap.counter_total("colza.codec.push.plain_bytes"),
        snap.counter_total("colza.store.recv.plain_bytes"),
        "pushed and received plain-payload bytes disagree"
    );
    let out = CodecCrashOutcome {
        trace_export: area.fault_trace_export(),
        image: img,
        promoted: promoted_blocks(&snap),
        pushed: snap.counter_total("colza.store.recv.blocks"),
        delta_frames: snap.counter_total("colza.codec.enc.delta_diff.frames"),
        survivors: area.holdings(),
    };
    area.shutdown();
    out
}

/// ISSUE acceptance: a crashed primary holding compressed, delta-encoded
/// blocks is repaired from replicas, the next execute renders, and two
/// same-seed runs produce byte-identical images and fault traces.
#[test]
fn crashed_primary_with_delta_blocks_repairs_and_renders_deterministically() {
    let seed = chaos_seed();
    let a = codec_crash_run(seed);
    assert!(
        a.delta_frames >= 1,
        "iteration 1 must have staged delta-diff frames"
    );
    assert!(a.promoted >= 1, "the victim's blocks must be promoted");
    assert!(a.pushed >= 1, "re-replication must push blocks");
    assert!(
        vizkit::Image::from_bytes(&a.image).coverage() > 0.0,
        "recovered iteration rendered an empty image"
    );
    let b = codec_crash_run(seed);
    assert_eq!(
        a.trace_export, b.trace_export,
        "fault-trace exports diverged for one seed"
    );
    assert_eq!(a, b, "codec crash-repair outcomes diverged for one seed");
}

/// Satellite: an admin `request_leave` lands while the client is mid-
/// iteration, still staging. The leaver drains its blocks to the
/// surviving owners (refusing any stage that races past the drain
/// snapshot), the client re-routes refused/failed blocks through the
/// surviving view, and at the end every block is held and fed exactly
/// once — nothing rides the leaver down.
#[test]
fn request_leave_during_staging_loses_no_block() {
    const BLOCKS: u64 = 6;
    let total_bytes: u64 = (0..BLOCKS).map(|b| 256 * (b + 1)).sum();
    let plan = rpc_scoped(FaultPlan::seeded(chaos_seed()).with_loss(0.01));
    let mut area = StagingArea::new(faulty(plan));
    area.launch(3, 1);
    let contact = area.contact();
    // Leave the server that owns block 0, so at least one staged block
    // must provably survive the departure.
    let victim_addr = area.primary_of("p", 0, 1);

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| {
        let view = s.client.view_from(contact).unwrap();
        s.admin.create_pipeline_on_all(&view, "null", "p", "").unwrap();
        let handle = s.client.distributed_handle(contact, "p").unwrap();
        handle.activate(0).unwrap();
        for b in 0..BLOCKS {
            if b == 2 {
                // Mid-staging shrink trigger: the victim starts draining
                // while blocks are still arriving.
                s.admin.request_leave(victim_addr).unwrap();
            }
            let payload = Bytes::from(vec![b as u8 + 1; 256 * (b as usize + 1)]);
            let meta = BlockMeta::new("x", b, 0, payload.len());
            // Draining refusal or dead target: wait out the view change
            // and re-route.
            through_churn(&format!("block {b} was never staged"), &handle, || {
                handle.stage(meta.clone(), &payload)
            });
        }
        let mut attempts = 0;
        through_churn("execute never completed after the leave", &handle, || {
            // After a failed attempt, re-commit the iteration on the
            // fresh view; the commit sync settles the drained blocks'
            // new primaries.
            attempts += 1;
            if attempts > 1 {
                let _ = handle.activate(0);
            }
            handle.execute(0)
        });
        handle
    });

    // Wait for the departure to fully settle — drain finished (the
    // leaver's store is empty) and the survivors no longer list it — so
    // holdings are quiescent before asserting on them.
    let victim = area.index_of(victim_addr);
    wait_until("the leave never completed", || {
        let gone = area
            .daemons()
            .iter()
            .enumerate()
            .all(|(i, d)| i == victim || !d.view().contains(&victim_addr));
        gone && area.daemons()[victim].provider().store().is_empty()
    });
    // Post-execute, pre-deactivate: every block exists somewhere, is fed
    // exactly once across the whole group, and no byte went missing.
    let held = area.held();
    let mut held_bytes = 0u64;
    for b in 0..BLOCKS {
        let copies: Vec<_> = held.iter().filter(|x| x.key.block_id == b).collect();
        assert!(!copies.is_empty(), "block {b} was lost in the leave");
        held_bytes += copies.iter().map(|x| x.data.len() as u64).sum::<u64>();
    }
    assert_eq!(held_bytes, total_bytes, "bytes lost or duplicated");
    assert_each_block_fed_once(&area, BLOCKS, 0);
    sim.run(|_| {
        through_churn("deactivate never completed", &handle, || {
            handle.deactivate(0)
        })
    });
    drop(sim);

    // The leaver may have already shut down on its own; stopping an
    // exited daemon just joins it.
    area.shutdown();
}

/// The original end-to-end failure scenario, now with 1% message loss on
/// top of the crash: SWIM still detects the kill and the protocol still
/// recovers on the survivors.
#[test]
fn killed_server_is_detected_under_one_percent_loss() {
    let plan = rpc_scoped(FaultPlan::seeded(chaos_seed()).with_loss(0.01));
    let mut area = StagingArea::new(faulty(plan));
    area.launch(3, 1);
    let contact = area.contact();

    let sim = area.session("sim", 8);
    let handle = sim.run(|s| null_iteration(s, contact, 3));

    area.kill(2);
    area.settle();
    let n = sim.run(|_| iterate_on_fresh_view(&handle, 1));
    drop(sim);
    assert_eq!(n, 2, "protocol must continue on the survivors despite loss");
    area.shutdown();
}

/// Everything one run of the noisy-tenant crash scenario produced that
/// must be identical across runs with the same seed.
#[derive(Debug, PartialEq)]
struct TenantCrashOutcome {
    /// Canonical (sorted, line-per-record) export of the fault trace.
    trace_export: String,
    /// Quota refusals the noisy tenant's flood collected client-side.
    client_refusals: u64,
    /// `colza.qos.quota.refused`: server-side refusals (the flood plus
    /// any over-quota repair pushes after the crash).
    refused: u64,
    /// Replica promotions at either promotion point.
    promoted: u64,
    /// `colza.store.recv.blocks`: blocks received over server pushes.
    pushed: u64,
    /// Per-survivor `(address, wb staged bytes, noisy staged bytes)` at
    /// the post-recovery, pre-deactivate quiesce point, sorted.
    survivors: Vec<(u64, u64, u64)>,
}

/// The tenancy policy for the crash scenario: the noisy tenant gets a
/// 2.5-block per-server quota, the well-behaved tenant is unlimited.
fn tenant_crash_policy(block: usize) -> TenancyConfig {
    TenancyConfig::enforcing()
        .with_tenant(
            "noisy",
            TenantConfig {
                staged_byte_quota: 2 * block as u64 + block as u64 / 2,
                priority: PriorityClass::Bronze,
                ..TenantConfig::default()
            },
        )
        .with_tenant(
            "wb",
            TenantConfig {
                priority: PriorityClass::Gold,
                ..TenantConfig::default()
            },
        )
}

/// One deterministic run of the noisy-tenant crash scenario: two tenants
/// share a three-daemon staging area (replication 2, quotas enforced).
/// The well-behaved tenant stages four blocks; the noisy tenant floods
/// until its per-server quota bounces it. Then the noisy pipeline's
/// block-0 primary is killed at a quiesced point mid-iteration. Recovery
/// (view refresh, re-activate, commit-boundary sync) promotes replicas
/// and re-replicates — with repair pushes of *noisy* blocks themselves
/// subject to the quota on the receiving server — and the well-behaved
/// tenant's data comes through fully replicated. After release, the
/// noisy tenant's backed-off stage goes through: crash repair and quota
/// backpressure compose.
fn tenant_crash_run(seed: u64) -> TenantCrashOutcome {
    const WB_BLOCKS: u64 = 4;
    const NOISY_BLOCK: usize = 1024;
    /// Flood size: 6 blocks × 2 copies over 3 servers lands ≥ 4 KiB on
    /// some server — past the 2.5 KiB quota, so refusal is guaranteed.
    const NOISY_FLOOD: u64 = 6;
    let wb_total: u64 = (0..WB_BLOCKS).map(|b| 256 * (b + 1)).sum();

    let plan = rpc_scoped(FaultPlan::seeded(seed).with_loss(0.01));
    let mut area = driven_trio(plan, |cfg| {
        cfg.tenancy = tenant_crash_policy(NOISY_BLOCK);
    });
    let contact = area.contact();

    // The victim is the noisy pipeline's block-0 primary under the ring
    // the client and the servers share.
    let victim_addr = area.primary_of("noisy", 0, 2);

    let sim = area.session("sim", 8);
    let (wb, noisy, noisy_payload, client_refusals) = sim.run(|s| {
        let (client, admin) = (&s.client, &s.admin);
        let view = client.view_from(contact).unwrap();
        admin.create_pipeline_on_all(&view, "null", "wb", "").unwrap();
        admin
            .create_pipeline_on_all(&view, "null", "noisy", "")
            .unwrap();
        let mut wb = client.distributed_handle(contact, "wb").unwrap();
        wb.set_replication(2);
        wb.set_tenant("wb");
        let mut noisy = client.distributed_handle(contact, "noisy").unwrap();
        noisy.set_replication(2);
        noisy.set_tenant("noisy");

        // The well-behaved tenant stages its iteration.
        wb.activate(0).unwrap();
        for b in 0..WB_BLOCKS {
            let payload = Bytes::from(vec![b as u8 + 1; 256 * (b as usize + 1)]);
            wb.stage(BlockMeta::new("w", b, 0, payload.len()), &payload)
                .unwrap();
        }
        // The noisy tenant floods until the per-server quota bounces it.
        noisy.activate(0).unwrap();
        let noisy_payload = Bytes::from(vec![0xAAu8; NOISY_BLOCK]);
        let mut refusals = 0u64;
        for b in 0..NOISY_FLOOD {
            match noisy.stage(BlockMeta::new("f", b, 0, NOISY_BLOCK), &noisy_payload) {
                Ok(()) => {}
                Err(ColzaError::QuotaExceeded(_)) => refusals += 1,
                Err(e) => panic!("flood hit a non-quota error: {e}"),
            }
        }
        assert!(refusals >= 1, "the flood never hit the quota");
        (wb, noisy, noisy_payload, refusals)
    });

    // Quiesced crash point: client between steps, daemons idle. Then
    // serialized SWIM rounds until both survivors declare the death.
    area.kill(area.index_of(victim_addr));
    area.settle();

    sim.run(|_| {
        for handle in [&wb, &noisy] {
            recover_on_survivors(handle, 0, 2);
        }
    });

    // Post-recovery, pre-deactivate: with k = 2 over 2 survivors, the
    // well-behaved tenant's blocks are fully replicated — every survivor
    // holds all of them — regardless of what the noisy flood did.
    let survivors: Vec<(u64, u64, u64)> = {
        let mut v: Vec<(u64, u64, u64)> = area
            .daemons()
            .iter()
            .map(|d| {
                let s = d.provider().store();
                (
                    d.address().0,
                    s.tenant_staged_bytes("wb"),
                    s.tenant_staged_bytes("noisy"),
                )
            })
            .collect();
        v.sort_unstable();
        v
    };
    for &(addr, wb_bytes, _) in &survivors {
        assert_eq!(
            wb_bytes, wb_total,
            "survivor {addr} lost well-behaved blocks to the noisy crash"
        );
    }
    // The quota still binds on the survivors: neither exceeds it even
    // after crash repair re-replicated the noisy tenant's blocks.
    let quota = tenant_crash_policy(NOISY_BLOCK)
        .config_for(&colza::TenantId::new("noisy"))
        .staged_byte_quota;
    for &(addr, _, noisy_bytes) in &survivors {
        assert!(
            noisy_bytes <= quota,
            "survivor {addr} holds {noisy_bytes} noisy bytes over quota {quota}"
        );
    }
    sim.run(|_| {
        wb.deactivate(0).unwrap();
        noisy.deactivate(0).unwrap();

        // The release freed the noisy tenant's quota: a backed-off stage
        // for the next iteration goes straight through on the shrunk,
        // repaired staging area.
        noisy.activate(1).unwrap();
        noisy
            .stage_with_backpressure(
                BlockMeta::new("f", 0, 1, NOISY_BLOCK),
                &noisy_payload,
                Duration::from_secs(2),
            )
            .expect("post-release stage must ride through");
        noisy.execute(1).unwrap();
        noisy.deactivate(1).unwrap();
    });
    drop(sim);

    let snap = area.shared().trace_snapshot();
    let out = TenantCrashOutcome {
        trace_export: area.fault_trace_export(),
        client_refusals,
        refused: snap.counter_total("colza.qos.quota.refused"),
        promoted: promoted_blocks(&snap),
        pushed: snap.counter_total("colza.store.recv.blocks"),
        survivors,
    };
    area.shutdown();
    out
}

/// ISSUE acceptance (multi-tenant chaos): the noisy tenant's primary
/// crashes mid-flood; crash repair and quota backpressure interact on
/// the survivors; the well-behaved tenant's blocks come through fully
/// replicated; and the same seed yields a byte-identical fault trace and
/// outcome.
#[test]
fn noisy_tenant_crash_repairs_without_losing_the_well_behaved_tenant() {
    let seed = chaos_seed();
    let a = tenant_crash_run(seed);
    assert!(a.client_refusals >= 1, "the flood never bounced off quota");
    assert!(
        a.refused >= a.client_refusals,
        "server-side refusals ({}) below the client's ({})",
        a.refused,
        a.client_refusals
    );
    assert!(a.promoted >= 1, "the victim's primaries must be promoted");
    assert!(a.pushed >= 1, "re-replication must push blocks");
    assert!(!a.trace_export.is_empty(), "1% loss injected nothing");
    let b = tenant_crash_run(seed);
    assert_eq!(
        a.trace_export, b.trace_export,
        "fault-trace exports diverged for one seed"
    );
    assert_eq!(a, b, "tenant-crash outcomes diverged for one seed");
}

/// Everything one run of the triggered-crash scenario produced that must
/// be identical across runs with the same seed.
#[derive(Debug, PartialEq)]
struct TriggeredCrashOutcome {
    /// Canonical (sorted, line-per-record) export of the fault trace.
    trace_export: String,
    /// The recovered triggered iteration's rendered image, byte for byte.
    image: Vec<u8>,
    /// The decision the recovered execute returned.
    outcome: colza::ExecOutcome,
    /// `colza.exec.aborted` / `colza.exec.recoveries`.
    aborted: u64,
    recoveries: u64,
    /// `colza.trigger.skipped`: must stay 0 — the decision never flips.
    skipped: u64,
}

/// One deterministic run of the trigger chaos scenario (DESIGN.md §15):
/// a server is killed mid-iteration — inside the execute collectives —
/// on an iteration whose trigger *fires*. The send-count crash rule can
/// land inside the fused stats allreduce itself, so recovery must
/// re-evaluate the trigger from scratch on the shrunk view: the
/// surviving ranks rebuild identical global stats from store replicas
/// and reach the same `run` decision. The set-up is the recovery
/// scenario's, with a triggered script.
fn triggered_crash_run(seed: u64) -> TriggeredCrashOutcome {
    // A triggered mandelbulb: the escape field tops out near 30, so the
    // gate fires on this iteration's data, and the reparam keeps the
    // contour fed from the same fused stats the gate consumed.
    let mut s = catalyst::PipelineScript::mandelbulb(48, 48);
    s.triggers = vec![
        catalyst::TriggerSpec::new("max(iterations) > 10", "run"),
        catalyst::TriggerSpec::new(
            "max(iterations) > 10",
            "contour(iterations, mean(iterations) + range(iterations) / 4)",
        ),
    ];
    let (mut area, sim, handle, victim_addr) =
        recovery::stage_for_crash(seed, "t", &s.to_json(), 4);

    // The crash lands inside this execute's collectives — possibly the
    // fused stats allreduce the trigger itself is evaluating over — so
    // the client blocks in it while the harness acts.
    let (outcome, img) = std::thread::scope(|scope| {
        let exec = scope.spawn(|| {
            sim.run(|_| {
                let outcome = handle
                    .execute_with_recovery(0)
                    .expect("triggered iteration must recover from the crash");
                (outcome, handle.fetch_result().unwrap().expect("image"))
            })
        });
        area.wait_crash_tripped(victim_addr);
        area.kill(area.index_of(victim_addr));
        area.settle();
        exec.join().unwrap()
    });
    sim.run(|_| handle.deactivate(0).unwrap());
    drop(sim);

    let snap = area.shared().trace_snapshot();
    let out = TriggeredCrashOutcome {
        trace_export: area.fault_trace_export(),
        image: img,
        outcome,
        aborted: snap.counter_total("colza.exec.aborted"),
        recoveries: snap.counter_total("colza.exec.recoveries"),
        skipped: snap.counter_total("colza.trigger.skipped"),
    };
    area.shutdown();
    out
}

/// ISSUE satellite: a server crashes mid-iteration on a *triggered*
/// iteration. The survivors abort retryably, the client re-activates on
/// the shrunk view, and the recovery execute re-evaluates the trigger
/// over stats rebuilt from store replicas — reaching the same `run`
/// decision (never a flip to skip), rendering the image, and replaying
/// byte-identically from the same seed.
#[test]
fn mid_iteration_crash_on_triggered_iteration_recovers_same_decision() {
    let seed = chaos_seed();
    let a = triggered_crash_run(seed);
    assert_eq!(
        a.outcome,
        colza::ExecOutcome::Ran,
        "the trigger must fire on the recovered iteration"
    );
    assert_eq!(a.skipped, 0, "the decision flipped to skip somewhere");
    assert!(a.aborted >= 1, "survivors must abort the crashed attempt");
    assert!(a.recoveries >= 1, "the client must run abort-and-recover");
    assert!(
        vizkit::Image::from_bytes(&a.image).coverage() > 0.0,
        "recovered triggered iteration rendered an empty image"
    );
    let b = triggered_crash_run(seed);
    assert_eq!(a, b, "triggered-crash outcomes diverged for one seed");
}
