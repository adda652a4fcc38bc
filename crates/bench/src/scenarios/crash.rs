//! The crash-and-recover steps every crash scenario shares, once: the
//! RPC-scoped fault plan, the driven three-daemon boot, a whole or a
//! replicated staged iteration on the null backend, the client's
//! recovery on the survivor view, and the fed-once invariant checked
//! after it (DESIGN.md §10, §12).

use std::time::Duration;

use bytes::Bytes;
use colza::daemon::Session;
use colza::{BlockMeta, DistributedPipelineHandle, StagingArea};
use margo::RetryConfig;
use na::Address;

/// The pipeline name the crash scenarios give their null backend. A
/// rendering pipeline goes by another name and has its image fetched
/// (and compared) by the scenario itself.
pub const NULL_PIPELINE: &str = "p";

/// Copies kept of every staged block.
pub const REPLICATION: usize = 2;

/// Scopes a fault plan to the retryable RPC plane (requests and
/// responses). The RPC layer owns retry and duplicate suppression; the
/// MoNA/MPI collectives model a reliable transport underneath and an
/// unscoped drop would wedge a reduction forever.
pub fn rpc_scoped(plan: hpcsim::FaultPlan) -> hpcsim::FaultPlan {
    plan.scope_tags(na::tags::RPC_BASE, na::tags::MONA_BASE - 1)
}

/// Replicas promoted to primary, at either promotion point: the
/// commit-boundary sync (`colza.store.promoted.blocks`) or the
/// execute-time role pass (`colza.store.exec.promoted`).
pub fn promoted_blocks(snap: &hpcsim::TraceSnapshot) -> u64 {
    snap.counter_total("colza.store.promoted.blocks")
        + snap.counter_total("colza.store.exec.promoted")
}

/// The boot every deterministic crash run shares: three harness-driven
/// daemons under `plan` (every SWIM round a serialized `tick_sync` from
/// the calling thread, so the run is a pure function of the seed),
/// tracer on, all migration pinned to the 2PC boundary, gossip converged
/// by sixty fixed rounds.
pub fn driven_trio(
    plan: hpcsim::FaultPlan,
    tune: impl FnOnce(&mut colza::DaemonConfig),
) -> StagingArea {
    let mut area = StagingArea::harness_driven(hpcsim::ClusterConfig {
        faults: plan,
        ..hpcsim::ClusterConfig::aries()
    });
    area.shared().tracer().set_enabled(true);
    area.config_mut().auto_repair = false;
    tune(area.config_mut());
    area.launch(3, 1);
    area.tick_rounds(60);
    assert!(
        area.daemons().iter().all(|d| d.view().len() == 3),
        "serialized gossip failed to converge: {:?}",
        area.daemons()
            .iter()
            .map(|d| d.view().len())
            .collect::<Vec<_>>()
    );
    area
}

/// The heavy-RPC policy of a client facing a fail-silent server. Short
/// per-try: the victim's reply is swallowed, so the call to it must be
/// re-probed (and fail `Unreachable` once the harness closes the
/// endpoint) without a ten-second stall.
pub fn probe_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 0,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        per_try_timeout: Duration::from_secs(2),
        deadline: Some(Duration::from_secs(120)),
        ..Default::default()
    }
}

/// Creates the null pipeline on every member of `contact`'s view, which
/// must have `servers` members, and runs iteration 0 through it whole.
pub fn null_iteration(s: &Session, contact: Address, servers: usize) -> DistributedPipelineHandle {
    let view = s.client.view_from(contact).unwrap();
    assert_eq!(view.len(), servers);
    s.admin
        .create_pipeline_on_all(&view, "null", NULL_PIPELINE, "")
        .unwrap();
    let handle = s.client.distributed_handle(contact, NULL_PIPELINE).unwrap();
    handle.activate(0).unwrap();
    handle.execute(0).unwrap();
    handle.deactivate(0).unwrap();
    handle
}

/// Runs `iteration` whole on a fresh view of the handle's group — the
/// next iteration after a crash the survivors have declared — and
/// returns the member count its 2PC committed on.
pub fn iterate_on_fresh_view(handle: &DistributedPipelineHandle, iteration: u64) -> usize {
    handle.refresh_view().unwrap();
    handle.activate(iteration).unwrap();
    let members = handle.members().len();
    handle.execute(iteration).unwrap();
    handle.deactivate(iteration).unwrap();
    members
}

/// Creates the null pipeline on every member of `contact`'s view, opens
/// a handle with [`REPLICATION`], activates iteration 0 and stages
/// `blocks` blocks on it (see [`stage_blocks`]).
pub fn stage_replicated(
    s: &Session,
    contact: Address,
    blocks: u64,
    unit: usize,
) -> DistributedPipelineHandle {
    let view = s.client.view_from(contact).unwrap();
    s.admin
        .create_pipeline_on_all(&view, "null", NULL_PIPELINE, "")
        .unwrap();
    let mut handle = s.client.distributed_handle(contact, NULL_PIPELINE).unwrap();
    handle.set_replication(REPLICATION);
    handle.activate(0).unwrap();
    stage_blocks(&handle, 0, blocks, unit);
    handle
}

/// Stages block `b` of `iteration` as `unit * (b + 1)` bytes of value
/// `b + 1`.
pub fn stage_blocks(handle: &DistributedPipelineHandle, iteration: u64, blocks: u64, unit: usize) {
    for b in 0..blocks {
        let payload = Bytes::from(vec![b as u8 + 1; unit * (b as usize + 1)]);
        handle
            .stage(BlockMeta::new("x", b, iteration, payload.len()), &payload)
            .unwrap();
    }
}

/// The client's side of a crash between `stage` and `execute`, run
/// after the survivors declared the death: the frozen member list still
/// names the dead server, so `execute` must fail fast and retryably,
/// never hang. Recovery is a fresh view of `survivors` members, the
/// activate 2PC re-run on it (the commit sync promotes replicas and
/// re-replicates), and `execute` from the replicas — no block is
/// re-staged.
pub fn recover_on_survivors(handle: &DistributedPipelineHandle, iteration: u64, survivors: usize) {
    let r = handle.execute(iteration);
    assert!(
        matches!(&r, Err(e) if e.is_retryable()),
        "execute against the crashed member must fail retryably: {r:?}"
    );
    handle.refresh_view().unwrap();
    assert_eq!(handle.members().len(), survivors);
    handle.activate(iteration).unwrap();
    handle.execute(iteration).unwrap();
}

/// Asserts that each of `blocks` staged blocks of `iteration` was handed
/// to exactly one backend across the area by the iteration's last
/// `execute` — the "no block is fed twice, none is dropped" invariant the
/// crash scenarios check after recovery, before `deactivate`.
///
/// Checked on both sides of the hand-over: the stores' `fed` record, and
/// — where the pipeline is the null backend — what every serving daemon's
/// backend reports it was handed, block by block and in total bytes. A
/// draining daemon is skipped: it has handed its holdings off and took
/// no part in the last `execute`.
pub fn assert_each_block_fed_once(area: &StagingArea, blocks: u64, iteration: u64) {
    let held: Vec<_> = area
        .held()
        .into_iter()
        .filter(|x| x.iteration == iteration)
        .collect();
    let mut staged_bytes = 0;
    for b in 0..blocks {
        let fed: Vec<_> = held
            .iter()
            .filter(|x| x.key.block_id == b && x.fed)
            .collect();
        assert_eq!(fed.len(), 1, "block {b} must feed exactly one backend");
        staged_bytes += fed[0].decoded_len as u64;
    }
    if held.iter().any(|x| x.key.pipeline != NULL_PIPELINE) {
        return;
    }

    let serving: Vec<Address> = area
        .daemons()
        .iter()
        .filter(|d| d.provider().lifecycle() != colza::ServerLifecycle::Draining)
        .map(|d| d.address())
        .collect();
    // Node 8 hosts no daemon in any crash scenario.
    let reports = area.session("probe", 8).run(|s| {
        serving
            .iter()
            .map(|&addr| {
                let report = s.client.pipeline_handle(addr, NULL_PIPELINE).fetch_result();
                report
                    .expect("null backend unreachable")
                    .expect("null backends report")
            })
            .collect::<Vec<_>>()
    });
    let mut handed_bytes = 0;
    let mut handed = vec![0u32; blocks as usize];
    for report in reports {
        let (bytes, ids) = colza::backend::NullBackend::handed(&report);
        handed_bytes += bytes;
        for id in ids {
            handed[id as usize] += 1;
        }
    }
    assert!(
        handed.iter().all(|&n| n == 1),
        "hand-overs per block across the backends: {handed:?}"
    );
    assert_eq!(
        handed_bytes, staged_bytes,
        "bytes handed over != bytes staged"
    );
}
