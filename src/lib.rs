//! Workspace umbrella crate; real code lives in `crates/*`. Re-exports the
//! public crates so integration tests and examples have one import root.
pub use argo;
pub use baselines;
pub use catalyst;
pub use colza;
pub use hpcsim;
pub use icet;
pub use margo;
pub use minimpi;
pub use mona;
pub use na;
pub use sims;
pub use ssg;
pub use vizkit;
pub use wire;

/// The pinned seed of the chaos suites and `chaos_demo`: 42, or whatever
/// `COLZA_CHAOS_SEED` parses to. One seed reproduces a failing run.
pub fn chaos_seed() -> u64 {
    std::env::var("COLZA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

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

/// The pipeline name the chaos and heal suites give their null backend.
/// A rendering pipeline goes by another name and has its image fetched
/// (and compared) by the scenario itself.
const NULL_PIPELINE: &str = "p";

/// Asserts that each of `blocks` staged blocks of `iteration` was handed
/// to exactly one backend across the area by the iteration's last
/// `execute` — the "no block is fed twice, none is dropped" invariant the
/// chaos and heal suites check after recovery, before `deactivate`.
///
/// Checked on both sides of the hand-over: the stores' `fed` record, and
/// — where the pipeline is the null backend — what every serving daemon's
/// backend reports it was handed, block by block and in total bytes. A
/// draining daemon is skipped: it has handed its holdings off and took
/// no part in the last `execute`.
pub fn assert_each_block_fed_once(area: &colza::StagingArea, blocks: u64, iteration: u64) {
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

    let serving: Vec<na::Address> = area
        .daemons()
        .iter()
        .filter(|d| d.provider().lifecycle() != colza::ServerLifecycle::Draining)
        .map(|d| d.address())
        .collect();
    // Node 8 is where both suites run their simulation client.
    let reports = area
        .client("probe", 8, move |s| {
            serving
                .iter()
                .map(|&addr| {
                    let report = s.client.pipeline_handle(addr, NULL_PIPELINE).fetch_result();
                    report
                        .expect("null backend unreachable")
                        .expect("null backends report")
                })
                .collect::<Vec<_>>()
        })
        .join();
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
