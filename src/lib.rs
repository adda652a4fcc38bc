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

/// Asserts that each of `blocks` staged blocks of `iteration` is fed to
/// exactly one backend across the area — the "no block is fed twice, none
/// is dropped" invariant the chaos and heal suites check after recovery.
pub fn assert_each_block_fed_once(area: &colza::StagingArea, blocks: u64, iteration: u64) {
    let held = area.held();
    for b in 0..blocks {
        let fed = held
            .iter()
            .filter(|x| x.key.block_id == b && x.iteration == iteration && x.fed)
            .count();
        assert_eq!(fed, 1, "block {b} must feed exactly one backend");
    }
}
