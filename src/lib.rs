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
