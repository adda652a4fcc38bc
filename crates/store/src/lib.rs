//! # store — the resilient elastic staging store
//!
//! Colza's original design binds a staged block to exactly one server: a
//! crash or shrink between `stage` and `execute` loses the block and the
//! simulation must resubmit the whole iteration. This crate removes that
//! weakness with four pieces, kept deliberately free of RPC machinery so
//! every placement decision is a pure, testable function:
//!
//! 1. [`ring`] — a deterministic consistent-hash ring over the SSG member
//!    view. Virtual nodes smooth the key distribution; a configurable
//!    replication factor maps every block to a primary plus `k-1`
//!    replicas, spread across distinct physical nodes when the topology
//!    (from hpcsim) allows it. Determinism matters: client and every
//!    server recompute the same ring from the same frozen member list,
//!    with no coordination.
//! 2. [`plan`] — the convergence planner. For one held copy, comparing
//!    the owner set a target ring wants with the owners presumed to hold
//!    it already yields a set of push transfers plus the local copy's
//!    role (or leave to drop it once the pushes land). Grow rebalances,
//!    graceful drains, crash repair, anti-entropy scrub and execute-time
//!    role correction are all this one diff; they differ only in the
//!    target view and in whom they presume ([`plan_copy`]).
//! 3. [`store`] — [`StagingStore`], the per-server block table that backs
//!    the provider: role (primary/replica), the execute-time hand-over
//!    of the primaries to the backend, idempotent inserts (pushes may
//!    race and repeat), and staged-byte accounting exported through
//!    `colza.admin.metrics`.
//! 4. [`scrub`] — compact per-`(pipeline, iteration)` inventory digests:
//!    servers summarise their holdings as sorted fingerprint sets, which
//!    is how a scrub pass knows — rather than presumes — which owners
//!    hold a copy, whatever event they missed.
//!
//! The one executor of a plan (bulk transfers over margo/na) lives in the
//! `colza` provider; this crate only decides *what* moves *where*.

pub mod plan;
pub mod ring;
pub mod scrub;
pub mod store;

pub use plan::{plan_copy, rebalance_plan, sync_block, BlockSync, Transfer};
pub use ring::{key_hash, BlockKey, HashRing, RingConfig};
pub use scrub::{copy_hash, IterationDigest, StoreDigest};
pub use store::{Admit, Role, StagingStore, StoredBlock, TenantUsage};
