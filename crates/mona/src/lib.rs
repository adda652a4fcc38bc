//! # mona — MoNA, the Mochi Network Adapter for collectives
//!
//! The paper's key enabler: a collective communication library built on NA
//! (not MPI) so that **communicators can be created from a plain address
//! list at any time** — there is no world communicator, which is what makes
//! the staging area elastic.
//!
//! This crate reproduces MoNA's design points:
//!
//! * [`MonaInstance`] — the progress-loop handle (`mona_instance_t`);
//! * [`Communicator`] — built via [`MonaInstance::comm_create`] from a list
//!   of [`na::Address`]es (obtained from SSG in Colza);
//! * point-to-point `send`/`recv`/`isend`/`irecv` with an eager→RDMA
//!   protocol switch at a configurable threshold;
//! * tree-based collectives modeled on MPICH's binomial algorithms:
//!   `barrier`, `bcast`, `reduce`, `allreduce`, `gather`, `allgather`,
//!   `scatter`, `sendrecv`, plus non-blocking counterparts;
//! * request and buffer caching ([`pool::BufferPool`]) — the optimization
//!   that makes MoNA outperform raw NA in the paper's Table I.
//!
//! ## Cost model
//!
//! MoNA pays a small software overhead per operation on top of the NA
//! endpoint costs (its progress loop runs through Argobots). The constants
//! live in [`MonaConfig`] and are calibrated so the Table I/II harnesses
//! reproduce the paper's relative ordering: slower than a vendor MPI,
//! competitive with an open-source MPI, faster than raw NA thanks to
//! buffer pooling (disable with [`MonaConfig::pooling`] for the ablation).

mod comm;
mod coll;
pub mod ops;
pub mod pool;
mod request;
pub mod testing;

pub use coll::reduce_scatter_range;
pub use comm::{
    CollTuning, Communicator, FaultConfig, FramePlan, MonaConfig, MonaInstance, COLL_ALIGN,
};
pub use request::{wait_all, Request};

/// Leading marker of [`MonaError::Revoked`]'s `Display` output. Layers
/// that stringify errors on their way up (the VTK comm adapters, pipeline
/// backends) cannot pattern-match the enum, so they detect a revoked
/// communicator by this prefix instead — the same convention the provider
/// uses for its `"server draining"` refusals.
pub const REVOKED_MARKER: &str = "mona: communicator revoked";

/// Errors surfaced by MoNA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonaError {
    /// A transport-level NA failure (unreachable peer, truncated frame,
    /// closed endpoint, ...).
    Na(na::NaError),
    /// The communicator was revoked: the listed members are known (or
    /// suspected) dead, so the collective cannot complete on this
    /// membership. Recover by building a survivor communicator with
    /// [`Communicator::shrink`] and re-running the operation.
    Revoked {
        /// The revoked communicator's epoch (shrink generation).
        epoch: u64,
        /// Members known dead when the operation aborted.
        dead: Vec<na::Address>,
    },
    /// Received traffic violated a protocol invariant (e.g. an incomplete
    /// gather under injected faults). Not retryable on this communicator.
    Protocol(&'static str),
}

impl From<na::NaError> for MonaError {
    fn from(e: na::NaError) -> Self {
        MonaError::Na(e)
    }
}

impl std::fmt::Display for MonaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonaError::Na(e) => write!(f, "{e}"),
            MonaError::Revoked { epoch, dead } => {
                write!(f, "{REVOKED_MARKER} (epoch {epoch}; dead: {dead:?})")
            }
            MonaError::Protocol(m) => write!(f, "mona protocol violation: {m}"),
        }
    }
}

impl std::error::Error for MonaError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, MonaError>;

/// A reduction operator over raw element buffers.
///
/// `apply(acc, other)` must fold `other` into `acc` elementwise; both
/// slices always have identical length. Implemented for any matching
/// closure; the [`ops`] module provides the usual typed operators,
/// including the binary-xor used by the paper's Table II and image
/// compositing operators used by IceT.
///
/// **Sub-range contract:** the collective engine may fold *aligned
/// sub-ranges* of the payload (pipeline chunks and Rabenseifner blocks,
/// both cut on [`COLL_ALIGN`]-byte boundaries). An operator must therefore
/// be elementwise with a record width that divides [`COLL_ALIGN`] (64
/// bytes) — true of every operator in [`ops`] — so that any aligned
/// sub-slice is itself a whole number of records.
pub trait ReduceOp: Sync {
    /// Folds `other` into `acc`.
    fn apply(&self, acc: &mut [u8], other: &[u8]);
}

impl<F: Fn(&mut [u8], &[u8]) + Sync> ReduceOp for F {
    fn apply(&self, acc: &mut [u8], other: &[u8]) {
        self(acc, other)
    }
}
