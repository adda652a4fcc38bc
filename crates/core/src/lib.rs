//! # colza — an elastic data-staging service with in situ visualization
//!
//! The paper's primary contribution, rebuilt in Rust on the substrates in
//! this workspace. A Colza deployment is a set of *staging daemons*
//! ([`daemon::ColzaDaemon`]) tracked by SSG gossip membership, hosting
//! user-provided *pipelines* ([`backend::Backend`] implementations loaded
//! through a factory registry — the stand-in for `dlopen`ed shared
//! libraries). Simulations drive them through a
//! [`client::DistributedPipelineHandle`] with the paper's four-call
//! protocol:
//!
//! 1. [`activate`](client::DistributedPipelineHandle::activate) — starts
//!    an iteration. Because SSG views are only eventually consistent, this
//!    runs a **two-phase commit**: every server votes with its view epoch;
//!    on any mismatch the client refreshes its view and retries. A
//!    successful prepare *freezes* membership until `deactivate`.
//! 2. [`stage`](client::DistributedPipelineHandle::stage) — sends only a
//!    block's metadata plus an RDMA bulk handle; the block's ring owners
//!    (consistent-hash primary plus optional replicas, computed from the
//!    frozen member list by the `store` crate) *pull* the data from the
//!    simulation's memory.
//! 3. [`execute`](client::DistributedPipelineHandle::execute) — broadcast
//!    to all servers; each builds the iteration's communicator from the
//!    frozen member list (a fresh MoNA communicator — or a static MPI one
//!    in the `Colza+MPI` baseline mode) and runs the pipeline
//!    collectively.
//! 4. [`deactivate`](client::DistributedPipelineHandle::deactivate) —
//!    ends the iteration, releases staged data, and unfreezes membership
//!    so servers may join or leave before the next iteration.
//!
//! The separate **admin** interface ([`admin`]) creates and destroys
//! pipelines and asks servers to leave — the elasticity triggers of §II-F.

#![forbid(unsafe_code)]

pub mod admin;
pub mod autoscale;
pub mod backend;
pub mod client;
pub mod codec;
pub mod daemon;
pub mod error;
pub mod protocol;
pub mod provider;
pub mod qos;
pub(crate) mod retry;

pub use admin::AdminClient;
pub use autoscale::{
    drain_aware_victims, select_victims, AutoScaleConfig, AutoScaler, ScaleDecision, Supervisor,
    SupervisorAction,
};
pub use backend::{Backend, BackendCtx, StagedBlock};
pub use client::{ColzaClient, DistributedPipelineHandle, PipelineHandle};
pub use codec::{CodecConfig, CodecError, CodecId, CodecSpec};
pub use daemon::{ColzaDaemon, CommMode, DaemonConfig, StagingArea};
pub use error::ColzaError;
pub use protocol::{
    BlockMeta, ExecOutcome, MetricsReport, PriorityClass, ServerLifecycle, TenancyConfig,
    TenantConfig, TenantId,
};
pub use provider::ScrubReport;
pub use qos::{DrrScheduler, ExecGate};
pub use store::TenantUsage;
