//! RPC argument and reply types shared between client, admin and provider.

use std::fmt;

use serde::{Deserialize, Serialize};

use na::{Address, BulkHandle};
use store::{RingConfig, Role, TenantUsage};

use crate::codec::CodecId;

/// Identity of a staging tenant (DESIGN.md §14). Every staged block and
/// every execute request carries one; servers account resource usage,
/// enforce quotas and schedule execute work per tenant. A deployment
/// that never configures tenancy runs everything under the default
/// tenant and behaves exactly as before.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub String);

impl TenantId {
    /// A tenant id from any string-ish name.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    /// The implicit tenant of untenanted deployments.
    fn default() -> Self {
        TenantId("default".to_string())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Coarse service classes for the fair-share execute scheduler. The
/// class fixes the tenant's deficit-round-robin weight: a Gold tenant
/// earns four times the execute service of a Bronze one under
/// contention. Classes never affect an uncontended pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriorityClass {
    /// Weight 4: latency-sensitive production pipelines.
    Gold,
    /// Weight 2: the default class.
    Silver,
    /// Weight 1: batch/best-effort work.
    Bronze,
}

impl PriorityClass {
    /// The DRR weight of this class.
    pub fn weight(self) -> u64 {
        match self {
            PriorityClass::Gold => 4,
            PriorityClass::Silver => 2,
            PriorityClass::Bronze => 1,
        }
    }
}

/// Per-tenant resource limits and service class (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Maximum staged (encoded) bytes this tenant may hold *per server*.
    /// Admission control refuses `stage`/`colza.store.push` over this
    /// with the typed, retryable [`crate::ColzaError::QuotaExceeded`];
    /// quota is freed when copies leave the store (deactivate release,
    /// drain, repair drops). `u64::MAX` means unlimited; `0` admits
    /// nothing with a payload.
    pub staged_byte_quota: u64,
    /// Execute-time budget per iteration window, in virtual nanoseconds.
    /// A tenant whose executes consume more than this between two
    /// `deactivate`s is *throttled* — its scheduler weight drops to the
    /// minimum until the window resets — but never starved or refused.
    /// `u64::MAX` means unlimited.
    pub execute_quota_ns: u64,
    /// Fair-share class for execute scheduling.
    pub priority: PriorityClass,
}

impl Default for TenantConfig {
    /// Unlimited quotas in the default (Silver) class.
    fn default() -> Self {
        TenantConfig {
            staged_byte_quota: u64::MAX,
            execute_quota_ns: u64::MAX,
            priority: PriorityClass::Silver,
        }
    }
}

/// Deployment-wide tenancy policy, part of [`crate::DaemonConfig`] and
/// installable at runtime via `colza.admin.set_tenancy`
/// ([`crate::AdminClient::set_tenancy`]). Disabled by default: per-tenant
/// *accounting* always runs (it is what `colza.admin.metrics` reports),
/// but quotas and the fair-share execute gate only act when `enabled`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyConfig {
    /// Whether quotas and execute scheduling are enforced.
    pub enabled: bool,
    /// Limits for tenants not listed in `tenants`.
    pub default: TenantConfig,
    /// Per-tenant overrides, in deterministic (sorted) order.
    pub tenants: Vec<(TenantId, TenantConfig)>,
    /// Concurrent execute handlers admitted per server when enforcement
    /// is on. `1` fully serializes execute work through the scheduler;
    /// deployments running concurrent *multi-server* collective
    /// pipelines should keep this at or above the number of tenants
    /// executing concurrently (DESIGN.md §14 discusses why).
    pub exec_slots: usize,
    /// Base quantum of the deficit-round-robin scheduler, in virtual
    /// nanoseconds of execute service per visit and per unit weight.
    pub quantum_ns: u64,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            enabled: false,
            default: TenantConfig::default(),
            tenants: Vec::new(),
            exec_slots: 1,
            quantum_ns: 2_000_000, // 2 ms of execute service per visit
        }
    }
}

impl TenancyConfig {
    /// An enforcing configuration with default limits.
    pub fn enforcing() -> Self {
        TenancyConfig {
            enabled: true,
            ..TenancyConfig::default()
        }
    }

    /// Adds (or replaces) one tenant's limits, keeping the list sorted
    /// so scheduler state is a pure function of the configuration.
    pub fn with_tenant(mut self, id: impl Into<String>, cfg: TenantConfig) -> Self {
        let id = TenantId::new(id);
        self.tenants.retain(|(t, _)| *t != id);
        self.tenants.push((id, cfg));
        self.tenants.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// The limits applying to `tenant` (listed override or default).
    pub fn config_for(&self, tenant: &TenantId) -> TenantConfig {
        self.tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|&(_, c)| c)
            .unwrap_or(self.default)
    }
}

/// Metadata accompanying a staged block (field name, dimensions, type —
/// what the paper's `stage` RPC carries besides the memory handle).
///
/// With the codec layer (DESIGN.md §13) the metadata also names how the
/// exposed bytes are encoded: `size` stays the *decoded* payload length
/// (what backends receive and `byte_size()`-style accounting uses) while
/// `encoded_size` is what actually crosses the wire and sits in the
/// staging store. For raw staging the two are equal.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct BlockMeta {
    /// Name of the dataset/field (for diagnostics and policies).
    pub name: String,
    /// Block identifier; drives the default server-selection policy.
    pub block_id: u64,
    /// Iteration this block belongs to.
    pub iteration: u64,
    /// Serialized (decoded) payload size in bytes.
    pub size: usize,
    /// Codec the exposed bytes are encoded with.
    pub codec: CodecId,
    /// Encoded frame size in bytes — the RDMA transfer length.
    pub encoded_size: usize,
    /// Tenant this block belongs to; drives quota accounting and the
    /// per-tenant metrics scrape. [`crate::DistributedPipelineHandle::stage`]
    /// stamps it from the handle's tenant, so callers never fill it.
    pub tenant: TenantId,
}

impl BlockMeta {
    /// Metadata for a raw (unencoded) block: `encoded_size == size`.
    /// [`crate::DistributedPipelineHandle::stage`] overwrites the codec
    /// fields after encoding, so callers never fill them by hand.
    pub fn new(name: impl Into<String>, block_id: u64, iteration: u64, size: usize) -> Self {
        BlockMeta {
            name: name.into(),
            block_id,
            iteration,
            size,
            codec: CodecId::Raw,
            encoded_size: size,
            tenant: TenantId::default(),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PrepareActivateArgs {
    pub pipeline: String,
    pub iteration: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PrepareActivateReply {
    pub epoch: u64,
    pub view: Vec<Address>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CommitActivateArgs {
    pub pipeline: String,
    pub iteration: u64,
    /// The frozen member list all parties agreed on; rank order.
    pub members: Vec<Address>,
    /// Ring parameters for the iteration. Servers rebuild the placement
    /// ring from `(members, ring)` and reconcile their holdings against
    /// it before acknowledging the commit (DESIGN.md §10).
    pub ring: RingConfig,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AbortActivateArgs {
    pub pipeline: String,
    pub iteration: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StageArgs {
    pub pipeline: String,
    pub meta: BlockMeta,
    /// Role this copy holds on the receiving server: the ring's primary
    /// owner hands it to the backend at `execute`, replicas only keep
    /// the bytes.
    pub role: Role,
    pub bulk: BulkHandle,
}

/// Server-to-server block transfer (migration, drain and repair). The
/// source exposes the payload and the destination pulls it — the same
/// RDMA shape as `colza.stage`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PushBlockArgs {
    pub pipeline: String,
    pub meta: BlockMeta,
    /// Role the copy will hold at the destination.
    pub role: Role,
    pub bulk: BulkHandle,
    /// For delta-diff blocks only: a second exposed region holding the
    /// sender's reconstructed plain payload, so a fresh owner (repair,
    /// rebalance) can seed its chain state without the base frame the
    /// survivor set may have released. `None` for self-decodable codecs.
    pub plain: Option<BulkHandle>,
    /// Size of the `plain` region (0 when absent).
    pub plain_size: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ExecuteArgs {
    pub pipeline: String,
    pub iteration: u64,
    /// Tenant on whose behalf the pipeline executes — the fair-share
    /// scheduler's accounting and ordering key.
    pub tenant: TenantId,
}

/// What one `execute` actually did (DESIGN.md §15). A reactive pipeline
/// whose trigger program decides against running reports `Skipped` — a
/// normal, successful outcome (the staged data was examined and judged
/// uninteresting), not an error. Deterministic: every server of an
/// iteration reports the same variant because trigger inputs come from
/// one fused collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecOutcome {
    /// The pipeline ran over the staged data.
    Ran,
    /// A trigger skipped this iteration; no analysis was performed.
    Skipped,
}

impl ExecOutcome {
    /// Whether this iteration was skipped by a trigger.
    pub fn is_skipped(self) -> bool {
        matches!(self, ExecOutcome::Skipped)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DeactivateArgs {
    pub pipeline: String,
    pub iteration: u64,
    /// Tenant ending the iteration; resets its execute-quota window.
    pub tenant: TenantId,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CreatePipelineArgs {
    /// Backend library name (stand-in for the shared-library path).
    pub library: String,
    /// Pipeline instance name.
    pub name: String,
    /// JSON configuration string passed to the factory.
    pub config: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DestroyPipelineArgs {
    pub name: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FetchResultArgs {
    pub pipeline: String,
}

/// `colza.store.digest` request (DESIGN.md §10). No parameters today —
/// the reply is the responder's whole-store [`store::StoreDigest`] — but
/// kept as a struct so the scrub protocol can grow filters without a new
/// RPC id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct DigestArgs {}

/// Where a server stands in its service lifecycle (DESIGN.md §10).
/// `Joining`/`Ready`/`Draining` are self-reported through
/// `colza.admin.metrics`; `Suspect`/`Dead` are never self-reported —
/// the supervisor assigns them to *peers* from the SSG view when
/// classifying a departure as crash or voluntary leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerLifecycle {
    /// Member of the group but not yet caught up: no iteration committed
    /// and no clean scrub pass completed on this server yet.
    Joining,
    /// Serving normally.
    Ready,
    /// Voluntarily leaving; hands its holdings off and refuses new work.
    Draining,
    /// Peer state: missed probes, SWIM has not yet declared it dead.
    Suspect,
    /// Peer state: declared dead by SWIM (a crash, not a leave).
    Dead,
}

/// A scrape of one server's trace counters, served by the
/// `colza.admin.metrics` RPC. Counter names follow the span taxonomy in
/// DESIGN.md §9 (`rpc.*`, `na.*`, `ssg.*`, `colza.*`); values are
/// cumulative since the tracer was enabled (or last cleared).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    /// The simulated process id of the reporting server.
    pub pid: u64,
    /// Whether tracing was enabled when scraped (all-zero counters are
    /// expected when it was not).
    pub enabled: bool,
    /// Payload bytes currently held in the server's staging store —
    /// the drain-aware shrink signal. Reported regardless of whether
    /// tracing is enabled. With codecs enabled these are *encoded*
    /// (on-store) bytes.
    pub staged_bytes: u64,
    /// Decoded size of the held blocks (sum of `BlockMeta::size`), the
    /// codec-independent view of the same holdings. Equal to
    /// `staged_bytes` under raw staging.
    pub decoded_bytes: u64,
    /// Per-tenant breakdown of the held load, in sorted tenant order —
    /// what tenant-aware shrink victim selection and per-tenant scrapes
    /// read. The per-tenant `staged_bytes`/`decoded_bytes` always sum to
    /// the aggregate fields above; a single-tenant deployment reports
    /// one entry (the default tenant) equal to the totals.
    pub tenants: Vec<TenantUsage>,
    /// The server's self-reported lifecycle state (DESIGN.md §10): a
    /// fresh server is `Joining` until its first committed iteration or
    /// first clean scrub pass, `Draining` once a leave is under way, and
    /// `Ready` otherwise.
    pub lifecycle: ServerLifecycle,
    /// Copies this server holds whose ring placement is missing at least
    /// one owner, as measured by the last scrub pass. `0` means the last
    /// pass converged; [`crate::AdminClient::wait_healthy`] polls this.
    pub under_replicated_blocks: u64,
    /// Copies held that the current ring no longer places here and whose
    /// owners could not all confirm holding them (kept, not collected),
    /// as measured by the last scrub pass.
    pub orphan_blocks: u64,
    /// Copies parked in the pending-handoff set (received from a leaver
    /// whose drain failed), waiting for the next scrub pass to place.
    pub pending_handoff: u64,
    /// Anti-entropy scrub passes completed since the provider started.
    /// `wait_healthy` requires at least one, so "healthy" can never be
    /// reported by a cluster that merely never looked.
    pub scrub_passes: u64,
    /// Counter name → cumulative value, in sorted name order.
    pub counters: Vec<(String, u64)>,
}
