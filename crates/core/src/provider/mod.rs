//! The Colza provider: per-server state, the RPC handlers, and the one
//! mechanism that keeps staged blocks where the ring says they belong.
//!
//! Every staged block is recorded in a [`StagingStore`] with its ring
//! role (the primaries are what the backend is handed at `execute`,
//! replicas hold bytes for recovery). Whatever changes underneath — a
//! 2PC commit carrying a new member list, an SSG departure, this server
//! leaving, a scrub tick, an `execute` — the response is the same: *plan*
//! each held copy against a target ring (`store::plan_copy`) and
//! *execute* the plan: push copies to owners that lack them, promote,
//! demote, drop only what provably landed (DESIGN.md §10).
//!
//! * this module — provider state, construction, accessors;
//! * `handlers` — the registration table and one method per RPC;
//! * `admit` — admission of a staged or pushed copy, and its decoding
//!   for the hand-over;
//! * `reconcile` — the convergence executor and its five callers.

mod admit;
mod handlers;
mod reconcile;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::Serialize;

use margo::MargoInstance;
use mona::MonaInstance;
use na::Address;
use ssg::SsgGroup;
use store::{RingConfig, StagingStore, StoredBlock};

use crate::backend::Backend;
use crate::codec::CodecConfig;
use crate::protocol::{ServerLifecycle, TenancyConfig};
use crate::qos::ExecGate;

/// Which communication layer pipelines execute over.
pub enum ProviderComm {
    /// Elastic: a fresh MoNA communicator per iteration, built from the
    /// frozen member list.
    Mona,
    /// The `Colza+MPI` baseline: a static MPI communicator fixed at
    /// launch. No elasticity — exactly the paper's comparison mode.
    MpiStatic(Mutex<Option<minimpi::MpiComm>>),
}

/// The member list and ring parameters the held blocks were last fully
/// converged to; advanced only by a convergence pass whose every push
/// landed.
#[derive(Debug, Clone)]
struct Placement {
    members: Vec<Address>,
    cfg: RingConfig,
}

/// Outcome of one convergence pass — what [`ColzaProvider::scrub`]
/// returns and the heal bench records; commit, repair and drain decide
/// from the same report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ScrubReport {
    /// 1-based index of this scrub pass on this server (0 for passes
    /// other than scrub).
    pub pass: u64,
    /// Copies pushed to owners presumed (or shown by their digest) to
    /// lack them.
    pub pushed: u64,
    /// Pending-handoff copies that left the parked set this pass —
    /// adopted here or placed with their ring owners
    /// (`colza.store.scrub.reclaimed`).
    pub reclaimed: u64,
    /// Held, ring-owned copies still missing at least one owner after
    /// this pass — the `under_replicated_blocks` gauge.
    pub under_replicated: u64,
    /// Held copies the ring places elsewhere whose owners could not all
    /// be confirmed — kept (demoted), and counted in the `orphan_blocks`
    /// gauge.
    pub orphans: u64,
    /// Copies the ring places elsewhere dropped because every owner
    /// landed or was confirmed holding them.
    pub collected: u64,
    /// Transient push/admit failures (timeouts, dead targets).
    pub failed: u64,
    /// Deterministic staged-byte quota refusals; retried next pass.
    pub refused: u64,
    /// Peers whose inventory digest could not be fetched.
    pub unreachable: u64,
}

/// Member list and ring parameters frozen per `(pipeline, iteration)`.
type FrozenViews = HashMap<(String, u64), (Vec<Address>, RingConfig)>;

/// Delta-chain base state per `(pipeline, block_id, dataset name)`: the
/// iteration and reconstructed plain payload of the newest chain frame.
type CodecBases = HashMap<(String, u64, String), (u64, Bytes)>;

/// Per-server provider state, registered on a margo instance.
pub struct ColzaProvider {
    margo: Arc<MargoInstance>,
    mona: Arc<MonaInstance>,
    group: Arc<SsgGroup>,
    comm: ProviderComm,
    pipelines: RwLock<HashMap<String, Arc<dyn Backend>>>,
    /// Member lists and ring parameters frozen by `commit_activate`, per
    /// (pipeline, iteration).
    frozen: Mutex<FrozenViews>,
    /// Every copy this server holds. Placement truth for every pass.
    store: StagingStore,
    /// What the held blocks were last placed against. The lock also
    /// serializes convergence passes.
    placement: Mutex<Option<Placement>>,
    /// Set by the SSG observer on a death/leave; the daemon loop turns it
    /// into a repair pass.
    repair_needed: AtomicBool,
    /// Set while this server drains out. New stage/push admissions are
    /// refused from then on: a block admitted after the drain snapshot
    /// would be acknowledged to the client and then die with this
    /// server. Cleared only by [`ColzaProvider::cancel_departure`] when
    /// a drain cannot empty the store and the departure is called off.
    draining: AtomicBool,
    /// Set by the admin `leave` RPC; the daemon loop acts on it.
    pub(crate) leave_requested: AtomicBool,
    /// The deployment's codec configuration, advertised to clients via
    /// `colza.get_codec_config` (filled in from [`crate::DaemonConfig`]).
    codec_cfg: Mutex<CodecConfig>,
    /// The multi-tenant QoS gate: staged-byte quota policy for `admit`
    /// and the fair-share scheduler `colza.execute` runs under
    /// (DESIGN.md §14). Accounting always runs; enforcement only when
    /// the installed [`TenancyConfig`] enables it.
    qos: ExecGate,
    /// Delta-chain state per `(pipeline, block_id, dataset name)`: the
    /// iteration and reconstructed plain payload of the newest chain
    /// frame this server admitted. Unlike the staged blocks themselves
    /// this survives `release_iteration` — the next iteration's diff
    /// decodes against it — and is pruned with its pipeline.
    codec_bases: Mutex<CodecBases>,
    /// Copies parked by `colza.store.handoff`: a leaver whose drain could
    /// not place them with their ring owners hands them to any reachable
    /// survivor instead of taking them down. Parked copies are *not* in
    /// the staging store (no quota charge, no role); every scrub pass
    /// drains this set through the normal admission/push paths.
    pending_handoff: Mutex<Vec<StoredBlock>>,
    /// `under_replicated_blocks` gauge from the last scrub pass.
    under_replicated: AtomicU64,
    /// `orphan_blocks` gauge from the last scrub pass.
    orphan_gauge: AtomicU64,
    /// Completed anti-entropy passes since the provider started.
    scrub_passes: AtomicU64,
    /// Flips the lifecycle Joining → Ready: set by the first committed
    /// iteration or the first clean scrub pass, whichever comes first.
    caught_up: AtomicBool,
}

impl ColzaProvider {
    /// Creates the provider and registers all RPC handlers. The handlers
    /// hold the provider weakly (it owns the margo instance they are
    /// registered on), so the returned `Arc` is what keeps it serving.
    pub fn register(
        margo: Arc<MargoInstance>,
        mona: Arc<MonaInstance>,
        group: Arc<SsgGroup>,
        comm: ProviderComm,
    ) -> Arc<Self> {
        let provider = Arc::new(Self {
            margo,
            mona,
            group,
            comm,
            pipelines: RwLock::new(HashMap::new()),
            frozen: Mutex::new(HashMap::new()),
            store: StagingStore::new(),
            placement: Mutex::new(None),
            repair_needed: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            leave_requested: AtomicBool::new(false),
            codec_cfg: Mutex::new(CodecConfig::default()),
            qos: ExecGate::default(),
            codec_bases: Mutex::new(HashMap::new()),
            pending_handoff: Mutex::new(Vec::new()),
            under_replicated: AtomicU64::new(0),
            orphan_gauge: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            caught_up: AtomicBool::new(false),
        });

        // Membership-change hook: a death or departure leaves blocks
        // under-replicated; flag it so the daemon loop runs a repair
        // pass (when enabled) without waiting for the next commit. The
        // same verdict feeds MoNA's dead-set so a collective blocked on
        // the departed member aborts with `Revoked` instead of hanging
        // (DESIGN.md §12) — this observer is the crash detector the
        // fault-tolerance layer is armed with.
        let weak = Arc::downgrade(&provider);
        provider.group.observe(move |ev| {
            if ev.is_departure() {
                if let Some(p) = weak.upgrade() {
                    p.repair_needed.store(true, Ordering::Release);
                    p.mona.mark_dead(ev.addr());
                }
            }
        });
        provider.mona.arm_fault_detection();
        provider.register_handlers();
        provider
    }

    /// Installs the static MPI world (Colza+MPI baseline deployments).
    pub fn set_static_world(&self, comm: minimpi::MpiComm) {
        match &self.comm {
            ProviderComm::MpiStatic(slot) => *slot.lock() = Some(comm),
            ProviderComm::Mona => panic!("set_static_world on a MoNA-mode provider"),
        }
    }

    /// Whether an admin asked this server to leave.
    pub fn leave_requested(&self) -> bool {
        self.leave_requested.load(Ordering::Acquire)
    }

    /// Installs the codec configuration this deployment advertises via
    /// `colza.get_codec_config` (the daemon forwards its
    /// [`crate::DaemonConfig::codec`] here after registration). The
    /// provider itself decodes from `BlockMeta::codec` — this is purely
    /// what clients adopt.
    pub fn set_codec_config(&self, cfg: CodecConfig) {
        *self.codec_cfg.lock() = cfg;
    }

    /// Installs the tenancy policy ([`crate::DaemonConfig::tenancy`], or
    /// the `colza.admin.set_tenancy` RPC at runtime). Accounting always
    /// runs; quotas and the execute gate enforce only when enabled.
    pub fn set_tenancy_config(&self, cfg: TenancyConfig) {
        self.qos.set_config(cfg);
    }

    /// The QoS gate (test/diagnostic access).
    pub fn qos(&self) -> &ExecGate {
        &self.qos
    }

    /// The membership group.
    pub fn group(&self) -> &Arc<SsgGroup> {
        &self.group
    }

    /// The staging store (test/diagnostic access).
    pub fn store(&self) -> &StagingStore {
        &self.store
    }

    /// Consumes a pending repair request flagged by the SSG observer.
    pub fn take_repair_request(&self) -> bool {
        self.repair_needed.swap(false, Ordering::AcqRel)
    }

    /// Calls off a departure whose drain could not empty the store:
    /// clears the admission refusal so the server resumes serving, and
    /// the pending leave flag so the daemon loop stops retrying. Leaving
    /// anyway would take the kept copies down with the leaver — exactly
    /// what the drain-before-leave contract forbids. A later admin
    /// `leave` restarts the drain from scratch.
    pub fn cancel_departure(&self) {
        self.draining.store(false, Ordering::SeqCst);
        self.leave_requested.store(false, Ordering::SeqCst);
    }

    /// The server's self-reported lifecycle state (DESIGN.md §10).
    pub fn lifecycle(&self) -> ServerLifecycle {
        if self.draining.load(Ordering::SeqCst) || self.leave_requested.load(Ordering::Acquire) {
            ServerLifecycle::Draining
        } else if self.caught_up.load(Ordering::Acquire) {
            ServerLifecycle::Ready
        } else {
            ServerLifecycle::Joining
        }
    }

    /// Copies currently parked in the pending-handoff set.
    pub fn pending_handoff_len(&self) -> usize {
        self.pending_handoff.lock().len()
    }

    fn pipeline(&self, name: &str) -> std::result::Result<Arc<dyn Backend>, String> {
        self.pipelines
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no pipeline named {name:?}"))
    }
}
