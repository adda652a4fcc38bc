//! The Colza client library: pipeline handles and the staging protocol.
//!
//! Block placement runs through the `store` crate's consistent-hash
//! ring: the client rebuilds the ring from the frozen member list (the
//! same computation every server performs at `commit_activate`) and
//! stages each block on its primary owner plus `replication - 1`
//! replicas. Determinism between client and servers is what lets crash
//! repair promote replicas without any coordination.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use margo::{MargoInstance, RetryConfig};
use na::Address;
use store::{BlockKey, HashRing, RingConfig, Role};

use crate::codec::{CodecConfig, CodecSpec};
use crate::error::{ColzaError, Result};
use crate::protocol::*;
use crate::retry::{activate_retry, commit_retry, control_retry, heavy_retry};

/// A Colza client: one per simulation process.
pub struct ColzaClient {
    margo: Arc<MargoInstance>,
}

impl ColzaClient {
    /// Wraps a margo instance (which may share the simulation's endpoint).
    pub fn new(margo: Arc<MargoInstance>) -> Arc<Self> {
        Arc::new(Self { margo })
    }

    /// The underlying margo instance.
    pub fn margo(&self) -> &Arc<MargoInstance> {
        &self.margo
    }

    /// Queries the current staging-area view from any live member.
    /// Retries briefly through transient loss; a dead contact fails fast.
    pub fn view_from(&self, contact: Address) -> Result<Vec<Address>> {
        let cfg = RetryConfig {
            deadline: Some(Duration::from_secs(2)),
            ..control_retry()
        };
        Ok(self
            .margo
            .forward_retry(contact, "colza.get_view", &(), &cfg)?)
    }

    /// Opens a handle to one pipeline instance on one server.
    pub fn pipeline_handle(
        self: &Arc<Self>,
        server: Address,
        pipeline: &str,
    ) -> PipelineHandle {
        PipelineHandle {
            client: Arc::clone(self),
            server,
            pipeline: pipeline.to_string(),
        }
    }

    /// Opens a distributed handle spanning the staging area, bootstrapped
    /// from one known member address.
    pub fn distributed_handle(
        self: &Arc<Self>,
        contact: Address,
        pipeline: &str,
    ) -> Result<DistributedPipelineHandle> {
        let members = self.view_from(contact)?;
        if members.is_empty() {
            return Err(ColzaError::EmptyGroup);
        }
        Ok(DistributedPipelineHandle {
            client: Arc::clone(self),
            pipeline: pipeline.to_string(),
            tenant: TenantId::default(),
            members: Mutex::new(members),
            ring_cfg: RingConfig::default(),
            placement: Mutex::new(None),
            heavy: heavy_retry(),
            codec_cfg: CodecConfig::default(),
            chain: Mutex::new(HashMap::new()),
        })
    }
}

/// A handle to a single pipeline instance on a single server.
pub struct PipelineHandle {
    client: Arc<ColzaClient>,
    server: Address,
    pipeline: String,
}

impl PipelineHandle {
    /// The target server.
    pub fn server(&self) -> Address {
        self.server
    }

    /// Starts an iteration on this single pipeline instance (no 2PC: a
    /// one-server handle has a trivially consistent view, but membership
    /// is still frozen for the iteration).
    pub fn activate(&self, iteration: u64) -> Result<()> {
        let mut sp = hpcsim::trace::span("colza", "colza.activate");
        if sp.active() {
            sp.arg("iteration", iteration);
            sp.arg("servers", 1);
        }
        let cfg = control_retry();
        let _: PrepareActivateReply = self.client.margo.forward_retry(
            self.server,
            "colza.prepare_activate",
            &PrepareActivateArgs {
                pipeline: self.pipeline.clone(),
                iteration,
            },
            &cfg,
        )?;
        Ok(self.client.margo.forward_retry(
            self.server,
            "colza.commit_activate",
            &CommitActivateArgs {
                pipeline: self.pipeline.clone(),
                iteration,
                members: vec![self.server],
                ring: RingConfig::default(),
            },
            &cfg,
        )?)
    }

    /// Stages one serialized dataset on this server (a one-member ring:
    /// the server is trivially the block's primary).
    pub fn stage(&self, meta: BlockMeta, payload: &Bytes) -> Result<()> {
        let ring = HashRing::build_in_sim(&[self.server], RingConfig::default());
        stage_via_ring(&self.client.margo, &ring, &self.pipeline, &meta, payload)
    }

    /// Executes the pipeline on this server alone. Reactive pipelines
    /// may report [`ExecOutcome::Skipped`] when a trigger decided
    /// against running this iteration.
    pub fn execute(&self, iteration: u64) -> Result<ExecOutcome> {
        Ok(self.client.margo.forward_retry(
            self.server,
            "colza.execute",
            &ExecuteArgs {
                pipeline: self.pipeline.clone(),
                iteration,
                tenant: TenantId::default(),
            },
            &heavy_retry(),
        )?)
    }

    /// Ends the iteration on this server.
    pub fn deactivate(&self, iteration: u64) -> Result<()> {
        Ok(self.client.margo.forward_retry(
            self.server,
            "colza.deactivate",
            &DeactivateArgs {
                pipeline: self.pipeline.clone(),
                iteration,
                tenant: TenantId::default(),
            },
            &control_retry(),
        )?)
    }

    /// Fetches the pipeline's latest result from this server.
    pub fn fetch_result(&self) -> Result<Option<Vec<u8>>> {
        Ok(self.client.margo.forward_retry(
            self.server,
            "colza.fetch_result",
            &FetchResultArgs {
                pipeline: self.pipeline.clone(),
            },
            &heavy_retry(),
        )?)
    }
}

/// A handle to a pipeline replicated across the staging area.
pub struct DistributedPipelineHandle {
    client: Arc<ColzaClient>,
    pipeline: String,
    /// The tenant this handle acts as: stamped into every staged block
    /// and execute/deactivate request. Defaults to the implicit tenant.
    tenant: TenantId,
    members: Mutex<Vec<Address>>,
    ring_cfg: RingConfig,
    /// Ring cache: rebuilt only when the member list changes.
    placement: Mutex<Option<(Vec<Address>, Arc<HashRing>)>>,
    /// Retry policy for the heavy RPCs (execute, result fetch).
    heavy: RetryConfig,
    /// Per-dataset codec selection for staged blocks.
    codec_cfg: CodecConfig,
    /// Delta-chain state per `(dataset name, block_id)`: the last
    /// successfully staged plain payload, the iteration it belonged to
    /// and the member view it was staged under. A chain only continues
    /// while the view is unchanged (the epoch-anchor rule).
    chain: Mutex<HashMap<(String, u64), ChainBase>>,
}

/// The client-side base of one delta chain.
struct ChainBase {
    iteration: u64,
    members: Vec<Address>,
    plain: Bytes,
}

impl DistributedPipelineHandle {
    /// The current member list this handle operates over.
    pub fn members(&self) -> Vec<Address> {
        self.members.lock().clone()
    }

    /// Sets the replication factor: each block is staged on its primary
    /// plus `replication - 1` replicas (clamped to the group size), and
    /// a crash between `stage` and `execute` recovers from the replicas
    /// instead of erroring back to the simulation. Takes effect at the
    /// next [`DistributedPipelineHandle::activate`].
    pub fn set_replication(&mut self, replication: usize) {
        assert!(replication >= 1, "replication factor must be at least 1");
        self.ring_cfg.replication = replication;
        self.placement.lock().take();
    }

    /// Replaces the retry policy for heavy RPCs (execute and result
    /// fetch). The default generous 10 s per-try assumes a dead target
    /// fails fast with `Unreachable`; a harness that crash-injects
    /// fail-silent servers (open endpoint, swallowed replies) lowers the
    /// per-try so a lost reply is re-probed — and turned into
    /// `Unreachable` once the endpoint closes — sooner.
    pub fn set_heavy_retry(&mut self, cfg: RetryConfig) {
        self.heavy = cfg;
    }

    /// Sets the tenant this handle operates as (DESIGN.md §14). Every
    /// subsequent `stage` carries it for quota accounting, and every
    /// `execute` for fair-share scheduling. A handle that never calls
    /// this runs as the implicit `"default"` tenant.
    pub fn set_tenant(&mut self, tenant: impl Into<String>) {
        self.tenant = TenantId::new(tenant);
    }

    /// The tenant this handle operates as.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Replaces the codec configuration: how each dataset is encoded by
    /// [`DistributedPipelineHandle::stage`] before the owners pull it.
    /// Resets any in-progress delta chains (the next delta-coded stage
    /// anchors). The default is raw staging.
    pub fn set_codec(&mut self, cfg: CodecConfig) {
        self.codec_cfg = cfg;
        self.chain.lock().clear();
    }

    /// Adopts the staging area's advertised codec configuration (the
    /// `codec` section of the daemons' [`crate::DaemonConfig`]), so
    /// client and deployment agree without out-of-band configuration.
    /// Explicit opt-in — plain handles never issue this extra RPC.
    pub fn adopt_server_codec(&mut self, contact: Address) -> Result<()> {
        let cfg: CodecConfig =
            self.client
                .margo
                .forward_retry(contact, "colza.get_codec_config", &(), &control_retry())?;
        self.set_codec(cfg);
        Ok(())
    }

    /// The ring over the current member list (cached until the view
    /// changes).
    fn ring(&self) -> Arc<HashRing> {
        let members = self.members.lock().clone();
        let mut placement = self.placement.lock();
        match placement.as_ref() {
            Some((m, ring)) if *m == members => Arc::clone(ring),
            _ => {
                let ring = Arc::new(HashRing::build_in_sim(&members, self.ring_cfg));
                *placement = Some((members, Arc::clone(&ring)));
                ring
            }
        }
    }

    /// Starts an analysis iteration with the paper's two-phase commit:
    /// every server votes with its view epoch; any disagreement refreshes
    /// the client's view and retries. On success membership is frozen
    /// until [`DistributedPipelineHandle::deactivate`] — and, new with
    /// the staging store, every server has reconciled its held blocks
    /// against the frozen view (migration/repair) before the commit
    /// acknowledgement comes back.
    pub fn activate(&self, iteration: u64) -> Result<()> {
        const MAX_ATTEMPTS: usize = 16;
        let mut sp = hpcsim::trace::span("colza", "colza.activate");
        if sp.active() {
            sp.arg("iteration", iteration);
        }
        for attempt in 0..MAX_ATTEMPTS {
            let members = self.members.lock().clone();
            if members.is_empty() {
                return Err(ColzaError::EmptyGroup);
            }
            // Phase 1: prepare (vote collection).
            let args = PrepareActivateArgs {
                pipeline: self.pipeline.clone(),
                iteration,
            };
            let votes = {
                let mut psp = hpcsim::trace::span("colza", "colza.2pc.prepare");
                if psp.active() {
                    psp.arg("servers", members.len());
                }
                let t0 = hpcsim::process::try_current().map(|c| c.now());
                let votes = self.broadcast::<_, PrepareActivateReply>(
                    &members,
                    "colza.prepare_activate",
                    &args,
                    &activate_retry(),
                );
                if let (Some(t0), Some(c)) = (t0, hpcsim::process::try_current()) {
                    hpcsim::trace::record_duration("colza.2pc.vote", c.now() - t0);
                }
                votes
            };
            let mut ok_votes = Vec::new();
            let mut failed = false;
            for v in votes {
                match v {
                    Ok(reply) => ok_votes.push(reply),
                    Err(_) => failed = true,
                }
            }
            let consistent = !failed
                && ok_votes
                    .iter()
                    .all(|v| v.epoch == ok_votes[0].epoch && v.view == members);
            if consistent {
                // Phase 2: commit with the agreed member list and ring
                // parameters; servers sync their stores before replying.
                let commit = CommitActivateArgs {
                    pipeline: self.pipeline.clone(),
                    iteration,
                    members: members.clone(),
                    ring: self.ring_cfg,
                };
                let results = {
                    let mut csp = hpcsim::trace::span("colza", "colza.2pc.commit");
                    if csp.active() {
                        csp.arg("servers", members.len());
                    }
                    self.broadcast::<_, ()>(
                        &members,
                        "colza.commit_activate",
                        &commit,
                        &commit_retry(),
                    )
                };
                if results.iter().all(|r| r.is_ok()) {
                    if sp.active() {
                        sp.arg("attempts", attempt + 1);
                    }
                    return Ok(());
                }
            }
            // Abort and refresh: adopt the freshest view any server holds.
            hpcsim::trace::counter_add("colza.2pc.aborts", 1);
            let abort = AbortActivateArgs {
                pipeline: self.pipeline.clone(),
                iteration,
            };
            let _ = {
                let _asp = hpcsim::trace::span("colza", "colza.2pc.abort");
                self.broadcast::<_, ()>(&members, "colza.abort_activate", &abort, &activate_retry())
            };
            let mut fresh: Option<Vec<Address>> = None;
            for v in ok_votes {
                fresh = Some(match fresh {
                    None => v.view,
                    Some(f) if v.view.len() > f.len() => v.view,
                    Some(f) => f,
                });
            }
            if fresh.is_none() {
                // All votes failed; re-query survivors of the old view.
                for m in &members {
                    if let Ok(view) = self.client.view_from(*m) {
                        fresh = Some(view);
                        break;
                    }
                }
            }
            match fresh {
                Some(view) if !view.is_empty() => *self.members.lock() = view,
                _ => return Err(ColzaError::EmptyGroup),
            }
        }
        Err(ColzaError::ActivateConflict {
            attempts: MAX_ATTEMPTS,
        })
    }

    /// Stages one block on its ring owners: the primary (whose copy the
    /// pipeline is handed at `execute`) plus `replication - 1` replicas,
    /// each pulling the payload via RDMA from this process's memory.
    ///
    /// When a target fails mid-stage (a server died or is draining out),
    /// the client refreshes its view and re-routes the block through the
    /// ring over the surviving members — the block lands on the dead
    /// server's successor instead of being lost. Server-side inserts are
    /// idempotent, so re-staging an already-delivered copy is harmless.
    /// A re-route can transiently leave the block *primary* on two
    /// servers (the original primary was falsely suspected, or recorded
    /// the copy before the failure). No backend has seen either copy
    /// yet: at `execute` each server corrects its roles against the
    /// frozen placement and only then hands its primaries over, so the
    /// block still renders exactly once.
    ///
    /// With a non-raw codec configured for the dataset, the payload is
    /// encoded here — exactly once — and the *frame* is what every owner
    /// pulls; `meta.codec`/`meta.encoded_size` are filled in from the
    /// encoding, so callers never set them. A delta-coded dataset diffs
    /// against the previous successfully staged payload only while the
    /// member view is unchanged; any view change, size change or
    /// re-route anchors the chain with a full frame (the successor
    /// owner may not hold the base).
    pub fn stage(&self, meta: BlockMeta, payload: &Bytes) -> Result<()> {
        const MAX_REROUTES: usize = 4;
        let spec = self.codec_cfg.spec_for(&meta.name);
        let mut last: Option<ColzaError> = None;
        // Stateless codecs (raw, shuffle+LZ, lossy) encode exactly once,
        // outside the re-route loop; only delta chains re-examine their
        // base per attempt (a re-route must anchor).
        let stateless = if spec == CodecSpec::Delta {
            None
        } else {
            Some(crate::codec::encode_block(spec, payload, None)?)
        };
        // Set after a re-route: the remainder of this stage call must
        // anchor rather than diff.
        let mut anchored = false;
        for attempt in 0..MAX_REROUTES {
            let members = self.members.lock().clone();
            if members.is_empty() {
                return Err(ColzaError::EmptyGroup);
            }
            let enc = match &stateless {
                Some(e) => e.clone(),
                None => {
                    let base_owned: Option<(Bytes, u64)> = if anchored {
                        None
                    } else {
                        let chain = self.chain.lock();
                        chain
                            .get(&(meta.name.clone(), meta.block_id))
                            .filter(|cb| {
                                cb.members == members
                                    && cb.plain.len() == payload.len()
                                    && cb.iteration < meta.iteration
                            })
                            .map(|cb| (cb.plain.clone(), cb.iteration))
                    };
                    crate::codec::encode_block(
                        spec,
                        payload,
                        base_owned.as_ref().map(|(b, it)| (b, *it)),
                    )?
                }
            };
            let mut wire_meta = meta.clone();
            wire_meta.codec = enc.codec;
            wire_meta.encoded_size = enc.frame.len();
            wire_meta.tenant = self.tenant.clone();
            let ring = self.ring();
            match stage_via_ring(&self.client.margo, &ring, &self.pipeline, &wire_meta, &enc.frame)
            {
                Ok(()) => {
                    if spec == CodecSpec::Delta {
                        self.chain.lock().insert(
                            (meta.name.clone(), meta.block_id),
                            ChainBase {
                                iteration: meta.iteration,
                                members,
                                plain: payload.clone(),
                            },
                        );
                    }
                    return Ok(());
                }
                // Quota backpressure is *not* a placement failure: the
                // block's owners are fine, this tenant just holds too
                // much. Re-routing would anchor delta chains and shuffle
                // copies for nothing — surface it to the caller, whose
                // back-off (or `stage_with_backpressure`) is the fix.
                Err(e @ ColzaError::QuotaExceeded(_)) => return Err(e),
                Err(e) if e.is_retryable() && attempt + 1 < MAX_REROUTES => {
                    hpcsim::trace::counter_add("colza.stage.reroutes", 1);
                    last = Some(e);
                    anchored = true;
                    let _ = self.refresh_view();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ColzaError::EmptyGroup))
    }

    /// [`DistributedPipelineHandle::stage`], riding through quota
    /// backpressure: on [`ColzaError::QuotaExceeded`] the client backs
    /// off (exponentially, from 1 ms virtual) and retries until the
    /// tenant's earlier iterations release enough quota or `budget`
    /// runs out. Every other error keeps `stage`'s semantics.
    pub fn stage_with_backpressure(
        &self,
        meta: BlockMeta,
        payload: &Bytes,
        budget: Duration,
    ) -> Result<()> {
        let ctx = hpcsim::process::current();
        let deadline = ctx.now() + budget.as_nanos() as u64;
        let mut delay = Duration::from_millis(1);
        loop {
            match self.stage(meta.clone(), payload) {
                Err(ColzaError::QuotaExceeded(m)) => {
                    hpcsim::trace::counter_add("colza.stage.backpressure", 1);
                    if ctx.now() >= deadline {
                        return Err(ColzaError::QuotaExceeded(m));
                    }
                    // The backoff costs virtual time (the simulated
                    // client really waits) *and* yields wall-clock so a
                    // concurrent deactivate can land and free quota.
                    std::thread::sleep(delay);
                    ctx.advance(delay.as_nanos() as u64);
                    delay = (delay * 2).min(Duration::from_millis(64));
                }
                other => return other,
            }
        }
    }

    /// Non-blocking [`DistributedPipelineHandle::stage`].
    pub fn istage(
        self: &Arc<Self>,
        meta: BlockMeta,
        payload: Bytes,
    ) -> argo::Eventual<Result<()>> {
        let this = Arc::clone(self);
        let ev = argo::Eventual::new();
        let ev2 = ev.clone();
        let ctx = hpcsim::process::current();
        std::thread::Builder::new()
            .name("colza-istage".to_string())
            .spawn(move || {
                hpcsim::process::enter(ctx, move || ev2.set(this.stage(meta, &payload)))
            })
            .expect("spawn istage");
        ev
    }

    /// Runs the pipeline collectively on all servers for this iteration.
    /// Returns [`ExecOutcome::Skipped`] when the pipeline's trigger
    /// program decided against this iteration — a successful outcome,
    /// and necessarily unanimous: every server evaluates the same
    /// predicates over the same fused global statistics. Divergent
    /// outcomes therefore indicate a broken deployment (e.g. servers
    /// running different scripts under one name) and surface as
    /// [`ColzaError::Pipeline`].
    pub fn execute(&self, iteration: u64) -> Result<ExecOutcome> {
        let members = self.members.lock().clone();
        let mut sp = hpcsim::trace::span("colza", "colza.execute");
        if sp.active() {
            sp.arg("iteration", iteration);
            sp.arg("servers", members.len());
        }
        let args = ExecuteArgs {
            pipeline: self.pipeline.clone(),
            iteration,
            tenant: self.tenant.clone(),
        };
        // Servers run a collective inside the handler, so every execute
        // RPC must be in flight simultaneously.
        let results =
            self.broadcast::<_, ExecOutcome>(&members, "colza.execute", &args, &self.heavy);
        let mut merged: Option<ExecOutcome> = None;
        for r in results {
            let outcome = r?;
            match merged {
                None => merged = Some(outcome),
                Some(prev) if prev == outcome => {}
                Some(prev) => {
                    return Err(ColzaError::Pipeline(format!(
                        "trigger decision diverged across servers on iteration {iteration}: \
                         {prev:?} vs {outcome:?}"
                    )))
                }
            }
        }
        let outcome = merged.unwrap_or(ExecOutcome::Ran);
        if sp.active() && outcome.is_skipped() {
            sp.arg("skipped", true);
        }
        Ok(outcome)
    }

    /// [`DistributedPipelineHandle::execute`], with abort-and-recover:
    /// when a server dies inside the iteration's collective, survivors
    /// reply with [`ColzaError::IterationAborted`] (their MoNA
    /// communicator was revoked) and this method re-runs the activate
    /// 2PC against the refreshed — shrunk — view and re-issues the
    /// execute. Staged inputs survive the abort on the servers (they
    /// are only released at deactivate), so the re-executed iteration
    /// is handed the store's copies again, promoted replicas included,
    /// without re-staging.
    ///
    /// Plain [`DistributedPipelineHandle::execute`] keeps its
    /// fail-fast semantics; call this variant when the simulation
    /// wants the iteration to ride through crashes.
    pub fn execute_with_recovery(&self, iteration: u64) -> Result<ExecOutcome> {
        const MAX_ABORTS: usize = 4;
        const REACTIVATE_TRIES: usize = 600;
        let mut aborts = 0;
        loop {
            let err = match self.execute(iteration) {
                Ok(outcome) => return Ok(outcome),
                Err(e) if e.is_retryable() && aborts < MAX_ABORTS => e,
                Err(e) => return Err(e),
            };
            aborts += 1;
            hpcsim::trace::counter_add("colza.exec.recoveries", 1);
            let mut sp = hpcsim::trace::span("colza", "colza.execute.recover");
            if sp.active() {
                sp.arg("iteration", iteration);
                sp.arg("aborts", aborts as u64);
            }
            // The dead member can linger in the survivors' SWIM views for
            // a few protocol rounds after the abort: keep refreshing and
            // re-freezing until the 2PC commits on a stable shrunk view.
            let mut reactivated = false;
            for _ in 0..REACTIVATE_TRIES {
                match self.refresh_view().and_then(|_| self.activate(iteration)) {
                    Ok(()) => {
                        reactivated = true;
                        break;
                    }
                    Err(e) if e.is_retryable() => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            }
            if !reactivated {
                return Err(err);
            }
        }
    }

    /// Non-blocking [`DistributedPipelineHandle::execute`] — what a real
    /// simulation uses so analysis overlaps computation (§III-E1).
    pub fn iexecute(self: &Arc<Self>, iteration: u64) -> argo::Eventual<Result<ExecOutcome>> {
        let this = Arc::clone(self);
        let ev = argo::Eventual::new();
        let ev2 = ev.clone();
        let ctx = hpcsim::process::current();
        std::thread::Builder::new()
            .name("colza-iexecute".to_string())
            .spawn(move || hpcsim::process::enter(ctx, move || ev2.set(this.execute(iteration))))
            .expect("spawn iexecute");
        ev
    }

    /// Ends the iteration: staged data is released and membership thaws.
    pub fn deactivate(&self, iteration: u64) -> Result<()> {
        let members = self.members.lock().clone();
        let mut sp = hpcsim::trace::span("colza", "colza.deactivate");
        if sp.active() {
            sp.arg("iteration", iteration);
        }
        let args = DeactivateArgs {
            pipeline: self.pipeline.clone(),
            iteration,
            tenant: self.tenant.clone(),
        };
        let results = self.broadcast::<_, ()>(&members, "colza.deactivate", &args, &control_retry());
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Fetches the pipeline's latest result from the compositing root
    /// (rank 0 of the frozen member list).
    pub fn fetch_result(&self) -> Result<Option<Vec<u8>>> {
        let members = self.members.lock().clone();
        let root = *members.first().ok_or(ColzaError::EmptyGroup)?;
        Ok(self.client.margo.forward_retry(
            root,
            "colza.fetch_result",
            &FetchResultArgs {
                pipeline: self.pipeline.clone(),
            },
            &self.heavy,
        )?)
    }

    /// Refreshes the member view from a live server.
    pub fn refresh_view(&self) -> Result<Vec<Address>> {
        let members = self.members.lock().clone();
        for m in &members {
            if let Ok(view) = self.client.view_from(*m) {
                if !view.is_empty() {
                    *self.members.lock() = view.clone();
                    return Ok(view);
                }
            }
        }
        Err(ColzaError::EmptyGroup)
    }

    /// Concurrently forwards an RPC to every member (one thread each,
    /// sharing this process's simulated context), collecting per-member
    /// results in order. Each call retries under `cfg`, so transient
    /// message loss does not abort a whole round.
    fn broadcast<A, R>(
        &self,
        members: &[Address],
        name: &str,
        args: &A,
        cfg: &RetryConfig,
    ) -> Vec<Result<R>>
    where
        A: serde::Serialize + Clone + Send + 'static,
        R: serde::de::DeserializeOwned + Send + 'static,
    {
        if members.len() == 1 {
            return vec![self
                .client
                .margo
                .forward_retry(members[0], name, args, cfg)
                .map_err(ColzaError::from)];
        }
        let ctx = hpcsim::process::current();
        let handles: Vec<_> = members
            .iter()
            .map(|&m| {
                let margo = Arc::clone(&self.client.margo);
                let name = name.to_string();
                let args = args.clone();
                let ctx = Arc::clone(&ctx);
                let cfg = *cfg;
                std::thread::Builder::new()
                    .name("colza-bcast".to_string())
                    .spawn(move || {
                        hpcsim::process::enter(ctx, move || {
                            margo
                                .forward_retry::<A, R>(m, &name, &args, &cfg)
                                .map_err(ColzaError::from)
                        })
                    })
                    .expect("spawn broadcast thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("broadcast thread panicked"))
            .collect()
    }
}

/// Stages one block on its ring owners: the payload is exposed once and
/// each owner pulls it; the primary (owner 0) hands its copy to the
/// backend at `execute`, the replicas only keep the bytes. Shared by both handle flavours — this
/// is the single placement path in the client.
fn stage_via_ring(
    margo: &Arc<MargoInstance>,
    ring: &HashRing,
    pipeline: &str,
    meta: &BlockMeta,
    payload: &Bytes,
) -> Result<()> {
    // `payload` is the wire form: the encoded frame for codec-staged
    // blocks, the serialized dataset itself for raw ones.
    debug_assert_eq!(meta.encoded_size, payload.len());
    let targets = ring.owners(&BlockKey::new(pipeline, meta.block_id));
    if targets.is_empty() {
        return Err(ColzaError::EmptyGroup);
    }
    let mut sp = hpcsim::trace::span("colza", "colza.stage");
    if sp.active() {
        sp.arg("block", meta.block_id);
        sp.arg("iteration", meta.iteration);
        sp.arg("bytes", meta.size);
        sp.arg("copies", targets.len());
        if meta.codec != crate::codec::CodecId::Raw {
            sp.arg("codec", meta.codec.name());
            sp.arg("wire_bytes", meta.encoded_size);
        }
    }
    let endpoint = margo.endpoint();
    let bulk = endpoint.expose(payload.clone());
    // Stage RPCs retry through loss: the server's RDMA pull is repeatable
    // while the exposure is live, and req-id dedup keeps a block from
    // being staged twice.
    let cfg = RetryConfig {
        per_try_timeout: Duration::from_secs(2),
        ..heavy_retry()
    };
    let mut out: Result<()> = Ok(());
    for (i, &target) in targets.iter().enumerate() {
        let args = StageArgs {
            pipeline: pipeline.to_string(),
            meta: meta.clone(),
            role: if i == 0 { Role::Primary } else { Role::Replica },
            bulk,
        };
        if let Err(e) = margo.forward_retry::<_, ()>(target, "colza.stage", &args, &cfg) {
            out = Err(ColzaError::from(e));
            break;
        }
    }
    endpoint.unexpose(bulk).ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u64, replication: usize) -> HashRing {
        let members: Vec<Address> = (0..n).map(Address).collect();
        HashRing::build(
            &members,
            |_| None,
            RingConfig {
                replication,
                ..RingConfig::default()
            },
        )
    }

    #[test]
    fn ring_placement_is_deterministic() {
        let a = ring(4, 2);
        let b = ring(4, 2);
        for id in 0..32 {
            let k = BlockKey::new("p", id);
            assert_eq!(a.owners(&k), b.owners(&k), "client and servers must agree");
        }
    }

    #[test]
    fn ring_placement_covers_all_servers_for_dense_blocks() {
        let r = ring(4, 1);
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..64 {
            seen.insert(r.primary(&BlockKey::new("p", id)).unwrap());
        }
        assert_eq!(seen.len(), 4, "all servers receive blocks");
    }

    #[test]
    fn replication_yields_distinct_owners_primary_first() {
        let r = ring(3, 2);
        for id in 0..32 {
            let k = BlockKey::new("p", id);
            let owners = r.owners(&k);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(owners[0], r.primary(&k).unwrap());
        }
    }

    #[test]
    fn single_server_ring_is_trivial() {
        // The one-server PipelineHandle path reduces to "that server".
        let members = [Address(7)];
        let r = HashRing::build(&members, |_| None, RingConfig::default());
        assert_eq!(r.owners(&BlockKey::new("p", 3)), vec![Address(7)]);
    }
}
