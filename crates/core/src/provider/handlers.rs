//! The RPC surface: the registration table and one method per handler.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use catalyst::{MonaVtkComm, MpiVtkComm};
use margo::{CallCtx, HandlerPool};
use na::Address;
use vizkit::Controller;

use super::admit::stored_block;
use super::{ColzaProvider, ProviderComm};
use crate::backend::{self, BackendCtx};
use crate::codec::CodecId;
use crate::protocol::*;
use crate::ColzaError;

type Reply<R> = std::result::Result<R, String>;

impl ColzaProvider {
    /// Registers `handler` under `name`. The table holds the provider
    /// weakly: the provider owns the margo instance (and its pools) the
    /// table lives in, so a strong reference here would be a cycle that
    /// keeps a stopped daemon's threads alive forever.
    fn route<A, R>(
        self: &Arc<Self>,
        name: &str,
        pool: HandlerPool,
        handler: fn(&Self, A, &CallCtx) -> Reply<R>,
    ) where
        A: DeserializeOwned + 'static,
        R: Serialize + 'static,
    {
        let weak = Arc::downgrade(self);
        self.margo
            .register_in_pool(name, pool, move |args: A, ctx| match weak.upgrade() {
                Some(p) => handler(&p, args, ctx),
                None => Err("provider shut down".to_string()),
            });
    }

    /// The registration table: every RPC this provider serves.
    pub(super) fn register_handlers(self: &Arc<Self>) {
        use HandlerPool::{Control, Heavy};
        // --- the four-call protocol --------------------------------------
        self.route("colza.get_view", Control, |p, _: (), _| Ok(p.group.view()));
        self.route("colza.get_codec_config", Control, |p, _: (), _| {
            Ok(p.codec_cfg.lock().clone())
        });
        self.route("colza.prepare_activate", Control, Self::on_prepare_activate);
        self.route("colza.commit_activate", Control, Self::on_commit_activate);
        self.route(
            "colza.abort_activate",
            Control,
            |p, _: AbortActivateArgs, _| {
                p.group.unfreeze();
                Ok(())
            },
        );
        self.route("colza.stage", Control, Self::on_stage);
        self.route("colza.execute", Heavy, Self::on_execute);
        self.route("colza.deactivate", Control, Self::on_deactivate);
        self.route(
            "colza.fetch_result",
            Control,
            |p, args: FetchResultArgs, _| Ok(p.pipeline(&args.pipeline)?.take_result()),
        );
        // --- server-to-server store traffic ------------------------------
        // In the heavy pool: a convergence pass inside one server's commit
        // handler must not be able to starve the destination's control
        // pool.
        self.route("colza.store.push", Heavy, Self::on_push);
        self.route("colza.store.handoff", Heavy, Self::on_handoff);
        // Anti-entropy inventory exchange: a compact per-(pipeline,
        // iteration) fingerprint summary of this server's holdings, so a
        // scrubbing peer pushes exactly the copies this server provably
        // lacks.
        self.route("colza.store.digest", Control, |p, _: DigestArgs, _| {
            Ok(store::StoreDigest::of(&p.store.snapshot()))
        });
        // --- admin handlers (a separate library in the paper) ------------
        self.route(
            "colza.admin.create_pipeline",
            Control,
            Self::on_create_pipeline,
        );
        self.route(
            "colza.admin.destroy_pipeline",
            Control,
            Self::on_destroy_pipeline,
        );
        self.route("colza.admin.leave", Control, |p, _: (), _| {
            p.leave_requested.store(true, Ordering::Release);
            Ok(())
        });
        self.route("colza.admin.list_pipelines", Control, |p, _: (), _| {
            let mut names: Vec<String> = p.pipelines.read().keys().cloned().collect();
            names.sort();
            Ok(names)
        });
        self.route("colza.admin.metrics", Control, Self::on_metrics);
        // Installs (or replaces) the tenancy policy at runtime: the
        // autoscaler reconfigures quotas on a live pool this way.
        self.route(
            "colza.admin.set_tenancy",
            Control,
            |p, cfg: TenancyConfig, _| {
                p.qos.set_config(cfg);
                Ok(())
            },
        );
    }

    fn on_prepare_activate(
        &self,
        args: PrepareActivateArgs,
        _ctx: &CallCtx,
    ) -> Reply<PrepareActivateReply> {
        self.pipeline(&args.pipeline)?;
        // Voting freezes membership until deactivate/abort.
        self.group.freeze();
        Ok(PrepareActivateReply {
            epoch: self.group.view_epoch(),
            view: self.group.view(),
        })
    }

    fn on_commit_activate(&self, args: CommitActivateArgs, _ctx: &CallCtx) -> Reply<()> {
        self.pipeline(&args.pipeline)?.activate(args.iteration)?;
        // Converge the holdings on the newly frozen view *before*
        // acknowledging: when the commit returns, every survivor-owned
        // block is already in place under its new role, so `execute` can
        // proceed from replicas. A commit whose pushes transiently failed
        // must fail — the client aborts and retries the 2PC, and the
        // unadvanced placement makes the next pass re-push what is still
        // missing. Quota *refusals* are tolerated: they would refuse
        // identically on every retry, so failing here would livelock
        // every tenant's activation on one tenant's overrun; the
        // over-quota tenant instead runs with degraded redundancy.
        let report = self.resync(&args.members, args.ring, "commit");
        if report.failed > 0 {
            return Err(format!(
                "store sync incomplete: {} push(es) failed",
                report.failed
            ));
        }
        self.frozen
            .lock()
            .insert((args.pipeline, args.iteration), (args.members, args.ring));
        // A committed iteration proves this server is caught up with the
        // group: lifecycle Joining → Ready.
        self.caught_up.store(true, Ordering::Release);
        Ok(())
    }

    fn on_stage(&self, args: StageArgs, ctx: &CallCtx) -> Reply<()> {
        self.pipeline(&args.pipeline)?;
        let mut sp = hpcsim::trace::span("colza", "colza.srv.stage");
        if sp.active() {
            sp.arg("block", args.meta.block_id);
            sp.arg("bytes", args.meta.size);
            if args.meta.codec != CodecId::Raw {
                sp.arg("codec", args.meta.codec.name());
                sp.arg("wire_bytes", args.meta.encoded_size);
            }
        }
        // Pull the (encoded) payload from the simulation's memory.
        let data = ctx
            .endpoint
            .rdma_get(args.bulk, 0, args.meta.encoded_size)
            .map_err(|e| e.to_string())?;
        self.admit(&args.pipeline, args.meta, args.role, data, None)
    }

    /// Server-to-server transfer (migration, drain, repair, scrub).
    fn on_push(&self, args: PushBlockArgs, ctx: &CallCtx) -> Reply<()> {
        self.pipeline(&args.pipeline)?;
        let (data, plain) = pull_copy(&args, ctx)?;
        hpcsim::trace::counter_add("colza.store.recv.blocks", 1);
        hpcsim::trace::counter_add("colza.store.recv.bytes", data.len() as u64);
        if let Some(pl) = &plain {
            hpcsim::trace::counter_add("colza.store.recv.plain_bytes", pl.len() as u64);
        }
        self.admit(&args.pipeline, args.meta, args.role, data, plain)
    }

    /// Last-resort drain parking: a leaver whose drain could not place a
    /// copy with its ring owners parks it on any reachable survivor. The
    /// copy is *not* admitted to the store — no quota charge, no role —
    /// it waits in the pending-handoff set for the next scrub pass to
    /// place it through the normal paths.
    fn on_handoff(&self, args: PushBlockArgs, ctx: &CallCtx) -> Reply<()> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ColzaError::draining().to_reply());
        }
        let (data, plain) = pull_copy(&args, ctx)?;
        hpcsim::trace::counter_add("colza.store.handoff.received", 1);
        let b = stored_block(&args.pipeline, &args.meta, args.role, data, plain);
        let mut parked = self.pending_handoff.lock();
        let dup = parked
            .iter()
            .any(|x| x.key == b.key && x.iteration == b.iteration && x.name == b.name);
        if !dup {
            parked.push(b);
        }
        Ok(())
    }

    fn on_execute(&self, args: ExecuteArgs, _ctx: &CallCtx) -> Reply<ExecOutcome> {
        let entry = self.pipeline(&args.pipeline)?;
        let (members, ring_cfg) = self
            .frozen
            .lock()
            .get(&(args.pipeline.clone(), args.iteration))
            .cloned()
            .ok_or_else(|| "execute before activate".to_string())?;
        // Settle which copies render before running the pipeline: a
        // mid-iteration re-route or repair may have left a block primary
        // on two servers (or on none that survived).
        let blocks = self.hand_over(&args.pipeline, args.iteration, &members, ring_cfg)?;
        let ctrl = self.controller(&members, args.iteration)?;
        let mut sp = hpcsim::trace::span("colza", "colza.srv.execute");
        if sp.active() {
            sp.arg("iteration", args.iteration);
            sp.arg("servers", members.len());
            sp.arg("tenant", args.tenant.as_str());
        }
        // DRR cost hint: the tenant's decoded bytes on this server at
        // ~1 B/ns nominal service rate — a stable, deterministic proxy
        // for the iteration's render work.
        let cost_hint = self.store.tenant_staged_bytes(args.tenant.as_str()).max(1);
        let out = self.qos.run(&args.tenant, cost_hint, || {
            entry.execute(args.iteration, &blocks, &ctrl)
        });
        hpcsim::trace::counter_add(
            format!("colza.tenant.{}.exec.count", args.tenant.as_str()),
            1,
        );
        match out {
            // A member died inside the iteration's collective: the
            // communicator was revoked. Roll back by leaving the
            // iteration's staged inputs exactly where they are — the
            // store keeps every copy until deactivate, and the next
            // execute hands over the primaries under the re-frozen
            // (shrunk) view — and reply with the typed retryable abort
            // marker.
            Err(e) if e.contains(mona::REVOKED_MARKER) => {
                hpcsim::trace::counter_add("colza.exec.aborted", 1);
                if sp.active() {
                    sp.arg("aborted", true);
                }
                Err(ColzaError::IterationAborted(format!(
                    "iteration {} collective revoked: {e}",
                    args.iteration
                ))
                .to_reply())
            }
            // A trigger skipping the iteration is a successful outcome;
            // surface it to the client typed, not as an error
            // (DESIGN.md §15).
            Ok(outcome) => {
                if outcome.is_skipped() {
                    hpcsim::trace::counter_add("colza.exec.skipped", 1);
                    if sp.active() {
                        sp.arg("skipped", true);
                    }
                }
                Ok(outcome)
            }
            other => other,
        }
    }

    fn on_deactivate(&self, args: DeactivateArgs, _ctx: &CallCtx) -> Reply<()> {
        self.pipeline(&args.pipeline)?.deactivate(args.iteration)?;
        self.store.release_iteration(&args.pipeline, args.iteration);
        // The iteration window closes: the tenant's execute-time budget
        // refills and a throttled tenant recovers its class weight.
        self.qos.window_reset(&args.tenant);
        self.frozen
            .lock()
            .remove(&(args.pipeline.clone(), args.iteration));
        // Processes may join/leave again until the next iteration.
        self.group.unfreeze();
        Ok(())
    }

    fn on_create_pipeline(&self, args: CreatePipelineArgs, _ctx: &CallCtx) -> Reply<()> {
        let ctx = BackendCtx {
            self_addr: self.margo.address(),
            config: args.config,
        };
        // An InvalidScript rejection travels marker-prefixed, so the client
        // maps it back to the typed, non-retryable error.
        let backend = backend::instantiate(&args.library, &ctx).map_err(|e| e.to_reply())?;
        self.pipelines.write().insert(args.name, backend);
        Ok(())
    }

    fn on_destroy_pipeline(&self, args: DestroyPipelineArgs, _ctx: &CallCtx) -> Reply<()> {
        match self.pipelines.write().remove(&args.name) {
            Some(_) => {
                self.codec_bases
                    .lock()
                    .retain(|(pl, _, _), _| *pl != args.name);
                Ok(())
            }
            None => Err(format!("no pipeline named {:?}", args.name)),
        }
    }

    /// Scrapes this server's trace counters (DESIGN.md §9) and
    /// staging-store load. Always registered; with tracing disabled it
    /// reports empty counters (but live load).
    fn on_metrics(&self, _: (), _ctx: &CallCtx) -> Reply<MetricsReport> {
        let ctx = hpcsim::process::current();
        let tracer = ctx.cluster().tracer();
        let pid = ctx.pid().0;
        Ok(MetricsReport {
            pid,
            enabled: tracer.is_enabled(),
            staged_bytes: self.store.staged_bytes(),
            decoded_bytes: self.store.decoded_bytes(),
            tenants: self.store.tenant_usage(),
            lifecycle: self.lifecycle(),
            under_replicated_blocks: self.under_replicated.load(Ordering::Acquire),
            orphan_blocks: self.orphan_gauge.load(Ordering::Acquire),
            pending_handoff: self.pending_handoff.lock().len() as u64,
            scrub_passes: self.scrub_passes.load(Ordering::Acquire),
            counters: tracer.counters_for(pid),
        })
    }

    /// Builds the iteration's controller from the frozen member list.
    fn controller(&self, members: &[Address], iteration: u64) -> Reply<Controller> {
        match &self.comm {
            ProviderComm::Mona => {
                let comm = self
                    .mona
                    .comm_create_with_context(members.to_vec(), iteration)
                    .map_err(|e| e.to_string())?;
                Ok(Controller::new(MonaVtkComm::new(comm)))
            }
            ProviderComm::MpiStatic(slot) => {
                let comm = slot
                    .lock()
                    .clone()
                    .ok_or("static MPI world not initialized")?;
                Ok(Controller::new(MpiVtkComm::new(comm)))
            }
        }
    }
}

/// Pulls what a push or handoff exposes: the encoded frame and, for a
/// delta-diff copy, the sender's reconstructed plain, so this (possibly
/// fresh) owner can seed its chain state without the base frame.
fn pull_copy(args: &PushBlockArgs, ctx: &CallCtx) -> Reply<(Bytes, Option<Bytes>)> {
    let pull = |bulk, len| {
        ctx.endpoint
            .rdma_get(bulk, 0, len)
            .map_err(|e| e.to_string())
    };
    let data = pull(args.bulk, args.meta.encoded_size)?;
    let plain = match args.plain {
        Some(bulk) => Some(pull(bulk, args.plain_size)?),
        None => None,
    };
    Ok((data, plain))
}
