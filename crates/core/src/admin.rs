//! The admin library (a separate interface in the paper, §II-B): create
//! and destroy pipelines, and ask servers to leave the staging area. Used
//! by the simulation, external tools, or autonomic agents.

use std::sync::Arc;

use margo::MargoInstance;
use na::Address;

use crate::error::Result;
use crate::protocol::{
    CreatePipelineArgs, DestroyPipelineArgs, MetricsReport, ServerLifecycle, TenancyConfig,
};
use store::TenantUsage;

/// Administrative client for a Colza deployment.
pub struct AdminClient {
    margo: Arc<MargoInstance>,
}

impl AdminClient {
    /// Wraps a margo instance.
    pub fn new(margo: Arc<MargoInstance>) -> Self {
        Self { margo }
    }

    /// Creates a pipeline on one server: backend `library` (the shared-
    /// library stand-in), instance `name`, and a JSON configuration
    /// string handed to the factory.
    pub fn create_pipeline(
        &self,
        server: Address,
        library: &str,
        name: &str,
        config: &str,
    ) -> Result<()> {
        Ok(self.margo.forward(
            server,
            "colza.admin.create_pipeline",
            &CreatePipelineArgs {
                library: library.to_string(),
                name: name.to_string(),
                config: config.to_string(),
            },
        )?)
    }

    /// Creates the pipeline on every listed server (parallel pipelines
    /// must have an instance on each staging process).
    pub fn create_pipeline_on_all(
        &self,
        servers: &[Address],
        library: &str,
        name: &str,
        config: &str,
    ) -> Result<()> {
        for &s in servers {
            self.create_pipeline(s, library, name, config)?;
        }
        Ok(())
    }

    /// Destroys a pipeline on one server.
    pub fn destroy_pipeline(&self, server: Address, name: &str) -> Result<()> {
        Ok(self.margo.forward(
            server,
            "colza.admin.destroy_pipeline",
            &DestroyPipelineArgs {
                name: name.to_string(),
            },
        )?)
    }

    /// Lists pipeline names on one server.
    pub fn list_pipelines(&self, server: Address) -> Result<Vec<String>> {
        Ok(self
            .margo
            .forward(server, "colza.admin.list_pipelines", &())?)
    }

    /// Asks a server to leave the staging area and shut down (the paper's
    /// scale-down trigger, §II-F).
    pub fn request_leave(&self, server: Address) -> Result<()> {
        Ok(self.margo.forward(server, "colza.admin.leave", &())?)
    }

    /// Scrapes one server's trace counters (its per-RPC, per-plane and
    /// membership statistics). With tracing disabled on the server the
    /// report comes back with `enabled: false` and no counters.
    pub fn metrics(&self, server: Address) -> Result<MetricsReport> {
        Ok(self.margo.forward(server, "colza.admin.metrics", &())?)
    }

    /// Installs a tenancy policy (quotas, priority classes, the execute
    /// gate — DESIGN.md §14) on one server.
    pub fn set_tenancy(&self, server: Address, cfg: &TenancyConfig) -> Result<()> {
        Ok(self.margo.forward(server, "colza.admin.set_tenancy", cfg)?)
    }

    /// Installs a tenancy policy on every listed server. Policy must be
    /// uniform across the pool: quota decisions are per server, and a
    /// split policy would admit on some owners and refuse on others.
    pub fn set_tenancy_on_all(&self, servers: &[Address], cfg: &TenancyConfig) -> Result<()> {
        for &s in servers {
            self.set_tenancy(s, cfg)?;
        }
        Ok(())
    }

    /// One server's per-tenant staged load (the `tenants` section of the
    /// metrics scrape).
    pub fn tenant_usage(&self, server: Address) -> Result<Vec<TenantUsage>> {
        Ok(self.metrics(server)?.tenants)
    }

    /// One poll of the replication-health predicate (DESIGN.md §10):
    /// every listed server answers its metrics scrape, reports
    /// [`ServerLifecycle::Ready`], zero under-replicated and orphan
    /// blocks, an empty pending-handoff set, and at least one completed
    /// scrub pass. The scrub-pass floor matters: a cluster that never
    /// scrubbed has never *verified* its redundancy, so "all gauges
    /// zero" alone would be vacuous health.
    pub fn healthy(&self, servers: &[Address]) -> bool {
        servers.iter().all(|&s| {
            self.metrics(s).is_ok_and(|r| {
                r.lifecycle == ServerLifecycle::Ready
                    && r.under_replicated_blocks == 0
                    && r.orphan_blocks == 0
                    && r.pending_handoff == 0
                    && r.scrub_passes >= 1
            })
        })
    }

    /// Convergence probe: polls [`healthy`](Self::healthy) up to
    /// `max_polls` times, calling `between(attempt)` between polls so
    /// deterministic harnesses can drive gossip ticks and scrub passes
    /// forward (virtual time only advances when someone advances it).
    /// Returns the number of polls taken, or `None` if the deployment
    /// never converged.
    pub fn wait_healthy(
        &self,
        servers: &[Address],
        max_polls: u32,
        mut between: impl FnMut(u32),
    ) -> Option<u32> {
        for attempt in 1..=max_polls {
            if self.healthy(servers) {
                return Some(attempt);
            }
            between(attempt);
        }
        None
    }
}
