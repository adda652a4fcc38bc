//! The simulated cluster: node placement and process lifecycle.
//!
//! A [`Cluster`] is the stand-in for a machine allocation on Cori. Simulated
//! processes can be spawned on any node at any time — this is precisely the
//! capability the paper gets from asking the job scheduler for more nodes.
//! A spawned process runs as an OS thread with a
//! [`crate::process::ProcessCtx`] installed; an attached one has no thread
//! and is run step by step by the thread that holds its context.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::RwLock;

use crate::clock::VClock;
use crate::fabric::FabricModel;
use crate::fault::{FaultInjector, FaultPlan};
use crate::process::{enter, Pid, ProcessCtx};
use crate::trace::Tracer;

/// Identifier of a compute node.
pub type NodeId = usize;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The fabric delay model (defaults to the calibrated Aries preset).
    pub fabric: FabricModel,
    /// Master RNG seed; every process derives a reproducible stream from it.
    pub seed: u64,
    /// Scale factor applied when charging measured compute time to virtual
    /// clocks. Used to map scaled-down workloads back to paper-scale cost.
    pub compute_scale: f64,
    /// Fault-injection schedule applied to the fabric (defaults to none).
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            fabric: FabricModel::zero(),
            seed: 0x000C_017A_5EED,
            compute_scale: 1.0,
            faults: FaultPlan::default(),
        }
    }
}

impl ClusterConfig {
    /// Configuration with the calibrated Aries fabric, used by benchmarks.
    pub fn aries() -> Self {
        Self {
            fabric: crate::fabric::presets::aries(),
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone)]
struct ProcInfo {
    node: NodeId,
    clock: VClock,
    name: String,
    alive: bool,
}

/// Shared cluster state, reachable from every process context.
pub struct ClusterShared {
    fabric: FabricModel,
    seed: u64,
    compute_scale: f64,
    faults: FaultInjector,
    tracer: Tracer,
    next_pid: AtomicU64,
    procs: RwLock<HashMap<Pid, ProcInfo>>,
}

impl ClusterShared {
    /// The fabric model.
    pub fn fabric(&self) -> &FabricModel {
        &self.fabric
    }

    /// The fault injector built from the configured [`FaultPlan`].
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The trace collector (disabled until [`Tracer::set_enabled`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A canonical snapshot of the trace, with process names attached for
    /// timeline labels.
    pub fn trace_snapshot(&self) -> crate::trace::TraceSnapshot {
        let mut snap = self.tracer.snapshot();
        snap.proc_names = self
            .snapshot()
            .into_iter()
            .map(|(pid, _, name, _, _)| (pid.0, name))
            .collect();
        snap
    }

    /// The compute-time scale factor.
    pub fn compute_scale(&self) -> f64 {
        self.compute_scale
    }

    /// The node a process is placed on, if it exists.
    pub fn node_of(&self, pid: Pid) -> Option<NodeId> {
        self.procs.read().get(&pid).map(|p| p.node)
    }

    /// A handle to a process's virtual clock, if it exists.
    pub fn clock_of(&self, pid: Pid) -> Option<VClock> {
        self.procs.read().get(&pid).map(|p| p.clock.clone())
    }

    /// Whether the process has been spawned and has not yet terminated.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs.read().get(&pid).map(|p| p.alive).unwrap_or(false)
    }

    /// Number of processes ever spawned.
    pub fn spawned_count(&self) -> usize {
        self.procs.read().len()
    }

    fn register(&self, node: NodeId, name: &str) -> (Pid, VClock) {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        let clock = VClock::default();
        self.procs.write().insert(
            pid,
            ProcInfo {
                node,
                clock: clock.clone(),
                name: name.to_string(),
                alive: true,
            },
        );
        (pid, clock)
    }

    /// Marks an attached or spawned process as terminated.
    pub fn mark_dead(&self, pid: Pid) {
        if let Some(p) = self.procs.write().get_mut(&pid) {
            p.alive = false;
        }
    }

    /// The maximum virtual clock across all processes — the best available
    /// notion of "current wall time" for aligning newly spawned processes
    /// (elastic daemons start *now*, not at t = 0).
    pub fn max_clock_ns(&self) -> u64 {
        self.procs
            .read()
            .values()
            .map(|p| p.clock.now())
            .max()
            .unwrap_or(0)
    }

    /// Diagnostic snapshot: `(pid, node, name, virtual now, alive)` rows.
    pub fn snapshot(&self) -> Vec<(Pid, NodeId, String, u64, bool)> {
        let mut rows: Vec<_> = self
            .procs
            .read()
            .iter()
            .map(|(pid, p)| (*pid, p.node, p.name.clone(), p.clock.now(), p.alive))
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }
}

/// A handle to a spawned simulated process.
pub struct SimHandle<R> {
    pid: Pid,
    join: JoinHandle<R>,
}

impl<R> SimHandle<R> {
    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Waits for the process to finish and returns its result.
    ///
    /// # Panics
    /// Propagates a panic from the simulated process.
    pub fn join(self) -> R {
        match self.join.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        }
    }
}

/// A simulated cluster.
pub struct Cluster {
    shared: Arc<ClusterShared>,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self {
            shared: Arc::new(ClusterShared {
                fabric: cfg.fabric,
                seed: cfg.seed,
                compute_scale: cfg.compute_scale,
                faults: FaultInjector::new(cfg.faults),
                tracer: Tracer::new(),
                next_pid: AtomicU64::new(0),
                procs: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// The shared state (what `ProcessCtx::cluster()` returns).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// Registers a simulated process named `name` on `node` without giving
    /// it a thread: whoever holds the context runs the process's steps
    /// through [`enter`]. The pid stays alive until
    /// [`ClusterShared::mark_dead`].
    pub fn attach(&self, name: &str, node: NodeId) -> Arc<ProcessCtx> {
        let (pid, clock) = self.shared.register(node, name);
        Arc::new(ProcessCtx::new(
            pid,
            node,
            name.to_string(),
            clock,
            self.shared.seed,
            Arc::clone(&self.shared),
        ))
    }

    /// Spawns a simulated process named `name` on `node` running `f` on a
    /// thread of its own; the pid dies when `f` returns.
    pub fn spawn<R: Send + 'static>(
        &self,
        name: &str,
        node: NodeId,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> SimHandle<R> {
        let ctx = self.attach(name, node);
        let pid = ctx.pid();
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name(format!("{name}.{}", pid.0))
            .spawn(move || {
                let out = enter(ctx, f);
                shared.mark_dead(pid);
                out
            })
            .expect("failed to spawn simulated process thread");
        SimHandle { pid, join }
    }

    /// Spawns a group of `n` processes, `procs_per_node` per node starting
    /// at `first_node`, running `f(rank)`. Returns the handles in rank
    /// order.
    pub fn spawn_group<R: Send + 'static>(
        &self,
        name: &str,
        n: usize,
        procs_per_node: usize,
        first_node: NodeId,
        f: impl Fn(usize) -> R + Send + Sync + 'static,
    ) -> Vec<SimHandle<R>> {
        assert!(procs_per_node > 0, "procs_per_node must be positive");
        let f = Arc::new(f);
        (0..n)
            .map(|rank| {
                let f = Arc::clone(&f);
                let node = first_node + rank / procs_per_node;
                self.spawn(&format!("{name}[{rank}]"), node, move || f(rank))
            })
            .collect()
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new(ClusterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_are_unique_and_dense() {
        let c = Cluster::default();
        let hs: Vec<_> = (0..8).map(|i| c.spawn("p", i, move || i)).collect();
        let mut pids: Vec<u64> = hs.iter().map(|h| h.pid().0).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 8);
        for h in hs {
            h.join();
        }
    }

    #[test]
    fn node_placement_is_recorded() {
        let c = Cluster::default();
        let h = c.spawn("p", 5, || {});
        assert_eq!(c.shared().node_of(h.pid()), Some(5));
        h.join();
    }

    #[test]
    fn group_placement_packs_nodes() {
        let c = Cluster::default();
        let hs = c.spawn_group("g", 8, 4, 10, |rank| rank);
        assert_eq!(c.shared().node_of(hs[0].pid()), Some(10));
        assert_eq!(c.shared().node_of(hs[3].pid()), Some(10));
        assert_eq!(c.shared().node_of(hs[4].pid()), Some(11));
        let ranks: Vec<usize> = hs.into_iter().map(|h| h.join()).collect();
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn liveness_tracks_termination() {
        let c = Cluster::default();
        let h = c.spawn("p", 0, || {});
        let pid = h.pid();
        h.join();
        assert!(!c.shared().is_alive(pid));
        assert_eq!(c.shared().spawned_count(), 1);
    }

    #[test]
    fn clocks_are_observable_from_outside() {
        let c = Cluster::default();
        let h = c.spawn("p", 0, || {
            crate::process::current().advance(123);
        });
        let pid = h.pid();
        h.join();
        assert_eq!(c.shared().clock_of(pid).unwrap().now(), 123);
    }

    #[test]
    fn snapshot_lists_all_processes() {
        let c = Cluster::default();
        let hs = c.spawn_group("s", 3, 1, 0, |r| r);
        for h in hs {
            h.join();
        }
        let snap = c.shared().snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(|(_, _, name, _, alive)| name.starts_with("s[") && !alive));
    }
}
