//! Per-process context for simulated processes.
//!
//! A thread acting for a simulated process carries its [`ProcessCtx`] in
//! thread-local storage, giving access to the process's identity, virtual
//! clock, node placement, deterministic RNG, and the owning cluster's
//! fabric model. A spawned process has a thread of its own; an attached
//! one is run, one step at a time, by whichever thread [`enter`]s it.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::VClock;
use crate::cluster::{ClusterShared, NodeId};

/// Globally unique simulated-process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// The context of one simulated process.
pub struct ProcessCtx {
    pid: Pid,
    node: NodeId,
    name: String,
    clock: VClock,
    rng: Mutex<SmallRng>,
    cluster: Arc<ClusterShared>,
}

impl ProcessCtx {
    pub(crate) fn new(
        pid: Pid,
        node: NodeId,
        name: String,
        clock: VClock,
        seed: u64,
        cluster: Arc<ClusterShared>,
    ) -> Self {
        // Mix pid into the seed so every process has an independent but
        // reproducible stream.
        let seed = seed ^ pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            pid,
            node,
            name,
            clock,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            cluster,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process is placed on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Human-readable process name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This process's virtual clock.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances the virtual clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.clock.advance(ns);
    }

    /// The owning cluster's shared state.
    pub fn cluster(&self) -> &Arc<ClusterShared> {
        &self.cluster
    }

    /// Runs `f`, charging this process's clock with its measured thread CPU
    /// time, scaled by the cluster's `compute_scale`.
    pub fn charge_compute<R>(&self, f: impl FnOnce() -> R) -> R {
        self.clock
            .charge_compute_scaled(self.cluster.compute_scale(), f)
    }

    /// A deterministic uniform draw in `[0, 1)`.
    pub fn rng_unit(&self) -> f64 {
        self.rng.lock().random::<f64>()
    }

    /// A deterministic uniform integer draw in `[0, n)`. Panics if `n == 0`.
    pub fn rng_below(&self, n: usize) -> usize {
        assert!(n > 0, "rng_below(0)");
        self.rng.lock().random_range(0..n)
    }
}

impl fmt::Debug for ProcessCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessCtx")
            .field("pid", &self.pid)
            .field("node", &self.node)
            .field("name", &self.name)
            .field("vnow", &self.clock.now())
            .finish()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ProcessCtx>>> = const { RefCell::new(None) };
}

/// Installs `ctx` as the current thread's process context for the duration
/// of `f`, then restores the context that was current before — also when
/// `f` unwinds. Used by [`crate::cluster::Cluster::spawn`], by the worker
/// threads a process starts, and by a harness thread running one step of
/// an [attached](crate::cluster::Cluster::attach) process.
pub fn enter<R>(ctx: Arc<ProcessCtx>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<ProcessCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = outer);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(ctx)));
    f()
}

/// The current simulated process's context.
///
/// # Panics
/// Panics if the calling thread is not a simulated process.
pub fn current() -> Arc<ProcessCtx> {
    try_current().expect("not running inside a simulated process")
}

/// The current context, or `None` when called from a plain thread.
pub fn try_current() -> Option<Arc<ProcessCtx>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with a reference to the current process context.
pub fn with_current<R>(f: impl FnOnce(&ProcessCtx) -> R) -> R {
    let ctx = current();
    f(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    #[test]
    fn no_context_outside_processes() {
        assert!(try_current().is_none());
    }

    #[test]
    fn context_is_visible_inside_process() {
        let cluster = Cluster::new(ClusterConfig::default());
        let h = cluster.spawn("worker", 2, || {
            let ctx = current();
            assert_eq!(ctx.node(), 2);
            assert_eq!(ctx.name(), "worker");
            ctx.pid()
        });
        let pid = h.join();
        assert!(pid.0 < 100);
        assert!(try_current().is_none());
    }

    #[test]
    fn nested_enter_restores_the_outer_context_even_after_a_panic() {
        let cluster = Cluster::new(ClusterConfig::default());
        let outer = cluster.attach("outer", 0);
        let inner = cluster.attach("inner", 1);
        let outer_pid = outer.pid();
        enter(outer, || {
            enter(Arc::clone(&inner), || {
                assert_eq!(current().pid(), inner.pid())
            });
            assert_eq!(current().pid(), outer_pid);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                enter(Arc::clone(&inner), || panic!("step failed"))
            }));
            assert!(unwound.is_err());
            assert_eq!(
                current().pid(),
                outer_pid,
                "unwinding lost the outer context"
            );
        });
        assert!(try_current().is_none());
    }

    #[test]
    fn attached_clock_is_visible_through_the_cluster() {
        let cluster = Cluster::new(ClusterConfig::default());
        let ctx = cluster.attach("session", 3);
        enter(Arc::clone(&ctx), || current().advance(250));
        let clock = cluster.shared().clock_of(ctx.pid()).expect("attached pid");
        assert_eq!(clock.now(), 250);
        assert_eq!(cluster.shared().node_of(ctx.pid()), Some(3));
        assert!(cluster.shared().is_alive(ctx.pid()));
    }

    #[test]
    fn rng_is_deterministic_per_pid() {
        let draws = |seed| {
            let cluster = Cluster::new(ClusterConfig {
                seed,
                ..Default::default()
            });
            cluster
                .spawn("r", 0, || {
                    let ctx = current();
                    (ctx.rng_unit(), ctx.rng_unit())
                })
                .join()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn rng_below_respects_bound() {
        let cluster = Cluster::new(ClusterConfig::default());
        cluster
            .spawn("r", 0, || {
                let ctx = current();
                for _ in 0..100 {
                    assert!(ctx.rng_below(3) < 3);
                }
            })
            .join();
    }
}
