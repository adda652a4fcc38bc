//! [`StagingArea`]: one simulated Colza deployment, described once.
//!
//! The paper deploys Colza one way (§II-F): daemons bootstrap through a
//! connection file, a job script grows or kills them, clients attach
//! through any live member. A `StagingArea` owns everything that takes
//! on a simulated cluster — the cluster and its fabric, the connection
//! file, the daemon configuration, the running daemons and the next free
//! node slot — and its methods are the steps a job script performs.
//! Every e2e suite, bench main and example boots through it.
//!
//! An area is either *self-ticking* ([`StagingArea::new`]: daemons gossip
//! on their own timer, and `launch` returns once views agree) or
//! *harness-driven* ([`StagingArea::harness_driven`]: daemons never tick
//! by themselves; every SWIM round is a serialized `tick_sync` issued
//! from the calling thread, which makes a whole run — fault stream
//! included — a pure function of the seed).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpcsim::cluster::ClusterShared;
use margo::MargoInstance;
use mona::{MonaConfig, MonaInstance};
use na::{Address, Fabric};
use ssg::{SsgConfig, SsgGroup};
use store::{BlockKey, HashRing, RingConfig, StoredBlock};

use super::{launch_group, ColzaDaemon, DaemonConfig};
use crate::provider::{ColzaProvider, ProviderComm, ScrubReport};
use crate::{AdminClient, ColzaClient};

/// Polling budget of a self-ticking area, in rounds of
/// [`SELF_TICK_PAUSE`].
const SELF_TICK_ROUNDS: usize = 20_000;
const SELF_TICK_PAUSE: Duration = Duration::from_micros(500);
/// Polling budget of a harness-driven area, in serialized SWIM rounds.
const DRIVEN_ROUNDS: usize = 2_000;
/// Budget of [`wait_until`], in rounds of [`WAIT_PAUSE`].
const WAIT_ROUNDS: usize = 60_000;
const WAIT_PAUSE: Duration = Duration::from_millis(1);

/// The one polling loop: runs `step` until `done` holds and returns the
/// number of rounds that took. Panics with `what` and `context()` when
/// `budget` rounds were not enough.
fn poll(
    what: &str,
    budget: usize,
    context: impl Fn() -> String,
    mut done: impl FnMut() -> bool,
    mut step: impl FnMut(),
) -> u64 {
    for round in 0..budget {
        if done() {
            return round as u64;
        }
        step();
    }
    panic!("{what}: gave up after {budget} rounds {}", context());
}

/// Waits, without ticking anything, until `done` holds; panics with
/// `what` after a minute. For conditions some other thread brings about
/// — a crash rule tripping, a leaver's drain finishing, a retried client
/// call finally landing — where extra SWIM rounds would perturb the run.
pub fn wait_until(what: &str, done: impl FnMut() -> bool) {
    poll(what, WAIT_ROUNDS, String::new, done, || {
        std::thread::sleep(WAIT_PAUSE)
    });
}

/// One gossip round over `daemons`: serialized when `driven`, otherwise
/// asynchronous tick requests followed by a short real-time pause.
fn tick_round(daemons: &[ColzaDaemon], driven: bool) {
    if driven {
        for d in daemons {
            d.tick_sync();
        }
    } else {
        for d in daemons {
            d.tick();
        }
        std::thread::sleep(SELF_TICK_PAUSE);
    }
}

/// Polling budget, in gossip rounds, of a self-ticking or driven group.
fn round_budget(driven: bool) -> usize {
    if driven {
        DRIVEN_ROUNDS
    } else {
        SELF_TICK_ROUNDS
    }
}

/// Gossips until every daemon's view has exactly `expect` members and
/// returns the rounds that took. A self-ticking group also waits for
/// equal view epochs; a driven one instead runs ten more serialized
/// rounds so the epochs converge too.
pub(super) fn settle(daemons: &[ColzaDaemon], expect: usize, driven: bool) -> u64 {
    let rounds = poll(
        &format!("views failed to settle at {expect}"),
        round_budget(driven),
        || views_of(daemons),
        || {
            daemons.iter().all(|d| {
                d.view().len() == expect && (driven || d.view_epoch() == daemons[0].view_epoch())
            })
        },
        || tick_round(daemons, driven),
    );
    if driven {
        for _ in 0..10 {
            tick_round(daemons, driven);
        }
    }
    rounds
}

/// Per-daemon `(address, view size, view epoch)`, for panic messages.
fn views_of(daemons: &[ColzaDaemon]) -> String {
    let views: Vec<_> = daemons
        .iter()
        .map(|d| (d.address(), d.view().len(), d.view_epoch()))
        .collect();
    format!("(address, view size, epoch): {views:?}")
}

/// A client process of the area ([`StagingArea::session`]): an
/// initialized margo instance with the Colza client and admin interfaces
/// over it, plus the simulated process's context (virtual clock). The
/// harness runs the process's steps itself with [`run`](Self::run).
/// Dropping the session finalizes margo.
pub struct Session {
    /// The client process's margo instance.
    pub margo: Arc<MargoInstance>,
    /// The Colza client interface.
    pub client: Arc<ColzaClient>,
    /// The Colza admin interface.
    pub admin: AdminClient,
    /// The simulated process this session runs in.
    pub ctx: Arc<hpcsim::ProcessCtx>,
    /// Whether the session is its process's whole life, which ends when
    /// it drops (an attached process, not an MPI rank).
    owns_process: bool,
}

impl Session {
    /// A session over an existing margo instance (an MPI rank's shared
    /// endpoint, say). Must be called from inside a simulated process.
    pub fn new(margo: Arc<MargoInstance>) -> Self {
        Self {
            client: ColzaClient::new(Arc::clone(&margo)),
            admin: AdminClient::new(Arc::clone(&margo)),
            ctx: hpcsim::current(),
            margo,
            owns_process: false,
        }
    }

    /// Runs one step of the client process: `f` on the calling thread,
    /// inside the process's context.
    pub fn run<R>(&self, f: impl FnOnce(&Session) -> R) -> R {
        hpcsim::process::enter(Arc::clone(&self.ctx), || f(self))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.run(|s| s.margo.finalize());
        if self.owns_process {
            self.ctx.cluster().mark_dead(self.ctx.pid());
        }
    }
}

/// The single server of [`StagingArea::launch_bare`]: an attached
/// process with no thread of its own, serving through its margo
/// instance's handlers until its session drops.
struct BareServer {
    session: Session,
    _provider: Arc<ColzaProvider>,
}

/// A simulated Colza deployment (see the module docs).
pub struct StagingArea {
    cluster: hpcsim::Cluster,
    fabric: Fabric,
    cfg: DaemonConfig,
    driven: bool,
    daemons: Vec<ColzaDaemon>,
    bare: Option<BareServer>,
    per_node: usize,
    next_slot: usize,
}

impl StagingArea {
    /// An empty self-ticking area on a fresh cluster. Seed and fault plan
    /// pass straight through `cluster_cfg`.
    pub fn new(cluster_cfg: hpcsim::ClusterConfig) -> Self {
        // Unique per area within the process, and per process through
        // the pid, so concurrent areas never read each other's members.
        static NEXT_AREA: AtomicU64 = AtomicU64::new(0);
        let conn = std::env::temp_dir().join(format!(
            "colza-area-{}-{}.addrs",
            std::process::id(),
            NEXT_AREA.fetch_add(1, Ordering::Relaxed)
        ));
        // A crashed earlier process may have left this name behind.
        std::fs::remove_file(&conn).ok();
        let cluster = hpcsim::Cluster::new(cluster_cfg);
        let fabric = Fabric::new(Arc::clone(cluster.shared()));
        Self {
            cluster,
            fabric,
            cfg: DaemonConfig::new(conn),
            driven: false,
            daemons: Vec::new(),
            bare: None,
            per_node: 1,
            next_slot: 0,
        }
    }

    /// An empty harness-driven area: the daemons' own tick timer is
    /// pinned out of reach, `launch` does not settle, and the caller
    /// runs the SWIM rounds it wants ([`settle`](Self::settle),
    /// [`tick_rounds`](Self::tick_rounds),
    /// [`tick_until`](Self::tick_until)) — all serialized.
    pub fn harness_driven(cluster_cfg: hpcsim::ClusterConfig) -> Self {
        let mut area = Self::new(cluster_cfg);
        area.cfg.tick_interval = Duration::from_secs(3600);
        area.driven = true;
        area
    }

    /// The simulated cluster (spawn extra processes on it).
    pub fn cluster(&self) -> &hpcsim::Cluster {
        &self.cluster
    }

    /// The cluster's shared state: tracer, fault injector, clocks.
    pub fn shared(&self) -> &Arc<ClusterShared> {
        self.cluster.shared()
    }

    /// The fabric every process of the area opens its endpoint on.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The configuration daemons are spawned with.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Tunes the configuration of daemons spawned from now on.
    pub fn config_mut(&mut self) -> &mut DaemonConfig {
        &mut self.cfg
    }

    /// The running daemons, in spawn order.
    pub fn daemons(&self) -> &[ColzaDaemon] {
        &self.daemons
    }

    /// Position of the daemon with this address.
    pub fn index_of(&self, addr: Address) -> usize {
        self.daemons
            .iter()
            .position(|d| d.address() == addr)
            .expect("no running daemon has this address")
    }

    /// Launches `n` daemons, `per_node` per node from node 0: the first
    /// bootstraps the group, the rest join through the connection file.
    pub fn launch(&mut self, n: usize, per_node: usize) {
        self.per_node = per_node;
        self.next_slot = n;
        if self.driven {
            let nodes: Vec<usize> = (0..n).map(|i| i / per_node).collect();
            self.grow_on(&nodes);
        } else {
            self.daemons = launch_group(&self.cluster, &self.fabric, n, per_node, 0, &self.cfg);
        }
    }

    /// Launches the bare single server of the exact-determinism suites:
    /// a provider registered on node 0 with no daemon loop around it —
    /// no connection file, no start-up cost, and never a SWIM tick, so
    /// every virtual timestamp is a pure function of the protocol.
    pub fn launch_bare(&mut self) -> Address {
        let ctx = self.cluster.attach("server", 0);
        let (mut session, provider) = hpcsim::process::enter(ctx, || {
            let endpoint = Arc::new(self.fabric.open());
            let margo = MargoInstance::from_endpoint(Arc::clone(&endpoint));
            let mona = MonaInstance::from_endpoint(endpoint, MonaConfig::default());
            let group = SsgGroup::create(Arc::clone(&margo), "colza", SsgConfig::default());
            let provider =
                ColzaProvider::register(Arc::clone(&margo), mona, group, ProviderComm::Mona);
            (Session::new(margo), provider)
        });
        session.owns_process = true;
        let addr = session.margo.address();
        self.bare = Some(BareServer {
            session,
            _provider: provider,
        });
        addr
    }

    /// The address clients attach through: the first running daemon (or
    /// the bare server).
    pub fn contact(&self) -> Address {
        match &self.bare {
            Some(server) => server.session.margo.address(),
            None => self.daemons[0].address(),
        }
    }

    /// Grows the area by `n` daemons on the next free node slots (the
    /// packing `launch` started) and returns the newcomers' addresses.
    pub fn grow(&mut self, n: usize) -> Vec<Address> {
        let nodes: Vec<usize> = (self.next_slot..self.next_slot + n)
            .map(|slot| slot / self.per_node)
            .collect();
        self.next_slot += n;
        self.grow_on(&nodes)
    }

    /// Grows the area by one daemon on each of `nodes` — the job script
    /// starting more daemons against the connection file. Like the job
    /// script this does not wait for gossip: [`settle`](Self::settle)
    /// once the group should be able to agree.
    pub fn grow_on(&mut self, nodes: &[usize]) -> Vec<Address> {
        nodes
            .iter()
            .map(|&node| {
                let d = ColzaDaemon::spawn(&self.cluster, &self.fabric, node, self.cfg.clone());
                let addr = d.address();
                self.daemons.push(d);
                addr
            })
            .collect()
    }

    /// Crashes daemon `i`: it vanishes without a goodbye.
    pub fn kill(&mut self, i: usize) {
        self.daemons.remove(i).kill();
    }

    /// Retires daemon `i` gracefully: drain, leave, exit.
    pub fn stop(&mut self, i: usize) {
        self.daemons.remove(i).stop();
    }

    /// Collects daemon `i`, which is exiting on its own after an admin
    /// `request_leave`.
    pub fn wait(&mut self, i: usize) {
        self.daemons.remove(i).wait();
    }

    /// Gossips until every running daemon's view has exactly the running
    /// daemons in it; returns the rounds that took. A self-ticking area
    /// also waits for equal view epochs; a harness-driven one instead
    /// runs ten more serialized rounds so the epochs converge too.
    pub fn settle(&self) -> u64 {
        settle(&self.daemons, self.daemons.len(), self.driven)
    }

    /// Runs `n` gossip rounds over the running daemons.
    pub fn tick_rounds(&self, n: usize) {
        for _ in 0..n {
            tick_round(&self.daemons, self.driven);
        }
    }

    /// Gossips, one round at a time, until `done` holds; returns the
    /// rounds that took. Panics with `what` and every daemon's view when
    /// the budget runs out.
    pub fn tick_until(&self, what: &str, mut done: impl FnMut(&StagingArea) -> bool) -> u64 {
        poll(
            what,
            round_budget(self.driven),
            || views_of(&self.daemons),
            || done(self),
            || tick_round(&self.daemons, self.driven),
        )
    }

    /// The staging area's virtual "now": the furthest daemon clock.
    pub fn now_ns(&self) -> u64 {
        self.daemons
            .iter()
            .filter_map(|d| self.shared().clock_of(d.address().pid()))
            .map(|clock| clock.now())
            .max()
            .unwrap_or(0)
    }

    /// Runs serialized scrub passes over all daemons until a steady pass
    /// — nobody pushed, reclaimed, collected, was refused, failed, or
    /// measured any residue — and returns the per-pass reports. The bound
    /// is the convergence guarantee: a scrubber still finding work past
    /// `max_passes` is not converging, and this panics.
    pub fn scrub_until_steady(&self, max_passes: usize) -> Vec<Vec<ScrubReport>> {
        let mut all = Vec::new();
        for _ in 0..max_passes {
            let reports: Vec<ScrubReport> = self.daemons.iter().map(|d| d.scrub_sync()).collect();
            let steady = reports.iter().all(|r| {
                *r == ScrubReport {
                    pass: r.pass,
                    ..ScrubReport::default()
                }
            });
            all.push(reports);
            if steady {
                return all;
            }
        }
        panic!("scrub never reached a steady pass: {all:?}");
    }

    /// The primary of `(pipeline, block_id)` under the ring that clients
    /// and servers both compute over the running daemons at this
    /// replication factor — how a scenario picks a victim whose crash
    /// provably forces a promotion.
    pub fn primary_of(&self, pipeline: &str, block_id: u64, replication: usize) -> Address {
        let mut members: Vec<Address> = self.daemons.iter().map(|d| d.address()).collect();
        members.sort_unstable();
        let cfg = RingConfig {
            replication,
            ..RingConfig::default()
        };
        HashRing::build(&members, |a| self.shared().node_of(a.pid()), cfg)
            .primary(&BlockKey::new(pipeline, block_id))
            .expect("a launched area has members")
    }

    /// Arms the send-count kill switch on `victim`'s node: once it has
    /// made `sends` MoNA-plane sends, everything outbound from the node
    /// is silently dropped — so a mid-collective death lands at the same
    /// protocol step every run.
    pub fn crash_after_mona_sends(&self, victim: Address, sends: u64) {
        let node = self.node_of(victim);
        self.shared().faults().crash_after_sends_now(
            node,
            na::tags::MONA_BASE,
            na::tags::MPI_BASE - 1,
            sends,
        );
    }

    /// Waits for the kill switch armed on `victim` to trip — without
    /// ticking: the victim is fail-silent from the trip on, and extra
    /// SWIM rounds would make what it swallows timing-dependent. Follow
    /// with [`kill`](Self::kill) to close its endpoint (a real crash
    /// leaves no open mailbox) and [`settle`](Self::settle).
    pub fn wait_crash_tripped(&self, victim: Address) {
        let node = self.node_of(victim);
        wait_until("the victim never hit its send-count crash budget", || {
            self.shared().faults().crash_tripped(node)
        });
    }

    fn node_of(&self, addr: Address) -> usize {
        self.shared()
            .node_of(addr.pid())
            .expect("address of a process on this cluster")
    }

    /// Every copy held anywhere in the area, daemon by daemon.
    pub fn held(&self) -> Vec<StoredBlock> {
        self.daemons
            .iter()
            .flat_map(|d| d.provider().store().snapshot())
            .collect()
    }

    /// Per-daemon `(address, blocks held, staged bytes)`, sorted — the
    /// holdings two same-seed runs must agree on.
    pub fn holdings(&self) -> Vec<(u64, usize, u64)> {
        let mut rows: Vec<(u64, usize, u64)> = self
            .daemons
            .iter()
            .map(|d| {
                let s = d.provider().store();
                (d.address().0, s.len(), s.staged_bytes())
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Canonical export of the injector's fault trace, one record per
    /// line. Concurrent links append racily, but each record (link, seq,
    /// kind) is deterministic — so the export is sorted.
    pub fn fault_trace_export(&self) -> String {
        let mut trace = self.shared().faults().trace();
        trace.sort_unstable();
        trace
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Attaches a client process `name` on `node` and initializes margo
    /// in it. The caller runs its steps with [`Session::run`]; dropping
    /// the session ends the process.
    pub fn session(&self, name: &str, node: usize) -> Session {
        let ctx = self.cluster.attach(name, node);
        let mut session =
            hpcsim::process::enter(ctx, || Session::new(MargoInstance::init(&self.fabric)));
        session.owns_process = true;
        session
    }

    /// Stops every daemon (in spawn order) and the bare server, and
    /// removes the connection file. The cluster stays readable — take
    /// trace snapshots after this.
    pub fn shutdown(&mut self) {
        for d in self.daemons.drain(..) {
            d.stop();
        }
        self.bare = None;
        std::fs::remove_file(&self.cfg.connection_file).ok();
    }
}

impl Drop for StagingArea {
    fn drop(&mut self) {
        std::fs::remove_file(&self.cfg.connection_file).ok();
    }
}
