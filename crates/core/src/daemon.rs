//! The Colza staging daemon: assembly of margo + MoNA + SSG + provider,
//! with the connection-file bootstrap the paper's deployment uses, and
//! [`StagingArea`] — the one harness that deploys daemons on a simulated
//! cluster for every test, bench and example.

mod area;

pub use area::{wait_until, Session, StagingArea};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};

use margo::MargoInstance;
use mona::{MonaConfig, MonaInstance};
use na::{Address, Fabric};
use ssg::{SsgConfig, SsgGroup};

use crate::provider::{ColzaProvider, ProviderComm};

/// Which communication layer this deployment's pipelines run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Elastic MoNA communicators (Colza proper).
    Mona,
    /// A static MPI world fixed at launch (the `Colza+MPI` baseline).
    MpiStatic(minimpi::Profile),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// SSG group name.
    pub group: String,
    /// Connection file: daemons append their address here and joiners read
    /// it to find a contact (the paper's §II-F scale-up path).
    pub connection_file: PathBuf,
    /// Pipeline communication layer.
    pub comm: CommMode,
    /// SSG protocol configuration.
    pub ssg: SsgConfig,
    /// Real-time interval between automatic SWIM ticks in the daemon loop.
    pub tick_interval: Duration,
    /// RPC liveness timeout for this daemon's outbound calls.
    pub rpc_timeout: Duration,
    /// Run a staging-store repair pass whenever SSG reports a death or
    /// departure (re-replicates under-replicated blocks without waiting
    /// for the next commit). Deterministic harnesses that pin all
    /// migration traffic to the 2PC boundary turn this off.
    pub auto_repair: bool,
    /// MoNA configuration for the daemon's collective plane — in
    /// particular `mona.fault.recv_deadline`, the backstop that lets a
    /// collective blocked on a silent dead peer revoke itself before
    /// SWIM declares the death.
    pub mona: MonaConfig,
    /// Codec configuration for the staging data plane (DESIGN.md §13),
    /// advertised to clients via `colza.get_codec_config`
    /// ([`crate::DistributedPipelineHandle::adopt_server_codec`]). The
    /// default stages everything raw.
    pub codec: crate::codec::CodecConfig,
    /// Multi-tenant QoS policy (DESIGN.md §14): staged-byte quotas,
    /// execute-time windows, priority classes and the fair-share execute
    /// gate. Disabled by default — accounting still runs, enforcement
    /// does not.
    pub tenancy: crate::protocol::TenancyConfig,
}

impl DaemonConfig {
    /// A default configuration over the given connection file.
    pub fn new(connection_file: impl Into<PathBuf>) -> Self {
        Self {
            group: "colza".to_string(),
            connection_file: connection_file.into(),
            comm: CommMode::Mona,
            ssg: SsgConfig::default(),
            tick_interval: Duration::from_millis(2),
            rpc_timeout: Duration::from_millis(500),
            auto_repair: true,
            mona: MonaConfig::default(),
            codec: crate::codec::CodecConfig::default(),
            tenancy: crate::protocol::TenancyConfig::default(),
        }
    }
}

enum Cmd {
    Tick,
    TickSync(Sender<()>),
    Scrub(Sender<crate::provider::ScrubReport>),
    SetStaticWorld(Vec<Address>),
    Stop,
    Kill,
}

/// A handle to a running staging daemon.
pub struct ColzaDaemon {
    addr: Address,
    group: Arc<SsgGroup>,
    provider: Arc<ColzaProvider>,
    cmd: Sender<Cmd>,
    handle: Option<hpcsim::cluster::SimHandle<()>>,
}

impl ColzaDaemon {
    /// Spawns a daemon on `node`. If the connection file already lists
    /// live members the daemon joins them; otherwise it bootstraps a new
    /// group. The daemon charges its virtual start-up cost
    /// (`LaunchModel::daemon_init_ns`).
    pub fn spawn(
        cluster: &hpcsim::Cluster,
        fabric: &Fabric,
        node: usize,
        cfg: DaemonConfig,
    ) -> ColzaDaemon {
        let (cmd_tx, cmd_rx) = bounded::<Cmd>(256);
        let (ready_tx, ready_rx) = bounded(1);
        let fabric = fabric.clone();
        let handle = cluster.spawn("colza-daemon", node, move || {
            let ctx = hpcsim::current();
            // A daemon spawned mid-run starts at the current wall time,
            // then pays its start-up cost.
            ctx.clock().merge(ctx.cluster().max_clock_ns());
            ctx.advance(hpcsim::fabric::presets::launch().daemon_init_ns);

            let endpoint = Arc::new(fabric.open());
            let margo = MargoInstance::from_endpoint(Arc::clone(&endpoint));
            margo.set_default_timeout(Some(cfg.rpc_timeout));
            let mona = MonaInstance::from_endpoint(Arc::clone(&endpoint), cfg.mona);
            let me = margo.address();

            // Bootstrap membership from the connection file. Each contact
            // gets a few attempts: under message loss (or a transient
            // partition) a single failed join must not make the daemon
            // bootstrap a split-brain second group.
            let contacts = read_connection_file(&cfg.connection_file);
            let mut group = None;
            'contacts: for contact in contacts {
                if contact == me {
                    continue;
                }
                for attempt in 0..3 {
                    match SsgGroup::join(Arc::clone(&margo), &cfg.group, contact, cfg.ssg) {
                        Ok(g) => {
                            group = Some(g);
                            break 'contacts;
                        }
                        Err(e) if e.is_retryable() && attempt < 2 => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            }
            let group =
                group.unwrap_or_else(|| SsgGroup::create(Arc::clone(&margo), &cfg.group, cfg.ssg));
            append_connection_file(&cfg.connection_file, me);

            let comm = match cfg.comm {
                CommMode::Mona => ProviderComm::Mona,
                CommMode::MpiStatic(_) => ProviderComm::MpiStatic(parking_lot::Mutex::new(None)),
            };
            let provider = ColzaProvider::register(
                Arc::clone(&margo),
                Arc::clone(&mona),
                Arc::clone(&group),
                comm,
            );
            provider.set_codec_config(cfg.codec.clone());
            provider.set_tenancy_config(cfg.tenancy.clone());
            ready_tx
                .send((me, Arc::clone(&group), Arc::clone(&provider)))
                .expect("daemon handshake");

            // Service loop: gossip on a timer, watch for admin leave,
            // repair the staging store after membership losses, scrub
            // when asked to.
            loop {
                if cfg.auto_repair && provider.take_repair_request() {
                    provider.repair();
                }
                match cmd_rx.recv_timeout(cfg.tick_interval) {
                    Ok(Cmd::Tick) => group.tick(),
                    Ok(Cmd::TickSync(done)) => {
                        group.tick();
                        let _ = done.send(());
                    }
                    Ok(Cmd::Scrub(done)) => {
                        let _ = done.send(provider.scrub());
                    }
                    Ok(Cmd::SetStaticWorld(members)) => {
                        if let CommMode::MpiStatic(profile) = cfg.comm {
                            provider.set_static_world(minimpi::MpiComm::from_endpoint(
                                Arc::clone(&endpoint),
                                members,
                                profile,
                            ));
                        }
                    }
                    Ok(Cmd::Stop) => {
                        // Drain before leaving: staged blocks move to
                        // their owners under the view without us. Stop is
                        // a hard shutdown — the owner is joining on this
                        // thread — so after the bounded retries inside
                        // `drain_for_leave` we must exit either way. A
                        // drain that could not empty the store parks the
                        // leftovers on any reachable survivor, where the
                        // scrubber reclaims them (DESIGN.md §10); the
                        // abandoned counter now records only copies that
                        // could not even be parked.
                        if !drain_for_leave(&provider) && !provider.handoff_leftovers() {
                            hpcsim::trace::counter_add("colza.store.drain.abandoned", 1);
                        }
                        group.leave();
                        remove_connection_entry(&cfg.connection_file, me);
                        margo.finalize();
                        return;
                    }
                    Ok(Cmd::Kill) => {
                        // Crash simulation: vanish without a goodbye.
                        margo.finalize();
                        return;
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        // Background gossip must not outrun the virtual
                        // time of foreground staging work.
                        group.tick_quiet();
                        if provider.leave_requested() {
                            if drain_for_leave(&provider) {
                                group.leave();
                                remove_connection_entry(&cfg.connection_file, me);
                                margo.finalize();
                                return;
                            }
                            // The store would not empty: leaving now would
                            // take the kept copies down with us. Call the
                            // departure off — admissions resume, and a
                            // later admin `leave` retries from scratch.
                            provider.cancel_departure();
                            hpcsim::trace::counter_add("colza.store.drain.cancelled", 1);
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                        margo.finalize();
                        return;
                    }
                }
            }
        });
        let (addr, group, provider) = ready_rx.recv().expect("daemon failed to start");
        ColzaDaemon {
            addr,
            group,
            provider,
            cmd: cmd_tx,
            handle: Some(handle),
        }
    }

    /// This daemon's address.
    pub fn address(&self) -> Address {
        self.addr
    }

    /// The daemon's current membership view.
    pub fn view(&self) -> Vec<Address> {
        self.group.view()
    }

    /// The daemon's view epoch.
    pub fn view_epoch(&self) -> u64 {
        self.group.view_epoch()
    }

    /// The provider (test/diagnostic access).
    pub fn provider(&self) -> &Arc<ColzaProvider> {
        &self.provider
    }

    /// Requests one explicit SWIM tick (harness-driven experiments).
    pub fn tick(&self) {
        let _ = self.cmd.send(Cmd::Tick);
    }

    /// Runs one SWIM tick and waits for it to complete. Deterministic
    /// harnesses serialize gossip with this: ticking daemons one at a
    /// time makes the whole protocol-state evolution (and therefore the
    /// fault-injection stream) a pure function of the seed.
    pub fn tick_sync(&self) {
        let (done_tx, done_rx) = bounded(1);
        if self.cmd.send(Cmd::TickSync(done_tx)).is_ok() {
            let _ = done_rx.recv();
        }
    }

    /// Runs one anti-entropy scrub pass on the daemon's service thread
    /// and waits for its report. This is the only scrub trigger: whoever
    /// operates the deployment (a harness, a supervisor) decides when a
    /// pass runs, so it lands at a reproducible protocol step.
    pub fn scrub_sync(&self) -> crate::provider::ScrubReport {
        let (done_tx, done_rx) = bounded(1);
        if self.cmd.send(Cmd::Scrub(done_tx)).is_ok() {
            if let Ok(report) = done_rx.recv() {
                return report;
            }
        }
        crate::provider::ScrubReport::default()
    }

    /// Installs the static MPI world (MpiStatic deployments only).
    pub fn set_static_world(&self, members: Vec<Address>) {
        let _ = self.cmd.send(Cmd::SetStaticWorld(members));
    }

    /// Graceful shutdown: leave the group, then stop.
    pub fn stop(mut self) {
        let _ = self.cmd.send(Cmd::Stop);
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }

    /// Abrupt shutdown (simulated crash).
    pub fn kill(mut self) {
        let _ = self.cmd.send(Cmd::Kill);
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }

    /// Waits for the daemon to exit on its own (e.g. after an admin
    /// `request_leave`).
    pub fn wait(mut self) {
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }
}

/// Launches a staging area of `n` daemons (the first bootstraps, the rest
/// join through the connection file), placed `per_node` per node starting
/// at `first_node`.
pub fn launch_group(
    cluster: &hpcsim::Cluster,
    fabric: &Fabric,
    n: usize,
    per_node: usize,
    first_node: usize,
    cfg: &DaemonConfig,
) -> Vec<ColzaDaemon> {
    let daemons: Vec<ColzaDaemon> = (0..n)
        .map(|i| {
            ColzaDaemon::spawn(
                cluster,
                fabric,
                first_node + i / per_node,
                cfg.clone(),
            )
        })
        .collect();
    // Pump gossip until every daemon sees the full group.
    settle_views(&daemons, n);
    if let CommMode::MpiStatic(_) = cfg.comm {
        let members: Vec<Address> = daemons.iter().map(|d| d.address()).collect();
        for d in &daemons {
            d.set_static_world(members.clone());
        }
    }
    daemons
}

/// Pumps ticks until all daemons agree on a view of `expect` members;
/// panics when the polling budget runs out first.
pub fn settle_views(daemons: &[ColzaDaemon], expect: usize) {
    area::settle(daemons, expect, false);
}

/// Drains the provider's store ahead of a departure, looping until it
/// empties: `drain()` deliberately keeps every block whose push failed,
/// so a single pass under message loss can leave copies behind that
/// would die with the leaver. Bounded retries with backoff ride out
/// transient loss; each pass re-reads the SSG view, so a target that
/// died mid-drain is replaced by its successor on the next pass.
///
/// Returns whether every copy is safe (see [`ColzaProvider::drain`]).
fn drain_for_leave(provider: &ColzaProvider) -> bool {
    const ATTEMPTS: u32 = 8;
    for attempt in 0..ATTEMPTS {
        if provider.drain() {
            return true;
        }
        if attempt + 1 < ATTEMPTS {
            hpcsim::trace::counter_add("colza.store.drain.retries", 1);
            std::thread::sleep(Duration::from_millis(5u64 << attempt.min(5)));
        }
    }
    false
}

fn read_connection_file(path: &PathBuf) -> Vec<Address> {
    std::fs::read_to_string(path)
        .map(|s| s.lines().filter_map(|l| l.trim().parse().ok()).collect())
        .unwrap_or_default()
}

fn append_connection_file(path: &PathBuf, addr: Address) {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(f, "{addr}");
    }
}

fn remove_connection_entry(path: &PathBuf, addr: Address) {
    if let Ok(s) = std::fs::read_to_string(path) {
        let kept: Vec<&str> = s
            .lines()
            .filter(|l| l.trim() != addr.to_string())
            .collect();
        let _ = std::fs::write(path, kept.join("\n") + "\n");
    }
}
