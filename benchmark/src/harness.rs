//! The closed loop: boots a virtual cluster, launches staging daemons and
//! two simulated client ranks, and drives whole iterations —
//! `activate` → `stage` → `execute` → `deactivate` — timing every call from
//! the client side. The system is only ever touched through its public
//! API; nothing here reaches into a crate.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use colza::daemon::launch_group;
use colza::{
    AdminClient, BlockMeta, CodecConfig, ColzaClient, ColzaDaemon, DaemonConfig,
    DistributedPipelineHandle,
};
use hpcsim::TraceSnapshot;
use margo::MargoInstance;
use minimpi::MpiComm;
use na::{Address, Fabric};

use crate::meter::{peak_rss_mib, process_cpu_ns, thread_count};
use crate::spans::{Recorder, SpanId, Timing};
use crate::workloads::{make_source, Plan, Source, CLIENT_RANKS, SERVERS};

const PIPELINE: &str = "pipeline";
const DATASET: &str = "field";
/// Two staging daemons per node, so the four-server phase of
/// `elastic_churn` uses both the intra-node and the inter-node link model.
const SERVERS_PER_NODE: usize = 2;
/// Client ranks live on their own node, away from the staging area.
const CLIENT_NODE: usize = 8;

/// One measuring interval of a run.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Whole cycles are run until this much wall time has passed.
    pub seconds: f64,
    /// Whether the crates' tracer and the span recorder are on.
    pub traced: bool,
}

/// Calls and checks attempted, and how many of them failed.
#[derive(Default)]
pub struct Ops {
    attempted: AtomicU64,
    failed: AtomicU64,
    messages: Mutex<Vec<String>>,
}

impl Ops {
    /// Counts one output check.
    pub fn check(&self, what: &str, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.fail(what.to_string());
        }
    }

    /// Counts one client/admin call; `None` when it returned `Err`.
    pub fn call<T, E: std::fmt::Display>(&self, what: &str, res: Result<T, E>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&self, message: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut m = self.messages.lock().expect("failure log poisoned");
        if m.len() < 32 {
            m.push(message);
        }
    }

    /// `(attempted, failed)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// The first few failure messages.
    pub fn messages(&self) -> Vec<String> {
        self.messages.lock().expect("failure log poisoned").clone()
    }
}

/// Rank 0's client-side view of one iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterRecord {
    /// Position in the cycle: iterations at one position stage the same
    /// inputs and do the same work in every cycle.
    pub pos: u64,
    /// Process CPU nanoseconds since the previous iteration ended (a
    /// resize that precedes this iteration is part of it).
    pub host_cpu_ns: u64,
    /// Wall nanoseconds over the same interval.
    pub host_wall_ns: u64,
    /// Virtual nanoseconds rank 0 waited for the resize that preceded this
    /// iteration (0 without one).
    pub resize_virt_ns: u64,
    /// `activate` (2PC).
    pub activate: Timing,
    /// The stage phase: from rank 0's first `stage` call until every rank
    /// has staged (the barrier the simulation waits on anyway). Unlike
    /// rank 0's own calls alone, this does not depend on which rank's RPC
    /// a shared server happened to serve first.
    pub stage: Timing,
    /// `execute`.
    pub execute: Timing,
    /// `deactivate`.
    pub deactivate: Timing,
    /// Whether `execute` returned `Skipped`.
    pub skipped: bool,
    /// Whether the member view changed since the previous iteration.
    pub changed_view: bool,
    /// Whether a server joined since the previous iteration (it runs its
    /// first `execute` here and pays Catalyst's modeled initialisation).
    pub joined: bool,
}

/// One staging-area resize as rank 0 saw it.
#[derive(Debug, Clone, Copy)]
pub struct ResizeRecord {
    /// Grow (daemon spawn + deploy) or shrink (leave + drain).
    pub grow: bool,
    /// Request to "all live views agree and the handle is refreshed".
    pub timing: Timing,
}

/// What one segment measured.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Rank 0's iterations, in order.
    pub iterations: Vec<IterRecord>,
    /// Resizes, in order (`elastic_churn` only).
    pub resizes: Vec<ResizeRecord>,
    /// Process CPU time over the segment.
    pub host_cpu_ns: u64,
    /// The crates' tracer contents at the end of a traced segment.
    pub trace: Option<TraceSnapshot>,
}

/// What one run (set-up, then zero or more segments) produced.
pub struct RunReport {
    /// Cluster boot to end of the warm-up iteration, wall seconds.
    pub setup_s: f64,
    /// One report per requested segment.
    pub segments: Vec<SegmentReport>,
    /// `VmHWM` after the last segment.
    pub peak_rss_mib: f64,
    /// OS threads alive right after the last segment, net of those that
    /// existed before this run's set-up: the live cluster plus whatever
    /// departed daemons left behind.
    pub host_threads: usize,
}

enum HarnessReq {
    Grow {
        parent: Option<SpanId>,
    },
    AwaitLeave {
        addr: Address,
        parent: Option<SpanId>,
    },
    Done,
}

struct ResizeAck {
    addr: Address,
    settled: bool,
    /// Latest virtual clock among the live daemons once their views agree.
    settled_at_ns: u64,
}

/// State shared by the harness thread and the client ranks.
struct Shared {
    plan: Plan,
    seed: u64,
    segments: Vec<Segment>,
    contact: Address,
    rec: Arc<Recorder>,
    ops: Arc<Ops>,
    ready_tx: Sender<()>,
    req_tx: Sender<HarnessReq>,
    ack_rx: Receiver<ResizeAck>,
}

/// Runs `plan`: set-up (boot, daemons, view settle, input generation,
/// pipeline deploy, warm-up iteration) and then each segment.
pub fn run(
    plan: &Plan,
    seed: u64,
    segments: &[Segment],
    out_dir: &std::path::Path,
    ops: &Arc<Ops>,
    rec: &Arc<Recorder>,
) -> RunReport {
    let threads_before = thread_count();
    let started = Instant::now();
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig {
        seed,
        ..hpcsim::ClusterConfig::aries()
    });
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    std::fs::create_dir_all(out_dir).expect("create the benchmark's out directory");
    let conn_file: PathBuf = out_dir.join(format!("staging-{}.addrs", std::process::id()));
    std::fs::remove_file(&conn_file).ok();
    let cfg = DaemonConfig::new(&conn_file);
    let mut daemons = launch_group(&cluster, &fabric, SERVERS, SERVERS_PER_NODE, 0, &cfg);

    let (ready_tx, ready_rx) = unbounded();
    let (req_tx, req_rx) = unbounded();
    let (ack_tx, ack_rx) = unbounded();
    let shared = Arc::new(Shared {
        plan: plan.clone(),
        seed,
        segments: segments.to_vec(),
        contact: daemons[0].address(),
        rec: Arc::clone(rec),
        ops: Arc::clone(ops),
        ready_tx,
        req_tx,
        ack_rx,
    });

    let (setup_s, reports) = std::thread::scope(|scope| {
        let ranks = scope.spawn(|| {
            let shared = Arc::clone(&shared);
            minimpi::MpiWorld::launch(
                &cluster,
                &fabric,
                CLIENT_RANKS,
                CLIENT_RANKS,
                CLIENT_NODE,
                minimpi::Profile::Vendor,
                move |comm| rank_main(comm, &shared),
            )
        });
        let alive = || !ranks.is_finished();
        recv_while(&ready_rx, alive).expect("client ranks died during set-up");
        let setup_s = started.elapsed().as_secs_f64();
        // Serve resize requests until rank 0 reports completion.
        while let Some(req) = recv_while(&req_rx, alive) {
            let ack = match req {
                HarnessReq::Done => break,
                HarnessReq::Grow { parent } => {
                    let node = daemons.len() / SERVERS_PER_NODE;
                    let (d, _) = rec.time_under(parent, "daemon.spawn", "core", None, || {
                        ColzaDaemon::spawn(&cluster, &fabric, node, cfg.clone())
                    });
                    let addr = d.address();
                    daemons.push(d);
                    settle_ack(rec, parent, &cluster, &daemons, addr)
                }
                HarnessReq::AwaitLeave { addr, parent } => {
                    if let Some(i) = daemons.iter().position(|d| d.address() == addr) {
                        let leaver = daemons.remove(i);
                        // The leaver drains, says goodbye and exits by itself.
                        rec.time_under(parent, "daemon.wait", "core", None, || leaver.wait());
                    }
                    settle_ack(rec, parent, &cluster, &daemons, addr)
                }
            };
            ack_tx.send(ack).expect("rank 0 is waiting for the resize");
        }
        let mut per_rank = ranks.join().expect("a client rank panicked");
        (setup_s, per_rank.swap_remove(0))
    });
    let host_threads = thread_count().saturating_sub(threads_before);

    for d in daemons {
        d.stop();
    }
    std::fs::remove_file(&conn_file).ok();
    RunReport {
        setup_s,
        segments: reports,
        peak_rss_mib: peak_rss_mib(),
        host_threads,
    }
}

/// Receives from `rx`, giving up once `alive` turns false (the sender
/// side panicked) or the channel closes.
fn recv_while<T>(rx: &Receiver<T>, alive: impl Fn() -> bool) -> Option<T> {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(v) => return Some(v),
            Err(RecvTimeoutError::Timeout) if alive() => {}
            Err(_) => return rx.try_recv().ok(),
        }
    }
}

/// Whether every daemon holds the same view, of exactly these daemons.
pub fn views_agree(daemons: &[ColzaDaemon]) -> bool {
    let epoch = daemons[0].view_epoch();
    daemons
        .iter()
        .all(|d| d.view().len() == daemons.len() && d.view_epoch() == epoch)
}

/// The latest virtual clock among the daemons.
pub fn latest_clock_ns(cluster: &hpcsim::Cluster, daemons: &[ColzaDaemon]) -> u64 {
    daemons
        .iter()
        .filter_map(|d| cluster.shared().clock_of(d.address().pid()))
        .map(|c| c.now())
        .max()
        .unwrap_or(0)
}

/// Waits until every live daemon holds the same view of all live daemons.
/// The daemons' own service-loop timers carry the gossip, as in a real
/// deployment; the harness only watches. (Pumping explicit `tick()`s here
/// would charge one virtual SWIM period per tick the host happened to
/// queue, turning the resize time into a count of polling races.)
fn settle(daemons: &[ColzaDaemon]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if views_agree(daemons) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

fn settle_ack(
    rec: &Recorder,
    parent: Option<SpanId>,
    cluster: &hpcsim::Cluster,
    daemons: &[ColzaDaemon],
    addr: Address,
) -> ResizeAck {
    let (settled, _) = rec.time_under(parent, "views.settle", "ssg", None, || settle(daemons));
    ResizeAck {
        addr,
        settled,
        settled_at_ns: latest_clock_ns(cluster, daemons),
    }
}

/// One client rank's whole life: set-up, warm-up, then the segments.
/// Returns the segment reports (meaningful on rank 0 only).
fn rank_main(comm: MpiComm, sh: &Shared) -> Vec<SegmentReport> {
    let rank = comm.rank();
    let margo = MargoInstance::from_endpoint(Arc::clone(comm.endpoint()));
    let client = ColzaClient::new(Arc::clone(&margo));
    let admin = AdminClient::new(Arc::clone(&margo));
    let source = make_source(&sh.plan, sh.seed, &comm);
    let script_json = sh.plan.script.to_json();
    if rank == 0 {
        let view = client
            .view_from(sh.contact)
            .expect("staging area reachable");
        admin
            .create_pipeline_on_all(&view, "catalyst", PIPELINE, &script_json)
            .expect("pipeline deploys");
    }
    comm.barrier().expect("set-up barrier");
    let mut handle = client
        .distributed_handle(sh.contact, PIPELINE)
        .expect("distributed handle");
    handle.set_replication(sh.plan.replication);
    handle.set_codec(CodecConfig::uniform(sh.plan.codec));

    let mut me = Rank {
        comm,
        sh,
        admin,
        handle,
        source,
        script_json,
        joined: Vec::new(),
        last_members: Vec::new(),
        reference_image: None,
    };
    // Warm-up: Catalyst's modeled one-time initialisation, allocator and
    // connection warm-up all land here, in set-up, not in the measurement.
    me.iteration(0, sh.plan.warmup_pos, false);
    me.last_members = me.handle.members();
    if rank == 0 {
        sh.ready_tx.send(()).expect("harness is waiting");
    }

    let mut cycle = 0u64;
    let reports = sh
        .segments
        .iter()
        .map(|seg| me.segment(*seg, &mut cycle))
        .collect();
    if rank == 0 {
        sh.req_tx
            .send(HarnessReq::Done)
            .expect("harness is serving");
    }
    me.comm.barrier().expect("final barrier");
    margo.finalize();
    reports
}

struct Rank<'a> {
    comm: MpiComm,
    sh: &'a Shared,
    admin: AdminClient,
    handle: DistributedPipelineHandle,
    source: Source,
    script_json: String,
    /// Daemons added by this run's grows, newest last (shrink victims).
    joined: Vec<Address>,
    last_members: Vec<Address>,
    /// Hash of the first cycle's final image; later cycles must match it.
    reference_image: Option<u64>,
}

impl Rank<'_> {
    fn is_root(&self) -> bool {
        self.comm.rank() == 0
    }

    /// Root decides, everyone learns (costs one small broadcast, like the
    /// status exchange a real simulation does before a collective phase).
    fn agree(&self, root_says: bool) -> bool {
        let data = [root_says as u8];
        let out = self
            .comm
            .bcast(self.is_root().then_some(&data[..]), 0)
            .expect("client broadcast");
        out[0] != 0
    }

    fn segment(&mut self, seg: Segment, cycle: &mut u64) -> SegmentReport {
        let sh = self.sh;
        let cluster = Arc::clone(hpcsim::current().cluster());
        if self.is_root() && seg.traced {
            cluster.tracer().set_enabled(true);
            sh.rec.set_enabled(true);
        }
        self.comm.barrier().expect("segment barrier");
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let mut report = SegmentReport {
            iterations: Vec::new(),
            resizes: Vec::new(),
            host_cpu_ns: 0,
            trace: None,
        };
        let (mut cpu_mark, mut wall_mark) = (cpu0, t0);
        loop {
            *cycle += 1;
            for j in 0..sh.plan.cycle_len {
                let it = *cycle * sh.plan.cycle_len + j;
                let resize = sh
                    .plan
                    .resize_before(j)
                    .and_then(|target| self.resize(target, it));
                let record = self.iteration(it, j, true);
                let (cpu, wall) = (process_cpu_ns(), Instant::now());
                if let Some(mut r) = record {
                    r.host_cpu_ns = cpu - cpu_mark;
                    r.host_wall_ns = (wall - wall_mark).as_nanos() as u64;
                    r.resize_virt_ns = resize.map_or(0, |r| r.timing.virt_ns);
                    report.iterations.push(r);
                }
                report.resizes.extend(resize);
                (cpu_mark, wall_mark) = (cpu, wall);
            }
            if !self.agree(t0.elapsed().as_secs_f64() < seg.seconds) {
                break;
            }
        }
        report.host_cpu_ns = process_cpu_ns() - cpu0;
        if self.is_root() && seg.traced {
            report.trace = Some(cluster.trace_snapshot());
            cluster.tracer().set_enabled(false);
            sh.rec.set_enabled(false);
        }
        report
    }

    /// One whole iteration, collectively on both ranks. Returns rank 0's
    /// timings of it (`None` on the other rank, and when `activate`
    /// failed). The warm-up is not `measured`: it borrows a cycle position
    /// for its data only, and the schedule and trigger checks do not apply.
    fn iteration(&mut self, it: u64, j: u64, measured: bool) -> Option<IterRecord> {
        let sh = self.sh;
        let (rec, ops) = (&sh.rec, &sh.ops);
        let (record, _) = rec.time("iteration", "bench", Some(it), || {
            let mut r = IterRecord {
                pos: j,
                host_cpu_ns: 0,
                host_wall_ns: 0,
                resize_virt_ns: 0,
                activate: Timing::default(),
                stage: Timing::default(),
                execute: Timing::default(),
                deactivate: Timing::default(),
                skipped: false,
                changed_view: false,
                joined: false,
            };
            let mut activated = false;
            if self.is_root() {
                let (res, t) = rec.time("client.activate", "core", Some(it), || {
                    self.handle.activate(it)
                });
                r.activate = t;
                activated = ops.call("activate", res).is_some();
                let members = self.handle.members();
                r.changed_view = members != self.last_members;
                r.joined = members.len() > self.last_members.len();
                if measured {
                    ops.check(
                        "server count follows the schedule",
                        members.len() == sh.plan.servers_at(j),
                    );
                }
                self.last_members = members;
            }
            if !self.agree(activated) {
                return None;
            }

            let blocks = self.source.blocks(j);
            let handle = &self.handle;
            let (_, t) = rec.time("stage_phase", "bench", Some(it), || {
                for (id, ds) in blocks {
                    let (payload, _) = rec.time("codec.serialize", "core", Some(it), || {
                        colza::codec::dataset_to_bytes(ds)
                    });
                    let meta = BlockMeta::new(DATASET, *id, it, payload.len());
                    let (res, _) = rec.time("client.stage", "core", Some(it), || {
                        handle.stage(meta, &payload)
                    });
                    ops.call("stage", res);
                }
                rec.time("mpi.barrier", "minimpi", Some(it), || self.comm.barrier())
                    .0
                    .expect("post-stage barrier");
            });
            r.stage = t;

            if self.is_root() {
                let (res, t) = rec.time("client.execute", "core", Some(it), || {
                    self.handle.execute(it)
                });
                r.execute = t;
                if let Some(outcome) = ops.call("execute", res) {
                    r.skipped = outcome.is_skipped();
                    if measured {
                        ops.check(
                            "ran/skipped follows the trigger",
                            r.skipped != sh.plan.renders_at(j),
                        );
                        if self.is_check_position(j) && !r.skipped {
                            self.check_image(it);
                        }
                    }
                }
                let (res, t) = rec.time("client.deactivate", "core", Some(it), || {
                    self.handle.deactivate(it)
                });
                r.deactivate = t;
                ops.call("deactivate", res);
            }
            rec.time("mpi.barrier", "minimpi", Some(it), || self.comm.barrier())
                .0
                .expect("end-of-iteration barrier");
            self.is_root().then_some(r)
        });
        record
    }

    /// The cycle position whose image is fetched and compared: the last
    /// one that renders.
    fn is_check_position(&self, j: u64) -> bool {
        let plan = &self.sh.plan;
        (j + 1..plan.cycle_len).all(|later| !plan.renders_at(later))
    }

    /// Output check: the composited image covers something and is
    /// byte-identical to the image every earlier cycle ended on.
    fn check_image(&mut self, it: u64) {
        let (rec, ops) = (&self.sh.rec, &self.sh.ops);
        let (res, _) = rec.time("client.fetch_result", "core", Some(it), || {
            self.handle.fetch_result()
        });
        let Some(bytes) = ops.call("fetch_result", res).flatten() else {
            ops.check("the compositing root holds an image", false);
            return;
        };
        let image = vizkit::Image::from_bytes(&bytes);
        ops.check("image has non-zero coverage", image.coverage() > 0.0);
        let mut h = DefaultHasher::new();
        h.write(&bytes);
        let digest = h.finish();
        let reference = *self.reference_image.get_or_insert(digest);
        ops.check("image is byte-identical across cycles", digest == reference);
    }

    /// Brings the staging area to `target` servers before iteration `it`;
    /// returns what rank 0 saw of it (`None` on the other rank).
    fn resize(&mut self, target: usize, it: u64) -> Option<ResizeRecord> {
        let sh = self.sh;
        let (rec, ops) = (&sh.rec, &sh.ops);
        let mut record = None;
        if self.is_root() {
            let grow = target > self.handle.members().len();
            let name = if grow { "resize.grow" } else { "resize.shrink" };
            let (_, timing) = rec.time(name, "bench", Some(it), || {
                let parent = rec.current();
                if !grow {
                    let Some(victim) = self.joined.pop() else {
                        ops.check("a grown daemon is there to retire", false);
                        return;
                    };
                    let (res, _) = rec.time("admin.request_leave", "core", Some(it), || {
                        self.admin.request_leave(victim)
                    });
                    ops.call("request_leave", res);
                    sh.req_tx
                        .send(HarnessReq::AwaitLeave {
                            addr: victim,
                            parent,
                        })
                        .expect("harness is serving");
                } else {
                    sh.req_tx
                        .send(HarnessReq::Grow { parent })
                        .expect("harness is serving");
                }
                let ack = sh.ack_rx.recv().expect("harness acknowledges the resize");
                ops.check("every live view agrees after the resize", ack.settled);
                // The simulated client waited for the resize to finish.
                hpcsim::current().clock().merge(ack.settled_at_ns);
                if grow {
                    let (res, _) = rec.time("admin.create_pipeline", "core", Some(it), || {
                        self.admin.create_pipeline(
                            ack.addr,
                            "catalyst",
                            PIPELINE,
                            &self.script_json,
                        )
                    });
                    ops.call("create_pipeline", res);
                    self.joined.push(ack.addr);
                }
                let (res, _) = rec.time("client.refresh_view", "core", Some(it), || {
                    self.handle.refresh_view()
                });
                ops.call("refresh_view", res);
            });
            record = Some(ResizeRecord { grow, timing });
        }
        self.comm.barrier().expect("post-resize barrier");
        if !self.is_root() {
            let res = self.handle.refresh_view();
            ops.call("refresh_view", res);
        }
        record
    }
}
