//! MoNA instances and communicators: lifecycle plus the point-to-point
//! protocol layer (eager vs RDMA) that collectives build on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use na::{Address, Endpoint, Fabric, NaError, RecvSelector};

use crate::coll::opcode;
use crate::pool::BufferPool;
use crate::{MonaError, Result};

/// Tunables and calibrated cost constants for a MoNA instance.
#[derive(Debug, Clone, Copy)]
pub struct MonaConfig {
    /// Messages of at least this many bytes use the RDMA path (expose +
    /// notice + remote get + ack) instead of the eager path.
    pub rdma_threshold: usize,
    /// Software overhead charged per send or receive operation: MoNA's
    /// progress loop runs through Argobots and a generic request layer.
    pub sw_op_ns: u64,
    /// Extra overhead per operation when buffer pooling is disabled — the
    /// "many small allocations" the paper says raw NA suffers from.
    pub alloc_ns: u64,
    /// Whether request/buffer caching is active. Disabling it reproduces
    /// the raw-NA rows of Table I and is one of the DESIGN.md ablations.
    pub pooling: bool,
    /// Extra initiator-side cost of MoNA's RDMA path: NA-level memory
    /// registration and handle marshaling are costlier than a vendor
    /// MPI's pre-registered pools (calibrated from Table I's 16 KiB row).
    pub rdma_extra_ns: u64,
    /// Algorithm-selection table for the collective engine (DESIGN.md §11).
    pub coll: CollTuning,
    /// Fault-tolerance knobs (DESIGN.md §12): crash-aware receives and the
    /// per-operation deadline backstop.
    pub fault: FaultConfig,
}

impl Default for MonaConfig {
    fn default() -> Self {
        Self {
            rdma_threshold: 16 * 1024,
            sw_op_ns: 380,
            alloc_ns: 90,
            pooling: true,
            rdma_extra_ns: 3_800,
            coll: CollTuning::default(),
            fault: FaultConfig::default(),
        }
    }
}

/// Fault-tolerance configuration for receives (DESIGN.md §12).
///
/// Crash awareness proper is event-driven: once the instance is armed
/// ([`MonaInstance::arm_fault_detection`], done by Colza when it wires the
/// SSG observer), blocked receives re-check the dead-member set and the
/// communicator's revoke-notice channel every `poll`, so an SSG death
/// verdict or a peer's revoke broadcast unblocks them with
/// [`MonaError::Revoked`]. `recv_deadline` is only the backstop for the
/// case where no detector ever fires.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Real-time ceiling for one blocked receive. When it expires the
    /// awaited peer is suspected dead, the communicator is revoked, and
    /// the receive returns [`MonaError::Revoked`] (or a plain NA timeout
    /// for a wildcard receive with no one to suspect). `None` waits
    /// forever, as MoNA historically did.
    pub recv_deadline: Option<Duration>,
    /// How often a blocked receive re-checks crash notifications. Polling
    /// exchanges no messages and advances no virtual clock, so it cannot
    /// perturb deterministic traces.
    pub poll: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            recv_deadline: None,
            poll: Duration::from_millis(2),
        }
    }
}

impl MonaConfig {
    /// The configuration modelling *raw NA* usage: no request/buffer
    /// caching and no RDMA protocol switch (NA alone has no matching
    /// rendezvous logic — the paper's NA column stops at 2 KiB).
    pub fn raw_na() -> Self {
        Self {
            pooling: false,
            ..Default::default()
        }
    }

    /// A configuration that pins every collective to the naive MPICH
    /// "classic" algorithm (whole-payload binomial trees, reduce-then-bcast
    /// allreduce). Used as the oracle/baseline by tests and `bench_coll`.
    pub fn naive_collectives() -> Self {
        Self {
            coll: CollTuning::naive(),
            ..Default::default()
        }
    }
}

/// Every split the collective engine makes (pipeline chunks, Rabenseifner
/// blocks) falls on a multiple of this, so any elementwise [`crate::ReduceOp`]
/// whose record width divides 64 bytes can be applied to sub-ranges.
pub const COLL_ALIGN: usize = 64;

/// The widest round/chunk index a collective wire tag can carry (12 bits).
pub(crate) const MAX_ROUNDS: usize = 1 << 12;

/// The size-adaptive collective engine's selection table: which algorithm
/// each collective uses as a function of message size and communicator
/// size, mirroring MPICH's switchover design (the paper says MoNA follows
/// it). See DESIGN.md §11 for the calibration.
#[derive(Debug, Clone, Copy)]
pub struct CollTuning {
    /// Payloads of at least this many bytes are segmented into pipeline
    /// chunks so intermediate tree ranks forward chunk *k* while chunk
    /// *k+1* is still in flight. Chunks ride the non-blocking eager path,
    /// which is what lets tree levels overlap.
    pub pipeline_threshold: usize,
    /// Pipeline segment size. Rounded up to [`COLL_ALIGN`]; grown when a
    /// payload would otherwise need more than 4096 chunks (the round-field
    /// width). 12 KiB keeps chunks under the RDMA threshold and the
    /// per-chunk CPU cost below the RDMA per-byte wire cost.
    pub pipeline_chunk: usize,
    /// Upper end of the pipelining window: payloads of this many bytes or
    /// more go back to whole-payload trees. Above here the eager chunks'
    /// per-byte copy cost outweighs the tree-level overlap they buy, and
    /// the single zero-copy RDMA transfer per edge wins (measured
    /// crossover ≈ 170 KiB at 16 ranks, higher at 64 — see
    /// `results/BENCH_coll.json`).
    pub pipeline_max: usize,
    /// `allreduce` switches to Rabenseifner (ring reduce-scatter + ring
    /// allgather) once the per-rank block `len / n` reaches this size —
    /// below it the 2(n−1) ring messages cost more than they save.
    pub rabenseifner_block: usize,
}

impl Default for CollTuning {
    fn default() -> Self {
        Self {
            pipeline_threshold: 12 * 1024,
            pipeline_chunk: 12 * 1024,
            pipeline_max: 160 * 1024,
            rabenseifner_block: 4 * 1024,
        }
    }
}

/// How a payload is segmented on the wire: `count` frames of at most
/// `chunk` bytes (the last one ragged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePlan {
    /// Frame payload size (multiple of [`COLL_ALIGN`]).
    pub chunk: usize,
    /// Number of frames (≥ 1; 1 means "not pipelined").
    pub count: usize,
}

impl FramePlan {
    /// Byte range of frame `k` within a `len`-byte payload.
    pub fn range(&self, k: usize, len: usize) -> std::ops::Range<usize> {
        let start = (k * self.chunk).min(len);
        let end = ((k + 1) * self.chunk).min(len);
        start..end
    }
}

fn align_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

impl CollTuning {
    /// A tuning that never pipelines and never selects Rabenseifner —
    /// i.e. the pre-engine naive algorithms.
    pub fn naive() -> Self {
        Self {
            pipeline_threshold: usize::MAX,
            pipeline_chunk: 12 * 1024,
            pipeline_max: usize::MAX,
            rabenseifner_block: usize::MAX,
        }
    }

    /// The wire segmentation for a `len`-byte payload: a single frame
    /// below `pipeline_threshold`, chunked above it. Both sides of an
    /// edge compute this from `len` alone, so it is a deterministic
    /// function of size — never of wall-clock state.
    pub fn frames(&self, len: usize) -> FramePlan {
        if len < self.pipeline_threshold || len >= self.pipeline_max || len == 0 {
            return FramePlan {
                chunk: len.max(1),
                count: 1,
            };
        }
        let mut chunk = align_up(self.pipeline_chunk.max(1), COLL_ALIGN);
        let min_chunk = len.div_ceil(MAX_ROUNDS);
        if chunk < min_chunk {
            chunk = align_up(min_chunk, COLL_ALIGN);
        }
        FramePlan {
            chunk,
            count: len.div_ceil(chunk).max(1),
        }
    }

    /// Whether `allreduce(len)` on an `n`-rank communicator uses
    /// Rabenseifner. Division keeps the `usize::MAX` sentinel overflow-free.
    pub fn use_rabenseifner(&self, len: usize, n: usize) -> bool {
        n > 1 && len / n >= self.rabenseifner_block
    }

    /// The algorithm `bcast`/`reduce` will use (bench/test labeling).
    pub fn tree_algorithm(&self, len: usize, n: usize) -> &'static str {
        if n <= 1 {
            "identity"
        } else if self.frames(len).count > 1 {
            "pipelined-binomial"
        } else {
            "binomial"
        }
    }

    /// The algorithm `allreduce` will use (bench/test labeling).
    pub fn allreduce_algorithm(&self, len: usize, n: usize) -> &'static str {
        if n <= 1 {
            "identity"
        } else if self.use_rabenseifner(len, n) {
            "rabenseifner"
        } else if self.frames(len).count > 1 {
            "pipelined-reduce+bcast"
        } else {
            "reduce+bcast"
        }
    }

    /// The algorithm `allgather` will use for `len`-byte per-rank blocks.
    pub fn allgather_algorithm(&self, len: usize, n: usize) -> &'static str {
        if n <= 1 {
            "identity"
        } else if self.frames(len).count > 1 {
            "ring-pipelined"
        } else {
            "ring"
        }
    }
}

/// A MoNA progress-loop instance (the `mona_instance_t` of the C library).
pub struct MonaInstance {
    endpoint: Arc<Endpoint>,
    config: MonaConfig,
    task_pool: argo::Pool,
    pub(crate) buffers: BufferPool,
    /// Addresses known (or suspected) dead, fed from SSG observers via
    /// [`MonaInstance::mark_dead`]. Instance-wide: every communicator on
    /// this instance consults it.
    dead: Mutex<Vec<Address>>,
    /// Whether crash detection is wired up. Until armed, receives take the
    /// plain blocking fast path — polling only starts once somebody (the
    /// Colza provider, a test harness) can actually deliver death verdicts.
    armed: AtomicBool,
}

impl MonaInstance {
    /// Initializes MoNA for the calling simulated process, opening a fresh
    /// NA endpoint on `fabric`.
    pub fn init(fabric: &Fabric) -> Arc<Self> {
        Self::from_endpoint(Arc::new(fabric.open()), MonaConfig::default())
    }

    /// Initializes with an explicit configuration.
    pub fn init_with(fabric: &Fabric, config: MonaConfig) -> Arc<Self> {
        Self::from_endpoint(Arc::new(fabric.open()), config)
    }

    /// Wraps an already-open endpoint (shared with margo, as Colza does).
    pub fn from_endpoint(endpoint: Arc<Endpoint>, config: MonaConfig) -> Arc<Self> {
        let ctx = Arc::clone(endpoint.ctx());
        let task_pool = argo::PoolBuilder::new(format!("mona-{}", endpoint.address()))
            .xstreams(2)
            .task_wrapper(Arc::new(move |task| {
                hpcsim::process::enter(Arc::clone(&ctx), task)
            }))
            .build();
        Arc::new(Self {
            endpoint,
            config,
            task_pool,
            buffers: BufferPool::default(),
            dead: Mutex::new(Vec::new()),
            armed: AtomicBool::new(false),
        })
    }

    /// This instance's NA address.
    pub fn address(&self) -> Address {
        self.endpoint.address()
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// The active configuration.
    pub fn config(&self) -> &MonaConfig {
        &self.config
    }

    pub(crate) fn task_pool(&self) -> &argo::Pool {
        &self.task_pool
    }

    /// Charges the per-operation software overhead to the caller's clock.
    pub(crate) fn charge_op(&self) {
        let mut ns = self.config.sw_op_ns;
        if !self.config.pooling {
            ns += self.config.alloc_ns;
        }
        self.endpoint.ctx().advance(ns);
    }

    /// Builds a communicator over `members` (context 0). The caller's own
    /// address must appear in the list; its index becomes the rank.
    pub fn comm_create(self: &Arc<Self>, members: Vec<Address>) -> Result<Communicator> {
        self.comm_create_with_context(members, 0)
    }

    /// Builds a communicator with an explicit context id, allowing several
    /// communicators over the same member list to coexist.
    pub fn comm_create_with_context(
        self: &Arc<Self>,
        members: Vec<Address>,
        context: u64,
    ) -> Result<Communicator> {
        self.comm_create_inner(members, context, 0)
    }

    fn comm_create_inner(
        self: &Arc<Self>,
        members: Vec<Address>,
        context: u64,
        epoch: u64,
    ) -> Result<Communicator> {
        let me = self.address();
        let rank = members
            .iter()
            .position(|&a| a == me)
            .unwrap_or_else(|| panic!("{me} is not in the member list"));
        let cid = comm_id(&members, context, epoch);
        Ok(Communicator {
            inst: Arc::clone(self),
            members: Arc::new(members),
            rank,
            cid,
            context,
            epoch,
            seq: Arc::new(AtomicU64::new(0)),
            notified: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Enables crash-aware receives on this instance. Colza calls this
    /// when it wires the SSG observer into [`MonaInstance::mark_dead`];
    /// until then blocked receives never poll, matching the historical
    /// behaviour exactly.
    pub fn arm_fault_detection(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether crash detection is armed (observer wired or a death seen).
    pub fn fault_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Records `addr` as dead. Idempotent; arms fault detection so that
    /// receives already blocked start noticing. Fed from SSG `Died`/`Left`
    /// observer events and from MoNA's own send failures / deadline
    /// expiries.
    pub fn mark_dead(&self, addr: Address) {
        let mut dead = self.dead.lock();
        if !dead.contains(&addr) {
            dead.push(addr);
            hpcsim::trace::counter_add("mona.revoke.marked", 1);
        }
        drop(dead);
        self.arm_fault_detection();
    }

    /// Whether `addr` is marked dead.
    pub fn is_dead(&self, addr: Address) -> bool {
        self.dead.lock().contains(&addr)
    }
}

/// Deterministic communicator id from the membership, a context value and
/// the shrink epoch. Folding the epoch in moves the *entire* collective
/// tag region when a communicator is shrunk, so traffic from the revoked
/// generation can never match a receive on the new one.
fn comm_id(members: &[Address], context: u64, epoch: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325
        ^ context.wrapping_mul(0x1000_0000_01b3)
        ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for a in members {
        h ^= a.0;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h & CID_MASK
}

const CID_MASK: u64 = (1 << 18) - 1;
const SUB_BITS: u64 = 26;
const P2P_ACK_BIT: u64 = 1 << 16;
const COLL_BIT: u64 = 1 << 25;
// Collective wire-tag layout (below COLL_BIT): bits 0..=4 opcode,
// bits 5..=16 round/chunk index, bit 17 ack, bits 18..=24 sequence
// number mod 128. The 12-bit round field is what fixes the old
// 6-bit allgather step mask that cross-talked past 64 ranks.
const COLL_ACK_BIT: u64 = 1 << 17;
const COLL_ROUND_SHIFT: u64 = 5;
const COLL_SEQ_SHIFT: u64 = 18;
const COLL_SEQ_MASK: u64 = 0x7F;

/// Message kinds on the wire.
const KIND_EAGER: u8 = 0;
const KIND_RDMA: u8 = 1;

/// A send payload that is either borrowed (copied into the wire frame) or
/// owned (handed to the fabric without a copy where the path allows it).
pub(crate) enum Payload<'a> {
    Borrowed(&'a [u8]),
    Owned(Bytes),
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match self {
            Payload::Borrowed(s) => s.len(),
            Payload::Owned(b) => b.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Borrowed(s) => s,
            Payload::Owned(b) => b,
        }
    }
}

/// A MoNA communicator: a rank within an explicit member list.
///
/// Cloning is cheap and yields a handle sharing the collective sequence
/// counter — clones are for moving into non-blocking tasks, not for
/// concurrent independent use.
#[derive(Clone)]
pub struct Communicator {
    pub(crate) inst: Arc<MonaInstance>,
    members: Arc<Vec<Address>>,
    rank: usize,
    cid: u64,
    context: u64,
    epoch: u64,
    seq: Arc<AtomicU64>,
    /// Whether this communicator has already broadcast revoke notices —
    /// shared across clones so the abort storm is sent exactly once.
    notified: Arc<AtomicBool>,
}

impl Communicator {
    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The member list, in rank order.
    pub fn members(&self) -> &[Address] {
        &self.members
    }

    /// The address of a rank.
    pub fn address_of(&self, rank: usize) -> Address {
        self.members[rank]
    }

    /// The owning instance.
    pub fn instance(&self) -> &Arc<MonaInstance> {
        &self.inst
    }

    /// A new communicator over the same members with a fresh context
    /// (disjoint tag space).
    pub fn dup(&self) -> Communicator {
        self.inst
            .comm_create_inner(
                (*self.members).clone(),
                self.context.wrapping_add(1),
                self.epoch,
            )
            .expect("self is a member")
    }

    /// The shrink generation of this communicator (0 for a fresh one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rebuilds a usable communicator over `survivors` without a fresh
    /// 2PC: same context, next epoch, fresh sequence counter. The epoch
    /// is folded into the communicator id, so the new tag region is
    /// disjoint from the revoked one and stale traffic is simply never
    /// matched.
    pub fn shrink(&self, survivors: &[Address]) -> Result<Communicator> {
        let me = self.inst.address();
        if !survivors.contains(&me) {
            return Err(MonaError::Protocol("shrink: caller not in survivor list"));
        }
        if let Some(&d) = survivors.iter().find(|&&a| self.inst.is_dead(a)) {
            let _ = d;
            return Err(MonaError::Protocol(
                "shrink: survivor list contains a member marked dead",
            ));
        }
        hpcsim::trace::counter_add("mona.comm.shrink", 1);
        self.inst
            .comm_create_inner(survivors.to_vec(), self.context, self.epoch.wrapping_add(1))
    }

    /// The control tag revoke notices for this communicator travel on.
    /// Round and seq 0 keep it constant for the communicator's lifetime,
    /// so a receiver can drain it with a plain tag selector.
    fn revoke_tag(&self) -> u64 {
        self.coll_tag(0, opcode::REVOKE, 0)
    }

    /// Members of *this communicator* currently marked dead.
    fn dead_here(&self) -> Vec<Address> {
        self.members
            .iter()
            .copied()
            .filter(|&a| self.inst.is_dead(a))
            .collect()
    }

    /// Returns `Revoked` if any member of this communicator is marked
    /// dead, broadcasting revoke notices to the survivors first.
    fn check_revoked(&self) -> Result<()> {
        let dead = self.dead_here();
        if dead.is_empty() {
            return Ok(());
        }
        self.broadcast_revoke(&dead);
        Err(MonaError::Revoked {
            epoch: self.epoch,
            dead,
        })
    }

    /// Consumes queued revoke notices for this communicator. A notice
    /// carries `[epoch u64 | n u64 | n * addr u64]`; notices from an
    /// older epoch are stale traffic from a revoked generation and are
    /// discarded (counted, not acted on). Fresh ones feed the instance
    /// dead-set so `check_revoked` fires.
    fn drain_revoke_notices(&self) {
        let ep = &self.inst.endpoint;
        while let Some(msg) = ep.try_recv(RecvSelector::tag(self.revoke_tag())) {
            let body = &msg.data[..];
            let Ok(epoch) = u64_at(body, 0) else { continue };
            if epoch < self.epoch {
                hpcsim::trace::counter_add("mona.revoke.stale", 1);
                continue;
            }
            hpcsim::trace::counter_add("mona.revoke.recv", 1);
            let n = u64_at(body, 8).unwrap_or(0) as usize;
            for i in 0..n {
                if let Ok(raw) = u64_at(body, 16 + 8 * i) {
                    self.inst.mark_dead(Address(raw));
                }
            }
        }
    }

    /// Propagates the abort: sends one revoke notice to every *live*
    /// member (never to the dead — a send to a crashed endpoint would
    /// perturb the fault trace), in rank order, exactly once per
    /// communicator. Send failures are ignored: an unreachable survivor
    /// will discover the revocation through its own detector.
    fn broadcast_revoke(&self, dead: &[Address]) {
        if self.notified.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut sp = hpcsim::trace::span("mona", "mona.revoke");
        if sp.active() {
            sp.arg("epoch", self.epoch);
            sp.arg("dead", dead.len());
        }
        let ep = &self.inst.endpoint;
        let me = self.inst.address();
        let mut notice = BytesMut::with_capacity(16 + 8 * dead.len());
        notice.put_u64_le(self.epoch);
        notice.put_u64_le(dead.len() as u64);
        for d in dead {
            notice.put_u64_le(d.0);
        }
        let notice = notice.freeze();
        let mut sent = 0u64;
        for &m in self.members.iter() {
            if m == me || dead.contains(&m) {
                continue;
            }
            if ep.send_control(m, self.revoke_tag(), notice.clone()).is_ok() {
                sent += 1;
            }
        }
        hpcsim::trace::counter_add("mona.revoke.sent", sent);
    }

    /// Crash-aware blocking receive. The fast path (detection not armed,
    /// no deadline configured) is a plain blocking `recv`, byte-for-byte
    /// the historical behaviour. Otherwise the wait is sliced into short
    /// polls; each slice re-checks the dead-set and drains revoke
    /// notices, so an SSG death verdict or a peer's abort unblocks this
    /// receive with [`MonaError::Revoked`]. `waiting_on` names the peer
    /// to suspect if the `recv_deadline` backstop expires; a wildcard
    /// receive has no one to suspect and surfaces a plain NA timeout.
    fn recv_msg(&self, sel: RecvSelector, waiting_on: Option<Address>) -> Result<na::InMsg> {
        let ep = &self.inst.endpoint;
        let deadline = self.inst.config.fault.recv_deadline;
        if !self.inst.fault_armed() && deadline.is_none() {
            return ep.recv(sel).map_err(MonaError::from);
        }
        self.check_revoked()?;
        let poll = self.inst.config.fault.poll;
        let started = std::time::Instant::now();
        loop {
            match ep.recv_timeout(sel, Some(poll)) {
                Ok(msg) => return Ok(msg),
                Err(NaError::Timeout) => {}
                Err(e) => return Err(e.into()),
            }
            self.drain_revoke_notices();
            self.check_revoked()?;
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    return match waiting_on {
                        Some(peer) => {
                            hpcsim::trace::counter_add("mona.revoke.deadline", 1);
                            self.inst.mark_dead(peer);
                            self.check_revoked()?;
                            unreachable!("awaited peer was just marked dead")
                        }
                        None => Err(NaError::Timeout.into()),
                    };
                }
            }
        }
    }

    /// Marks `dst_addr` dead after a send failure, revokes, and returns
    /// the typed revocation for the caller to propagate.
    fn fail_send(&self, dst_addr: Address) -> MonaError {
        self.inst.mark_dead(dst_addr);
        let dead = self.dead_here();
        self.broadcast_revoke(&dead);
        MonaError::Revoked {
            epoch: self.epoch,
            dead,
        }
    }

    fn p2p_tag(&self, tag: u16) -> u64 {
        na::tags::MONA_BASE | (self.cid << SUB_BITS) | tag as u64
    }

    /// The wire tag for round `round` of opcode `op` within collective
    /// number `seq`. Sequence numbers wrap at 128, which is safe because
    /// collectives are issued in order on each communicator and the NA
    /// mailbox is FIFO per (source, tag) — a tag cannot be reused while a
    /// message wearing it is still queued.
    pub(crate) fn coll_tag(&self, seq: u64, op: u16, round: u32) -> u64 {
        debug_assert!(op < 32, "collective opcode field is 5 bits");
        debug_assert!((round as usize) < MAX_ROUNDS, "round field is 12 bits");
        na::tags::MONA_BASE
            | (self.cid << SUB_BITS)
            | COLL_BIT
            | ((seq & COLL_SEQ_MASK) << COLL_SEQ_SHIFT)
            | ((round as u64) << COLL_ROUND_SHIFT)
            | op as u64
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends `data` to `dst` with a user tag. Eager below the RDMA
    /// threshold (buffered, returns immediately); RDMA above it (blocks
    /// until the receiver has pulled the data).
    pub fn send(&self, data: &[u8], dst: usize, tag: u16) -> Result<()> {
        self.raw_send(dst, self.p2p_tag(tag), data)
    }

    /// Receives a message from `src` with a user tag.
    pub fn recv(&self, src: usize, tag: u16) -> Result<Bytes> {
        self.raw_recv(Some(src), self.p2p_tag(tag)).map(|(b, _)| b)
    }

    /// Receives a message with the given tag from any rank, returning the
    /// payload and the source rank.
    pub fn recv_any(&self, tag: u16) -> Result<(Bytes, usize)> {
        self.raw_recv(None, self.p2p_tag(tag))
    }

    /// Simultaneous send and receive (deadlock-safe even for large
    /// messages: the send side runs as a background task).
    pub fn sendrecv(
        &self,
        data: &[u8],
        dst: usize,
        send_tag: u16,
        src: usize,
        recv_tag: u16,
    ) -> Result<Bytes> {
        let req = self.isend(data.to_vec(), dst, send_tag);
        let out = self.recv(src, recv_tag)?;
        req.wait()?;
        Ok(out)
    }

    /// Non-blocking send; completion means the data is delivered (eager)
    /// or pulled by the receiver (RDMA).
    pub fn isend(&self, data: Vec<u8>, dst: usize, tag: u16) -> crate::Request {
        let wire_tag = self.p2p_tag(tag);
        if data.len() < self.inst.config.rdma_threshold {
            // Eager sends are buffered; complete immediately.
            crate::Request::ready(self.raw_send(dst, wire_tag, &data).map(|()| None))
        } else {
            let this = self.clone();
            crate::Request::pending(
                self.inst
                    .task_pool()
                    .spawn(move || this.raw_send(dst, wire_tag, &data).map(|()| None)),
            )
        }
    }

    /// Non-blocking receive.
    pub fn irecv(&self, src: usize, tag: u16) -> crate::Request {
        let wire_tag = self.p2p_tag(tag);
        let this = self.clone();
        crate::Request::pending(
            self.inst
                .task_pool()
                .spawn(move || this.raw_recv(Some(src), wire_tag).map(|(b, _)| Some(b))),
        )
    }

    /// Low-level tagged send used by both p2p and collectives.
    pub(crate) fn raw_send(&self, dst: usize, wire_tag: u64, data: &[u8]) -> Result<()> {
        self.send_frame(dst, wire_tag, &[], Payload::Borrowed(data))
    }

    /// Like [`raw_send`], but takes ownership so the RDMA path can expose
    /// the buffer directly instead of `copy_from_slice`-ing it — the
    /// zero-copy hot path for payloads a collective already owns.
    pub(crate) fn raw_send_owned(&self, dst: usize, wire_tag: u64, data: Bytes) -> Result<()> {
        self.send_frame(dst, wire_tag, &[], Payload::Owned(data))
    }

    /// Sends `[prefix | data]` as one contiguous frame without the caller
    /// materialising the concatenation. Collectives use an 8-byte length
    /// prefix on frames whose receiver cannot otherwise know the total
    /// payload size (bcast and allgather frame 0).
    pub(crate) fn raw_send_prefixed(
        &self,
        dst: usize,
        wire_tag: u64,
        prefix: &[u8],
        data: Payload<'_>,
    ) -> Result<()> {
        self.send_frame(dst, wire_tag, prefix, data)
    }

    fn send_frame(&self, dst: usize, wire_tag: u64, prefix: &[u8], data: Payload<'_>) -> Result<()> {
        let ep = &self.inst.endpoint;
        let dst_addr = self.members[dst];
        if self.inst.fault_armed() {
            self.check_revoked()?;
        }
        let len = prefix.len() + data.len();
        let eager = len < self.inst.config.rdma_threshold;
        let mut sp = hpcsim::trace::span("mona", "mona.send");
        if sp.active() {
            sp.arg("kind", if eager { "eager" } else { "rdma" });
            sp.arg("bytes", len);
            sp.arg("dst", dst);
        }
        self.inst.charge_op();
        if eager {
            let mut buf = BytesMut::with_capacity(len + 1);
            buf.put_u8(KIND_EAGER);
            buf.put_slice(prefix);
            buf.put_slice(data.as_slice());
            match ep.send(dst_addr, wire_tag, buf.freeze()) {
                Ok(()) => Ok(()),
                // The peer's endpoint is gone: it crashed (or left without
                // a goodbye). Revoke instead of surfacing a raw NA error.
                Err(NaError::Unreachable(_)) => Err(self.fail_send(dst_addr)),
                Err(e) => Err(e.into()),
            }
        } else {
            // RDMA path: expose, notify, wait for the receiver's ack. An
            // owned unprefixed payload is exposed as-is (no copy).
            ep.ctx().advance(self.inst.config.rdma_extra_ns);
            let exposed = match data {
                Payload::Owned(b) if prefix.is_empty() => b,
                other => {
                    let mut buf = BytesMut::with_capacity(len);
                    buf.put_slice(prefix);
                    buf.put_slice(other.as_slice());
                    buf.freeze()
                }
            };
            let handle = ep.expose(exposed);
            let notice_res = {
                let mut notice = BytesMut::with_capacity(25);
                notice.put_u8(KIND_RDMA);
                notice.put_u64_le(handle.owner.0);
                notice.put_u64_le(handle.key);
                notice.put_u64_le(handle.size as u64);
                ep.send_control(dst_addr, wire_tag, notice.freeze())
            };
            if let Err(e) = notice_res {
                ep.unexpose(handle).ok();
                return match e {
                    NaError::Unreachable(_) => Err(self.fail_send(dst_addr)),
                    other => Err(other.into()),
                };
            }
            let ack = self.recv_msg(
                RecvSelector::exact(dst_addr, ack_tag(wire_tag)),
                Some(dst_addr),
            );
            ep.unexpose(handle).ok();
            ack.map(|_| ())
        }
    }

    /// Low-level tagged receive used by both p2p and collectives. Returns
    /// the payload and the source *rank*.
    pub(crate) fn raw_recv(&self, src: Option<usize>, wire_tag: u64) -> Result<(Bytes, usize)> {
        let ep = &self.inst.endpoint;
        let mut sp = hpcsim::trace::span("mona", "mona.recv");
        self.inst.charge_op();
        let (sel, waiting_on) = match src {
            Some(r) => (
                RecvSelector::exact(self.members[r], wire_tag),
                Some(self.members[r]),
            ),
            None => (RecvSelector::tag(wire_tag), None),
        };
        let msg = self.recv_msg(sel, waiting_on)?;
        let src_rank = self
            .members
            .iter()
            .position(|&a| a == msg.src)
            .ok_or(NaError::Unreachable(msg.src))?;
        let (kind, body) = msg
            .data
            .split_first()
            .map(|(k, _)| (*k, msg.data.slice(1..)))
            .ok_or(NaError::ShortFrame { need: 1, have: 0 })?;
        match kind {
            KIND_EAGER => {
                if sp.active() {
                    sp.arg("kind", "eager");
                    sp.arg("bytes", body.len());
                    sp.arg("src", src_rank);
                }
                Ok((body, src_rank))
            }
            KIND_RDMA => {
                let owner = Address(u64_at(&body, 0)?);
                let key = u64_at(&body, 8)?;
                let size = u64_at(&body, 16)? as usize;
                if sp.active() {
                    sp.arg("kind", "rdma");
                    sp.arg("bytes", size);
                    sp.arg("src", src_rank);
                }
                let handle = na::BulkHandle { owner, key, size };
                let data = ep.rdma_get(handle, 0, size)?;
                ep.send_control(msg.src, ack_tag(wire_tag), Bytes::new())?;
                Ok((data, src_rank))
            }
            other => Err(NaError::BadFrameKind(other).into()),
        }
    }
}

fn ack_tag(wire_tag: u64) -> u64 {
    if wire_tag & COLL_BIT != 0 {
        wire_tag | COLL_ACK_BIT
    } else {
        wire_tag | P2P_ACK_BIT
    }
}

/// Reads a little-endian u64 at `off`, surfacing a typed [`NaError::ShortFrame`]
/// instead of panicking when the frame is truncated.
fn u64_at(b: &[u8], off: usize) -> Result<u64> {
    match b.get(off..off + 8) {
        Some(s) => Ok(u64::from_le_bytes(s.try_into().expect("slice is 8 bytes"))),
        None => Err(NaError::ShortFrame {
            need: off + 8,
            have: b.len(),
        }
        .into()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    pub(crate) use crate::testing::with_comm;

    #[test]
    fn p2p_eager_roundtrip() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(b"ping", 1, 5).unwrap();
                Vec::new()
            } else {
                comm.recv(0, 5).unwrap().to_vec()
            }
        });
        assert_eq!(out[1], b"ping");
    }

    #[test]
    fn p2p_rdma_roundtrip() {
        let big = vec![7u8; 64 * 1024];
        let expect = big.clone();
        let out = with_comm(2, MonaConfig::default(), move |comm| {
            if comm.rank() == 0 {
                comm.send(&big, 1, 1).unwrap();
                Vec::new()
            } else {
                comm.recv(0, 1).unwrap().to_vec()
            }
        });
        assert_eq!(out[1], expect);
    }

    #[test]
    fn rdma_send_leaves_no_exposure() {
        // After a completed large send the exposure table must be empty.
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(&vec![1u8; 32 * 1024], 1, 0).unwrap();
                comm.instance().endpoint().fabric().exposure_count()
            } else {
                comm.recv(0, 0).unwrap();
                0
            }
        });
        assert_eq!(out[0], 0);
    }

    #[test]
    fn sendrecv_crossing_large_messages_does_not_deadlock() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            let peer = 1 - comm.rank();
            let data = vec![comm.rank() as u8; 100 * 1024];
            let got = comm.sendrecv(&data, peer, 3, peer, 3).unwrap();
            got[0]
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn isend_irecv_complete() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                let r = comm.isend(vec![9u8; 10], 1, 2);
                r.wait().unwrap();
                0
            } else {
                let r = comm.irecv(0, 2);
                r.wait().unwrap().unwrap()[0]
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn recv_any_reports_source_rank() {
        let out = with_comm(3, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (data, src) = comm.recv_any(9).unwrap();
                    seen.push((data[0], src));
                }
                seen.sort_unstable();
                seen
            } else {
                comm.send(&[comm.rank() as u8], 0, 9).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn communicators_with_different_contexts_do_not_collide() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            let comm2 = comm.dup();
            if comm.rank() == 0 {
                // Send on comm2 first, then comm; receiver reads comm first.
                comm2.send(b"two", 1, 0).unwrap();
                comm.send(b"one", 1, 0).unwrap();
                Vec::new()
            } else {
                let a = comm.recv(0, 0).unwrap().to_vec();
                let b = comm2.recv(0, 0).unwrap().to_vec();
                vec![a, b]
            }
        });
        assert_eq!(out[1], vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn truncated_rdma_notice_is_a_typed_error_not_a_panic() {
        // A KIND_RDMA frame carrying only the owner field (8 of the 24
        // header bytes) must surface ShortFrame, not panic the receiver.
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                let mut buf = BytesMut::with_capacity(9);
                buf.put_u8(KIND_RDMA);
                buf.put_u64_le(42);
                let ep = comm.instance().endpoint();
                ep.send(comm.address_of(1), comm.p2p_tag(4), buf.freeze())
                    .unwrap();
                String::new()
            } else {
                match comm.recv(0, 4) {
                    Err(MonaError::Na(NaError::ShortFrame { need: 16, have: 8 })) => "short".into(),
                    other => format!("unexpected: {other:?}"),
                }
            }
        });
        assert_eq!(out[1], "short");
    }

    #[test]
    fn unknown_frame_kind_is_a_typed_error() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                let ep = comm.instance().endpoint();
                ep.send(
                    comm.address_of(1),
                    comm.p2p_tag(4),
                    Bytes::from_static(&[9, 0, 0]),
                )
                .unwrap();
                String::new()
            } else {
                match comm.recv(0, 4) {
                    Err(MonaError::Na(NaError::BadFrameKind(9))) => "bad-kind".into(),
                    other => format!("unexpected: {other:?}"),
                }
            }
        });
        assert_eq!(out[1], "bad-kind");
    }

    #[test]
    fn empty_frame_is_a_typed_error() {
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                let ep = comm.instance().endpoint();
                ep.send(comm.address_of(1), comm.p2p_tag(4), Bytes::new())
                    .unwrap();
                String::new()
            } else {
                match comm.recv(0, 4) {
                    Err(MonaError::Na(NaError::ShortFrame { need: 1, have: 0 })) => "empty".into(),
                    other => format!("unexpected: {other:?}"),
                }
            }
        });
        assert_eq!(out[1], "empty");
    }

    #[test]
    fn comm_id_depends_on_members_context_and_epoch() {
        let a = vec![Address(1), Address(2)];
        let b = vec![Address(1), Address(3)];
        assert_ne!(comm_id(&a, 0, 0), comm_id(&b, 0, 0));
        assert_ne!(comm_id(&a, 0, 0), comm_id(&a, 1, 0));
        assert_ne!(comm_id(&a, 0, 0), comm_id(&a, 0, 1));
        assert_eq!(comm_id(&a, 0, 0), comm_id(&a, 0, 0));
    }

    #[test]
    #[should_panic(expected = "not in the member list")]
    fn creating_a_comm_without_self_panics() {
        with_comm(1, MonaConfig::default(), |comm| {
            let inst = Arc::clone(comm.instance());
            let _ = inst.comm_create(vec![Address(u64::MAX)]);
        });
    }

    fn fault_config(deadline_ms: u64) -> MonaConfig {
        let mut cfg = MonaConfig::default();
        cfg.fault.recv_deadline = Some(Duration::from_millis(deadline_ms));
        cfg
    }

    #[test]
    fn deadline_backstop_revokes_a_receive_from_a_silent_peer() {
        let out = with_comm(2, fault_config(60), |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits without ever sending: the backstop must
                // suspect it and revoke rather than hang forever.
                match comm.recv(1, 7) {
                    Err(MonaError::Revoked { epoch: 0, dead }) => {
                        dead == vec![comm.address_of(1)]
                    }
                    _ => false,
                }
            } else {
                true
            }
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn deadline_on_wildcard_receive_is_a_plain_timeout() {
        // recv_any has no peer to suspect, so the backstop cannot revoke.
        let out = with_comm(2, fault_config(60), |comm| {
            if comm.rank() == 0 {
                matches!(comm.recv_any(7), Err(MonaError::Na(NaError::Timeout)))
            } else {
                true
            }
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn marked_dead_member_revokes_and_survivors_shrink_and_continue() {
        // Rank 2 "crashes" (exits immediately). Rank 0 learns of the death
        // out-of-band (as the SSG observer would deliver it), which aborts
        // its collective and broadcasts revoke notices; rank 1, blocked in
        // the same barrier with no deadline configured, is unblocked purely
        // by the notice. Both survivors then shrink and complete a barrier
        // on the new communicator.
        let out = with_comm(3, MonaConfig::default(), |comm| {
            let me = comm.rank();
            if me == 2 {
                return "crashed".to_string();
            }
            comm.instance().arm_fault_detection();
            if me == 0 {
                // Give rank 1 time to block in the barrier first, then
                // deliver the death verdict.
                std::thread::sleep(Duration::from_millis(30));
                comm.instance().mark_dead(comm.address_of(2));
            }
            let revoked = match comm.barrier() {
                Err(MonaError::Revoked { dead, .. }) => dead.contains(&comm.address_of(2)),
                _ => false,
            };
            if !revoked {
                return "not revoked".to_string();
            }
            let survivors = [comm.address_of(0), comm.address_of(1)];
            let small = comm.shrink(&survivors).unwrap();
            if small.epoch() != 1 || small.size() != 2 {
                return "bad shrink".to_string();
            }
            match small.barrier() {
                Ok(()) => "recovered".to_string(),
                Err(e) => format!("shrunk barrier failed: {e}"),
            }
        });
        assert_eq!(out[0], "recovered");
        assert_eq!(out[1], "recovered");
    }

    #[test]
    fn shrink_rejects_bad_survivor_lists() {
        with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                // Caller must be in the survivor list.
                let r = comm.shrink(&[comm.address_of(1)]);
                assert!(matches!(r, Err(MonaError::Protocol(_))));
                // A survivor marked dead is rejected.
                comm.instance().mark_dead(comm.address_of(1));
                let r = comm.shrink(&[comm.address_of(0), comm.address_of(1)]);
                assert!(matches!(r, Err(MonaError::Protocol(_))));
                // Dropping the dead member works, epoch advances.
                let solo = comm.shrink(&[comm.address_of(0)]).unwrap();
                assert_eq!(solo.epoch(), 1);
                assert_eq!(solo.size(), 1);
            }
        });
    }

    #[test]
    fn send_to_a_closed_endpoint_revokes() {
        // When the peer's endpoint is gone (crash / kill), an eager send
        // must come back Revoked, not a raw NA error.
        let out = with_comm(2, MonaConfig::default(), |comm| {
            if comm.rank() == 0 {
                // Wait for rank 1 to exit so its mailbox is closed.
                std::thread::sleep(Duration::from_millis(40));
                match comm.send(b"hi", 1, 3) {
                    Err(MonaError::Revoked { dead, .. }) => dead == vec![comm.address_of(1)],
                    Ok(()) => {
                        // The mailbox outlived the thread: acceptable only
                        // if the fabric keeps exited processes reachable.
                        true
                    }
                    _ => false,
                }
            } else {
                true
            }
        });
        assert!(out.into_iter().all(|b| b));
    }
}
