//! Collective operations: the size-adaptive collective engine.
//!
//! Small payloads use MPICH's classic algorithms, as the paper says MoNA's
//! do: binomial trees for broadcast and reduce, a dissemination barrier, a
//! ring allgather, and linear gather/scatter. Above the thresholds in
//! [`crate::comm::CollTuning`] the engine switches to bandwidth-frugal
//! large-message algorithms:
//!
//! * **Chunked pipelining** — payloads at or above `pipeline_threshold`
//!   are segmented into `pipeline_chunk`-byte frames so an intermediate
//!   tree rank forwards chunk *k* while chunk *k+1* is still in flight
//!   (the chunks ride the non-blocking eager path), overlapping link time
//!   across tree levels in bcast and reduce.
//! * **Rabenseifner allreduce** — once the per-rank block `len / n`
//!   reaches `rabenseifner_block`, allreduce runs a ring reduce-scatter
//!   followed by a ring allgather, moving `2·len·(n−1)/n` bytes per rank
//!   instead of the tree's `len·log₂(n)`.
//!
//! Chunk schedules are deterministic functions of the payload size and the
//! tuning alone ([`crate::comm::CollTuning::frames`]) — never of wall-clock
//! state — so same-seed runs produce byte-identical traces.
//!
//! # Sequence-number discipline
//!
//! Every *public* collective draws exactly **one** sequence number from the
//! communicator and opens exactly one `mona.coll:*` span. Composite
//! operations (allreduce = reduce phase + bcast phase, or reduce-scatter +
//! allgather phases under Rabenseifner) share that single sequence number
//! across their phases, disambiguated by the opcode and round fields of the
//! wire tag — they never draw extra sequence numbers, so seq numbering is
//! stable regardless of which algorithm the selection table picks.
//! Concurrent collectives on the same communicator are impossible to
//! confuse as long as all ranks issue them in the same order (the MPI
//! rule). Sequence numbers wrap at 128 (the tag field width); this is safe
//! because collectives are issued in order and the NA mailbox is FIFO per
//! (source, tag).

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use na::NaError;

use crate::comm::{Communicator, Payload, COLL_ALIGN};
use crate::{MonaError, ReduceOp, Request, Result};

/// Opcode constants embedded in collective wire tags (5-bit field).
pub(crate) mod opcode {
    pub const BARRIER: u16 = 1;
    pub const BCAST: u16 = 2;
    pub const REDUCE: u16 = 3;
    pub const GATHER: u16 = 4;
    pub const ALLGATHER: u16 = 5;
    pub const SCATTER: u16 = 6;
    pub const REDUCE_SCATTER: u16 = 7;
    /// Revoke notices: the control channel the fault-tolerance layer uses
    /// to propagate an abort across a communicator (DESIGN.md §12).
    pub const REVOKE: u16 = 8;
}

/// The contiguous byte range rank `rank` owns after a reduce-scatter over a
/// `len`-byte payload on `n` ranks. Blocks start on [`COLL_ALIGN`]
/// boundaries (so elementwise operators whose record width divides 64 can
/// fold sub-ranges); trailing blocks may be short or empty when the payload
/// does not split evenly.
pub fn reduce_scatter_range(len: usize, n: usize, rank: usize) -> Range<usize> {
    let step = len.div_ceil(n).div_ceil(COLL_ALIGN) * COLL_ALIGN;
    let start = (rank * step).min(len);
    let end = rank
        .checked_add(1)
        .and_then(|r| r.checked_mul(step))
        .map_or(len, |e| e.min(len));
    start..end
}

/// Checks a received chunk against the length the frame plan promised —
/// an injected fault (truncation, cross-talk) must surface as a typed
/// protocol error before the chunk reaches `ReduceOp::apply` or a
/// `copy_from_slice`, both of which panic on length mismatch.
fn check_chunk_len(got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(MonaError::Protocol("collective chunk length mismatch"))
    }
}

/// Unwraps a gathered/ring part list, surfacing a typed protocol error
/// (instead of the old `expect` panic) if any slot is unfilled — which can
/// only happen when injected faults deliver a duplicate source.
fn collect_parts(parts: Vec<Option<Bytes>>, msg: &'static str) -> Result<Vec<Bytes>> {
    parts
        .into_iter()
        .map(|p| p.ok_or(MonaError::Protocol(msg)))
        .collect()
}

/// Reads the u64 little-endian total-length prefix off a framed payload.
fn frame_len_prefix(frame: &Bytes) -> Result<usize> {
    match frame.get(..8) {
        Some(s) => Ok(u64::from_le_bytes(s.try_into().expect("slice is 8 bytes")) as usize),
        None => Err(NaError::ShortFrame {
            need: 8,
            have: frame.len(),
        }
        .into()),
    }
}

impl Communicator {
    /// Opens a collective-level trace span tagged with the operation name,
    /// sequence number, communicator size and calling rank.
    fn coll_span(&self, op: &'static str, seq: u64) -> hpcsim::trace::SpanGuard {
        let mut sp = hpcsim::trace::span("mona", format!("mona.coll:{op}"));
        if sp.active() {
            sp.arg("seq", seq);
            sp.arg("size", self.size());
            sp.arg("rank", self.rank());
        }
        sp
    }

    /// A per-chunk round span for pipelined tree collectives (only emitted
    /// when a payload is actually segmented, so single-frame schedules keep
    /// their historical span counts).
    fn chunk_span(&self, round: usize) -> hpcsim::trace::SpanGuard {
        let mut rsp = hpcsim::trace::span("mona", "mona.coll.round");
        if rsp.active() {
            rsp.arg("round", round);
        }
        rsp
    }

    /// Dissemination barrier: log₂(n) rounds of paired messages.
    pub fn barrier(&self) -> Result<()> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let seq = self.next_seq();
        let _sp = self.coll_span("barrier", seq);
        let me = self.rank();
        let mut step = 1usize;
        let mut round: u32 = 0;
        while step < n {
            let to = (me + step) % n;
            let from = (me + n - step) % n;
            let tag = self.coll_tag(seq, opcode::BARRIER, round);
            let mut rsp = hpcsim::trace::span("mona", "mona.coll.round");
            if rsp.active() {
                rsp.arg("round", round);
                rsp.arg("to", to);
                rsp.arg("from", from);
            }
            self.raw_send(to, tag, &[])?;
            self.raw_recv(Some(from), tag)?;
            drop(rsp);
            step <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast (pipelined above the chunking threshold).
    /// The root passes the payload; every rank returns the broadcast bytes.
    pub fn bcast(&self, data: Option<&[u8]>, root: usize) -> Result<Bytes> {
        self.bcast_owned(data.map(Bytes::copy_from_slice), root)
    }

    /// [`bcast`](Self::bcast) without the root-side copy: the root hands
    /// over an owned buffer which is sliced (not copied) into wire frames
    /// and returned as the result.
    pub fn bcast_owned(&self, data: Option<Bytes>, root: usize) -> Result<Bytes> {
        if self.rank() == root {
            assert!(data.is_some(), "root must supply the broadcast payload");
        }
        let seq = self.next_seq();
        let _sp = self.coll_span("bcast", seq);
        if self.size() <= 1 {
            return Ok(data.expect("single-rank bcast payload"));
        }
        // Standalone bcast receivers cannot know the payload length, so
        // frame 0 carries a length prefix.
        self.bcast_phase(seq, data, root, None)
    }

    /// The broadcast dataflow under an externally supplied sequence number.
    /// `known_len` elides the frame-0 length prefix when every rank already
    /// knows the payload size (the allreduce bcast phase).
    fn bcast_phase(
        &self,
        seq: u64,
        data: Option<Bytes>,
        root: usize,
        known_len: Option<usize>,
    ) -> Result<Bytes> {
        let n = self.size();
        let me = self.rank();
        if n <= 1 {
            return Ok(data.expect("bcast payload present"));
        }
        let relative = (me + n - root) % n;
        let tuning = self.instance().config().coll;

        // Tree structure: parent via the ascending-mask scan, children the
        // descending masks below it — identical to the classic shape, so a
        // single-frame schedule reproduces the old message sequence.
        let mut mask = 1usize;
        let mut parent: Option<usize> = None;
        while mask < n {
            if relative & mask != 0 {
                parent = Some((relative - mask + root) % n);
                break;
            }
            mask <<= 1;
        }
        let mut children = Vec::new();
        let mut m = mask >> 1;
        while m > 0 {
            if relative + m < n {
                children.push((relative + m + root) % n);
            }
            m >>= 1;
        }

        let prefixed = known_len.is_none();
        match parent {
            None => {
                let payload = data.expect("root bcast payload");
                let len = payload.len();
                let plan = tuning.frames(len);
                for k in 0..plan.count {
                    let rsp = (plan.count > 1).then(|| self.chunk_span(k));
                    let tag = self.coll_tag(seq, opcode::BCAST, k as u32);
                    let r = plan.range(k, len);
                    for &dst in &children {
                        self.send_bcast_frame(dst, tag, k, prefixed, len, payload.slice(r.clone()))?;
                    }
                    drop(rsp);
                }
                Ok(payload)
            }
            Some(parent) => {
                let tag0 = self.coll_tag(seq, opcode::BCAST, 0);
                let (frame0, _) = self.raw_recv(Some(parent), tag0)?;
                let (len, chunk0) = match known_len {
                    Some(l) => (l, frame0),
                    None => (frame_len_prefix(&frame0)?, frame0.slice(8..)),
                };
                let plan = tuning.frames(len);
                if plan.count == 1 {
                    // Fast path: forward the single frame and hand the
                    // received buffer straight back (zero-copy).
                    for &dst in &children {
                        self.send_bcast_frame(dst, tag0, 0, prefixed, len, chunk0.clone())?;
                    }
                    return Ok(chunk0);
                }
                let mut out = self.inst.buffers.take(len);
                {
                    let _rsp = self.chunk_span(0);
                    for &dst in &children {
                        self.send_bcast_frame(dst, tag0, 0, prefixed, len, chunk0.clone())?;
                    }
                    out.extend_from_slice(&chunk0);
                }
                for k in 1..plan.count {
                    let _rsp = self.chunk_span(k);
                    let tag = self.coll_tag(seq, opcode::BCAST, k as u32);
                    let (chunk, _) = self.raw_recv(Some(parent), tag)?;
                    for &dst in &children {
                        self.raw_send_owned(dst, tag, chunk.clone())?;
                    }
                    out.extend_from_slice(&chunk);
                }
                check_chunk_len(out.len(), len)?;
                Ok(Bytes::from(out))
            }
        }
    }

    fn send_bcast_frame(
        &self,
        dst: usize,
        tag: u64,
        k: usize,
        prefixed: bool,
        len: usize,
        chunk: Bytes,
    ) -> Result<()> {
        if k == 0 && prefixed {
            let prefix = (len as u64).to_le_bytes();
            self.raw_send_prefixed(dst, tag, &prefix, Payload::Owned(chunk))
        } else {
            self.raw_send_owned(dst, tag, chunk)
        }
    }

    /// Binomial-tree reduce with a commutative operator (pipelined above
    /// the chunking threshold; the per-chunk fold order matches the
    /// whole-message fold order, so results are bit-identical either way).
    /// Returns the reduction at the root, `None` elsewhere.
    pub fn reduce(&self, data: &[u8], op: &dyn ReduceOp, root: usize) -> Result<Option<Vec<u8>>> {
        let seq = self.next_seq();
        let _sp = self.coll_span("reduce", seq);
        self.reduce_phase(seq, data, op, root)
    }

    /// The reduce dataflow under an externally supplied sequence number.
    fn reduce_phase(
        &self,
        seq: u64,
        data: &[u8],
        op: &dyn ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<u8>>> {
        let n = self.size();
        let me = self.rank();
        let relative = (me + n - root) % n;

        // Tree structure: children in ascending-mask order (the fold
        // order), then the parent — the classic interleave.
        let mut children = Vec::new();
        let mut parent: Option<usize> = None;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let child_rel = relative | mask;
                if child_rel < n {
                    children.push((child_rel + root) % n);
                }
            } else {
                parent = Some(((relative & !mask) + root) % n);
                break;
            }
            mask <<= 1;
        }

        let len = data.len();
        let plan = self.instance().config().coll.frames(len);
        let mut acc = self.inst.buffers.take_copy(data);
        for k in 0..plan.count {
            let rsp = (plan.count > 1).then(|| self.chunk_span(k));
            let tag = self.coll_tag(seq, opcode::REDUCE, k as u32);
            let r = plan.range(k, len);
            for &child in &children {
                let (got, _) = self.raw_recv(Some(child), tag)?;
                check_chunk_len(got.len(), r.len())?;
                op.apply(&mut acc[r.clone()], &got);
            }
            if let Some(p) = parent {
                self.raw_send(p, tag, &acc[r.clone()])?;
            }
            drop(rsp);
        }
        if parent.is_some() {
            self.inst.buffers.put(acc);
            Ok(None)
        } else {
            Ok(Some(acc))
        }
    }

    /// Allreduce; every rank returns the reduction. Draws a single
    /// sequence number and selects reduce+bcast (small), pipelined
    /// reduce+bcast (large), or Rabenseifner reduce-scatter + ring
    /// allgather (large with big-enough per-rank blocks). Note the
    /// Rabenseifner path folds in ring order, which reassociates
    /// floating-point sums relative to the tree (ulp-level differences).
    pub fn allreduce(&self, data: &[u8], op: &dyn ReduceOp) -> Result<Bytes> {
        let n = self.size();
        let seq = self.next_seq();
        let _sp = self.coll_span("allreduce", seq);
        if n <= 1 {
            return Ok(Bytes::copy_from_slice(data));
        }
        if self.instance().config().coll.use_rabenseifner(data.len(), n) {
            self.allreduce_rabenseifner(seq, data, op)
        } else {
            let reduced = self.reduce_phase(seq, data, op, 0)?;
            self.bcast_phase(seq, reduced.map(Bytes::from), 0, Some(data.len()))
        }
    }

    /// Ring reduce-scatter: every rank returns the fully reduced block
    /// [`reduce_scatter_range`]`(len, n, rank)` of the elementwise
    /// reduction (empty for ranks past the end of a short payload).
    pub fn reduce_scatter(&self, data: &[u8], op: &dyn ReduceOp) -> Result<Bytes> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("reduce_scatter", seq);
        if n <= 1 {
            return Ok(Bytes::copy_from_slice(data));
        }
        let len = data.len();
        let acc = self.rs_phase(seq, data, op)?;
        Ok(Bytes::from(acc).slice(reduce_scatter_range(len, n, me)))
    }

    /// The ring reduce-scatter rounds: after n−1 steps rank `me` holds the
    /// fully reduced block `me` inside the returned accumulator. Step `s`
    /// sends block `(me+n−s) mod n` right and folds block `(me+n−s−1) mod n`
    /// arriving from the left.
    fn rs_phase(&self, seq: u64, data: &[u8], op: &dyn ReduceOp) -> Result<Vec<u8>> {
        let n = self.size();
        let me = self.rank();
        let len = data.len();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let tuning = self.instance().config().coll;
        let mut acc = self.inst.buffers.take_copy(data);
        for s in 1..n {
            let send_b = (me + n - s) % n;
            let recv_b = (me + n - s - 1) % n;
            let tag = self.coll_tag(seq, opcode::REDUCE_SCATTER, (s - 1) as u32);
            let mut rsp = hpcsim::trace::span("mona", "mona.coll.round");
            if rsp.active() {
                rsp.arg("round", s - 1);
                rsp.arg("to", right);
                rsp.arg("from", left);
            }
            let sr = reduce_scatter_range(len, n, send_b);
            let rr = reduce_scatter_range(len, n, recv_b);
            let req = self.ring_send_slice(right, tag, &acc[sr])?;
            let rplan = tuning.frames(rr.len());
            for j in 0..rplan.count {
                let (chunk, _) = self.raw_recv(Some(left), tag)?;
                let sub = rplan.range(j, rr.len());
                check_chunk_len(chunk.len(), sub.len())?;
                op.apply(&mut acc[rr.start + sub.start..rr.start + sub.end], &chunk);
            }
            if let Some(req) = req {
                req.wait()?;
            }
            drop(rsp);
        }
        Ok(acc)
    }

    /// Rabenseifner allreduce: ring reduce-scatter, then a ring allgather
    /// of the reduced blocks.
    fn allreduce_rabenseifner(&self, seq: u64, data: &[u8], op: &dyn ReduceOp) -> Result<Bytes> {
        let n = self.size();
        let me = self.rank();
        let len = data.len();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let tuning = self.instance().config().coll;
        let acc = self.rs_phase(seq, data, op)?;
        let mut out = self.inst.buffers.take(len);
        out.resize(len, 0);
        let own = reduce_scatter_range(len, n, me);
        out[own.clone()].copy_from_slice(&acc[own]);
        self.inst.buffers.put(acc);
        for s in 0..n - 1 {
            let send_b = (me + n - s) % n;
            let recv_b = (me + n - s - 1) % n;
            let tag = self.coll_tag(seq, opcode::ALLGATHER, s as u32);
            let mut rsp = hpcsim::trace::span("mona", "mona.coll.round");
            if rsp.active() {
                rsp.arg("round", s);
                rsp.arg("to", right);
                rsp.arg("from", left);
            }
            let sr = reduce_scatter_range(len, n, send_b);
            let rr = reduce_scatter_range(len, n, recv_b);
            let req = self.ring_send_slice(right, tag, &out[sr])?;
            let rplan = tuning.frames(rr.len());
            for j in 0..rplan.count {
                let (chunk, _) = self.raw_recv(Some(left), tag)?;
                let sub = rplan.range(j, rr.len());
                check_chunk_len(chunk.len(), sub.len())?;
                out[rr.start + sub.start..rr.start + sub.end].copy_from_slice(&chunk);
            }
            if let Some(req) = req {
                req.wait()?;
            }
            drop(rsp);
        }
        Ok(Bytes::from(out))
    }

    /// Linear gather to the root. Payload sizes may differ per rank
    /// (gatherv semantics). The root receives `Some(parts)` in rank order.
    pub fn gather(&self, data: &[u8], root: usize) -> Result<Option<Vec<Bytes>>> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("gather", seq);
        let tag = self.coll_tag(seq, opcode::GATHER, 0);
        if me == root {
            let mut parts: Vec<Option<Bytes>> = vec![None; n];
            parts[me] = Some(Bytes::copy_from_slice(data));
            for _ in 0..n - 1 {
                let (got, src) = self.raw_recv(None, tag)?;
                parts[src] = Some(got);
            }
            collect_parts(parts, "gather: duplicate sender left a rank unfilled").map(Some)
        } else {
            self.raw_send(root, tag, data)?;
            Ok(None)
        }
    }

    /// [`gather`](Self::gather) without copies: the root keeps its own
    /// part by move, non-roots hand the buffer to the RDMA path un-copied.
    pub fn gather_owned(&self, data: Bytes, root: usize) -> Result<Option<Vec<Bytes>>> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("gather", seq);
        let tag = self.coll_tag(seq, opcode::GATHER, 0);
        if me == root {
            let mut parts: Vec<Option<Bytes>> = vec![None; n];
            parts[me] = Some(data);
            for _ in 0..n - 1 {
                let (got, src) = self.raw_recv(None, tag)?;
                parts[src] = Some(got);
            }
            collect_parts(parts, "gather: duplicate sender left a rank unfilled").map(Some)
        } else {
            self.raw_send_owned(root, tag, data)?;
            Ok(None)
        }
    }

    /// Ring allgather: n−1 steps, each forwarding the block received in
    /// the previous step without copying it (the carry is a refcounted
    /// `Bytes`). Handles per-rank size differences via a frame-0 length
    /// prefix; large carries are segmented by the frame plan.
    pub fn allgather(&self, data: &[u8]) -> Result<Vec<Bytes>> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("allgather", seq);
        let mut parts: Vec<Option<Bytes>> = vec![None; n];
        let own = Bytes::copy_from_slice(data);
        parts[me] = Some(own.clone());
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut carry: Bytes = own;
        for step in 0..n.saturating_sub(1) {
            let tag = self.coll_tag(seq, opcode::ALLGATHER, step as u32);
            let mut rsp = hpcsim::trace::span("mona", "mona.coll.round");
            if rsp.active() {
                rsp.arg("round", step);
                rsp.arg("to", right);
                rsp.arg("from", left);
            }
            // Deadlock-safe pairwise exchange around the ring.
            let req = self.ring_send_bytes(right, tag, carry.clone(), true)?;
            let got = self.recv_framed(left, tag)?;
            req.wait()?;
            drop(rsp);
            let origin = (me + n - 1 - step) % n;
            carry = got;
            parts[origin] = Some(carry.clone());
        }
        collect_parts(parts, "allgather: ring left a rank unfilled")
    }

    /// Linear scatter from the root: rank `i` receives `parts[i]`.
    pub fn scatter(&self, parts: Option<&[Vec<u8>]>, root: usize) -> Result<Bytes> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("scatter", seq);
        let tag = self.coll_tag(seq, opcode::SCATTER, 0);
        if me == root {
            let parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), n, "scatter needs one part per rank");
            for (dst, part) in parts.iter().enumerate() {
                if dst != me {
                    self.raw_send(dst, tag, part)?;
                }
            }
            Ok(Bytes::copy_from_slice(&parts[me]))
        } else {
            let (got, _) = self.raw_recv(Some(root), tag)?;
            Ok(got)
        }
    }

    /// [`scatter`](Self::scatter) without copies: the root moves each part
    /// onto the wire (RDMA exposes the buffer directly) and keeps its own
    /// part by move.
    pub fn scatter_owned(&self, parts: Option<Vec<Bytes>>, root: usize) -> Result<Bytes> {
        let n = self.size();
        let me = self.rank();
        let seq = self.next_seq();
        let _sp = self.coll_span("scatter", seq);
        let tag = self.coll_tag(seq, opcode::SCATTER, 0);
        if me == root {
            let parts = parts.expect("root must supply scatter parts");
            assert_eq!(parts.len(), n, "scatter needs one part per rank");
            let mut own = None;
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == me {
                    own = Some(part);
                } else {
                    self.raw_send_owned(dst, tag, part)?;
                }
            }
            Ok(own.expect("own part present"))
        } else {
            let (got, _) = self.raw_recv(Some(root), tag)?;
            Ok(got)
        }
    }

    /// Non-blocking broadcast.
    pub fn ibcast(&self, data: Option<Vec<u8>>, root: usize) -> Request {
        let this = self.clone();
        Request::pending(self.instance().task_pool().spawn(move || {
            this.bcast_owned(data.map(Bytes::from), root).map(Some)
        }))
    }

    /// Non-blocking allreduce (operator must be shareable).
    pub fn iallreduce(&self, data: Vec<u8>, op: Arc<dyn ReduceOp + Send + Sync>) -> Request {
        let this = self.clone();
        Request::pending(
            self.instance()
                .task_pool()
                .spawn(move || this.allreduce(&data, op.as_ref()).map(Some)),
        )
    }

    /// Non-blocking barrier.
    pub fn ibarrier(&self) -> Request {
        let this = self.clone();
        Request::pending(
            self.instance()
                .task_pool()
                .spawn(move || this.barrier().map(|()| None)),
        )
    }

    /// Sends a borrowed ring block, segmented by the frame plan. Eager
    /// frames are sent inline (they never block); if a frame would take the
    /// blocking RDMA path the whole block is shipped from a background task
    /// instead — a ring where every rank blocks on its right neighbour's
    /// ack would deadlock. Returns the request to wait on in that case.
    fn ring_send_slice(&self, dst: usize, tag: u64, block: &[u8]) -> Result<Option<Request>> {
        let threshold = self.instance().config().rdma_threshold;
        let plan = self.instance().config().coll.frames(block.len());
        if block.len().min(plan.chunk) >= threshold {
            let owned = Bytes::copy_from_slice(block);
            let this = self.clone();
            Ok(Some(Request::pending(
                self.instance()
                    .task_pool()
                    .spawn(move || this.send_frames(dst, tag, owned, false).map(|()| None)),
            )))
        } else {
            for k in 0..plan.count {
                let r = plan.range(k, block.len());
                self.raw_send(dst, tag, &block[r])?;
            }
            Ok(None)
        }
    }

    /// Sends an owned ring block (the allgather carry), segmented by the
    /// frame plan with a frame-0 length prefix. Spawns a task only when a
    /// frame would take the blocking RDMA path.
    fn ring_send_bytes(&self, dst: usize, tag: u64, data: Bytes, prefixed: bool) -> Result<Request> {
        let threshold = self.instance().config().rdma_threshold;
        let plan = self.instance().config().coll.frames(data.len());
        let frame0 = data.len().min(plan.chunk) + if prefixed { 8 } else { 0 };
        if frame0 >= threshold {
            let this = self.clone();
            Ok(Request::pending(
                self.instance()
                    .task_pool()
                    .spawn(move || this.send_frames(dst, tag, data, prefixed).map(|()| None)),
            ))
        } else {
            self.send_frames(dst, tag, data, prefixed)?;
            Ok(Request::ready(Ok(None)))
        }
    }

    /// Sends `data` as frame-plan segments on one tag (chunk order is
    /// preserved by the FIFO mailbox); frame 0 optionally carries the
    /// total-length prefix.
    fn send_frames(&self, dst: usize, tag: u64, data: Bytes, prefixed: bool) -> Result<()> {
        let len = data.len();
        let plan = self.instance().config().coll.frames(len);
        for k in 0..plan.count {
            let r = plan.range(k, len);
            if k == 0 && prefixed {
                let prefix = (len as u64).to_le_bytes();
                self.raw_send_prefixed(dst, tag, &prefix, Payload::Owned(data.slice(r)))?;
            } else {
                self.raw_send_owned(dst, tag, data.slice(r))?;
            }
        }
        Ok(())
    }

    /// Receives a length-prefixed, frame-plan-segmented payload from `src`
    /// on one tag. Single-frame payloads are returned as a zero-copy slice
    /// of the received buffer.
    fn recv_framed(&self, src: usize, tag: u64) -> Result<Bytes> {
        let (frame0, _) = self.raw_recv(Some(src), tag)?;
        let len = frame_len_prefix(&frame0)?;
        let chunk0 = frame0.slice(8..);
        let plan = self.instance().config().coll.frames(len);
        if plan.count == 1 {
            check_chunk_len(chunk0.len(), len)?;
            return Ok(chunk0);
        }
        let mut out = self.inst.buffers.take(len);
        out.extend_from_slice(&chunk0);
        for _ in 1..plan.count {
            let (chunk, _) = self.raw_recv(Some(src), tag)?;
            out.extend_from_slice(&chunk);
        }
        check_chunk_len(out.len(), len)?;
        Ok(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::tests::with_comm;
    use crate::comm::{CollTuning, MonaConfig};
    use crate::ops;
    use std::sync::Arc;

    #[test]
    fn bcast_from_every_root() {
        for root in 0..4 {
            let out = with_comm(4, MonaConfig::default(), move |comm| {
                let data = if comm.rank() == root {
                    Some(vec![root as u8, 42])
                } else {
                    None
                };
                comm.bcast(data.as_deref(), root).unwrap().to_vec()
            });
            assert!(out.iter().all(|v| v == &vec![root as u8, 42]), "root {root}");
        }
    }

    #[test]
    fn bcast_large_payload_is_pipelined_and_intact() {
        let payload: Vec<u8> = (0..100 * 1024usize).map(|i| (i * 31 % 251) as u8).collect();
        let expect = payload.clone();
        let out = with_comm(5, MonaConfig::default(), move |comm| {
            let data = (comm.rank() == 0).then(|| payload.clone());
            comm.bcast(data.as_deref(), 0).unwrap().to_vec()
        });
        assert!(out.iter().all(|got| got == &expect));
    }

    #[test]
    fn reduce_xor_matches_oracle() {
        let out = with_comm(7, MonaConfig::default(), |comm| {
            let data = vec![comm.rank() as u8 + 1; 16];
            comm.reduce(&data, &ops::bxor_u8, 0).unwrap()
        });
        let expect = (1..=7u8).fold(0, |a, b| a ^ b);
        assert_eq!(out[0].as_ref().unwrap(), &vec![expect; 16]);
        assert!(out[1..].iter().all(|o| o.is_none()));
    }

    #[test]
    fn reduce_large_payload_is_pipelined_and_exact() {
        // 96 KiB => 8 chunks of 12 KiB; pipelined fold order matches the
        // whole-message fold order bit for bit.
        let out = with_comm(6, MonaConfig::default(), |comm| {
            let vals: Vec<u64> = (0..96 * 1024 / 8).map(|i| i as u64 + comm.rank() as u64).collect();
            comm.reduce(&ops::u64s_to_bytes(&vals), &ops::sum_u64, 2).unwrap()
        });
        let got = ops::bytes_to_u64s(out[2].as_ref().unwrap());
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, 6 * i as u64 + 15, "element {i}");
        }
        assert!(out.iter().enumerate().all(|(r, o)| (r == 2) == o.is_some()));
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let out = with_comm(5, MonaConfig::default(), |comm| {
            let data = ops::u64s_to_bytes(&[comm.rank() as u64]);
            comm.reduce(&data, &ops::sum_u64, 3).unwrap()
        });
        assert_eq!(ops::bytes_to_u64s(out[3].as_ref().unwrap()), vec![10]);
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let out = with_comm(6, MonaConfig::default(), |comm| {
            let data = ops::f64s_to_bytes(&[comm.rank() as f64, 1.0]);
            ops::bytes_to_f64s(&comm.allreduce(&data, &ops::sum_f64).unwrap())
        });
        for v in out {
            assert_eq!(v, vec![15.0, 6.0]);
        }
    }

    #[test]
    fn allreduce_large_takes_rabenseifner_and_matches_naive() {
        // 64 KiB on 4 ranks => 16 KiB blocks >= rabenseifner_block.
        let cfg = MonaConfig::default();
        assert!(cfg.coll.use_rabenseifner(64 * 1024, 4));
        let run = |config: MonaConfig| {
            with_comm(4, config, |comm| {
                let vals: Vec<u64> =
                    (0..64 * 1024 / 8).map(|i| (i as u64) << (comm.rank() as u64)).collect();
                comm.allreduce(&ops::u64s_to_bytes(&vals), &ops::sum_u64)
                    .unwrap()
                    .to_vec()
            })
        };
        let adaptive = run(cfg);
        let naive = run(MonaConfig::naive_collectives());
        assert_eq!(adaptive, naive);
        for v in adaptive {
            let got = ops::bytes_to_u64s(&v);
            assert_eq!(got[3], 3 * 15); // 3 * (1+2+4+8)
        }
    }

    #[test]
    fn reduce_scatter_returns_reduced_own_block() {
        let len = 3 * 64 * 10;
        let out = with_comm(3, MonaConfig::default(), move |comm| {
            let data = vec![1u8 << comm.rank(); len];
            comm.reduce_scatter(&data, &ops::bxor_u8).unwrap().to_vec()
        });
        for (rank, block) in out.iter().enumerate() {
            let r = super::reduce_scatter_range(len, 3, rank);
            assert_eq!(block.len(), r.len(), "rank {rank}");
            assert!(block.iter().all(|&b| b == 0b111), "rank {rank}");
        }
    }

    #[test]
    fn gather_collects_in_rank_order_with_varied_sizes() {
        let out = with_comm(4, MonaConfig::default(), |comm| {
            let data = vec![comm.rank() as u8; comm.rank() + 1];
            comm.gather(&data, 2)
                .unwrap()
                .map(|parts| parts.iter().map(|p| p.to_vec()).collect::<Vec<_>>())
        });
        let gathered = out[2].as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (rank, part) in gathered.iter().enumerate() {
            assert_eq!(part, &vec![rank as u8; rank + 1]);
        }
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
    }

    #[test]
    fn allgather_ring_delivers_all_parts() {
        let out = with_comm(5, MonaConfig::default(), |comm| {
            let data = vec![comm.rank() as u8 * 10; 3];
            comm.allgather(&data)
                .unwrap()
                .iter()
                .map(|p| p.to_vec())
                .collect::<Vec<_>>()
        });
        for parts in out {
            for (rank, part) in parts.iter().enumerate() {
                assert_eq!(part, &vec![rank as u8 * 10; 3]);
            }
        }
    }

    #[test]
    fn allgather_at_seventy_ranks_has_no_round_tag_crosstalk() {
        // Regression: the old tag layout masked the ring step to 6 bits,
        // so steps k and k+64 shared a wire tag past 64 ranks.
        let out = with_comm(70, MonaConfig::default(), |comm| {
            let data = vec![comm.rank() as u8; 4];
            comm.allgather(&data)
                .unwrap()
                .iter()
                .map(|p| p.to_vec())
                .collect::<Vec<_>>()
        });
        for parts in out {
            assert_eq!(parts.len(), 70);
            for (rank, part) in parts.iter().enumerate() {
                assert_eq!(part, &vec![rank as u8; 4]);
            }
        }
    }

    #[test]
    fn allgather_large_ragged_payloads() {
        let out = with_comm(3, MonaConfig::default(), |comm| {
            let data = vec![comm.rank() as u8 + 1; 20 * 1024 * (comm.rank() + 1)];
            comm.allgather(&data)
                .unwrap()
                .iter()
                .map(|p| (p.len(), p[0]))
                .collect::<Vec<_>>()
        });
        for parts in out {
            for (rank, &(len, first)) in parts.iter().enumerate() {
                assert_eq!(len, 20 * 1024 * (rank + 1));
                assert_eq!(first, rank as u8 + 1);
            }
        }
    }

    #[test]
    fn scatter_delivers_rank_parts() {
        let out = with_comm(4, MonaConfig::default(), |comm| {
            let parts = (comm.rank() == 1)
                .then(|| (0..4).map(|i| vec![i as u8; 2]).collect::<Vec<_>>());
            comm.scatter(parts.as_deref(), 1).unwrap().to_vec()
        });
        for (rank, part) in out.iter().enumerate() {
            assert_eq!(part, &vec![rank as u8; 2]);
        }
    }

    #[test]
    fn owned_collective_variants_roundtrip() {
        use bytes::Bytes;
        let out = with_comm(3, MonaConfig::default(), |comm| {
            let payload = (comm.rank() == 0).then(|| Bytes::from(vec![9u8; 40 * 1024]));
            let b = comm.bcast_owned(payload, 0).unwrap();
            let g = comm.gather_owned(Bytes::from(vec![comm.rank() as u8; 2]), 1).unwrap();
            let parts = (comm.rank() == 2)
                .then(|| (0..3).map(|i| Bytes::from(vec![i as u8; 3])).collect::<Vec<_>>());
            let s = comm.scatter_owned(parts, 2).unwrap();
            (b.len(), g.map(|ps| ps.len()), s.to_vec())
        });
        for (rank, (blen, g, s)) in out.iter().enumerate() {
            assert_eq!(*blen, 40 * 1024);
            assert_eq!(g.is_some(), rank == 1);
            assert_eq!(s, &vec![rank as u8; 3]);
        }
    }

    #[test]
    fn barrier_completes_at_many_sizes() {
        for n in [1, 2, 3, 5, 8] {
            let out = with_comm(n, MonaConfig::default(), |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                true
            });
            assert!(out.into_iter().all(|b| b), "n={n}");
        }
    }

    #[test]
    fn barrier_actually_synchronizes_virtual_time() {
        // After a barrier, every rank's virtual clock must be >= the
        // pre-barrier maximum across ranks (information flowed from all).
        let out = with_comm(4, MonaConfig::default(), |comm| {
            hpcsim::current().advance(1_000 * (comm.rank() as u64 + 1));
            let before_max = 4_000;
            comm.barrier().unwrap();
            hpcsim::current().now() >= before_max
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn nonblocking_collectives_complete() {
        let out = with_comm(4, MonaConfig::default(), |comm| {
            let b = comm.ibarrier();
            b.wait().unwrap();
            let data = (comm.rank() == 0).then(|| vec![5u8; 8]);
            let r = comm.ibcast(data, 0);
            let got = r.wait().unwrap().unwrap();
            let ar = comm.iallreduce(vec![comm.rank() as u8; 4], Arc::new(ops::bxor_u8));
            let reduced = ar.wait().unwrap().unwrap();
            (got.len(), reduced[0])
        });
        let expect = (0..4u8).fold(0, |a, b| a ^ b);
        assert!(out.into_iter().all(|(l, x)| l == 8 && x == expect));
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        let out = with_comm(3, MonaConfig::default(), |comm| {
            let mut results = Vec::new();
            for i in 0..10u8 {
                let data = (comm.rank() == (i as usize) % 3).then(|| vec![i; 4]);
                let got = comm.bcast(data.as_deref(), (i as usize) % 3).unwrap();
                results.push(got[0]);
            }
            results
        });
        for r in out {
            assert_eq!(r, (0..10).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn mixed_size_collectives_interleave_cleanly() {
        // Alternating small (binomial) and large (pipelined / Rabenseifner)
        // collectives on one communicator must not confuse tags.
        let out = with_comm(4, MonaConfig::default(), |comm| {
            let mut ok = true;
            for i in 0..4u8 {
                let small = comm.allreduce(&[i; 8], &ops::bxor_u8).unwrap();
                ok &= small[0] == 0; // i ^ i ^ i ^ i
                let big = comm
                    .allreduce(&vec![1u8; 32 * 1024], &ops::bxor_u8)
                    .unwrap();
                ok &= big.iter().all(|&b| b == 0);
                let bc = comm
                    .bcast((comm.rank() == 0).then(|| vec![i; 24 * 1024]).as_deref(), 0)
                    .unwrap();
                ok &= bc.len() == 24 * 1024 && bc[0] == i;
            }
            ok
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn naive_tuning_disables_pipelining_and_rabenseifner() {
        let t = CollTuning::naive();
        assert_eq!(t.frames(8 * 1024 * 1024).count, 1);
        assert!(!t.use_rabenseifner(8 * 1024 * 1024, 64));
        let d = CollTuning::default();
        assert_eq!(d.frames(4 * 1024).count, 1);
        assert!(d.frames(48 * 1024).count > 1);
        assert!(d.use_rabenseifner(256 * 1024, 64));
        assert!(!d.use_rabenseifner(16 * 1024, 64));
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = with_comm(1, MonaConfig::default(), |comm| {
            comm.barrier().unwrap();
            let b = comm.bcast(Some(&[1, 2]), 0).unwrap().to_vec();
            let r = comm.reduce(&[3, 4], &ops::bxor_u8, 0).unwrap().unwrap();
            let g = comm.gather(&[5], 0).unwrap().unwrap();
            let a = comm.allreduce(&[7], &ops::bxor_u8).unwrap().to_vec();
            let rs = comm.reduce_scatter(&[8, 9], &ops::bxor_u8).unwrap().to_vec();
            (b, r, g[0].to_vec(), a, rs)
        });
        assert_eq!(
            out[0],
            (vec![1, 2], vec![3, 4], vec![5], vec![7], vec![8, 9])
        );
    }

    #[test]
    fn reduce_scatter_range_is_aligned_and_covering() {
        for (len, n) in [(0usize, 4usize), (100, 3), (4096, 3), (192, 70), (1 << 20, 7)] {
            let mut covered = 0;
            for r in 0..n {
                let range = super::reduce_scatter_range(len, n, r);
                assert!(
                    range.start.is_multiple_of(super::COLL_ALIGN) || range.start == len,
                    "unaligned interior start {range:?} len={len} n={n}"
                );
                assert_eq!(range.start, covered.min(len));
                covered = covered.max(range.end);
            }
            assert_eq!(covered, len, "len={len} n={n}");
        }
    }
}
