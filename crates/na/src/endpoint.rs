//! Endpoints: tagged messaging and one-sided RDMA.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use hpcsim::fabric::Xfer;
use hpcsim::process::ProcessCtx;

use crate::bulk::BulkHandle;
use crate::error::{NaError, Result};
use crate::fabric::{Fabric, Mailbox};
use crate::{Address, Tag};

/// A delivered message.
#[derive(Debug, Clone)]
pub struct InMsg {
    /// Sender address.
    pub src: Address,
    /// Message tag.
    pub tag: Tag,
    /// Payload (zero-copy shared buffer).
    pub data: Bytes,
    /// Virtual arrival time at the receiver's NIC.
    pub arrive: u64,
    /// Transfer class the sender used (decides receive-side CPU charge).
    pub class: Xfer,
}

/// Matching criteria for a receive.
#[derive(Debug, Clone, Copy)]
pub struct RecvSelector {
    /// Only match messages from this sender (any sender when `None`).
    pub src: Option<Address>,
    /// Lowest tag to match (inclusive).
    pub tag_min: Tag,
    /// Highest tag to match (inclusive).
    pub tag_max: Tag,
}

impl RecvSelector {
    /// Matches a single `(src, tag)` pair.
    pub fn exact(src: Address, tag: Tag) -> Self {
        Self {
            src: Some(src),
            tag_min: tag,
            tag_max: tag,
        }
    }

    /// Matches a tag from any sender.
    pub fn tag(tag: Tag) -> Self {
        Self {
            src: None,
            tag_min: tag,
            tag_max: tag,
        }
    }

    /// Matches an inclusive tag range from any sender.
    pub fn tag_range(tag_min: Tag, tag_max: Tag) -> Self {
        Self {
            src: None,
            tag_min,
            tag_max,
        }
    }

    fn matches(&self, msg: &InMsg) -> bool {
        self.src.is_none_or(|s| s == msg.src)
            && (self.tag_min..=self.tag_max).contains(&msg.tag)
    }
}

/// A process's NIC: opened from a [`Fabric`], closed on drop.
pub struct Endpoint {
    fabric: Fabric,
    addr: Address,
    ctx: Arc<ProcessCtx>,
    mailbox: Arc<Mailbox>,
    closed: std::sync::atomic::AtomicBool,
}

impl Endpoint {
    pub(crate) fn new(
        fabric: Fabric,
        addr: Address,
        ctx: Arc<ProcessCtx>,
        mailbox: Arc<Mailbox>,
    ) -> Self {
        Self {
            fabric,
            addr,
            ctx,
            mailbox,
            closed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// This endpoint's address.
    pub fn address(&self) -> Address {
        self.addr
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The owning simulated process's context.
    pub fn ctx(&self) -> &Arc<ProcessCtx> {
        &self.ctx
    }

    /// Sends `data` to `dst` with the given tag using the eager path.
    pub fn send(&self, dst: Address, tag: Tag, data: Bytes) -> Result<()> {
        self.send_class(dst, tag, data, Xfer::Eager)
    }

    /// Sends a small control message (header-only timing).
    pub fn send_control(&self, dst: Address, tag: Tag, data: Bytes) -> Result<()> {
        self.send_class(dst, tag, data, Xfer::Control)
    }

    /// Sends with an explicit transfer class. Buffered: never blocks.
    pub fn send_class(&self, dst: Address, tag: Tag, data: Bytes, class: Xfer) -> Result<()> {
        let mailbox = self.fabric.mailbox_of(dst)?;
        let model = self.fabric.cluster().fabric();
        self.ctx.advance(model.endpoint_cpu_ns(class));
        let depart = self.ctx.now();
        let src_node = self.ctx.node();
        let dst_node = self
            .fabric
            .cluster()
            .node_of(dst.pid())
            .ok_or(NaError::Unreachable(dst))?;
        let mut arrive = depart + model.wire_ns(src_node, dst_node, data.len(), class);
        if hpcsim::trace::enabled() {
            // Bytes are counted at the sender for every message put on the
            // wire — including ones the fault injector then drops, exactly
            // as a NIC counter would see them.
            let plane = crate::tags::plane_name(tag);
            hpcsim::trace::counter_add(format!("na.plane.{plane}.msgs"), 1);
            hpcsim::trace::counter_add(format!("na.plane.{plane}.bytes"), data.len() as u64);
            hpcsim::trace::counter_add(
                format!("na.link.bytes.{src_node}->{dst_node}"),
                data.len() as u64,
            );
        }
        let injector = self.fabric.cluster().faults();
        let mut fault = hpcsim::SendFault::CLEAN;
        if injector.is_active() {
            fault = injector.on_send(self.ctx.pid(), dst.pid(), src_node, dst_node, tag, depart);
            if !fault.deliver {
                // Faults are silent at the sender, like a real lossy wire:
                // the failure surfaces downstream as a receive timeout.
                hpcsim::trace::counter_add("na.dropped.msgs", 1);
                return Ok(());
            }
            if fault.duplicate {
                hpcsim::trace::counter_add("na.duplicated.msgs", 1);
            }
            arrive += fault.extra_delay_ns;
        }
        let msg = InMsg {
            src: self.addr,
            tag,
            data,
            arrive,
            class,
        };
        let mut q = mailbox.queue.lock();
        if q.closed {
            return Err(NaError::Unreachable(dst));
        }
        if fault.duplicate {
            q.msgs.push_back(msg.clone());
        }
        if fault.reorder {
            q.msgs.push_front(msg);
        } else {
            q.msgs.push_back(msg);
        }
        mailbox.cond.notify_all();
        Ok(())
    }

    /// Blocking receive of the first message matching `sel`.
    pub fn recv(&self, sel: RecvSelector) -> Result<InMsg> {
        self.recv_timeout(sel, None)
    }

    /// Blocking receive with an optional *real-time* liveness timeout.
    ///
    /// The timeout exists to detect dead peers (a real failure detector);
    /// it does not participate in virtual time. It bounds the whole call:
    /// traffic for other selectors wakes the waiter but does not restart
    /// the clock, so a peer that never answers is detected even on a busy
    /// mailbox.
    pub fn recv_timeout(&self, sel: RecvSelector, timeout: Option<Duration>) -> Result<InMsg> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut q = self.mailbox.queue.lock();
        loop {
            if let Some(pos) = q.msgs.iter().position(|m| sel.matches(m)) {
                let msg = q.msgs.remove(pos).expect("position valid");
                drop(q);
                let model = self.fabric.cluster().fabric();
                self.ctx.clock().merge(msg.arrive);
                self.ctx.advance(model.endpoint_cpu_ns(msg.class));
                return Ok(msg);
            }
            if q.closed {
                return Err(NaError::Closed);
            }
            match deadline {
                None => self.mailbox.cond.wait(&mut q),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NaError::Timeout);
                    }
                    self.mailbox.cond.wait_for(&mut q, deadline - now);
                }
            }
        }
    }

    /// Non-blocking probe: takes the first matching message if present.
    pub fn try_recv(&self, sel: RecvSelector) -> Option<InMsg> {
        let mut q = self.mailbox.queue.lock();
        let pos = q.msgs.iter().position(|m| sel.matches(m))?;
        let msg = q.msgs.remove(pos).expect("position valid");
        drop(q);
        let model = self.fabric.cluster().fabric();
        self.ctx.clock().merge(msg.arrive);
        self.ctx.advance(model.endpoint_cpu_ns(msg.class));
        Some(msg)
    }

    /// Registers `data` for remote one-sided access and returns its handle.
    pub fn expose(&self, data: Bytes) -> BulkHandle {
        let size = data.len();
        let key = self.fabric.register_exposure(self.addr, data);
        BulkHandle {
            owner: self.addr,
            key,
            size,
        }
    }

    /// Releases a previously exposed region.
    pub fn unexpose(&self, handle: BulkHandle) -> Result<()> {
        if self.fabric.unregister_exposure(handle.owner, handle.key) {
            Ok(())
        } else {
            Err(NaError::BadBulkHandle(handle.key))
        }
    }

    /// One-sided RDMA get: pulls `[offset, offset+len)` from the remote
    /// registered region. Only the initiator's clock is charged.
    pub fn rdma_get(&self, handle: BulkHandle, offset: usize, len: usize) -> Result<Bytes> {
        if !handle.contains(offset, len) {
            return Err(NaError::BulkOutOfRange {
                offset,
                len,
                size: handle.size,
            });
        }
        let data = self
            .fabric
            .lookup_exposure(handle.owner, handle.key)
            .ok_or(NaError::BadBulkHandle(handle.key))?;
        let model = self.fabric.cluster().fabric();
        let owner_node = self
            .fabric
            .cluster()
            .node_of(handle.owner.pid())
            .ok_or(NaError::Unreachable(handle.owner))?;
        let mut sp = hpcsim::trace::span("na", "na.rdma_get");
        if sp.active() {
            sp.arg("bytes", len);
            hpcsim::trace::counter_add("na.rdma.bytes", len as u64);
            hpcsim::trace::counter_add(
                format!("na.link.rdma.bytes.{owner_node}->{}", self.ctx.node()),
                len as u64,
            );
        }
        self.ctx.advance(model.endpoint_cpu_ns(Xfer::Rdma));
        self.ctx
            .advance(model.wire_ns(owner_node, self.ctx.node(), len, Xfer::Rdma));
        Ok(data.slice(offset..offset + len))
    }

    /// Closes the endpoint: subsequent sends to it fail with
    /// [`NaError::Unreachable`], blocked local receives return
    /// [`NaError::Closed`], and its exposures are dropped.
    pub fn close(&self) {
        if !self
            .closed
            .swap(true, std::sync::atomic::Ordering::AcqRel)
        {
            self.fabric.close(self.addr);
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{Cluster, ClusterConfig, FabricModel};

    fn cluster_with_model(model: FabricModel) -> (Cluster, Fabric) {
        let c = Cluster::new(ClusterConfig {
            fabric: model,
            ..Default::default()
        });
        let f = Fabric::new(Arc::clone(c.shared()));
        (c, f)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        let f2 = f.clone();
        let recv = c.spawn("rx", 0, move || {
            let ep = f2.open();
            let msg = ep.recv(RecvSelector::tag(7)).unwrap();
            (msg.src, msg.data.to_vec())
        });
        let rx_addr = Address::of(recv.pid());
        let f3 = f.clone();
        let send = c.spawn("tx", 1, move || {
            let ep = f3.open();
            // The receiver may not have opened yet; retry briefly.
            loop {
                match ep.send(rx_addr, 7, Bytes::from_static(b"hello")) {
                    Ok(()) => break,
                    Err(NaError::Unreachable(_)) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            ep.address()
        });
        let tx_addr = send.join();
        let (src, data) = recv.join();
        assert_eq!(src, tx_addr);
        assert_eq!(data, b"hello");
    }

    #[test]
    fn matching_respects_src_and_tag() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let me = ep.address();
            ep.send(me, 1, Bytes::from_static(b"a")).unwrap();
            ep.send(me, 2, Bytes::from_static(b"b")).unwrap();
            ep.send(me, 1, Bytes::from_static(b"c")).unwrap();
            // Tag 2 first, even though tag-1 messages queued earlier.
            assert_eq!(&ep.recv(RecvSelector::tag(2)).unwrap().data[..], b"b");
            // Then the two tag-1 messages in FIFO order.
            assert_eq!(&ep.recv(RecvSelector::exact(me, 1)).unwrap().data[..], b"a");
            assert_eq!(&ep.recv(RecvSelector::tag_range(0, 10)).unwrap().data[..], b"c");
        })
        .join();
    }

    #[test]
    fn virtual_time_advances_by_wire_delay() {
        let (c, f) = cluster_with_model(hpcsim::fabric::presets::aries());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let me = ep.address();
            let before = hpcsim::current().now();
            ep.send(me, 1, Bytes::from(vec![0u8; 1024])).unwrap();
            ep.recv(RecvSelector::tag(1)).unwrap();
            let elapsed = hpcsim::current().now() - before;
            let model = hpcsim::fabric::presets::aries();
            let min_expected = model.wire_ns(0, 0, 1024, Xfer::Eager);
            assert!(elapsed >= min_expected, "{elapsed} < {min_expected}");
        })
        .join();
    }

    #[test]
    fn receiver_clock_merges_sender_time() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let me = ep.address();
            hpcsim::current().advance(1_000_000);
            ep.send(me, 1, Bytes::new()).unwrap();
            // Reset sight: local clock is already past; arrival must not
            // move it backwards.
            let before = hpcsim::current().now();
            ep.recv(RecvSelector::tag(1)).unwrap();
            assert!(hpcsim::current().now() >= before);
        })
        .join();
    }

    #[test]
    fn send_to_closed_endpoint_is_unreachable() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        let f2 = f.clone();
        let victim = c.spawn("v", 0, move || {
            let ep = f2.open();
            let addr = ep.address();
            ep.close();
            addr
        });
        let addr = victim.join();
        c.spawn("s", 0, move || {
            let ep = f.open();
            assert!(matches!(
                ep.send(addr, 1, Bytes::new()),
                Err(NaError::Unreachable(_))
            ));
        })
        .join();
    }

    #[test]
    fn rdma_get_pulls_exposed_slice() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let data = Bytes::from((0u8..100).collect::<Vec<_>>());
            let h = ep.expose(data);
            let part = ep.rdma_get(h, 10, 5).unwrap();
            assert_eq!(&part[..], &[10, 11, 12, 13, 14]);
            ep.unexpose(h).unwrap();
            assert!(matches!(
                ep.rdma_get(h, 0, 1),
                Err(NaError::BadBulkHandle(_))
            ));
        })
        .join();
    }

    #[test]
    fn rdma_out_of_range_is_rejected() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let h = ep.expose(Bytes::from(vec![1, 2, 3]));
            assert!(matches!(
                ep.rdma_get(h, 2, 2),
                Err(NaError::BulkOutOfRange { .. })
            ));
        })
        .join();
    }

    #[test]
    fn close_drops_exposures() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        let f2 = f.clone();
        c.spawn("p", 0, move || {
            let ep = f2.open();
            ep.expose(Bytes::from(vec![0; 10]));
            ep.close();
        })
        .join();
        assert_eq!(f.exposure_count(), 0);
    }

    #[test]
    fn recv_timeout_detects_silence() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            let got = ep.recv_timeout(RecvSelector::tag(1), Some(Duration::from_millis(20)));
            assert_eq!(got.unwrap_err(), NaError::Timeout);
        })
        .join();
    }

    #[test]
    fn recv_timeout_expires_while_other_traffic_arrives() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        let f2 = f.clone();
        let (addr_tx, addr_rx) = crossbeam::channel::bounded(1);
        let rx = c.spawn("rx", 0, move || {
            let ep = f2.open();
            addr_tx.send(ep.address()).unwrap();
            let started = Instant::now();
            let got = ep.recv_timeout(RecvSelector::tag(1), Some(Duration::from_millis(50)));
            (got.map(|m| m.tag), started.elapsed())
        });
        let rx_addr = addr_rx.recv().unwrap();
        let f3 = f.clone();
        // Another selector's message every few milliseconds for far longer
        // than the timeout: each one wakes the waiter.
        let tx = c.spawn("tx", 1, move || {
            let ep = f3.open();
            for _ in 0..200 {
                if ep.send(rx_addr, 2, Bytes::from_static(b"noise")).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let (got, waited) = rx.join();
        tx.join();
        assert_eq!(got.unwrap_err(), NaError::Timeout);
        assert!(
            waited < Duration::from_millis(500),
            "timed out only after {waited:?}"
        );
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            assert!(ep.try_recv(RecvSelector::tag(1)).is_none());
            let me = ep.address();
            ep.send(me, 1, Bytes::from_static(b"x")).unwrap();
            assert!(ep.try_recv(RecvSelector::tag(1)).is_some());
        })
        .join();
    }

    #[test]
    fn reopening_after_close_is_allowed() {
        let (c, f) = cluster_with_model(FabricModel::zero());
        c.spawn("p", 0, move || {
            let ep = f.open();
            ep.close();
            let ep2 = f.open();
            assert!(f.is_open(ep2.address()));
        })
        .join();
    }
}
