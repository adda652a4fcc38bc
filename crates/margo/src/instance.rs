//! The margo instance: progress loop, handler registry, forward path.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::de::DeserializeOwned;
use serde::Serialize;

use na::{Address, Endpoint, Fabric, NaError, RecvSelector};

use crate::protocol::{Envelope, Reply, RpcError};
use crate::retry::{backoff_delay, RetryConfig};
use crate::Result;

/// Which pool a handler executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerPool {
    /// The default pool: control-plane RPCs (activate, membership, admin).
    Control,
    /// The heavy pool: long-running work (pipeline execution).
    Heavy,
}

/// Context passed to every handler invocation.
pub struct CallCtx {
    /// Address of the calling process.
    pub caller: Address,
    /// The local endpoint, for RDMA pulls from inside handlers (this is
    /// how `stage` fetches staged data from the simulation's memory).
    pub endpoint: Arc<Endpoint>,
}

type RawHandler = Arc<dyn Fn(&[u8], &CallCtx) -> std::result::Result<Vec<u8>, String> + Send + Sync>;

/// Software overhead charged per RPC at each side (Mercury header
/// processing, callback dispatch). Calibrated so an empty RPC costs a few
/// microseconds round trip, as on Cori.
const RPC_SW_NS: u64 = 700;

/// Completed-request replies remembered per caller for duplicate
/// suppression; oldest entries are evicted first.
const DEDUP_CAP: usize = 4096;

/// Server-side duplicate suppression, keyed by `(caller, req_id)`.
/// `None` marks a request still executing (duplicates are dropped — the
/// in-flight execution will reply); `Some` holds the encoded reply, which
/// duplicates get resent verbatim instead of re-executing the handler.
#[derive(Default)]
struct DedupCache {
    entries: HashMap<(Address, u64), Option<Bytes>>,
    order: VecDeque<(Address, u64)>,
}

impl DedupCache {
    /// Registers a request. Returns the prior state if it is a duplicate.
    fn admit(&mut self, key: (Address, u64)) -> Option<Option<Bytes>> {
        if let Some(prior) = self.entries.get(&key) {
            return Some(prior.clone());
        }
        if self.order.len() >= DEDUP_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(key, None);
        self.order.push_back(key);
        None
    }

    fn complete(&mut self, key: (Address, u64), reply: Bytes) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = Some(reply);
        }
    }
}

/// A margo instance: one per simulated process participating in RPC.
pub struct MargoInstance {
    endpoint: Arc<Endpoint>,
    handlers: RwLock<HashMap<String, (RawHandler, HandlerPool)>>,
    control_pool: argo::Pool,
    heavy_pool: argo::Pool,
    next_resp: AtomicU64,
    next_req: AtomicU64,
    dedup: Mutex<DedupCache>,
    running: AtomicBool,
    default_timeout: RwLock<Option<Duration>>,
}

impl MargoInstance {
    /// Initializes margo for the calling simulated process, opening a
    /// fresh endpoint and starting the progress loop.
    pub fn init(fabric: &Fabric) -> Arc<Self> {
        Self::from_endpoint(Arc::new(fabric.open()))
    }

    /// Initializes margo over an existing endpoint (shared with MoNA in
    /// Colza daemons) and starts the progress loop.
    pub fn from_endpoint(endpoint: Arc<Endpoint>) -> Arc<Self> {
        let ctx = Arc::clone(endpoint.ctx());
        let wrapper: argo::TaskWrapper = {
            let ctx = Arc::clone(&ctx);
            Arc::new(move |task| hpcsim::process::enter(Arc::clone(&ctx), task))
        };
        let inst = Arc::new(Self {
            endpoint,
            handlers: RwLock::new(HashMap::new()),
            control_pool: argo::PoolBuilder::new("margo-ctl")
                .xstreams(2)
                .task_wrapper(Arc::clone(&wrapper))
                .build(),
            heavy_pool: argo::PoolBuilder::new("margo-heavy")
                .xstreams(2)
                .task_wrapper(wrapper)
                .build(),
            next_resp: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            dedup: Mutex::new(DedupCache::default()),
            running: AtomicBool::new(true),
            default_timeout: RwLock::new(Some(Duration::from_secs(30))),
        });
        let progress = Arc::clone(&inst);
        std::thread::Builder::new()
            .name(format!("margo-progress-{}", inst.address()))
            .spawn(move || hpcsim::process::enter(Arc::clone(progress.endpoint.ctx()), || progress.progress_loop()))
            .expect("spawn margo progress loop");
        inst
    }

    /// This instance's address.
    pub fn address(&self) -> Address {
        self.endpoint.address()
    }

    /// The shared endpoint.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// Sets the default liveness timeout applied to `forward` calls.
    pub fn set_default_timeout(&self, t: Option<Duration>) {
        *self.default_timeout.write() = t;
    }

    /// Registers a typed RPC handler on the control pool.
    pub fn register<A, R, F>(&self, name: &str, f: F)
    where
        A: DeserializeOwned,
        R: Serialize,
        F: Fn(A, &CallCtx) -> std::result::Result<R, String> + Send + Sync + 'static,
    {
        self.register_in_pool(name, HandlerPool::Control, f)
    }

    /// Registers a typed RPC handler on a chosen pool.
    pub fn register_in_pool<A, R, F>(&self, name: &str, pool: HandlerPool, f: F)
    where
        A: DeserializeOwned,
        R: Serialize,
        F: Fn(A, &CallCtx) -> std::result::Result<R, String> + Send + Sync + 'static,
    {
        let raw: RawHandler = Arc::new(move |bytes, ctx| {
            let args: A = wire::from_slice(bytes).map_err(|e| format!("bad args: {e}"))?;
            let out = f(args, ctx)?;
            wire::to_vec(&out).map_err(|e| format!("bad response: {e}"))
        });
        self.handlers.write().insert(name.to_string(), (raw, pool));
    }

    /// Removes a handler (used when pipelines are destroyed).
    pub fn deregister(&self, name: &str) -> bool {
        self.handlers.write().remove(name).is_some()
    }

    /// Calls RPC `name` at `dst` with `args`, blocking for the typed
    /// response. Applies the instance's default liveness timeout.
    pub fn forward<A: Serialize, R: DeserializeOwned>(
        &self,
        dst: Address,
        name: &str,
        args: &A,
    ) -> Result<R> {
        self.forward_timeout(dst, name, args, *self.default_timeout.read())
    }

    /// `forward` with an explicit liveness timeout.
    pub fn forward_timeout<A: Serialize, R: DeserializeOwned>(
        &self,
        dst: Address,
        name: &str,
        args: &A,
        timeout: Option<Duration>,
    ) -> Result<R> {
        let env = self.make_envelope(name, args)?;
        decode_reply(&self.forward_envelope(dst, &env, timeout)?)
    }

    /// `forward` with retries under a [`RetryConfig`]: exponential backoff
    /// with seeded jitter, per-try timeouts, and an overall deadline.
    ///
    /// Every attempt carries the same request id and response tag, so
    /// retries are idempotent end to end: the server executes the handler
    /// at most once (duplicates are suppressed or answered from the reply
    /// cache), and a straggler reply to an earlier attempt still completes
    /// the call.
    pub fn forward_retry<A: Serialize, R: DeserializeOwned>(
        &self,
        dst: Address,
        name: &str,
        args: &A,
        cfg: &RetryConfig,
    ) -> Result<R> {
        let env = self.make_envelope(name, args)?;
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let remaining = match cfg.deadline {
                Some(d) => match d.checked_sub(started.elapsed()) {
                    Some(r) if !r.is_zero() => Some(r),
                    _ => return Err(RpcError::Timeout),
                },
                None => None,
            };
            let per_try = match remaining {
                Some(r) => cfg.per_try_timeout.min(r),
                None => cfg.per_try_timeout,
            };
            let err = match self.forward_envelope(dst, &env, Some(per_try)) {
                Ok(data) => return decode_reply(&data),
                Err(e) => e,
            };
            let retryable = match &err {
                RpcError::Timeout => true,
                RpcError::Unreachable(_) => cfg.retry_unreachable,
                _ => false,
            };
            if !retryable {
                return Err(err);
            }
            attempt += 1;
            if cfg.max_attempts != 0 && attempt >= cfg.max_attempts {
                hpcsim::trace::counter_add("rpc.retry.giveup", 1);
                return Err(err);
            }
            hpcsim::trace::counter_add("rpc.retries", 1);
            let mut pause = backoff_delay(cfg, attempt - 1, self.endpoint.ctx().rng_unit());
            if let Some(d) = cfg.deadline {
                match d.checked_sub(started.elapsed()) {
                    Some(r) if !r.is_zero() => pause = pause.min(r),
                    _ => return Err(RpcError::Timeout),
                }
            }
            if !pause.is_zero() {
                // Backoff costs both real time (liveness clocks keep
                // running) and virtual time (the caller really waits).
                self.endpoint.ctx().advance(pause.as_nanos() as u64);
                std::thread::sleep(pause);
            }
        }
    }

    fn make_envelope<A: Serialize>(&self, name: &str, args: &A) -> Result<Envelope> {
        Ok(Envelope {
            name: name.to_string(),
            resp_tag: na::tags::RPC_RESP_BASE + self.next_resp.fetch_add(1, Ordering::Relaxed),
            req_id: self.next_req.fetch_add(1, Ordering::Relaxed),
            body: wire::to_vec(args)?,
        })
    }

    /// One request/response exchange for an already built envelope.
    fn forward_envelope(
        &self,
        dst: Address,
        env: &Envelope,
        timeout: Option<Duration>,
    ) -> Result<Bytes> {
        let mut sp = hpcsim::trace::span("rpc", format!("rpc:{}", env.name));
        self.endpoint.ctx().advance(RPC_SW_NS);
        let start = self.endpoint.ctx().now();
        let payload = Bytes::from(wire::to_vec(env)?);
        if sp.active() {
            sp.arg("req_id", env.req_id);
            sp.arg("bytes", payload.len());
            hpcsim::trace::counter_add("rpc.sent.msgs", 1);
        }
        let sent_bytes = payload.len() as u64;
        self.endpoint
            .send(dst, na::tags::RPC_BASE, payload)
            .map_err(|e| {
                sp.arg("outcome", "unreachable");
                match e {
                    NaError::Unreachable(a) => RpcError::Unreachable(a),
                    _ => RpcError::Shutdown,
                }
            })?;
        hpcsim::trace::counter_add("rpc.bytes.out", sent_bytes);
        let msg = self
            .endpoint
            .recv_timeout(RecvSelector::tag(env.resp_tag), timeout)
            .map_err(|e| match e {
                NaError::Timeout => {
                    sp.arg("outcome", "timeout");
                    hpcsim::trace::counter_add("rpc.timeouts", 1);
                    RpcError::Timeout
                }
                _ => {
                    sp.arg("outcome", "shutdown");
                    RpcError::Shutdown
                }
            })?;
        self.endpoint.ctx().advance(RPC_SW_NS);
        if sp.active() {
            hpcsim::trace::record_duration(
                format!("rpc:{}", env.name),
                self.endpoint.ctx().now() - start,
            );
        }
        Ok(msg.data)
    }

    /// Stops the progress loop and closes the endpoint. Idempotent.
    pub fn finalize(&self) {
        if self.running.swap(false, Ordering::AcqRel) {
            self.endpoint.close();
        }
    }

    /// Whether `finalize` has been called.
    pub fn finalized(&self) -> bool {
        !self.running.load(Ordering::Acquire)
    }

    fn progress_loop(self: &Arc<Self>) {
        loop {
            let msg = match self.endpoint.recv(RecvSelector::tag(na::tags::RPC_BASE)) {
                Ok(m) => m,
                Err(_) => return, // endpoint closed: instance finalized
            };
            let env: Envelope = match wire::from_slice(&msg.data) {
                Ok(e) => e,
                Err(_) => continue, // corrupt request: drop, as Mercury does
            };
            let caller = msg.src;
            let key = (caller, env.req_id);
            match self.dedup.lock().admit(key) {
                Some(Some(cached)) => {
                    // Duplicate of a completed request: replay the reply
                    // without re-executing the handler.
                    self.endpoint.ctx().advance(RPC_SW_NS);
                    hpcsim::trace::counter_add("rpc.dedup.replayed", 1);
                    // Counted before the send: once the reply leaves, the
                    // caller unblocks and may finish (and snapshot the
                    // tracer) before this thread runs again.
                    hpcsim::trace::counter_add("rpc.bytes.reply", cached.len() as u64);
                    let _ = self.endpoint.send(caller, env.resp_tag, cached);
                    continue;
                }
                Some(None) => {
                    // Still executing: the in-flight run will reply.
                    hpcsim::trace::counter_add("rpc.dedup.inflight", 1);
                    continue;
                }
                None => {}
            }
            let entry = self.handlers.read().get(&env.name).cloned();
            let pool_choice = entry.as_ref().map(|(_, p)| *p);
            let this = Arc::clone(self);
            let run = move || {
                let reply = {
                    // The span must end before the reply leaves: once the
                    // caller unblocks it may issue its next request, and the
                    // progress loop would then race this thread on the shared
                    // process clock, making the recorded end nondeterministic.
                    let mut sp = hpcsim::trace::span("rpc", format!("rpc.handle:{}", env.name));
                    this.endpoint.ctx().advance(RPC_SW_NS);
                    let reply = match &entry {
                        Some((handler, _)) => {
                            let ctx = CallCtx {
                                caller,
                                endpoint: Arc::clone(&this.endpoint),
                            };
                            // A panicking handler still replies (and completes its
                            // dedup entry): otherwise every retry would be dropped
                            // as in flight until the caller's deadline, and the
                            // pool would lose the worker thread.
                            let run = AssertUnwindSafe(|| handler(&env.body, &ctx));
                            match std::panic::catch_unwind(run) {
                                Ok(Ok(body)) => Reply::Ok(body),
                                Ok(Err(m)) => Reply::Err(m),
                                Err(panic) => {
                                    hpcsim::trace::counter_add("rpc.handler.panicked", 1);
                                    Reply::Err(format!(
                                        "handler panicked: {}",
                                        panic_message(&*panic)
                                    ))
                                }
                            }
                        }
                        None => Reply::Err(format!("__no_such_rpc__:{}", env.name)),
                    };
                    if sp.active() {
                        sp.arg("req_id", env.req_id);
                        sp.arg("ok", matches!(reply, Reply::Ok(_)));
                        hpcsim::trace::counter_add("rpc.handled.msgs", 1);
                    }
                    reply
                };
                let bytes = Bytes::from(wire::to_vec(&reply).expect("reply encodes"));
                this.dedup.lock().complete(key, bytes.clone());
                // Like the span above, the byte accounting must land before
                // the reply does: the send unblocks the caller, which may
                // finish — and snapshot the tracer — before this (detached)
                // pool thread is scheduled again. The send itself stays
                // best-effort: the caller may have died while we worked.
                hpcsim::trace::counter_add("rpc.bytes.reply", bytes.len() as u64);
                let _ = this.endpoint.send(caller, env.resp_tag, bytes);
            };
            match pool_choice {
                Some(HandlerPool::Heavy) => self.heavy_pool.post(run),
                _ => self.control_pool.post(run),
            }
        }
    }
}

impl Drop for MargoInstance {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// The message a `panic!` carried, when it is a string.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    match panic.downcast_ref::<&str>() {
        Some(m) => m,
        None => panic
            .downcast_ref::<String>()
            .map_or("<non-string payload>", |m| m),
    }
}

fn decode_reply<R: DeserializeOwned>(data: &[u8]) -> Result<R> {
    match wire::from_slice::<Reply>(data)? {
        Reply::Ok(body) => Ok(wire::from_slice(&body)?),
        Reply::Err(m) => {
            if let Some(name) = m.strip_prefix("__no_such_rpc__:") {
                Err(RpcError::NoSuchRpc(name.to_string()))
            } else {
                Err(RpcError::Handler(m))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::Cluster;

    fn setup() -> (Cluster, Fabric) {
        let c = Cluster::default();
        let f = Fabric::new(Arc::clone(c.shared()));
        (c, f)
    }

    #[test]
    fn typed_rpc_roundtrip() {
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("sum", |args: Vec<i64>, _ctx| Ok(args.iter().sum::<i64>()));
            tx.send(margo.address()).unwrap();
            // Serve until the client closes us via the "stop" RPC.
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _ctx| {
                s2.set(());
                Ok(0u8)
            });
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let sum: i64 = margo.forward(addr, "sum", &vec![1i64, 2, 3]).unwrap();
            assert_eq!(sum, 6);
            let _: u8 = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

    #[test]
    fn unknown_rpc_is_reported() {
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let r: Result<u8> = margo.forward(addr, "nope", &());
            assert!(matches!(r, Err(RpcError::NoSuchRpc(n)) if n == "nope"));
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

    #[test]
    fn handler_errors_propagate() {
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("fail", |_: (), _| Err::<u8, _>("boom".to_string()));
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let r: Result<u8> = margo.forward(addr, "fail", &());
            assert_eq!(r, Err(RpcError::Handler("boom".to_string())));
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

    #[test]
    fn a_panicking_handler_replies_and_the_pool_keeps_serving() {
        let (c, f) = setup();
        c.shared().tracer().set_enabled(true);
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("boom", |_: (), _| -> std::result::Result<u8, String> {
                panic!("no such field")
            });
            margo.register("ping", |_: (), _| Ok(7u8));
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let deadline = Some(Duration::from_secs(5));
            // One panic per control-pool worker: neither may be lost.
            for _ in 0..2 {
                let start = Instant::now();
                let r: Result<u8> = margo.forward_timeout(addr, "boom", &(), deadline);
                assert_eq!(
                    r,
                    Err(RpcError::Handler("handler panicked: no such field".into()))
                );
                assert!(start.elapsed() < Duration::from_secs(1), "reply came late");
            }
            let v: u8 = margo.forward_timeout(addr, "ping", &(), deadline).unwrap();
            assert_eq!(v, 7);
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
        let snap = c.shared().trace_snapshot();
        assert_eq!(snap.counter_total("rpc.handler.panicked"), 2);
    }

    #[test]
    fn forward_to_dead_server_times_out_or_unreachable() {
        let (c, f) = setup();
        let f2 = f.clone();
        let dead = c.spawn("dead", 0, move || {
            let margo = MargoInstance::init(&f2);
            let addr = margo.address();
            margo.finalize();
            addr
        });
        let addr = dead.join();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let r: Result<u8> =
                margo.forward_timeout(addr, "x", &(), Some(Duration::from_millis(50)));
            assert!(matches!(r, Err(RpcError::Unreachable(_)) | Err(RpcError::Timeout)));
        })
        .join();
    }

    #[test]
    fn concurrent_rpcs_from_many_clients() {
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("double", |x: u64, _| Ok(x * 2));
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            let remaining = Arc::new(AtomicU64::new(4));
            margo.register("done", move |_: (), _| {
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    s2.set(());
                }
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        let clients: Vec<_> = (0..4u64)
            .map(|i| {
                let f = f.clone();
                c.spawn(&format!("cl{i}"), 1, move || {
                    let margo = MargoInstance::init(&f);
                    for k in 0..20u64 {
                        let out: u64 = margo.forward(addr, "double", &(i * 100 + k)).unwrap();
                        assert_eq!(out, (i * 100 + k) * 2);
                    }
                    let _: () = margo.forward(addr, "done", &()).unwrap();
                })
            })
            .collect();
        for cl in clients {
            cl.join();
        }
        server.join();
    }

    #[test]
    fn rpc_advances_virtual_time_round_trip() {
        let c = Cluster::new(hpcsim::ClusterConfig::aries());
        let f = Fabric::new(Arc::clone(c.shared()));
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            margo.register("noop", |_: (), _| Ok(()));
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let before = hpcsim::current().now();
            let _: () = margo.forward(addr, "noop", &()).unwrap();
            let rtt = hpcsim::current().now() - before;
            // Two control hops plus software overheads: microsecond scale.
            assert!(rtt > 1_000, "rtt {rtt} ns too small");
            assert!(rtt < 1_000_000, "rtt {rtt} ns too large");
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

    #[test]
    fn deregistered_rpcs_stop_resolving() {
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("temp", |_: (), _| Ok(1u8));
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("drop_temp", move |_: (), _ctx| Ok(()));
            let m2 = Arc::downgrade(&margo);
            margo.register("do_drop", move |_: (), _| {
                if let Some(m) = m2.upgrade() {
                    Ok(m.deregister("temp"))
                } else {
                    Err("gone".to_string())
                }
            });
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let v: u8 = margo.forward(addr, "temp", &()).unwrap();
            assert_eq!(v, 1);
            let dropped: bool = margo.forward(addr, "do_drop", &()).unwrap();
            assert!(dropped);
            let r: Result<u8> = margo.forward(addr, "temp", &());
            assert!(matches!(r, Err(RpcError::NoSuchRpc(_))));
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

    fn faulty_setup(plan: hpcsim::FaultPlan) -> (Cluster, Fabric) {
        let c = Cluster::new(hpcsim::ClusterConfig {
            faults: plan,
            ..Default::default()
        });
        let f = Fabric::new(Arc::clone(c.shared()));
        (c, f)
    }

    /// Spawns a counting echo server; returns its address and the
    /// invocation counter.
    fn spawn_counting_server(
        c: &Cluster,
        f: &Fabric,
    ) -> (Address, Arc<AtomicU64>, crossbeam::channel::Sender<()>) {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let (addr_tx, addr_rx) = crossbeam::channel::bounded(1);
        let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
        let f2 = f.clone();
        c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            margo.register("echo", move |x: u64, _| {
                calls2.fetch_add(1, Ordering::AcqRel);
                Ok(x)
            });
            addr_tx.send(margo.address()).unwrap();
            let _ = stop_rx.recv();
            margo.finalize();
        });
        (addr_rx.recv().unwrap(), calls, stop_tx)
    }

    #[test]
    fn duplicate_requests_execute_exactly_once() {
        // Duplicate every request (but not replies): with req-id dedup the
        // handler must still run exactly once per logical call.
        let (c, f) = faulty_setup(
            hpcsim::FaultPlan::seeded(7)
                .with_duplication(1.0)
                .scope_tags(na::tags::RPC_BASE, na::tags::RPC_BASE),
        );
        let (addr, calls, stop) = spawn_counting_server(&c, &f);
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            for k in 0..20u64 {
                let out: u64 = margo.forward(addr, "echo", &k).unwrap();
                assert_eq!(out, k);
            }
        })
        .join();
        assert_eq!(calls.load(Ordering::Acquire), 20, "handler re-executed a duplicate");
        let _ = stop.send(());
    }

    #[test]
    fn forward_retry_recovers_from_lost_requests() {
        let (c, f) = faulty_setup(
            hpcsim::FaultPlan::seeded(11)
                .with_loss(0.3)
                .scope_tags(na::tags::RPC_BASE, na::tags::RPC_BASE),
        );
        let (addr, calls, stop) = spawn_counting_server(&c, &f);
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let cfg = RetryConfig {
                max_attempts: 0,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                per_try_timeout: Duration::from_millis(50),
                deadline: Some(Duration::from_secs(20)),
                ..Default::default()
            };
            for k in 0..30u64 {
                let out: u64 = margo.forward_retry(addr, "echo", &k, &cfg).unwrap();
                assert_eq!(out, k);
            }
        })
        .join();
        assert!(calls.load(Ordering::Acquire) >= 30);
        let _ = stop.send(());
    }

    #[test]
    fn forward_retry_gives_up_after_deadline_with_timeout() {
        // Total request loss against a live server: retries burn the
        // deadline and the call must surface Timeout, not hang.
        let (c, f) = faulty_setup(
            hpcsim::FaultPlan::seeded(13)
                .with_loss(1.0)
                .scope_tags(na::tags::RPC_BASE, na::tags::RPC_BASE),
        );
        let (addr, calls, stop) = spawn_counting_server(&c, &f);
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            let cfg = RetryConfig {
                max_attempts: 0,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(10),
                per_try_timeout: Duration::from_millis(40),
                deadline: Some(Duration::from_millis(200)),
                ..Default::default()
            };
            let start = Instant::now();
            let r: Result<u64> = margo.forward_retry(addr, "echo", &1u64, &cfg);
            assert_eq!(r, Err(RpcError::Timeout));
            assert!(start.elapsed() >= Duration::from_millis(150));
            // And bounded: well under ten times the deadline even on a
            // loaded machine.
            assert!(start.elapsed() < Duration::from_secs(2));
        })
        .join();
        assert_eq!(calls.load(Ordering::Acquire), 0, "no request should get through");
        let _ = stop.send(());
    }

    #[test]
    fn heavy_pool_does_not_starve_control_rpcs() {
        // A long-running heavy handler (pipeline execution) must not block
        // control-plane RPCs - the multi-pool property Colza relies on.
        let (c, f) = setup();
        let (tx, rx) = crossbeam::channel::bounded(1);
        let f2 = f.clone();
        let server = c.spawn("server", 0, move || {
            let margo = MargoInstance::init(&f2);
            let gate: argo::Eventual<()> = argo::Eventual::new();
            let g2 = gate.clone();
            margo.register_in_pool("slow", HandlerPool::Heavy, move |_: (), _| {
                g2.wait_cloned();
                Ok(())
            });
            let g3 = gate.clone();
            margo.register("unblock", move |_: (), _| {
                if !g3.is_ready() {
                    g3.set(());
                }
                Ok(())
            });
            margo.register("ping", |_: (), _| Ok(0xAAu8));
            let stop = argo::Eventual::<()>::new();
            let s2 = stop.clone();
            margo.register("stop", move |_: (), _| {
                s2.set(());
                Ok(())
            });
            tx.send(margo.address()).unwrap();
            stop.wait();
            margo.finalize();
        });
        let addr = rx.recv().unwrap();
        c.spawn("client", 1, move || {
            let margo = MargoInstance::init(&f);
            // Occupy both heavy streams.
            let m1 = Arc::clone(&margo);
            let ctx = hpcsim::process::current();
            let ctx2 = Arc::clone(&ctx);
            let t1 = std::thread::spawn(move || {
                hpcsim::process::enter(ctx2, move || {
                    let _: () = m1.forward(addr, "slow", &()).unwrap();
                })
            });
            // Control RPCs keep flowing while "slow" blocks.
            for _ in 0..5 {
                let v: u8 = margo.forward(addr, "ping", &()).unwrap();
                assert_eq!(v, 0xAA);
            }
            let _: () = margo.forward(addr, "unblock", &()).unwrap();
            t1.join().unwrap();
            let _: () = margo.forward(addr, "stop", &()).unwrap();
        })
        .join();
        server.join();
    }

}