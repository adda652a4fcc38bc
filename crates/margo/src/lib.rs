//! # margo — the RPC runtime binding messaging and tasking
//!
//! Mercury provides RPC on top of NA; Margo binds Mercury to Argobots so
//! the network progress loop runs in a user-level thread and handlers run
//! in pools. This crate reproduces that composition:
//!
//! * a **progress loop** (one thread with the owner's simulated-process
//!   context) receives requests and dispatches them,
//! * handlers are registered by name and execute on [`argo::Pool`]s —
//!   either the default control pool or a dedicated heavy pool (Colza
//!   routes `execute` there so long pipeline runs never starve control
//!   RPCs, matching Margo's multi-pool deployments),
//! * [`MargoInstance::forward`] is the client side: typed request out,
//!   typed response back, with an optional real-time liveness timeout used
//!   to detect dead servers,
//! * argument/response encoding uses the [`wire`] codec.
//!
//! RPC failures carry a [`RpcError`]. A handler that panics still
//! answers: its caller gets `RpcError::Handler("handler panicked: ..")`,
//! a retry of the same request replays that reply, the pool keeps the
//! worker thread, and `rpc.handler.panicked` counts the event. The panic
//! is a bug in the service all the same; the process's panic hook still
//! sees it.

mod instance;
mod protocol;
mod retry;

pub use instance::{CallCtx, HandlerPool, MargoInstance};
pub use protocol::RpcError;
pub use retry::{backoff_delay, RetryConfig};

/// Result alias for RPC operations.
pub type Result<T> = std::result::Result<T, RpcError>;
