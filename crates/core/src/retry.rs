//! The named retry policies of every RPC this crate forwards, client
//! side and server side, in one place.

use std::time::Duration;

use margo::RetryConfig;

const RPC_TIMEOUT: Duration = Duration::from_secs(60);

/// Retry policy for control-plane RPCs (activate phases, view queries,
/// deactivate): short tries, quick backoff, a bounded overall budget.
/// `Unreachable` is not retried — a closed endpoint means a dead peer,
/// and membership (not the transport) must react to that.
pub(crate) fn control_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 0,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        per_try_timeout: Duration::from_millis(400),
        deadline: Some(Duration::from_secs(6)),
        ..Default::default()
    }
}

/// Retry policy for the 2PC prepare/abort broadcasts: trivial handlers,
/// so short tries only resend over genuinely dropped messages, but a
/// generous deadline — a commit syncing stores on another member can
/// hold the view busy for a while, and abandoning the round early just
/// re-enqueues the whole 2PC behind it (a livelock). A dead member
/// still fails fast (`Unreachable`).
pub(crate) fn activate_retry() -> RetryConfig {
    RetryConfig {
        deadline: Some(Duration::from_secs(30)),
        ..control_retry()
    }
}

/// Retry policy for the 2PC commit specifically. The commit handler
/// re-syncs the server's store holdings before replying, which takes
/// real seconds when pushes ride out loss — with a short per-try the
/// client would race the handler with resends, and *how many* resends
/// land is a wall-clock race that perturbs the per-link message
/// sequence the fault plan hashes on, breaking same-seed determinism.
/// A long per-try means resends happen only for genuinely dropped
/// messages; in-flight suppression absorbs them either way, and the
/// straggler reply to an earlier attempt still completes the call.
pub(crate) fn commit_retry() -> RetryConfig {
    RetryConfig {
        per_try_timeout: Duration::from_secs(10),
        deadline: Some(Duration::from_secs(30)),
        ..control_retry()
    }
}

/// Retry policy for heavy RPCs (execute, stage, result fetch), whose
/// handlers legitimately run for a long time: generous per-try timeouts
/// so slow-but-alive servers are not mistaken for lossy links.
pub(crate) fn heavy_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 0,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        per_try_timeout: Duration::from_secs(10),
        deadline: Some(RPC_TIMEOUT),
        ..Default::default()
    }
}

/// Server side: a scrub pass's inventory-digest probe. One attempt — an
/// unreachable peer is simply not presumed to hold anything this pass,
/// and the next pass asks again.
pub(crate) fn probe_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 1,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        per_try_timeout: Duration::from_millis(500),
        deadline: Some(Duration::from_secs(5)),
        ..Default::default()
    }
}

/// Server side: one block push or handoff. Fast per-try timeout: a
/// dropped push must not stall the caller (the commit/drain path holds a
/// server pool slot while pushing, and the client's 2PC is waiting
/// behind it).
pub(crate) fn push_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 0,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        per_try_timeout: Duration::from_millis(500),
        deadline: Some(Duration::from_secs(10)),
        ..Default::default()
    }
}
