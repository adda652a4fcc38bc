//! Colza error type.

use std::fmt;

/// Failures surfaced by the Colza client, admin, and provider layers.
#[derive(Debug, Clone, PartialEq)]
pub enum ColzaError {
    /// An RPC-level failure (transport, timeout, missing handler).
    Rpc(String),
    /// A transient availability failure: the request (or its reply) was
    /// lost, or the target was temporarily unreachable. Retrying — after
    /// refreshing the view — may succeed.
    Unavailable(String),
    /// The two-phase-commit on `activate` kept failing (view churn).
    ActivateConflict {
        /// Attempts performed before giving up.
        attempts: usize,
    },
    /// A server aborted the iteration mid-execute because its MoNA
    /// communicator was revoked (a member crashed inside a collective).
    /// The iteration's staged inputs are intact on the survivors;
    /// re-activating against the refreshed view and re-issuing the
    /// execute recovers ([`crate::client::DistributedPipelineHandle::execute_with_recovery`]).
    IterationAborted(String),
    /// A stage/push was refused because the tenant is over its
    /// staged-byte quota. Retryable backpressure: quota frees as the
    /// tenant's earlier iterations deactivate, so backing off and
    /// retrying (e.g. [`crate::client::DistributedPipelineHandle::stage_with_backpressure`])
    /// eventually succeeds.
    QuotaExceeded(String),
    /// A pipeline script failed to parse or validate at
    /// `create_pipeline` (malformed JSON, or a trigger expression that
    /// does not compile). Not retryable: the script itself is wrong.
    InvalidScript(String),
    /// No pipeline with this name exists on the target server.
    NoSuchPipeline(String),
    /// No backend factory registered under this `lib:name`.
    NoSuchLibrary(String),
    /// A pipeline rejected an operation.
    Pipeline(String),
    /// The staging area has no members.
    EmptyGroup,
    /// Encoding or decoding of staged data failed.
    Codec(crate::codec::CodecError),
}

impl fmt::Display for ColzaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColzaError::Rpc(m) => write!(f, "rpc failure: {m}"),
            ColzaError::Unavailable(m) => write!(f, "temporarily unavailable: {m}"),
            ColzaError::ActivateConflict { attempts } => {
                write!(f, "activate 2PC failed after {attempts} attempts")
            }
            ColzaError::QuotaExceeded(m) => write!(f, "staged-byte quota exceeded: {m}"),
            ColzaError::InvalidScript(m) => write!(f, "invalid pipeline script: {m}"),
            ColzaError::NoSuchPipeline(n) => write!(f, "no pipeline named {n:?}"),
            ColzaError::NoSuchLibrary(n) => write!(f, "no backend library {n:?} registered"),
            ColzaError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            ColzaError::IterationAborted(m) => write!(f, "iteration aborted: {m}"),
            ColzaError::EmptyGroup => write!(f, "staging area is empty"),
            ColzaError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl ColzaError {
    /// Whether the operation may succeed if retried — possibly after
    /// refreshing the staging-area view. Clients and the autoscaler use
    /// this to separate wait-and-retry from give-up.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ColzaError::Unavailable(_)
                | ColzaError::ActivateConflict { .. }
                | ColzaError::IterationAborted(_)
                | ColzaError::QuotaExceeded(_)
        )
    }
}

impl std::error::Error for ColzaError {}

/// Marker prefixes of the typed errors a handler reply can carry. A
/// margo handler answers with a plain string, so [`ColzaError::to_reply`]
/// and [`ColzaError::from_reply`] are the one place a typed error is
/// turned into that string and back; the strings themselves are wire
/// format and must not change.
const DRAINING: &str = "server draining";
const ABORTED: &str = "iteration aborted by revoked collective";
const QUOTA: &str = "staged-byte quota exceeded";
const INVALID_SCRIPT: &str = "invalid pipeline script";

impl ColzaError {
    /// A draining server's refusal of a new block: retryable, and the
    /// client re-routes the block through the surviving view.
    pub(crate) fn draining() -> Self {
        ColzaError::Unavailable(DRAINING.to_string())
    }

    /// The handler-reply string of this error: marker-prefixed for the
    /// variants a client must recognize, the display text otherwise.
    pub(crate) fn to_reply(&self) -> String {
        let (marker, m) = match self {
            ColzaError::IterationAborted(m) => (ABORTED, m),
            ColzaError::QuotaExceeded(m) => (QUOTA, m),
            ColzaError::InvalidScript(m) => (INVALID_SCRIPT, m),
            ColzaError::Unavailable(m) if m.starts_with(DRAINING) => return m.clone(),
            other => return other.to_string(),
        };
        if m.starts_with(marker) {
            m.clone()
        } else {
            format!("{marker}: {m}")
        }
    }

    /// The typed error a handler-reply string stands for, if it starts
    /// with a marker (a marker further into the message is just text).
    /// The variant keeps the whole reply, so `to_reply` gives it back.
    pub(crate) fn from_reply(m: &str) -> Option<Self> {
        // Draining: the client re-routes through the surviving view.
        // Aborted: retryable after re-activating on the shrunk view.
        // Quota: back off and retry, don't re-route. Invalid script:
        // fatal, fix the script.
        let variant: fn(String) -> Self = if m.starts_with(DRAINING) {
            ColzaError::Unavailable
        } else if m.starts_with(ABORTED) {
            ColzaError::IterationAborted
        } else if m.starts_with(QUOTA) {
            ColzaError::QuotaExceeded
        } else if m.starts_with(INVALID_SCRIPT) {
            ColzaError::InvalidScript
        } else {
            return None;
        };
        Some(variant(m.to_string()))
    }
}

impl From<margo::RpcError> for ColzaError {
    fn from(e: margo::RpcError) -> Self {
        if let margo::RpcError::Handler(m) = &e {
            if let Some(typed) = ColzaError::from_reply(m) {
                return typed;
            }
        }
        if e.is_retryable() {
            ColzaError::Unavailable(e.to_string())
        } else {
            ColzaError::Rpc(e.to_string())
        }
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ColzaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_errors_round_trip_through_the_reply_string() {
        let cases = [
            (ColzaError::draining(), DRAINING.to_string()),
            (
                ColzaError::IterationAborted("iteration 3 collective revoked".into()),
                format!("{ABORTED}: iteration 3 collective revoked"),
            ),
            (
                ColzaError::QuotaExceeded("tenant \"t\" holds 9 staged bytes, quota 8".into()),
                format!("{QUOTA}: tenant \"t\" holds 9 staged bytes, quota 8"),
            ),
            (
                ColzaError::InvalidScript("bad trigger".into()),
                format!("{INVALID_SCRIPT}: bad trigger"),
            ),
        ];
        for (err, wire) in cases {
            assert_eq!(err.to_reply(), wire);
            let decoded = ColzaError::from_reply(&wire).expect("marker classifies");
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&err),
                "{wire:?} decoded to the wrong variant"
            );
            // The decoded error carries the whole reply, so re-encoding
            // it — and what the RPC layer hands the client — is stable.
            assert_eq!(decoded.to_reply(), wire);
            assert_eq!(ColzaError::from(margo::RpcError::Handler(wire)), decoded);
        }
    }

    #[test]
    fn a_marker_in_the_middle_of_a_message_does_not_classify() {
        for marker in [DRAINING, ABORTED, QUOTA, INVALID_SCRIPT] {
            let text = format!("backend failed: {marker}: details");
            assert_eq!(ColzaError::from_reply(&text), None);
            assert!(matches!(
                ColzaError::from(margo::RpcError::Handler(text.clone())),
                ColzaError::Rpc(_)
            ));
            // An untyped error stays plain text on the way out, too.
            assert_eq!(
                ColzaError::Pipeline(text.clone()).to_reply(),
                format!("pipeline error: {text}")
            );
        }
    }
}
