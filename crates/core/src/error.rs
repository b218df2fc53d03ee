//! Error type for `cannikin-core`.

use cannikin_collectives::CommError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the Cannikin solver, estimators and engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CannikinError {
    /// The requested total batch size cannot be split across the cluster
    /// (e.g. smaller than the node count, or larger than the sum of memory
    /// caps).
    InfeasibleBatch {
        /// Requested total batch size.
        total: u64,
        /// Why it cannot be satisfied.
        reason: String,
    },
    /// Not enough observations to build a model (fewer than two distinct
    /// local batch sizes seen on some node).
    ModelNotReady {
        /// Node that lacks data.
        node: usize,
    },
    /// A linear system arising in the solver or the Theorem 4.1 weighting
    /// was singular.
    SingularSystem(&'static str),
    /// An estimator received invalid inputs (e.g. a local batch equal to
    /// the global batch, for which Eq. (10) is undefined).
    InvalidEstimate(String),
    /// A builder option was rejected before any training ran (batch
    /// smaller than the node count, …).
    InvalidConfig(String),
    /// The collective layer failed (socket setup, dropped peer, exhausted
    /// retries). Wraps the transport's [`CommError`] so engine recovery
    /// paths can use `?`.
    Comm(CommError),
}

impl fmt::Display for CannikinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CannikinError::InfeasibleBatch { total, reason } => {
                write!(f, "total batch {total} is infeasible: {reason}")
            }
            CannikinError::ModelNotReady { node } => {
                write!(f, "performance model not ready for node {node}")
            }
            CannikinError::SingularSystem(what) => write!(f, "singular linear system in {what}"),
            CannikinError::InvalidEstimate(msg) => write!(f, "invalid estimate: {msg}"),
            CannikinError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CannikinError::Comm(e) => write!(f, "collective communication failed: {e}"),
        }
    }
}

impl Error for CannikinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CannikinError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for CannikinError {
    fn from(e: CommError) -> Self {
        CannikinError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CannikinError::InfeasibleBatch { total: 3, reason: "4 nodes".into() };
        assert!(e.to_string().contains("infeasible"));
        assert!(CannikinError::ModelNotReady { node: 2 }.to_string().contains("node 2"));
        assert!(CannikinError::SingularSystem("gns").to_string().contains("gns"));
    }

    #[test]
    fn comm_errors_convert_and_chain() {
        let comm = CommError::Dropped { rank: 1 };
        let e: CannikinError = comm.clone().into();
        assert_eq!(e, CannikinError::Comm(comm));
        assert!(e.to_string().contains("rank 1"));
        assert!(e.source().is_some(), "wrapped comm error must be the source");
        assert!(CannikinError::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CannikinError>();
    }
}
