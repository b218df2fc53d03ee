//! Timeouts, typed errors and retry-with-backoff for the ring collectives.
//!
//! The vocabulary of the fault-tolerant side of
//! [`Communicator::exchange`](crate::Communicator::exchange):
//!
//! - [`CommError`] — a typed error instead of a panic: receive timeout,
//!   disconnected peer, malformed frame, or an exhausted retry budget;
//! - [`RetryPolicy`] — bounded attempts with exponential backoff, jittered
//!   from a caller-seeded RNG so reruns are reproducible;
//! - [`CommFaultPlan`] — deterministic *injected* failures keyed by the
//!   exchange sequence number. The plan is shared (via `Arc`) by every
//!   rank of a group, and each rank's communicator counts retry-armed
//!   exchanges identically, so all ranks decide "this attempt fails"
//!   in lockstep — injected faults can never desynchronize the SPMD
//!   schedule. Injected failures abort *before* any data exchange, so
//!   retries never double-apply gradient scaling.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Typed failure of a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive did not complete within the policy's timeout.
    Timeout {
        /// Rank that observed the timeout.
        rank: usize,
        /// How long it waited, ms.
        waited_ms: u64,
    },
    /// A ring peer's endpoint was dropped (crashed rank).
    Dropped {
        /// Rank that observed the disconnect.
        rank: usize,
    },
    /// Every attempt allowed by the [`RetryPolicy`] failed.
    RetriesExhausted {
        /// Attempts consumed (== the policy's `max_attempts`).
        attempts: u32,
    },
    /// A transport-level I/O failure (socket setup, malformed frame, …).
    Io {
        /// Rank that observed the failure.
        rank: usize,
        /// Human-readable context from the transport.
        detail: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { rank, waited_ms } => {
                write!(f, "rank {rank}: collective receive timed out after {waited_ms} ms")
            }
            CommError::Dropped { rank } => write!(f, "rank {rank}: ring peer disconnected"),
            CommError::RetriesExhausted { attempts } => {
                write!(f, "collective failed after {attempts} attempts")
            }
            CommError::Io { rank, detail } => write!(f, "rank {rank}: transport I/O error: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Bounded retry with exponential, seeded-jitter backoff.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be >= 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff · 2^(k-1)`,
    /// jittered, capped at `max_backoff`.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Uniform jitter fraction: the backoff is scaled by a factor drawn
    /// from `[1, 1 + jitter]`.
    pub jitter: f64,
    /// Receive timeout of each attempt.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
            timeout: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff to sleep before retry `attempt` (1-based
    /// count of *failed* attempts so far).
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = 1u64 << u64::from(attempt.saturating_sub(1).min(20));
        let base = self.base_backoff.as_secs_f64() * exp as f64;
        let jittered = base * (1.0 + self.jitter * rng.random::<f64>());
        Duration::from_secs_f64(jittered.min(self.max_backoff.as_secs_f64()))
    }
}

/// Deterministic injected-failure schedule, keyed by the group-wide
/// sequence number of retry-armed exchanges (0 for the first one after
/// group creation or [`Communicator::restart_sequence`](crate::Communicator::restart_sequence),
/// 1 for the next, …).
#[derive(Debug, Clone, Default)]
pub struct CommFaultPlan {
    fail: BTreeMap<u64, u32>,
}

impl CommFaultPlan {
    /// An empty plan (no injected failures).
    pub fn new() -> Self {
        CommFaultPlan::default()
    }

    /// Make the first `attempts` tries of collective `seq` fail.
    #[must_use]
    pub fn fail_at(mut self, seq: u64, attempts: u32) -> Self {
        self.fail.insert(seq, attempts);
        self
    }

    /// Named scenario constructor for the bench matrix: a lossy link that
    /// makes each of the first `collectives` exchanges fail once with
    /// probability `prob` (always recoverable by a single retry). The
    /// codec-under-loss scenario drives compressed gradient exchanges
    /// through this plan to prove error-feedback state survives retries.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= prob < 1` (see [`CommFaultPlan::seeded`]).
    pub fn lossy(seed: u64, collectives: u64, prob: f64) -> Self {
        CommFaultPlan::seeded(seed, collectives, prob, 1)
    }

    /// A seeded random plan over the first `collectives` sequence numbers:
    /// each fails with probability `prob`, consuming 1..=`max_failures`
    /// attempts.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= prob < 1` and `max_failures >= 1`.
    pub fn seeded(seed: u64, collectives: u64, prob: f64, max_failures: u32) -> Self {
        assert!((0.0..1.0).contains(&prob), "failure probability must be in [0, 1)");
        assert!(max_failures >= 1, "need at least one failure to inject");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = CommFaultPlan::new();
        for seq in 0..collectives {
            if rng.random::<f64>() < prob {
                let extra = (rng.random::<f64>() * f64::from(max_failures)).floor() as u32;
                plan.fail.insert(seq, extra.clamp(1, max_failures));
            }
        }
        plan
    }

    /// Injected failing attempts for collective `seq` (0 = healthy).
    pub fn failures_at(&self, seq: u64) -> u32 {
        self.fail.get(&seq).copied().unwrap_or(0)
    }

    /// Number of collectives with at least one injected failure.
    pub fn len(&self) -> usize {
        self.fail.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(1));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(2));
        assert_eq!(policy.backoff(3, &mut rng), Duration::from_millis(4));
        assert_eq!(policy.backoff(4, &mut rng), Duration::from_millis(8));
        assert_eq!(policy.backoff(10, &mut rng), Duration::from_millis(8), "capped");
    }

    #[test]
    fn jitter_is_seed_deterministic_and_bounded() {
        let policy = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let draws = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=5).map(|a| policy.backoff(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        for (attempt, d) in draws(3).into_iter().enumerate() {
            let base = policy.base_backoff.as_secs_f64() * (1u64 << attempt) as f64;
            let upper = (base * 1.5).min(policy.max_backoff.as_secs_f64());
            assert!(d.as_secs_f64() >= base.min(policy.max_backoff.as_secs_f64()) - 1e-12);
            assert!(d.as_secs_f64() <= upper + 1e-12);
        }
    }

    #[test]
    fn seeded_plan_is_reproducible() {
        let a = CommFaultPlan::seeded(42, 100, 0.3, 3);
        let b = CommFaultPlan::seeded(42, 100, 0.3, 3);
        assert_eq!(a.fail, b.fail);
        assert!(!a.is_empty());
        assert!(a.len() > 10 && a.len() < 60, "{} failures of 100", a.len());
        for (&seq, &attempts) in &a.fail {
            assert!(seq < 100);
            assert!((1..=3).contains(&attempts));
        }
    }
}
