//! Thread budget for the compute kernels.
//!
//! The matmul kernels in [`crate::tensor::matmul`] parallelize over output
//! rows. How many OS threads they may use is decided here, in three layers:
//!
//! 1. `CANNIKIN_THREADS` (read once per process) caps the whole process;
//!    it defaults to the machine's available parallelism.
//! 2. A thread-local *budget override* installed with [`ThreadBudgetGuard`]
//!    (or the [`with_threads`] closure form) caps the current thread. The
//!    data-parallel `ParallelTrainer` installs one per replica thread so
//!    `R` replicas each get `max(1, CANNIKIN_THREADS / R)` kernel threads
//!    instead of all of them — nested parallelism must divide the machine,
//!    not multiply over it (see [`replica_share`]).
//! 3. The kernels themselves shrink the budget further when the matrix is
//!    too small for the fan-out to pay for itself.

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable controlling the process-wide kernel thread cap.
pub const THREADS_ENV: &str = "CANNIKIN_THREADS";

static CONFIGURED: OnceLock<usize> = OnceLock::new();

thread_local! {
    static BUDGET_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Process-wide kernel thread cap: `CANNIKIN_THREADS` if set to a positive
/// integer, otherwise the available parallelism (1 when undetectable). The
/// environment is read once; later changes to the variable have no effect.
pub fn configured_threads() -> usize {
    *CONFIGURED.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
}

/// The thread budget kernels launched from the *current* thread may use:
/// the innermost [`ThreadBudgetGuard`] override, or [`configured_threads`]
/// when none is installed. Always at least 1.
pub fn effective_threads() -> usize {
    BUDGET_OVERRIDE.with(|c| c.get()).unwrap_or_else(configured_threads).max(1)
}

/// Fair per-replica kernel thread budget when `replicas` trainer threads
/// run concurrently: `max(1, configured / replicas)`.
pub fn replica_share(replicas: usize) -> usize {
    (configured_threads() / replicas.max(1)).max(1)
}

/// RAII override of the current thread's kernel thread budget.
///
/// Install one at the top of a worker thread that itself runs many siblings
/// (e.g. a data-parallel replica) so the matmul kernels underneath it only
/// use this thread's fair share of the machine. Guards nest; dropping one
/// restores the previous budget.
///
/// # Examples
///
/// ```
/// use minidnn::tensor::threads::{effective_threads, ThreadBudgetGuard};
///
/// let outer = effective_threads();
/// {
///     let _guard = ThreadBudgetGuard::new(1);
///     assert_eq!(effective_threads(), 1);
/// }
/// assert_eq!(effective_threads(), outer);
/// ```
#[derive(Debug)]
pub struct ThreadBudgetGuard {
    previous: Option<usize>,
}

impl ThreadBudgetGuard {
    /// Cap kernels launched from this thread at `threads` (floored to 1)
    /// until the guard drops.
    pub fn new(threads: usize) -> Self {
        let previous = BUDGET_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
        ThreadBudgetGuard { previous }
    }
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        BUDGET_OVERRIDE.with(|c| c.set(self.previous));
    }
}

/// Run `f` with the kernel thread budget capped at `threads` — the closure
/// form of [`ThreadBudgetGuard`], used by tests and benches to pin the
/// serial and threaded paths regardless of `CANNIKIN_THREADS`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ThreadBudgetGuard::new(threads);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn guard_overrides_and_restores() {
        let base = effective_threads();
        with_threads(3, || {
            assert_eq!(effective_threads(), 3);
            with_threads(1, || assert_eq!(effective_threads(), 1));
            assert_eq!(effective_threads(), 3);
        });
        assert_eq!(effective_threads(), base);
    }

    #[test]
    fn zero_budget_floors_to_one() {
        with_threads(0, || assert_eq!(effective_threads(), 1));
    }

    #[test]
    fn replica_share_divides_fairly() {
        let t = configured_threads();
        assert_eq!(replica_share(1), t);
        assert!(replica_share(t + 1) >= 1);
        assert!(replica_share(2) >= t / 2);
    }

    #[test]
    fn override_is_thread_local() {
        with_threads(2, || {
            let inner = std::thread::spawn(effective_threads).join().unwrap();
            assert_eq!(inner, configured_threads());
        });
    }
}
