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
//!
//! It also reads the calling thread's CPU clock ([`thread_cpu_time`]),
//! which a replica charges its emulated slowdown on: the kernels run on
//! that thread, which computes the last row chunk of every fan-out itself
//! while its helpers compute the others, so its CPU time tracks how long
//! the replica's work takes on free cores, without the time the thread
//! spent waiting for one.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Duration;

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

/// CPU time the calling thread has consumed so far, from Linux's
/// `CLOCK_THREAD_CPUTIME_ID`: it advances while the thread runs and stands
/// still while it sleeps, blocks or waits in the run queue. `None` where
/// that clock is unavailable (another OS, or the call failing).
pub fn thread_cpu_time() -> Option<Duration> {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_long};
        /// `struct timespec` (`time_t` is a `long` on Linux).
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
        }
        const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
        let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` only writes one `timespec` through the
        // pointer, which is a live, exclusively borrowed local of that
        // layout.
        let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
        let secs = u64::try_from(now.tv_sec).ok()?;
        let nanos = u32::try_from(now.tv_nsec).ok()?;
        (status == 0).then(|| Duration::new(secs, nanos))
    }
    #[cfg(not(target_os = "linux"))]
    None
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

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_clock_runs_with_work_and_stands_still_in_sleep() {
        let cpu = || thread_cpu_time().expect("Linux has a thread CPU clock");
        let spin = std::time::Instant::now();
        let before = cpu();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let busy = cpu() - before;
        let wall = spin.elapsed();
        // Preemption can only take CPU from the loop, never add to it (up
        // to the two clocks' granularity), and a loaded host still gives
        // it some.
        let charged = format!("{wall:?} of busy loop charged {busy:?}");
        assert!(busy > Duration::ZERO && busy <= wall + Duration::from_micros(50), "{charged}");

        let before = cpu();
        std::thread::sleep(Duration::from_millis(30));
        let asleep = cpu() - before;
        assert!(asleep < Duration::from_millis(3), "a 30 ms sleep charged {asleep:?}");
    }
}
