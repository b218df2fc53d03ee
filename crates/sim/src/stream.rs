//! The window a fault-free run of steps streams through
//! ([`Simulator::simulate_run_on`]).
//!
//! The run is cut into contiguous parts of whole steps. Every thread — the
//! caller's and the scoped workers — claims the next part from one
//! counter, but only while it lies within `window` parts of the next part
//! the caller will visit. So at most `window` parts exist at once: their
//! traces are allocated once, on the caller, and slot `p % window` is
//! refilled in place by whichever thread claims part `p`. A thread starts a
//! part from its own copy of the run's starting generator, stepped forward
//! by the words of the steps since the last part it ran. The caller visits
//! the parts in order, checks each one's start against the end of the part
//! before it, and simulates a part itself whenever the next one is not
//! ready. A thread with nothing it may do yields, then sleeps until a part
//! is filled or visited.

use crate::event::{Simulator, PART_NODE_BATCHES, WINDOW_PARTS_PER_THREAD};
use crate::trace::BatchTrace;

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Yields a waiting thread makes before it sleeps; by then the part it
/// waits on (30–40 µs of simulation) is usually done.
const YIELDS: usize = 100;

/// What every thread of a run draws with.
pub(crate) struct Draw<'a> {
    pub(crate) sim: &'a Simulator,
    pub(crate) local: &'a [u64],
    /// The generator the run starts in.
    pub(crate) start: &'a StdRng,
    /// Generator words one step draws.
    pub(crate) words: usize,
}

impl Draw<'_> {
    /// Empty traces for `steps` steps, for a part to be filled into or
    /// copied into in place.
    fn shells(&self, steps: usize) -> Vec<BatchTrace> {
        (0..steps).map(|_| self.sim.shell()).collect()
    }
}

/// A thread's own generator and the step of the run it stands at.
struct Cursor {
    rng: StdRng,
    at: usize,
}

/// One part's place in the window.
struct Slot {
    /// `p + 1` once part `p`'s traces are complete here; 0 before any.
    filled: AtomicUsize,
    part: Mutex<Part>,
}

struct Part {
    traces: Vec<BatchTrace>,
    /// The generator the part began in.
    begin: StdRng,
    /// The generator the part ended in.
    end: StdRng,
}

enum Claim {
    Part(usize),
    /// The next part lies beyond the window.
    Full,
    /// Every part is claimed.
    Done,
}

/// One fault-free run of steps: its sizing, its window and the counters
/// its threads share.
pub(crate) struct Run {
    pub(crate) threads: usize,
    steps: usize,
    /// Steps per part; the last part may hold fewer.
    part: usize,
    parts: usize,
    slots: Vec<Slot>,
    /// The next part to claim.
    claimed: AtomicUsize,
    /// The next part to visit: every part before it is done with.
    visited: AtomicUsize,
    /// Set when a thread of the run panics, so no other waits for it.
    halted: AtomicBool,
    /// Threads asleep on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Run {
    /// Sizes the run — parts of [`PART_NODE_BATCHES`] node-batches rounded
    /// down to whole steps, at most `threads` threads, a window of
    /// [`WINDOW_PARTS_PER_THREAD`] parts per thread (one part alone) — and
    /// allocates its window on this thread.
    pub(crate) fn new(draw: &Draw<'_>, threads: usize, steps: usize) -> Run {
        let part = (PART_NODE_BATCHES / draw.local.len()).clamp(1, steps);
        let parts = steps.div_ceil(part);
        let threads = threads.min(parts);
        let window = if threads == 1 { 1 } else { (WINDOW_PARTS_PER_THREAD * threads).min(parts) };
        let slots = (0..window)
            .map(|_| Slot {
                filled: AtomicUsize::new(0),
                part: Mutex::new(Part {
                    traces: draw.shells(part),
                    begin: draw.start.clone(),
                    end: draw.start.clone(),
                }),
            })
            .collect();
        Run {
            threads,
            steps,
            part,
            parts,
            slots,
            claimed: AtomicUsize::new(0),
            visited: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The caller's side: visits every step in order, simulating a part
    /// whenever the next one is not ready. Returns the generator the run
    /// ends in, or `None` if a worker panicked.
    pub(crate) fn visit_all(&self, draw: &Draw<'_>, visit: &mut dyn FnMut(&BatchTrace)) -> Option<StdRng> {
        let _halt = HaltOnPanic(self);
        let mut cursor = Cursor { rng: draw.start.clone(), at: 0 };
        let mut end = draw.start.clone();
        // With workers, each part is copied into the caller's own traces
        // and its slot released before the visit. A bulk copy pulls a part
        // filled on another core across with many loads in flight, where
        // the fold, stalled on its divisions, pulls it a line at a time: on
        // the two-core host this was sized on, the analyzer's fold of a
        // 16-node step fell from 1.16 to 0.50 µs with it (0.39 µs when one
        // thread fills and folds alike).
        let mut own: Vec<BatchTrace> = if self.threads == 1 { Vec::new() } else { draw.shells(self.part) };
        for v in 0..self.parts {
            let slot = self.slot(v);
            let ready = || slot.filled.load(SeqCst) == v + 1;
            while !ready() {
                match self.claim() {
                    Claim::Part(p) => self.fill(draw, &mut cursor, p),
                    Claim::Full | Claim::Done => self.wait(ready),
                }
                if self.halted.load(SeqCst) {
                    return None;
                }
            }
            let part = lock(&slot.part);
            let len = self.len(v);
            if self.threads == 1 {
                for batch in &part.traces[..len] {
                    visit(batch);
                }
            } else {
                self.check_seam(draw, v, &part, &end);
                for (mine, filled) in own.iter_mut().zip(&part.traces[..len]) {
                    mine.observations.clone_from(&filled.observations);
                    mine.bucket_sync_end.clone_from(&filled.bucket_sync_end);
                    mine.batch_time = filled.batch_time;
                }
            }
            end.clone_from(&part.end);
            drop(part);
            self.visited.store(v + 1, SeqCst);
            self.notify();
            if self.threads > 1 {
                for batch in &own[..len] {
                    visit(batch);
                }
            }
        }
        Some(end)
    }

    /// Panics naming the part and the run unless part `v` starts where the
    /// part before it ended (`end`). Which thread ran which part is up to
    /// the scheduler, so the word count every skip rests on is checked on
    /// the first part: it must end where a counted walk from the start does.
    fn check_seam(&self, draw: &Draw<'_>, v: usize, part: &Part, end: &StdRng) {
        let seamless = if v == 0 {
            let mut counted = draw.start.clone();
            for _ in 0..self.part * draw.words {
                counted.next_u64();
            }
            counted == part.end
        } else {
            part.begin == *end
        };
        let q = v.max(1);
        assert!(
            seamless,
            "noise-stream seam mismatch at part {q} of the run of {} steps ({} nodes, {} threads): \
             the part from step {} does not start where the one before it ended",
            self.steps,
            draw.local.len(),
            self.threads,
            q * self.part,
        );
    }

    /// A worker's side: simulates the parts it claims until none is left.
    pub(crate) fn work(&self, draw: &Draw<'_>) {
        let _halt = HaltOnPanic(self);
        let mut cursor = Cursor { rng: draw.start.clone(), at: 0 };
        while !self.halted.load(SeqCst) {
            match self.claim() {
                Claim::Part(p) => self.fill(draw, &mut cursor, p),
                Claim::Full => self.wait(|| !matches!(self.peek(), Claim::Full)),
                Claim::Done => return,
            }
        }
    }

    fn slot(&self, p: usize) -> &Slot {
        &self.slots[p % self.slots.len()]
    }

    /// Steps in part `p`.
    fn len(&self, p: usize) -> usize {
        self.part.min(self.steps - p * self.part)
    }

    /// What [`Run::claim`] would claim now. A part within the window has
    /// its slot free: the part before it there has been visited.
    fn peek(&self) -> Claim {
        let next = self.claimed.load(SeqCst);
        if next >= self.parts {
            Claim::Done
        } else if next >= self.visited.load(SeqCst) + self.slots.len() {
            Claim::Full
        } else {
            Claim::Part(next)
        }
    }

    fn claim(&self) -> Claim {
        loop {
            match self.peek() {
                Claim::Part(p) => {
                    if self.claimed.compare_exchange(p, p + 1, SeqCst, SeqCst).is_ok() {
                        return Claim::Part(p);
                    }
                }
                other => return other,
            }
        }
    }

    /// Simulates part `p` into its slot from `cursor`, stepped forward to
    /// the part's first step.
    fn fill(&self, draw: &Draw<'_>, cursor: &mut Cursor, p: usize) {
        let slot = self.slot(p);
        let from = p * self.part;
        {
            let part = &mut *lock(&slot.part);
            for _ in 0..(from - cursor.at) * draw.words {
                cursor.rng.next_u64();
            }
            part.begin.clone_from(&cursor.rng);
            let len = self.len(p);
            draw.sim.run_steps(&mut cursor.rng, draw.local, &mut part.traces[..len]);
            part.end.clone_from(&cursor.rng);
            cursor.at = from + len;
        }
        slot.filled.store(p + 1, SeqCst);
        self.notify();
    }

    /// Returns once `ready()` holds or the run halted: yields first, then
    /// sleeps until a part is filled or visited.
    fn wait(&self, ready: impl Fn() -> bool) {
        let done = || ready() || self.halted.load(SeqCst);
        for _ in 0..YIELDS {
            if done() {
                return;
            }
            thread::yield_now();
        }
        let mut guard = lock(&self.lock);
        self.sleepers.fetch_add(1, SeqCst);
        while !done() {
            guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wakes the sleepers after a part was filled or visited. A sleeper
    /// counts itself and checks under the lock before it sleeps, so either
    /// it sees the change or this sees it.
    fn notify(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            let _guard = lock(&self.lock);
            self.wake.notify_all();
        }
    }
}

/// Halts the run if its thread unwinds, so no other waits for a part or a
/// visit that will never come.
struct HaltOnPanic<'a>(&'a Run);

impl Drop for HaltOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let run = self.0;
            run.halted.store(true, SeqCst);
            let _guard = lock(&run.lock);
            run.wake.notify_all();
        }
    }
}

/// Locks a slot or the sleepers' lock. A part whose thread panicked is
/// never marked filled and the run halts, so a poisoned lock guards
/// nothing that is read.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
