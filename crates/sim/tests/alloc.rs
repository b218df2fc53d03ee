//! A simulated step allocates what it returns and nothing else, and a
//! streamed run allocates its window once, on the caller's thread, whatever
//! its length: neither the caller nor a worker allocates per step.
//!
//! The counting allocator is process-wide, which is why this test has a
//! binary to itself and a single `#[test]`: nothing else may run while the
//! count is open. The step runs a few hundred thousand times per fleet
//! trace, so a temporary per node or per bucket is the whole cost of it.

use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::event::{PART_NODE_BATCHES, WINDOW_PARTS_PER_THREAD};
use hetsim::job::JobSpec;
use hetsim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MEASURED: usize = 50;

fn simulator(n: usize, buckets: usize) -> Simulator {
    let gpus = [Gpu::A100, Gpu::V100, Gpu::Rtx6000];
    let nodes = (0..n).map(|i| NodeSpec::new(format!("n{i}"), gpus[i % 3])).collect();
    let mut job = JobSpec::resnet18_cifar10();
    job.num_buckets = buckets;
    Simulator::new(ClusterSpec::new("alloc", nodes), job, 7).with_stragglers(0.05, 3.0)
}

/// Allocator calls per warm call of `call`, which must allocate alike
/// every time.
fn allocations_per_call(sim: &mut Simulator, mut call: impl FnMut(&mut Simulator)) -> usize {
    call(sim);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        call(sim);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated % MEASURED, 0, "every warm call allocates alike");
    allocated / MEASURED
}

#[test]
fn a_warm_step_allocates_only_what_it_returns() {
    for (n, buckets) in [(2usize, 1usize), (16, 24)] {
        let mut sim = simulator(n, buckets);
        let local = vec![16u64; n];
        let batch = allocations_per_call(&mut sim, |sim| drop(std::hint::black_box(sim.simulate_batch(&local))));
        assert_eq!(batch, 2, "simulate_batch at (n, K) = ({n}, {buckets}): observations and bucket ends");

        // A run allocates its window once: no more for a run eight times
        // the window than for one twice it, so a temporary per step fails
        // here whether the caller's thread or a worker makes it.
        let part = (PART_NODE_BATCHES / n).max(1);
        for threads in [1usize, 2, 3] {
            let window = if threads == 1 { 1 } else { WINDOW_PARTS_PER_THREAD * threads };
            let [short, long] = [2, 8].map(|windows| {
                allocations_per_call(&mut sim, |sim| {
                    sim.simulate_run_on(threads, &local, windows * window * part, |batch| {
                        std::hint::black_box(batch);
                    });
                })
            });
            assert_eq!(short, long, "a run on {threads} threads at (n, K) = ({n}, {buckets}) allocates per step");
            // The window's traces and their slots' list; with workers also
            // the part of traces the caller visits from, the scope and the
            // handles, and per worker what `spawn` allocates (three, five
            // while the test harness captures output). Workers allocate no
            // trace: the caller makes them all.
            let parts = if threads == 1 { window } else { window + 1 };
            let traces = parts * (1 + part * batch);
            let bound = traces + if threads == 1 { 1 } else { 3 + 5 * (threads - 1) };
            assert!(short <= bound, "a run on {threads} threads allocates {short} times, more than {bound}");
        }
    }
}
