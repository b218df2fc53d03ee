//! A simulated step allocates what it returns and nothing else.
//!
//! The counting allocator is process-wide, which is why this test has a
//! binary to itself and a single `#[test]`: nothing else may run while the
//! window is open. The step runs a few hundred thousand times per fleet
//! trace, so a temporary per node or per bucket is the whole cost of it.

use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
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

/// Allocator calls per warm `simulate_batch` and per warm
/// `simulate_microbatch` on `n` nodes and `buckets` gradient buckets.
fn allocations_per_step(n: usize, buckets: usize) -> (usize, usize) {
    let gpus = [Gpu::A100, Gpu::V100, Gpu::Rtx6000];
    let nodes = (0..n).map(|i| NodeSpec::new(format!("n{i}"), gpus[i % 3])).collect();
    let mut job = JobSpec::resnet18_cifar10();
    job.num_buckets = buckets;
    let mut sim = Simulator::new(ClusterSpec::new("alloc", nodes), job, 7).with_stragglers(0.05, 3.0);
    let local = vec![16u64; n];
    let mut count = |step: &mut dyn FnMut(&mut Simulator)| {
        step(&mut sim);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..MEASURED {
            step(&mut sim);
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocated % MEASURED, 0, "every warm step allocates alike");
        allocated / MEASURED
    };
    let batch = count(&mut |sim| drop(std::hint::black_box(sim.simulate_batch(&local))));
    let micro = count(&mut |sim| drop(std::hint::black_box(sim.simulate_microbatch(&local))));
    (batch, micro)
}

#[test]
fn a_warm_step_allocates_only_what_it_returns() {
    for (n, buckets) in [(2usize, 1usize), (16, 24)] {
        let (batch, micro) = allocations_per_step(n, buckets);
        assert_eq!(batch, 2, "simulate_batch at (n, K) = ({n}, {buckets}): observations and bucket ends");
        assert_eq!(micro, 1, "simulate_microbatch at n = {n}: observations");
    }
}
