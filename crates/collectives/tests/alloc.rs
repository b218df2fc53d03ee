//! A steady-state gradient exchange allocates (next to) nothing.
//!
//! The counting allocator is process-wide, which is why this test has a
//! binary to itself: nothing else may run while the window is open. What
//! is left under the bound is the ring's chunk table and, in process, the
//! channel's next block of slots; a frame, a decoded chunk or a copy of
//! the bucket would be hundreds of kilobytes to megabytes.

use cannikin_collectives::{Codec, CommGroup, ErrorFeedback, TransportKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `real-comm`'s model: mlp(256, 1024, 10).
const PARAMS: usize = 1_323_018;
const RANKS: usize = 3;
const MEASURED: usize = 4;

/// Bytes allocated per rank per unarmed whole-gradient exchange, by all
/// ranks together, once two calls have warmed the frame buffers up.
fn steady_state_bytes_per_exchange(kind: &TransportKind, codec: Codec) -> usize {
    let comms = CommGroup::with_options(RANKS, kind, None, codec).expect("group forms");
    let window = Arc::new(Barrier::new(RANKS + 1));
    let ranks: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let window = Arc::clone(&window);
            thread::spawn(move || {
                let mut feedback = ErrorFeedback::new(PARAMS);
                let mut g: Vec<f32> = (0..PARAMS).map(|i| ((i * 31 + c.rank() * 17) as f32).sin()).collect();
                let mut exchange = |times: usize| {
                    for _ in 0..times {
                        c.exchange(&mut g, 0.25, Some((&mut feedback, 0)), None).expect("ring stays connected");
                    }
                };
                exchange(2);
                window.wait();
                exchange(MEASURED);
                window.wait();
            })
        })
        .collect();
    window.wait();
    let before = ALLOCATED.load(Ordering::Relaxed);
    window.wait();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    for rank in ranks {
        rank.join().expect("rank panicked");
    }
    allocated / (RANKS * MEASURED)
}

#[test]
fn steady_state_exchange_allocates_under_4_kib() {
    for (kind, codec) in [(TransportKind::tcp(), Codec::Bf16), (TransportKind::InProcess, Codec::None)] {
        let bytes = steady_state_bytes_per_exchange(&kind, codec);
        assert!(bytes < 4096, "{codec} over {kind}: {bytes} bytes allocated per exchange");
        println!("{codec} over {kind}: {bytes} bytes allocated per exchange");
    }
}
