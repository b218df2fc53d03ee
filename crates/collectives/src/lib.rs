//! # cannikin-collectives — pluggable collective communication
//!
//! Functional (numerically real) collectives for data-parallel training:
//! the subset of NCCL that PyTorch DistributedDataParallel needs for the
//! paper's batch-ratio-weighted aggregation. Each is written once against
//! the [`Transport`] trait and runs unchanged over either in-tree backend
//! — `std::sync::mpsc` channels between OS threads
//! ([`TransportKind::InProcess`]) or real localhost TCP sockets with
//! length-prefixed frames ([`TransportKind::Tcp`]); results are bitwise
//! identical across backends. The entry points:
//!
//! - [`Communicator::exchange`] — the gradient exchange of Eq. (9),
//!   `g = Σᵢ rᵢ gᵢ`, over the bandwidth-optimal ring all-reduce
//!   (reduce-scatter followed by all-gather, `2(n−1)` chunk transfers per
//!   rank). Payloads travel through a per-group [`Codec`] (bf16 / f16
//!   quantization or top-k sparsification, raw `f32` by default); pass the
//!   rank's [`ErrorFeedback`] residual — with a bucket offset when
//!   reducing bucket by bucket, as DDP does to overlap synchronization
//!   with backpropagation (§3.2.3 of the paper) — so convergence tracks
//!   the uncompressed trajectory. Pass a [`RetryPolicy`] to arm
//!   per-receive timeouts, the deterministic injected failures of a shared
//!   [`CommFaultPlan`], bounded retry with seeded-jitter exponential
//!   backoff, and restore-on-error. Every failure is a typed
//!   [`CommError`].
//! - [`Communicator::gather`] — the `f64` all-gather for metric collection.
//! - [`Communicator::weighted_all_reduce_ef`] and
//!   [`Communicator::all_gather_vec`] — the same two operations, panicking
//!   instead of returning the error. Kept solely for the frozen benchmark
//!   (`crates/benchmark/src/real.rs`); everything else calls `exchange`
//!   and `gather`.
//!
//! Every rank runs on its own thread and owns one [`Communicator`]; the
//! group is created up front with [`CommGroup::create`] (in-process) or
//! the backend-polymorphic [`CommGroup::with_kind`] /
//! [`CommGroup::with_options`] driven by a [`TransportKind`]. All
//! collectives must be called by every rank in the same order (the usual
//! SPMD contract).
//!
//! ## Example
//!
//! ```
//! use cannikin_collectives::CommGroup;
//! use std::thread;
//!
//! let comms = CommGroup::create(3);
//! let handles: Vec<_> = comms
//!     .into_iter()
//!     .map(|comm| {
//!         thread::spawn(move || {
//!             let mut data = vec![(comm.rank() + 1) as f32; 4];
//!             comm.exchange(&mut data, 1.0, None, None).expect("ring stays connected");
//!             data
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap(), vec![6.0; 4]); // 1 + 2 + 3
//! }
//! ```

pub mod codec;
mod resilience;
mod ring;
pub mod tcp;
pub mod transport;

pub use codec::{Codec, ErrorFeedback, ParseCodecError};
pub use resilience::{CommError, CommFaultPlan, RetryPolicy};
pub use ring::{CommGroup, Communicator};
pub use tcp::{Rendezvous, TcpTransport};
pub use transport::{InProcessTransport, Transport, TransportKind};

/// Partition `total` gradient elements into `buckets` contiguous bucket
/// ranges, mirroring DDP's fixed-capacity gradient buckets. The last bucket
/// absorbs the remainder, so bucket sizes differ by at most `total %
/// buckets`.
///
/// # Panics
///
/// Panics if `buckets == 0`.
///
/// # Examples
///
/// ```
/// let ranges = cannikin_collectives::bucket_ranges(10, 3);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
/// ```
pub fn bucket_ranges(total: usize, buckets: usize) -> Vec<std::ops::Range<usize>> {
    assert!(buckets > 0, "bucket count must be positive");
    let buckets = buckets.min(total.max(1));
    let base = total / buckets;
    let mut out = Vec::with_capacity(buckets);
    let mut start = 0;
    for b in 0..buckets {
        let end = if b + 1 == buckets { total } else { start + base };
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 100, 1023] {
            for buckets in [1usize, 2, 3, 25] {
                let ranges = bucket_ranges(total, buckets);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, total, "total {total} buckets {buckets}");
            }
        }
    }

    #[test]
    fn bucket_count_never_exceeds_elements() {
        let ranges = bucket_ranges(2, 10);
        assert_eq!(ranges.len(), 2);
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_rejected() {
        let _ = bucket_ranges(10, 0);
    }
}
