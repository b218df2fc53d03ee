//! The ring collectives, each written once against the [`Transport`] trait.
//!
//! Two operations move data: [`Communicator::exchange`], the Eq. (9)
//! gradient exchange, and [`Communicator::gather`], the `f64` metric
//! all-gather. Neither touches a socket or a channel directly — they move
//! little-endian byte frames through whichever [`Transport`] backs the
//! group. Gradient chunks travel through the group's [`Codec`] (raw `f32`
//! frames by default) and metric gathers as uncompressed `f64` frames, so
//! results are bitwise identical across backends. Every frame is checked
//! before it is decoded: a malformed or mis-sized one is a
//! [`CommError::Io`], never a panic.

use crate::codec::{Codec, ErrorFeedback};
use crate::resilience::{CommError, CommFaultPlan, RetryPolicy};
use crate::tcp;
use crate::transport::{decode_f64, encode_f64, InProcessTransport, Transport, TransportKind};
use cannikin_telemetry::{self as telemetry, Event, FaultInjected, FaultKind, RecoveryAction, RecoveryKind};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Most payload bytes one gradient frame carries under an elementwise
/// codec. The ceiling is the socket: every rank of a ring writes before it
/// reads, so a loopback connection must take a whole frame with no reader
/// on the other end, and the largest the whole-chunk ring was measured to
/// survive is 4.0 MB (`tcp_wmem`'s default 4 MiB ceiling) — a quarter of
/// that. The floor is the scheduler: every frame is a blocking receive, a
/// point where the ranks wait on each other, and with more ranks than
/// cores each one costs a turn of the run queue (three ranks on two cores,
/// 1.32 M bf16 elements: 16 ms per exchange in 128 KiB frames, 12 ms in
/// whole 882 KB chunks; two ranks on two cores are fastest at 256 KiB to
/// 1 MiB). The unit tests run a ring with 4 KiB frames, which puts every
/// slice boundary at lengths a debug build reduces in milliseconds; the
/// integration tests run this one.
const SLICE_BYTES: usize = if cfg!(test) { 1 << 12 } else { 1 << 20 };

/// Most elements one frame of `codec` carries: [`SLICE_BYTES`] worth under
/// an elementwise codec, without limit under top-k, whose selection spans
/// the chunk.
fn slice_elems(codec: Codec) -> usize {
    codec.scalar_width().map_or(usize::MAX, |width| SLICE_BYTES / width)
}

/// Factory for a group of ring-connected [`Communicator`]s.
#[derive(Debug)]
pub struct CommGroup;

impl CommGroup {
    /// Create `n` communicators arranged in a ring over the in-process
    /// backend. Move each one onto its own thread.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn create(n: usize) -> Vec<Communicator> {
        Self::wrap(InProcessTransport::ring(n), None, Codec::None)
    }

    /// [`CommGroup::with_options`] with the lossless [`Codec::None`].
    ///
    /// # Errors
    ///
    /// As [`CommGroup::with_options`], which also panics if `n == 0`.
    pub fn with_kind(
        n: usize,
        kind: &TransportKind,
        plan: Option<CommFaultPlan>,
    ) -> Result<Vec<Communicator>, CommError> {
        Self::with_options(n, kind, plan, Codec::None)
    }

    /// Backend-polymorphic factory: build the group on whichever transport
    /// `kind` names, with one gradient [`Codec`] on every rank (mixed codecs
    /// would desynchronize frame formats mid-collective) and one shared
    /// injected-failure `plan`, consulted by every rank at the same sequence
    /// numbers so injected failures stay in SPMD lockstep.
    ///
    /// # Errors
    ///
    /// [`CommError::Io`] / [`CommError::Timeout`] if a TCP ring cannot
    /// form; the in-process backend cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_options(
        n: usize,
        kind: &TransportKind,
        plan: Option<CommFaultPlan>,
        codec: Codec,
    ) -> Result<Vec<Communicator>, CommError> {
        assert!(n > 0, "communicator group must have at least one rank");
        let plan = plan.map(Arc::new);
        Ok(match kind {
            TransportKind::InProcess => Self::wrap(InProcessTransport::ring(n), plan, codec),
            TransportKind::Tcp { rendezvous } => Self::wrap(tcp::tcp_ring(rendezvous, n)?, plan, codec),
        })
    }

    fn wrap<T: Transport + 'static>(
        ring: Vec<T>,
        plan: Option<Arc<CommFaultPlan>>,
        codec: Codec,
    ) -> Vec<Communicator> {
        ring.into_iter()
            .map(|t| Communicator::from_transport(Box::new(t), plan.clone()).with_codec(codec))
            .collect()
    }
}

/// One rank's endpoint in a ring-connected group.
///
/// All methods are collective: every rank of the group must call them in
/// the same order or the group deadlocks (the standard SPMD contract).
#[derive(Debug)]
pub struct Communicator {
    transport: Box<dyn Transport>,
    /// Count of *retry-armed* exchanges issued since creation or the last
    /// [`Communicator::restart_sequence`] — the key into the shared
    /// [`CommFaultPlan`]. Identical on every rank by the SPMD contract.
    seq: Cell<u64>,
    fault_plan: Option<Arc<CommFaultPlan>>,
    /// Wire format of gradient payloads ([`Codec::None`] = raw `f32`).
    codec: Codec,
    /// The one frame buffer every hop encodes into, sends from and
    /// receives into (see [`crate::transport`] on how it circulates).
    frame: RefCell<Vec<u8>>,
}

impl Communicator {
    /// Wrap a transport endpoint in a communicator. This is how custom
    /// [`Transport`] implementations join the collective layer.
    pub fn from_transport(
        transport: Box<dyn Transport>,
        fault_plan: Option<Arc<CommFaultPlan>>,
    ) -> Communicator {
        Communicator { transport, seq: Cell::new(0), fault_plan, codec: Codec::None, frame: RefCell::default() }
    }

    /// Install a gradient [`Codec`] (builder-style). Every rank of a group
    /// must use the same codec or frame formats desynchronize.
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> Communicator {
        self.codec = codec;
        self
    }

    /// The gradient codec this communicator puts on the wire.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// This rank's id, `0..world_size`.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the group.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// Cumulative bytes this rank has put on the wire (payload plus any
    /// backend framing overhead).
    pub fn bytes_sent(&self) -> u64 {
        self.transport.bytes_sent()
    }

    /// Cumulative bytes received from the wire.
    pub fn bytes_received(&self) -> u64 {
        self.transport.bytes_received()
    }

    /// Number the next retry-armed exchange 0 again. A group that outlives
    /// an epoch calls this on every rank at the epoch boundary, so
    /// [`CommFaultPlan`] keys keep meaning "the k-th exchange of the epoch".
    pub fn restart_sequence(&self) {
        self.seq.set(0);
    }

    /// The error for a frame that arrived but is not what the schedule needs.
    fn malformed(&self, detail: String) -> CommError {
        CommError::Io { rank: self.rank(), detail }
    }

    /// One hop of the ring: send `data[send]` to the next rank and fold
    /// what the previous rank sends into `data[recv]` — added when
    /// `accumulate`, overwriting otherwise.
    ///
    /// Under an elementwise codec each range travels as frames of at most
    /// [`SLICE_BYTES`], alternating *send a slice, receive a slice*: a
    /// connection never holds more than one unread slice (so no rank can
    /// block in a write that only a rank blocked in a write could drain),
    /// and the peer's next slice arrives while this one is reduced. Top-k
    /// selects across the whole chunk, so its chunk is one frame.
    fn hop(
        &self,
        data: &mut [f32],
        mut send: Range<usize>,
        mut recv: Range<usize>,
        accumulate: bool,
        deadline: Option<Duration>,
    ) -> Result<(), CommError> {
        let slice = slice_elems(self.codec);
        let malformed = |detail: String| self.malformed(format!("malformed gradient frame: {detail}"));
        let mut frame = self.frame.borrow_mut();
        while !send.is_empty() || !recv.is_empty() {
            if !send.is_empty() {
                let end = send.end.min(send.start.saturating_add(slice));
                self.codec.encode_into(&data[send.start..end], &mut frame);
                self.transport.send(&mut frame)?;
                send.start = end;
            }
            if !recv.is_empty() {
                let end = recv.end.min(recv.start.saturating_add(slice));
                self.transport.recv(&mut frame, deadline)?;
                let expected = end - recv.start;
                let elems = self.codec.frame_elems(&frame).map_err(malformed)?;
                if elems != expected {
                    return Err(self.malformed(format!(
                        "gradient chunk of {elems} elements where the ring schedule expects {expected}"
                    )));
                }
                self.codec.decode_onto(&frame, &mut data[recv.start..end], accumulate).map_err(malformed)?;
                recv.start = end;
            }
        }
        Ok(())
    }

    /// In-place sum all-reduce via ring reduce-scatter + all-gather — the
    /// one copy of the schedule.
    ///
    /// Every rank ends with the elementwise sum across ranks. The algorithm
    /// moves `2(n−1)/n` of the buffer per rank, the bandwidth-optimal
    /// schedule of Patarasuk & Yuan that NCCL implements. Each receive
    /// waits at most `deadline` (`None` = without limit). On error `data`
    /// holds partial sums.
    fn ring_all_reduce(&self, data: &mut [f32], deadline: Option<Duration>) -> Result<(), CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let rank = self.rank();
        let chunks = ring_chunks(data.len(), n);
        let chunk = |i: usize| chunks[i % n].clone();
        // Reduce-scatter: after step s, rank r holds the running sum of
        // chunk (r - s) for s+1 ranks.
        for s in 0..n - 1 {
            self.hop(data, chunk(rank + n - s), chunk(rank + n - s - 1), true, deadline)?;
        }
        // Re-quantize the chunk this rank owns before circulating it: the
        // local (unencoded) sum and the copies the other ranks decode must
        // be the same bits, or replicas drift apart under a lossy codec.
        self.codec.quantize(&mut data[chunk(rank + 1)]);
        // All-gather: circulate the fully reduced chunks.
        for s in 0..n - 1 {
            self.hop(data, chunk(rank + n - s + 1), chunk(rank + n - s), false, deadline)?;
        }
        Ok(())
    }

    /// [`Communicator::ring_all_reduce`] under the retry policy, if one is
    /// armed. Injected failures consume attempts *before* any data moves, so
    /// a failed attempt leaves the buffer untouched and every rank observes
    /// the identical failure schedule. Emits one `RecoveryAction` per retry
    /// and one `FaultInjected` per exchange that met injected failures.
    fn reduce_with_retry(
        &self,
        data: &mut [f32],
        retry: Option<(&RetryPolicy, &mut StdRng)>,
    ) -> Result<u32, CommError> {
        let Some((policy, rng)) = retry else {
            return self.ring_all_reduce(data, None).map(|()| 1);
        };
        assert!(policy.max_attempts >= 1, "retry policy must allow at least one attempt");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let injected = self.fault_plan.as_ref().map_or(0, |p| p.failures_at(seq));
        let failed = injected.min(policy.max_attempts);
        let mut backoff_total = Duration::ZERO;
        for attempt in 1..=failed {
            let backoff = policy.backoff(attempt, rng);
            telemetry::emit(Event::RecoveryAction(RecoveryAction {
                kind: RecoveryKind::CommRetry,
                node: None,
                step: seq,
                attempt,
                backoff_ns: backoff.as_nanos() as u64,
            }));
            std::thread::sleep(backoff);
            backoff_total += backoff;
        }
        let outcome = if failed < policy.max_attempts {
            self.ring_all_reduce(data, Some(policy.timeout))?;
            Ok(failed + 1)
        } else {
            Err(CommError::RetriesExhausted { attempts: policy.max_attempts })
        };
        if failed > 0 {
            let (kind, attempts) = match outcome {
                Ok(attempt) => (FaultKind::CommFailure, attempt),
                Err(_) => (FaultKind::CommTimeout, policy.max_attempts),
            };
            telemetry::emit(Event::FaultInjected(FaultInjected {
                kind,
                node: None,
                step: seq,
                attempts,
                magnitude: backoff_total.as_secs_f64(),
            }));
        }
        outcome
    }

    /// The gradient exchange of Eq. (9): every rank contributes `weight ·
    /// bucket` and receives `Σᵢ wᵢ · bucketᵢ`. With `wᵢ = bᵢ/B` this turns
    /// per-node *mean* gradients over unequal local batches into the exact
    /// global-batch mean gradient. Returns the 1-based attempt number that
    /// succeeded (always 1 without `retry`).
    ///
    /// `feedback` is the rank's [`ErrorFeedback`] residual and the offset
    /// of `bucket` within the flat gradient it covers (0 for the whole
    /// gradient). Under a lossy [`Codec`] the residual is added into the
    /// bucket before scaling, the scaled bucket is quantized locally, and
    /// what that dropped — `(scaled − quantized)/weight`, unscaled space, so
    /// it stays meaningful when the adaptive split changes `weight` —
    /// replaces the residual, all in one pass before the ring runs. Under
    /// [`Codec::None`] `feedback` is ignored.
    ///
    /// `retry` arms the fault-tolerant path: receives are bounded by the
    /// policy's timeout, the failures the group's [`CommFaultPlan`] injects
    /// at this exchange's sequence number are retried with the policy's
    /// backoff, and on any error both `bucket` and its window of the
    /// residual are restored to their pre-call contents from a snapshot, so
    /// a retried step re-enters clean — no gradient mass is dropped,
    /// double-fed or double-weighted. Without `retry` receives block and no
    /// snapshot is taken: an error leaves partial sums in `bucket` and the
    /// residual already advanced past a step that never completed, and the
    /// ring must be rebuilt — the caller discards both with the rank.
    ///
    /// # Errors
    ///
    /// [`CommError::RetriesExhausted`] when every attempt the policy allows
    /// was an injected failure; [`CommError::Timeout`], [`CommError::Dropped`]
    /// or [`CommError::Io`] at once on a *genuine* transport failure or a
    /// malformed frame (a gone peer cannot be retried at this layer — the
    /// group must be rebuilt).
    ///
    /// # Panics
    ///
    /// Panics if the policy allows zero attempts, or if `bucket` at its
    /// offset overruns the residual.
    pub fn exchange(
        &self,
        bucket: &mut [f32],
        weight: f32,
        feedback: Option<(&mut ErrorFeedback, usize)>,
        retry: Option<(&RetryPolicy, &mut StdRng)>,
    ) -> Result<u32, CommError> {
        let mut residual = feedback
            .filter(|_| self.codec.is_lossy())
            .map(|(feedback, offset)| feedback.window(offset, bucket.len()));
        let snapshot = retry.is_some().then(|| (bucket.to_vec(), residual.as_deref().map(<[f32]>::to_vec)));
        match &mut residual {
            Some(residual) => self.codec.quantize_with_feedback(bucket, residual, weight),
            None => bucket.iter_mut().for_each(|v| *v *= weight),
        }
        let outcome = self.reduce_with_retry(bucket, retry);
        if let (Err(_), Some((bucket_was, residual_was))) = (&outcome, snapshot) {
            bucket.copy_from_slice(&bucket_was);
            if let (Some(residual), Some(residual_was)) = (residual, residual_was) {
                residual.copy_from_slice(&residual_was);
            }
        }
        outcome
    }

    /// Gather a fixed-length `f64` vector from every rank; the result is a
    /// `world_size × len` row-major matrix identical on every rank. Used
    /// for metric collection (per-node batch sizes, timings, gradient
    /// norms).
    ///
    /// # Errors
    ///
    /// [`CommError::Dropped`] / [`CommError::Io`] when a peer is gone, and
    /// [`CommError::Io`] when a frame is not a whole number of `f64`s, is
    /// not `values.len() + 1` long (ranks passed different lengths), or
    /// carries a rank tag outside `0..world_size`.
    pub fn gather(&self, values: &[f64]) -> Result<Vec<Vec<f64>>, CommError> {
        let n = self.world_size();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
        out[self.rank()] = values.to_vec();
        // Circulate `[rank tag, values…]`: after n−1 hops every rank has
        // seen every row.
        let mut carry = Vec::with_capacity(values.len() + 1);
        carry.push(self.rank() as f64);
        carry.extend_from_slice(values);
        for _ in 0..n - 1 {
            let mut frame = encode_f64(&carry);
            self.transport.send(&mut frame)?;
            self.transport.recv(&mut frame, None)?;
            carry = decode_f64(&frame)
                .map_err(|detail| self.malformed(format!("malformed gather frame: {detail}")))?;
            if carry.len() != values.len() + 1 {
                return Err(self.malformed(format!(
                    "gather frame of {} values where every rank sends {}",
                    carry.len(),
                    values.len() + 1
                )));
            }
            let tag = carry[0];
            // Written so that NaN fails the test too.
            if !(tag >= 0.0 && tag < n as f64 && tag.fract() == 0.0) {
                return Err(self.malformed(format!("gather frame tagged rank {tag} in a group of {n}")));
            }
            out[tag as usize] = carry[1..].to_vec();
        }
        Ok(out)
    }

    /// [`Communicator::exchange`] over the whole gradient (`feedback` at
    /// offset 0) without retry, panicking. Kept solely for the frozen
    /// benchmark (`crates/benchmark/src/real.rs`); call `exchange`.
    ///
    /// # Panics
    ///
    /// Panics where [`Communicator::exchange`] does or returns an error.
    pub fn weighted_all_reduce_ef(&self, data: &mut [f32], weight: f32, feedback: Option<&mut ErrorFeedback>) {
        self.exchange(data, weight, feedback.map(|residual| (residual, 0)), None).expect("ring peer disconnected");
    }

    /// [`Communicator::gather`], panicking. Kept solely for the frozen
    /// benchmark (`crates/benchmark/src/real.rs`); call `gather`.
    ///
    /// # Panics
    ///
    /// Panics where [`Communicator::gather`] returns an error.
    pub fn all_gather_vec(&self, values: &[f64]) -> Vec<Vec<f64>> {
        self.gather(values).expect("ring peer disconnected")
    }
}

/// Split `len` elements into exactly `n` ranges whose sizes differ by at
/// most one; ranges may be empty when `len < n`. Unlike
/// [`super::bucket_ranges`], the range *count* is guaranteed, which the
/// ring schedule requires (every rank must own a chunk index).
fn ring_chunks(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_ranges;
    use propcheck::check;
    use rand::SeedableRng;
    use std::collections::VecDeque;
    use std::thread;

    fn run_on<F, T>(comms: Vec<Communicator>, f: F) -> Vec<T>
    where
        F: Fn(Communicator) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    }

    fn run_group<F, T>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Communicator) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        run_on(CommGroup::create(n), f)
    }

    fn faulty_group(n: usize, plan: CommFaultPlan, codec: Codec) -> Vec<Communicator> {
        CommGroup::with_options(n, &TransportKind::InProcess, Some(plan), codec).expect("in-process group")
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            jitter: 0.5,
            timeout: Duration::from_secs(5),
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The residual as a vector (the accumulator has no read accessor:
    /// compensating zeros reads it out).
    fn residual_of(feedback: &ErrorFeedback) -> Vec<f32> {
        let mut out = vec![0.0f32; feedback.len()];
        feedback.compensate(&mut out, 0);
        out
    }

    /// The plain sum: an exchange at weight 1 with nothing armed.
    fn sum(c: &Communicator, data: &mut [f32]) {
        c.exchange(data, 1.0, None, None).expect("ring stays connected");
    }

    #[test]
    fn unit_weight_exchange_matches_serial_sum() {
        for n in [1usize, 2, 3, 5, 8] {
            let len = 37;
            let results = run_group(n, move |c| {
                let mut data: Vec<f32> = (0..len).map(|i| (i + c.rank() * 100) as f32).collect();
                sum(&c, &mut data);
                data
            });
            let expected: Vec<f32> = (0..len)
                .map(|i| (0..n).map(|r| (i + r * 100) as f32).sum())
                .collect();
            for r in &results {
                assert_eq!(r, &expected, "n={n}");
            }
        }
    }

    #[test]
    fn weighted_exchange_matches_eq9() {
        // Ratios 0.5, 0.3, 0.2 times per-rank constant gradients.
        let weights = [0.5f32, 0.3, 0.2];
        let results = run_group(3, move |c| {
            let mut data = vec![(c.rank() + 1) as f32; 5];
            c.exchange(&mut data, weights[c.rank()], None, None).expect("ring stays connected");
            data
        });
        let expected = 0.5 * 1.0 + 0.3 * 2.0 + 0.2 * 3.0;
        for r in results {
            for v in r {
                assert!((v - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gather_collects_rows() {
        let results = run_group(3, |c| c.gather(&[c.rank() as f64, 1.0]).expect("ring stays connected"));
        for r in results {
            assert_eq!(r, vec![vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]]);
        }
    }

    #[test]
    fn single_rank_is_noop() {
        let results = run_group(1, |c| {
            let mut data = vec![1.0f32, 2.0];
            sum(&c, &mut data);
            (data, c.gather(&[7.0]).expect("a ring of one has no peer to lose"))
        });
        assert_eq!(results[0].0, vec![1.0, 2.0]);
        assert_eq!(results[0].1, vec![vec![7.0]]);
    }

    #[test]
    fn ring_chunks_exact_count_and_cover() {
        for (len, n) in [(0usize, 3usize), (2, 5), (10, 3), (16, 4)] {
            let chunks = ring_chunks(len, n);
            assert_eq!(chunks.len(), n);
            let mut cursor = 0;
            for c in &chunks {
                assert_eq!(c.start, cursor);
                cursor = c.end;
            }
            assert_eq!(cursor, len);
        }
    }

    #[test]
    fn all_reduce_shorter_than_world() {
        // Buffer smaller than the rank count must still reduce correctly.
        let results = run_group(5, |c| {
            let mut data = vec![c.rank() as f32 + 1.0; 2];
            sum(&c, &mut data);
            data
        });
        for r in results {
            assert_eq!(r, vec![15.0, 15.0]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_interleave() {
        // Two back-to-back reduces must not mix payloads.
        let results = run_group(3, |c| {
            let mut a = vec![1.0f32; 8];
            let mut b = vec![10.0f32; 8];
            sum(&c, &mut a);
            sum(&c, &mut b);
            (a[0], b[0])
        });
        for (a, b) in results {
            assert_eq!(a, 3.0);
            assert_eq!(b, 30.0);
        }
    }

    #[test]
    fn byte_counters_track_wire_traffic() {
        let results = run_group(3, |c| {
            let mut data = vec![1.0f32; 30];
            sum(&c, &mut data);
            (c.bytes_sent(), c.bytes_received())
        });
        for (sent, received) in results {
            // 2(n-1) chunk transfers of 10 f32s each = 4 × 40 bytes.
            assert_eq!(sent, 160);
            assert_eq!(received, 160);
        }
    }

    /// What each codec puts on the wire, to the byte, and what bf16 with
    /// error feedback costs in accuracy: two ranks exchange 50 000 f32s, so
    /// each sends two 25 000-element chunks.
    #[test]
    fn codec_wire_bytes_are_exact_and_bf16_stays_close() {
        const ELEMS: usize = 50_000;
        let value = |i: usize, rank: usize| ((i * 31 + rank * 17) as f32).sin();
        for (codec, bytes) in [
            (Codec::None, 200_000), // 2 × 25 000 × 4
            (Codec::Bf16, 100_000), // 2 × 25 000 × 2
            // 2 × (8-byte header + the top 2 500 as (u32 index, f32 value))
            (Codec::TopK { permille: 100 }, 40_016),
        ] {
            let comms = CommGroup::with_options(2, &TransportKind::InProcess, None, codec).expect("in-process group");
            let results = run_on(comms, move |c| {
                let mut feedback = ErrorFeedback::new(ELEMS);
                let mut data: Vec<f32> = (0..ELEMS).map(|i| value(i, c.rank())).collect();
                c.exchange(&mut data, 0.5, Some((&mut feedback, 0)), None).expect("ring stays connected");
                (c.bytes_sent(), data)
            });
            let (sent, reduced) = &results[0];
            assert_eq!(*sent, bytes, "{codec}");
            if codec == Codec::Bf16 {
                let ideal = |i: usize| 0.5 * (f64::from(value(i, 0)) + f64::from(value(i, 1)));
                let diff: f64 = reduced.iter().enumerate().map(|(i, g)| (f64::from(*g) - ideal(i)).powi(2)).sum();
                let norm: f64 = (0..ELEMS).map(|i| ideal(i).powi(2)).sum();
                let rel = (diff / norm).sqrt();
                assert!(rel < 1e-2, "bf16 relative L2 error {rel}");
            }
        }
    }

    #[test]
    fn with_kind_builds_both_backends() {
        for kind in [TransportKind::InProcess, TransportKind::tcp()] {
            let comms = CommGroup::with_kind(2, &kind, None).expect("group forms");
            for (data, sent) in run_on(comms, |c| {
                let mut data = vec![2.0f32; 4];
                sum(&c, &mut data);
                (data, c.bytes_sent())
            }) {
                assert_eq!(data, vec![4.0; 4]);
                assert!(sent > 0, "{kind} must count wire bytes");
            }
        }
    }

    /// Per-rank outcome of one cell of the exchange table: the reduced
    /// gradient of every step and the final residual, as bit patterns.
    type CellOutcome = Vec<(Vec<u32>, Vec<u32>)>;

    /// Three steps of a three-rank exchange over one combination of
    /// transport, codec, fault plan and bucketing.
    ///
    /// The gradients are built so that every sum the ring can form is exact:
    /// each value is a multiple of 1/4 in ±[1, 16) plus a few 2⁻¹³, and the
    /// Eq. (9) weights are powers of two. bf16 rounds the 2⁻¹³ part away
    /// (so the residual is non-zero and differs per element), and what
    /// remains adds without rounding in any association — the ring sums a
    /// chunk in an order that depends on which chunk it is, so only exact
    /// sums can agree between the whole buffer and three buckets of it.
    fn exchange_cell(kind: &TransportKind, codec: Codec, plan: Option<CommFaultPlan>, buckets: usize) -> CellOutcome {
        const LEN: usize = 23;
        const WEIGHTS: [f32; 3] = [0.5, 0.25, 0.25];
        let armed = plan.is_some();
        let comms = CommGroup::with_options(3, kind, plan, codec).expect("group forms");
        run_on(comms, move |c| {
            let rank = c.rank();
            let policy = fast_policy();
            let mut rng = StdRng::seed_from_u64(rank as u64);
            let mut feedback = codec.is_lossy().then(|| ErrorFeedback::new(LEN));
            let mut reduced = Vec::new();
            let mut retries = 0;
            for step in 0..3 {
                let mut g: Vec<f32> = (0..LEN)
                    .map(|i| {
                        let coarse = (4 + (7 * i + 13 * rank + 5 * step) % 60) as f32 / 4.0;
                        let fine = (1 + i % 3) as f32 / 8192.0;
                        if (i + rank) % 5 == 0 { -(coarse + fine) } else { coarse + fine }
                    })
                    .collect();
                for r in bucket_ranges(LEN, buckets) {
                    let attempt = c
                        .exchange(
                            &mut g[r.clone()],
                            WEIGHTS[rank],
                            feedback.as_mut().map(|residual| (residual, r.start)),
                            armed.then_some((&policy, &mut rng)),
                        )
                        .expect("recovers");
                    retries += attempt - 1;
                }
                reduced.extend(bits(&g));
            }
            assert_eq!(retries, if armed { 3 } else { 0 }, "the plan injects 1 + 2 failures");
            (reduced, feedback.as_ref().map_or(Vec::new(), |f| bits(&residual_of(f))))
        })
    }

    #[test]
    fn every_path_through_the_exchange_yields_the_same_bits() {
        for codec in [Codec::None, Codec::Bf16] {
            let mut cells = Vec::new();
            for kind in [TransportKind::InProcess, TransportKind::tcp()] {
                for plan in [None, Some(CommFaultPlan::new().fail_at(0, 1).fail_at(2, 2))] {
                    for buckets in [1, 3] {
                        let label = format!("{codec} over {kind}, plan {}, {buckets} bucket(s)", plan.is_some());
                        cells.push((label, exchange_cell(&kind, codec, plan.clone(), buckets)));
                    }
                }
            }
            let (_, reference) = &cells[0];
            let (reduced, residual) = &reference[0];
            assert!(reference.iter().all(|(r, _)| r == reduced), "replicas must agree under {codec}");
            assert_eq!(
                residual.iter().any(|&b| b != 0),
                codec.is_lossy(),
                "a lossy codec must leave a residual to compare, a lossless one none"
            );
            for (label, cell) in &cells[1..] {
                assert_eq!(cell, reference, "{label} must match {}", cells[0].0);
            }
        }
    }

    #[test]
    fn injected_failures_consume_attempts_in_lockstep() {
        // The plan is keyed by the count of retry-armed exchanges: seq 0
        // fails twice, seq 1 is clean, seq 2 fails once — on every rank,
        // regardless of buffer or timing skew. Restarting the sequence (a
        // reused group's epoch boundary) makes the next exchange seq 0 again.
        let plan = CommFaultPlan::new().fail_at(0, 2).fail_at(2, 1);
        let results = run_on(faulty_group(3, plan, Codec::None), |c| {
            let mut rng = StdRng::seed_from_u64(7 + c.rank() as u64);
            let policy = fast_policy();
            let mut reduce = |value: f32| {
                let mut data = vec![value; 6];
                let attempt = c.exchange(&mut data, 1.0, None, Some((&policy, &mut rng))).expect("recovers");
                (data, attempt)
            };
            let first = [reduce((c.rank() + 1) as f32), reduce(1.0), reduce(2.0)];
            c.restart_sequence();
            (first, reduce(1.0))
        });
        for ([a, b, c], restarted) in results {
            assert_eq!(a, (vec![6.0; 6], 3), "two injected failures consume two attempts");
            assert_eq!(b, (vec![3.0; 6], 1));
            assert_eq!(c, (vec![6.0; 6], 2));
            assert_eq!(restarted, (vec![3.0; 6], 3), "seq 0 fires again after the restart");
        }
    }

    #[test]
    fn exhausted_retries_leave_bucket_and_residual_untouched() {
        // More injected failures than the budget: every rank gets the
        // typed error, its buffer back byte for byte, and the residual it
        // came in with — the retried step re-enters clean.
        let policy = RetryPolicy { max_attempts: 2, ..fast_policy() };
        let plan = CommFaultPlan::new().fail_at(0, 99);
        let results = run_on(faulty_group(3, plan, Codec::Bf16), move |c| {
            let mut rng = StdRng::seed_from_u64(c.rank() as u64);
            let original: Vec<f32> = (0..5).map(|i| (i + c.rank()) as f32 + 0.001).collect();
            let mut data = original.clone();
            let mut feedback = ErrorFeedback::new(5);
            let err = c
                .exchange(&mut data, 0.25, Some((&mut feedback, 0)), Some((&policy, &mut rng)))
                .expect_err("budget too small");
            (err, data == original, residual_of(&feedback))
        });
        for (err, restored, residual) in results {
            assert_eq!(err, CommError::RetriesExhausted { attempts: 2 });
            assert!(restored, "failed exchange must not compensate, scale or partially reduce the buffer");
            assert_eq!(residual, vec![0.0; 5], "the residual is committed only on success");
        }
    }

    #[test]
    fn dropped_peer_is_a_typed_error() {
        let mut comms = CommGroup::create(3);
        drop(comms.pop()); // rank 2 "crashes" before the collective
        let policy = RetryPolicy { timeout: Duration::from_millis(200), ..fast_policy() };
        let results = run_on(comms, move |c| {
            let mut rng = StdRng::seed_from_u64(c.rank() as u64);
            let original = vec![1.0f32, 2.0, 3.0];
            let mut data = original.clone();
            let err = c.exchange(&mut data, 0.5, None, Some((&policy, &mut rng))).expect_err("peer is gone");
            let unarmed = c.exchange(&mut data.clone(), 0.5, None, None).expect_err("peer is still gone");
            (err, unarmed, data == original)
        });
        for (err, unarmed, restored) in results {
            for e in [&err, &unarmed] {
                assert!(matches!(e, CommError::Dropped { .. } | CommError::Timeout { .. }), "unexpected error: {e:?}");
            }
            assert!(restored, "an armed exchange restores the snapshot on error");
        }
    }

    /// A transport whose peer is hostile: sends vanish, receives replay a
    /// script of frames.
    #[derive(Debug)]
    struct Scripted {
        frames: RefCell<VecDeque<Vec<u8>>>,
    }

    impl Transport for Scripted {
        fn rank(&self) -> usize {
            0
        }
        fn world_size(&self) -> usize {
            3
        }
        fn send(&self, _frame: &mut Vec<u8>) -> Result<(), CommError> {
            Ok(())
        }
        fn recv(&self, frame: &mut Vec<u8>, _deadline: Option<Duration>) -> Result<(), CommError> {
            *frame = self.frames.borrow_mut().pop_front().ok_or(CommError::Dropped { rank: 0 })?;
            Ok(())
        }
        fn bytes_sent(&self) -> u64 {
            0
        }
        fn bytes_received(&self) -> u64 {
            0
        }
    }

    fn scripted(codec: Codec, frames: &[&[u8]]) -> Communicator {
        let frames = RefCell::new(frames.iter().map(|f| f.to_vec()).collect());
        Communicator::from_transport(Box::new(Scripted { frames }), None).with_codec(codec)
    }

    #[test]
    fn hostile_frames_are_typed_errors() {
        let io = |result: Result<u32, CommError>, needle: &str| match result {
            Err(CommError::Io { rank: 0, detail }) => assert!(detail.contains(needle), "`{detail}` lacks `{needle}`"),
            other => panic!("expected an I/O error about `{needle}`, got {other:?}"),
        };
        // Six elements over three ranks: every chunk is two elements.
        let pair = Codec::None.encode(&[1.0, 2.0]);
        let exchange = |codec: Codec, frames: &[&[u8]]| scripted(codec, frames).exchange(&mut [0.0; 6], 1.0, None, None);
        io(exchange(Codec::None, &[&[0; 5]]), "not a whole number of f32s");
        io(exchange(Codec::Bf16, &[&[0; 3]]), "not a whole number of bf16s");
        io(exchange(Codec::None, &[&[0; 4]]), "1 elements where the ring schedule expects 2");
        // The same short chunk arriving in the all-gather phase.
        io(exchange(Codec::None, &[&pair, &pair, &[0; 4]]), "1 elements where the ring schedule expects 2");
        io(exchange(Codec::None, &[&pair, &pair, &pair, &[]]), "0 elements where the ring schedule expects 2");
        // A top-k frame says in its header how long it decodes to.
        let topk = Codec::TopK { permille: 500 };
        io(exchange(topk, &[&topk.encode(&[1.0, 2.0, 3.0])]), "3 elements where the ring schedule expects 2");

        // Chunks of two slices and an element travel as three frames.
        let slice = slice_elems(Codec::None);
        let [short, full, long] = [slice - 1, slice, slice + 1].map(|len| Codec::None.encode(&vec![1.0; len]));
        let last = Codec::None.encode(&[1.0]);
        let sliced = |frames: &[&[u8]]| {
            scripted(Codec::None, frames).exchange(&mut vec![0.0; 3 * (2 * slice + 1)], 1.0, None, None)
        };
        let expects_full = |got: usize| format!("{got} elements where the ring schedule expects {slice}");
        io(sliced(&[&full, &short]), &expects_full(slice - 1));
        io(sliced(&[&full, &long]), &expects_full(slice + 1));
        // One frame too many for the chunk: it lands where the next hop's
        // first slice belongs.
        io(sliced(&[&full, &full, &last, &last]), &expects_full(1));

        // An armed exchange hands the bucket back as it found it.
        let mut bucket = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut rng = StdRng::seed_from_u64(0);
        let armed = scripted(Codec::None, &[&pair, &[0; 7]]).exchange(
            &mut bucket,
            0.5,
            None,
            Some((&fast_policy(), &mut rng)),
        );
        io(armed, "not a whole number of f32s");
        assert_eq!(bucket, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);

        let gather = |frame: &[f64]| {
            scripted(Codec::None, &[&encode_f64(frame)]).gather(&[9.0]).map(|_| 0)
        };
        for tag in [3.0, 7.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            io(gather(&[tag, 9.0]), "tagged rank");
        }
        io(gather(&[]), "gather frame of 0 values where every rank sends 2");
        io(gather(&[1.0, 9.0, 9.0]), "gather frame of 3 values where every rank sends 2");
        io(scripted(Codec::None, &[&[0; 12]]).gather(&[9.0]).map(|_| 0), "not a whole number of f64s");
    }

    /// A pseudo-random gradient entry in ±[2⁻⁴, 2⁴): every mantissa bit is
    /// live, so every sum rounds and a change of association shows.
    fn noisy(rank: usize, step: usize, i: usize) -> f32 {
        let h = ((rank as u64) << 48 | (step as u64) << 40 | i as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let h = (h ^ (h >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mantissa = 1.0 + (h >> 41) as f32 / (1u64 << 23) as f32;
        let magnitude = mantissa * f32::from_bits(((123 + (h >> 37) % 8) as u32) << 23);
        if h & 1 == 0 { magnitude } else { -magnitude }
    }

    /// FNV-1a, one `u32` word at a time.
    fn fnv1a(mut hash: u64, words: impl IntoIterator<Item = u32>) -> u64 {
        for word in words {
            hash = (hash ^ u64::from(word)).wrapping_mul(0x0100_0000_01B3);
        }
        hash
    }

    /// One digest over every rank's three reduced gradients and final
    /// residual, as bit patterns: three unarmed whole-gradient exchanges of
    /// `len` elements on `n` ranks at weights `(rank + 1) / (1 + … + n)`.
    fn exchange_digest(kind: &TransportKind, codec: Codec, n: usize, len: usize) -> u64 {
        let comms = CommGroup::with_options(n, kind, None, codec).expect("group forms");
        let per_rank = run_on(comms, move |c| {
            let rank = c.rank();
            let weight = (rank + 1) as f32 / (n * (n + 1) / 2) as f32;
            let mut feedback = codec.is_lossy().then(|| ErrorFeedback::new(len));
            let mut hash = 0xCBF2_9CE4_8422_2325;
            for step in 0..3 {
                let mut g: Vec<f32> = (0..len).map(|i| noisy(rank, step, i)).collect();
                c.exchange(&mut g, weight, feedback.as_mut().map(|residual| (residual, 0)), None)
                    .expect("ring stays connected");
                hash = fnv1a(hash, g.iter().map(|v| v.to_bits()));
            }
            feedback.map_or(hash, |f| fnv1a(hash, residual_of(&f).iter().map(|v| v.to_bits())))
        });
        per_rank.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, r| fnv1a(h, [r as u32, (r >> 32) as u32]))
    }

    /// A slice of `codec` in elements — for top-k, which is never sliced,
    /// the length the raw codec would slice at.
    fn slice_or_raw(codec: Codec) -> usize {
        match slice_elems(codec) {
            usize::MAX => slice_elems(Codec::None),
            slice => slice,
        }
    }

    /// The ring's results, bit for bit, at bucket lengths on every side of
    /// the slicing boundaries: chunks one element short of a slice, exactly
    /// one, one over (the ranks then disagree on how many frames a chunk
    /// is), send and receive chunks that differ in length *and* in slice
    /// count, and fewer elements than ranks. The fixture was written by the
    /// whole-chunk ring this one replaced (`CANNIKIN_BLESS=1` rewrites it
    /// from whatever ring is compiled in — bless only from a ring you trust).
    #[test]
    fn sliced_ring_matches_the_golden_digests() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ring_digests.txt");
        let table = |kind: &TransportKind| {
            let mut text = String::new();
            for codec in [Codec::None, Codec::Bf16, Codec::TopK { permille: 100 }] {
                let slice = slice_or_raw(codec);
                for n in [3usize, 4] {
                    for len in [n * slice - 1, n * slice, n * slice + 1, 2 * n * slice + n - 1, n - 1] {
                        let digest = exchange_digest(kind, codec, n, len);
                        text.push_str(&format!("{codec} n={n} len={len} {digest:016x}\n"));
                    }
                }
            }
            text
        };
        let in_process = table(&TransportKind::InProcess);
        if std::env::var_os("CANNIKIN_BLESS").is_some() {
            std::fs::write(&path, &in_process).expect("write golden fixture");
        }
        let golden = std::fs::read_to_string(&path).expect("committed fixture");
        assert_eq!(in_process, golden, "in-process ring departs from {}", path.display());
        assert_eq!(table(&TransportKind::tcp()), golden, "TCP ring departs from {}", path.display());
    }

    /// What the ring must compute, on one thread and a chunk at a time:
    /// every rank folds its residual in, scales and quantizes; chunk `c`
    /// starts at rank `c` and is summed in ring order, each partial sum
    /// crossing the wire (the codec's loss) before the next rank adds its
    /// own; the owner's total crosses once more and every rank decodes the
    /// same bits. `residuals` advance as the ranks' would.
    fn serial_exchange(codec: Codec, inputs: &[Vec<f32>], weights: &[f32], residuals: &mut [Vec<f32>]) -> Vec<f32> {
        let n = inputs.len();
        let mut local = inputs.to_vec();
        for ((bucket, residual), &weight) in local.iter_mut().zip(residuals.iter_mut()).zip(weights) {
            if codec.is_lossy() {
                bucket.iter_mut().zip(residual.iter()).for_each(|(v, r)| *v = (*v + *r) * weight);
                let scaled = bucket.clone();
                codec.quantize(bucket);
                for ((r, s), q) in residual.iter_mut().zip(&scaled).zip(bucket.iter()) {
                    *r = (s - q) * (1.0 / weight);
                }
            } else {
                bucket.iter_mut().for_each(|v| *v *= weight);
            }
        }
        let mut reduced = vec![0.0f32; inputs[0].len()];
        for (c, range) in ring_chunks(reduced.len(), n).into_iter().enumerate() {
            let mut sum = local[c][range.clone()].to_vec();
            for hop in 1..n {
                codec.quantize(&mut sum);
                sum.iter_mut().zip(&local[(c + hop) % n][range.clone()]).for_each(|(s, v)| *s += v);
            }
            codec.quantize(&mut sum);
            reduced[range].copy_from_slice(&sum);
        }
        reduced
    }

    #[test]
    fn sliced_ring_matches_a_serial_reference() {
        check(64, |g| {
            let n = g.usize(1..5);
            let codec = g.pick(&[Codec::None, Codec::Bf16, Codec::TopK { permille: 100 }]);
            let kind = g.pick(&[TransportKind::InProcess, TransportKind::tcp()]);
            // From nothing to a little past two slices per chunk, landing
            // on and beside the whole numbers of slices.
            let len = (g.usize(0..3) * n * slice_or_raw(codec) + g.usize(0..2 * n + 2)).saturating_sub(g.usize(0..3));
            let weights: Vec<f32> = (0..n).map(|_| g.f32(0.05..1.0)).collect();
            let salt = g.usize(0..1 << 16);
            let input = move |rank: usize, step: usize| -> Vec<f32> {
                (0..len).map(|i| noisy(rank, step, i + salt)).collect()
            };

            let mut residuals = vec![vec![0.0f32; len]; n];
            let expected: Vec<Vec<u32>> = (0..2)
                .map(|step| {
                    let inputs: Vec<Vec<f32>> = (0..n).map(|rank| input(rank, step)).collect();
                    bits(&serial_exchange(codec, &inputs, &weights, &mut residuals))
                })
                .collect();

            let comms = CommGroup::with_options(n, &kind, None, codec).expect("group forms");
            let ranks = run_on(comms, move |c| {
                let mut feedback = ErrorFeedback::new(len);
                let reduced: Vec<Vec<u32>> = (0..2)
                    .map(|step| {
                        let mut g = input(c.rank(), step);
                        c.exchange(&mut g, weights[c.rank()], Some((&mut feedback, 0)), None)
                            .expect("ring stays connected");
                        bits(&g)
                    })
                    .collect();
                (reduced, bits(&residual_of(&feedback)))
            });
            for (rank, (reduced, residual)) in ranks.into_iter().enumerate() {
                let label = format!("rank {rank} of {n}, {len} elements, {codec} over {kind}");
                assert!(reduced == expected, "{label}: reduced gradient departs from the serial reference");
                assert!(residual == bits(&residuals[rank]), "{label}: residual departs from the serial reference");
            }
        });
    }
}
