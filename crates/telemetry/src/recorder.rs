//! The global low-overhead event recorder.
//!
//! Design:
//!
//! * One process-global recorder behind a [`Session`] guard. Telemetry is
//!   **off** by default; the only cost an instrumented call site pays while
//!   off is a single `Relaxed` atomic load (the benchmark's
//!   `telemetry.counter_ns_disabled` metric times it).
//! * Emitting threads buffer records in a thread-local `Vec` and flush to a
//!   shared `parking_lot`-guarded sink every `FLUSH_THRESHOLD` events and
//!   on thread exit, so the mutex is touched once per batch rather than per
//!   event.
//! * Sessions are serialized by a global lock and tagged with a generation
//!   counter. A thread-local buffer left over from a previous session is
//!   discarded at the next emit/flush instead of leaking stale events into
//!   the new session.
//! * [`Session::drain`] flushes the calling thread, takes the sink, and
//!   stable-sorts by timestamp — per-thread emission order is preserved
//!   because each thread's timestamps are monotone. Join worker threads
//!   before draining; their buffers flush when they exit.
//! * Registered [`Subscriber`]s tap the sink: every flushed batch is
//!   handed to each subscriber exactly once, in flush order (per-thread
//!   emission order within a batch). Subscribers that want to add records
//!   of their own (e.g. the `cannikin-insight` monitor emitting anomaly
//!   events) must use [`inject`], which bypasses the thread-local buffer —
//!   calling [`emit`] from inside a callback running during a thread-exit
//!   flush would touch a thread-local mid-destruction.

use crate::event::{Event, Record, Span};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Thread-local records buffered before touching the shared sink.
const FLUSH_THRESHOLD: usize = 64;

/// The disabled-path flag. Deliberately a bare static (not inside the
/// `OnceLock`) so `enabled()` is one load with no initialization check.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session generation; bumped by every [`Session::start`].
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Serializes sessions: at most one live [`Session`] per process.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Label of the live session (`None` while untagged or between sessions).
/// Set by [`Session::start_tagged`]; the scenario-matrix harness tags each
/// benchmark cell `scenario/subject` so exported streams and drained
/// records can be attributed to the exact matrix cell that produced them.
static SESSION_TAG: Mutex<Option<String>> = Mutex::new(None);

struct Shared {
    start: Instant,
    sink: Mutex<Vec<Record>>,
    subscribers: Mutex<Vec<(u64, Arc<dyn Subscriber>)>>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        start: Instant::now(),
        sink: Mutex::new(Vec::new()),
        subscribers: Mutex::new(Vec::new()),
    })
}

/// A tap on the recorder's sink: receives every flushed batch of records
/// while registered (see [`subscribe`]).
///
/// Batches arrive in flush order; within one batch, records are in the
/// emitting thread's emission order, and every record that reaches the
/// sink is delivered exactly once. Callbacks run on the emitting thread
/// (including during thread exit), so implementations must be cheap,
/// must not block on locks held across `emit` calls, and must use
/// [`inject`] — never [`emit`] — to add records of their own.
pub trait Subscriber: Send + Sync {
    /// Called with each flushed batch before it lands in the sink.
    fn on_records(&self, batch: &[Record]);
}

/// Registers a subscriber; it receives batches until the returned guard
/// drops. Subscribers persist across sessions (registration is a property
/// of the process, not of the current [`Session`]).
pub fn subscribe(subscriber: Arc<dyn Subscriber>) -> SubscriberGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    shared().subscribers.lock().push((id, subscriber));
    SubscriberGuard { id }
}

/// Deregisters its subscriber on drop.
pub struct SubscriberGuard {
    id: u64,
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        shared().subscribers.lock().retain(|(id, _)| *id != self.id);
    }
}

/// Hand a flushed batch to every subscriber, then append it to the sink.
/// Notification happens first so the batch needn't be cloned; records a
/// subscriber [`inject`]s land in the sink slightly before their triggers,
/// and the drain's timestamp sort restores causal order.
fn deliver(mut batch: Vec<Record>) {
    let subscribers: Vec<Arc<dyn Subscriber>> =
        shared().subscribers.lock().iter().map(|(_, s)| Arc::clone(s)).collect();
    for subscriber in &subscribers {
        subscriber.on_records(&batch);
    }
    shared().sink.lock().append(&mut batch);
}

struct ThreadBuffer {
    generation: u64,
    node: u32,
    rank: u32,
    records: Vec<Record>,
}

impl ThreadBuffer {
    const fn new() -> ThreadBuffer {
        ThreadBuffer { generation: 0, node: 0, rank: 0, records: Vec::new() }
    }

    /// Take the buffered records if they belong to the live session, or
    /// discard them if the session they were recorded under is gone. The
    /// caller must pass the result to [`deliver`] — splitting take from
    /// delivery lets `emit_slow` release the `RefCell` borrow before any
    /// subscriber callback runs (a callback may legitimately re-enter the
    /// recorder via [`inject`]).
    fn take_live_batch(&mut self) -> Option<Vec<Record>> {
        if self.records.is_empty() {
            return None;
        }
        if self.generation == GENERATION.load(Ordering::Acquire) && ENABLED.load(Ordering::Relaxed) {
            Some(std::mem::take(&mut self.records))
        } else {
            // Stale session: the drain that wanted these already happened.
            self.records.clear();
            None
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        if let Some(batch) = self.take_live_batch() {
            deliver(batch);
        }
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = const { RefCell::new(ThreadBuffer::new()) };
}

/// Whether a session is live. The whole disabled-mode hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event on the calling thread. A no-op (one atomic load) when
/// no session is live.
#[inline]
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    let sh = shared();
    let ts_ns = sh.start.elapsed().as_nanos() as u64;
    let generation = GENERATION.load(Ordering::Acquire);
    let batch = BUFFER.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.generation != generation {
            // First emit of a new session on this thread: drop leftovers.
            buf.records.clear();
            buf.generation = generation;
        }
        let (node, rank) = (buf.node, buf.rank);
        buf.records.push(Record { ts_ns, node, rank, event });
        if buf.records.len() >= FLUSH_THRESHOLD { buf.take_live_batch() } else { None }
    });
    // Deliver outside the RefCell borrow: subscriber callbacks may call
    // `inject`, and a re-entrant `emit` from a callback must not panic.
    if let Some(batch) = batch {
        deliver(batch);
    }
}

/// Record one event directly to the sink, bypassing the thread-local
/// buffer. This is the emission path for [`Subscriber`] callbacks: it is
/// safe to call mid-flush and during thread exit (when the thread-local
/// is being destroyed), and the record is visible to `drain` immediately.
/// Injected records do NOT flow back through subscribers, so a subscriber
/// injecting in response to every batch cannot feed back on itself.
/// A no-op when no session is live.
pub fn inject(node: u32, rank: u32, event: Event) {
    if !enabled() {
        return;
    }
    let sh = shared();
    let ts_ns = sh.start.elapsed().as_nanos() as u64;
    sh.sink.lock().push(Record { ts_ns, node, rank, event });
}

/// Flush the calling thread's buffered records to subscribers and the
/// sink now, rather than waiting for the `FLUSH_THRESHOLD` or thread
/// exit. Lets a driver thread present a consistent stream to online
/// monitors at a step/epoch boundary.
pub fn flush_thread() {
    let batch = BUFFER.with(|cell| cell.borrow_mut().take_live_batch());
    if let Some(batch) = batch {
        deliver(batch);
    }
}

/// Set the `(node, rank)` identity stamped on this thread's subsequent
/// records (Chrome-trace `pid`/`tid`). Returns a guard restoring the
/// previous identity on drop.
pub fn set_thread_identity(node: u32, rank: u32) -> IdentityGuard {
    BUFFER.with(|cell| {
        let mut buf = cell.borrow_mut();
        let prev = (buf.node, buf.rank);
        buf.node = node;
        buf.rank = rank;
        IdentityGuard { prev }
    })
}

/// Restores the thread identity that was active before
/// [`set_thread_identity`].
pub struct IdentityGuard {
    prev: (u32, u32),
}

impl Drop for IdentityGuard {
    fn drop(&mut self) {
        BUFFER.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.node = self.prev.0;
            buf.rank = self.prev.1;
        });
    }
}

/// Emit a named counter sample.
#[inline]
pub fn counter(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    emit_slow(Event::Counter(crate::event::Counter { name: name.to_string(), value }));
}

/// Open a span: emits `SpanBegin` now and `SpanEnd` when the guard drops.
/// Inert when no session is live at open time.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name: None };
    }
    emit_slow(Event::SpanBegin(Span { name: name.to_string() }));
    SpanGuard { name: Some(name.to_string()) }
}

/// Closes its span on drop. Spans nest per thread (close in reverse open
/// order), which is what the Chrome-trace `B`/`E` format requires.
pub struct SpanGuard {
    name: Option<String>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            // The end is emitted even if the session closed mid-span; the
            // generation check discards it in that case.
            if enabled() {
                emit_slow(Event::SpanEnd(Span { name }));
            }
        }
    }
}

/// A live recording session. At most one exists per process at a time;
/// [`Session::start`] blocks until the previous one drops. Dropping the
/// session disables recording and discards anything not yet drained.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Session {
    /// Begin recording. Clears the sink, bumps the session generation
    /// (orphaning any stale thread-local buffers), and enables emission.
    pub fn start() -> Session {
        let guard = SESSION_LOCK.lock();
        *SESSION_TAG.lock() = None;
        shared().sink.lock().clear();
        GENERATION.fetch_add(1, Ordering::Release);
        ENABLED.store(true, Ordering::Release);
        Session { _guard: guard }
    }

    /// Begin a *tagged* recording session: like [`Session::start`], but
    /// the session carries a label readable via [`Session::tag`] /
    /// [`session_tag`] until the session drops. The scenario-matrix
    /// harness tags each cell `scenario/subject`, so anything observing
    /// the stream (exporters, subscribers, tests) can attribute records
    /// to the matrix cell that produced them.
    pub fn start_tagged(tag: impl Into<String>) -> Session {
        let session = Session::start();
        *SESSION_TAG.lock() = Some(tag.into());
        session
    }

    /// This session's tag, if it was started with [`Session::start_tagged`].
    pub fn tag(&self) -> Option<String> {
        SESSION_TAG.lock().clone()
    }

    /// Take everything recorded so far, ordered by timestamp (stable, so
    /// per-thread order is preserved). Flushes the calling thread's buffer;
    /// worker threads flush when they exit, so join them first.
    pub fn drain(&self) -> Vec<Record> {
        flush_thread();
        let mut records = std::mem::take(&mut *shared().sink.lock());
        records.sort_by_key(|r| r.ts_ns);
        records
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        // Disabling first makes our own buffer stale: `flush_thread`
        // discards it without notifying subscribers. Then empty the sink
        // so the next session starts clean regardless.
        flush_thread();
        shared().sink.lock().clear();
        *SESSION_TAG.lock() = None;
    }
}

/// The live session's tag, or `None` when no session is live or the
/// session was started untagged. Cheap enough for exporters but not for
/// the per-event hot path (it takes a lock).
pub fn session_tag() -> Option<String> {
    if !enabled() {
        return None;
    }
    SESSION_TAG.lock().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Counter;

    /// The harness runs tests on parallel threads; an `emit` outside any
    /// session would otherwise land in a sibling test's live session.
    /// Every test here takes this lock first (before `Session::start`, so
    /// lock order is consistent).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn count_event(i: u64) -> Event {
        Event::Counter(Counter { name: "t".to_string(), value: i as f64 })
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _serial = TEST_LOCK.lock();
        emit(count_event(1)); // no session live: must vanish
        let session = Session::start();
        emit(count_event(2));
        let records = session.drain();
        assert_eq!(records.len(), 1, "only the in-session event is kept");
    }

    #[test]
    fn drain_returns_timestamp_sorted_records() {
        let _serial = TEST_LOCK.lock();
        let session = Session::start();
        for i in 0..200 {
            emit(count_event(i));
        }
        let records = session.drain();
        assert_eq!(records.len(), 200);
        assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Same-thread emission order survives the stable sort.
        let values: Vec<f64> = records
            .iter()
            .map(|r| match &r.event {
                Event::Counter(c) => c.value,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(values.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tagged_session_exposes_tag_until_drop() {
        let _serial = TEST_LOCK.lock();
        assert_eq!(session_tag(), None, "no session: no tag");
        let session = Session::start_tagged("spot-preemption/cannikin");
        assert_eq!(session.tag().as_deref(), Some("spot-preemption/cannikin"));
        assert_eq!(session_tag().as_deref(), Some("spot-preemption/cannikin"));
        drop(session);
        assert_eq!(session_tag(), None, "tag cleared with the session");
    }

    #[test]
    fn untagged_start_clears_stale_tag() {
        let _serial = TEST_LOCK.lock();
        drop(Session::start_tagged("old"));
        let session = Session::start();
        assert_eq!(session.tag(), None);
        assert_eq!(session_tag(), None);
        drop(session);
    }

    #[test]
    fn sessions_isolate_their_events() {
        let _serial = TEST_LOCK.lock();
        {
            let first = Session::start();
            emit(count_event(1));
            drop(first); // never drained: events must not leak
        }
        let second = Session::start();
        emit(count_event(2));
        let records = second.drain();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn identity_guard_restores_previous_identity() {
        let _serial = TEST_LOCK.lock();
        let session = Session::start();
        emit(count_event(0));
        {
            let _id = set_thread_identity(3, 7);
            emit(count_event(1));
        }
        emit(count_event(2));
        let records = session.drain();
        assert_eq!((records[0].node, records[0].rank), (0, 0));
        assert_eq!((records[1].node, records[1].rank), (3, 7));
        assert_eq!((records[2].node, records[2].rank), (0, 0));
    }

    #[test]
    fn spans_pair_up_per_thread() {
        let _serial = TEST_LOCK.lock();
        let session = Session::start();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let records = session.drain();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["span_begin", "span_begin", "span_end", "span_end"]);
        match (&records[1].event, &records[2].event) {
            (Event::SpanBegin(b), Event::SpanEnd(e)) => {
                assert_eq!(b.name, "inner");
                assert_eq!(e.name, "inner");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_emitters_flush_on_exit_and_keep_per_thread_order() {
        let _serial = TEST_LOCK.lock();
        let session = Session::start();
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let _id = set_thread_identity(t, t);
                    for i in 0..500 {
                        emit(count_event(u64::from(t) * 1_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let records = session.drain();
        assert_eq!(records.len(), 8 * 500);
        assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Within each emitting thread, values must appear in emission order.
        for t in 0..8u32 {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.rank == t)
                .map(|r| match &r.event {
                    Event::Counter(c) => c.value,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(values.len(), 500);
            assert!(values.windows(2).all(|w| w[0] < w[1]), "thread {t} out of order");
        }
    }

    /// Counts records delivered and remembers batch sizes.
    struct CountingSubscriber {
        seen: Mutex<Vec<Record>>,
    }

    impl Subscriber for CountingSubscriber {
        fn on_records(&self, batch: &[Record]) {
            self.seen.lock().extend_from_slice(batch);
        }
    }

    #[test]
    fn subscriber_sees_every_record_exactly_once() {
        let _serial = TEST_LOCK.lock();
        let sub = Arc::new(CountingSubscriber { seen: Mutex::new(Vec::new()) });
        let _guard = subscribe(sub.clone());
        let session = Session::start();
        for i in 0..(FLUSH_THRESHOLD as u64 * 2 + 7) {
            emit(count_event(i));
        }
        flush_thread();
        let drained = session.drain();
        let seen = sub.seen.lock();
        assert_eq!(seen.len(), drained.len());
        // Same records, same per-thread order.
        for (a, b) in seen.iter().zip(drained.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dropped_guard_stops_delivery() {
        let _serial = TEST_LOCK.lock();
        let sub = Arc::new(CountingSubscriber { seen: Mutex::new(Vec::new()) });
        let guard = subscribe(sub.clone());
        let session = Session::start();
        emit(count_event(0));
        flush_thread();
        drop(guard);
        emit(count_event(1));
        flush_thread();
        assert_eq!(session.drain().len(), 2);
        assert_eq!(sub.seen.lock().len(), 1, "post-unsubscribe batch must not arrive");
    }

    /// Injects a marker record for every batch it sees — the monitor's
    /// anomaly-emission pattern. Must not dead-lock or double-borrow even
    /// though the callback runs inside the emitting thread's flush.
    struct InjectingSubscriber;

    impl Subscriber for InjectingSubscriber {
        fn on_records(&self, batch: &[Record]) {
            if batch.iter().any(|r| !matches!(r.event, Event::SpanBegin(_))) {
                inject(9, 9, Event::SpanBegin(Span { name: "injected".to_string() }));
            }
        }
    }

    #[test]
    fn subscriber_can_inject_records_mid_flush() {
        let _serial = TEST_LOCK.lock();
        let _guard = subscribe(Arc::new(InjectingSubscriber));
        let session = Session::start();
        for i in 0..(FLUSH_THRESHOLD as u64) {
            emit(count_event(i));
        }
        // Threshold flush already fired inside the emit loop; a worker
        // thread exercises the thread-exit flush path too.
        std::thread::spawn(|| emit(count_event(1_000))).join().unwrap();
        let records = session.drain();
        let injected: Vec<&Record> =
            records.iter().filter(|r| matches!(r.event, Event::SpanBegin(_))).collect();
        assert_eq!(injected.len(), 2, "one injection per non-marker batch");
        assert!(injected.iter().all(|r| r.node == 9 && r.rank == 9));
        assert_eq!(records.len(), FLUSH_THRESHOLD + 1 + 2);
    }

    #[test]
    fn inject_without_session_is_dropped() {
        let _serial = TEST_LOCK.lock();
        inject(0, 0, count_event(0));
        let session = Session::start();
        inject(1, 2, count_event(1));
        let records = session.drain();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].node, records[0].rank), (1, 2));
    }
}
