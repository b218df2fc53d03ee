//! The global low-overhead event recorder.
//!
//! Design:
//!
//! * One process-global recorder behind a [`Session`] guard. Telemetry is
//!   **off** by default; the only cost an instrumented call site pays while
//!   off is a single `Relaxed` atomic load (the benchmark's
//!   `telemetry.counter_ns_disabled` metric times it).
//! * A session records its **members** and nobody else. [`Session::start`]
//!   enrols the calling thread; a thread it spawns joins by entering a
//!   [`Context`] the parent captured with [`context`] (membership is
//!   inherited explicitly, never by emitting). [`emit`], [`span`] and
//!   [`counter`] on any other thread are dropped, so two runs in one
//!   process — parallel tests, a monitored job beside an unmonitored one —
//!   cannot see each other's events. In this workspace the only spawned
//!   threads that emit are `ParallelTrainer`'s rank threads, which enter
//!   the context of the thread driving the epoch.
//! * Member threads buffer records in a thread-local `Vec` and flush to a
//!   shared `parking_lot`-guarded sink every `FLUSH_THRESHOLD` events and
//!   on thread exit, so the mutex is touched once per batch rather than per
//!   event.
//! * Sessions are serialized by a global lock and numbered by a generation
//!   counter; membership *is* carrying the live generation. A thread that
//!   joined session *k* is not a member of session *k+1* until it joins
//!   again, and whatever it still buffered from *k* is discarded.
//! * [`Session::drain`] flushes the calling thread, takes the sink, and
//!   stable-sorts by timestamp — per-thread emission order is preserved
//!   because each thread's timestamps are monotone. Join worker threads
//!   before draining; their buffers flush when they exit.
//! * Registered [`Subscriber`]s tap the sink of the sessions *their
//!   registering thread starts*: every batch such a session flushes is
//!   handed to each of them exactly once, in flush order (per-thread
//!   emission order within a batch), and no other session's batches are.
//!   Subscribers that want to add records of their own (e.g. the
//!   `cannikin-insight` monitor emitting anomaly events) must use
//!   [`inject`], which bypasses the thread-local buffer and the membership
//!   check — calling [`emit`] from inside a callback running during a
//!   thread-exit flush would touch a thread-local mid-destruction.

use crate::event::{Event, Record, Span};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Thread-local records buffered before touching the shared sink.
const FLUSH_THRESHOLD: usize = 64;

/// The disabled-path flag. Deliberately a bare static (not inside the
/// `OnceLock`) so `enabled()` is one load with no initialization check.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session generation; bumped by every [`Session::start`]. A thread is a
/// member of the live session iff its [`ThreadBuffer`] carries this value.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Serializes sessions: at most one live [`Session`] per process.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

struct Shared {
    start: Instant,
    sink: Mutex<Vec<Record>>,
    taps: Mutex<Taps>,
}

struct Taps {
    /// The thread that started the live session (`None` between sessions).
    owner: Option<ThreadId>,
    /// `(id, registering thread, subscriber)`.
    subscribers: Vec<(u64, ThreadId, Arc<dyn Subscriber>)>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        start: Instant::now(),
        sink: Mutex::new(Vec::new()),
        taps: Mutex::new(Taps { owner: None, subscribers: Vec::new() }),
    })
}

/// A tap on the recorder's sink: while registered (see [`subscribe`]) it
/// receives every batch flushed by a session its registering thread
/// started.
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

/// Registers a subscriber to the calling thread's sessions — the live one
/// if this thread started it, and every one it starts until the returned
/// guard drops. Sessions started by other threads never reach it.
pub fn subscribe(subscriber: Arc<dyn Subscriber>) -> SubscriberGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    shared().taps.lock().subscribers.push((id, std::thread::current().id(), subscriber));
    SubscriberGuard { id }
}

/// Deregisters its subscriber on drop.
pub struct SubscriberGuard {
    id: u64,
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        shared().taps.lock().subscribers.retain(|(id, ..)| *id != self.id);
    }
}

/// Hand a flushed batch to the session owner's subscribers, then append it
/// to the sink. Notification happens first so the batch needn't be cloned;
/// records a subscriber [`inject`]s land in the sink slightly before their
/// triggers, and the drain's timestamp sort restores causal order.
fn deliver(mut batch: Vec<Record>) {
    let subscribers: Vec<Arc<dyn Subscriber>> = {
        let taps = shared().taps.lock();
        taps.subscribers
            .iter()
            .filter(|(_, thread, _)| Some(*thread) == taps.owner)
            .map(|(.., s)| Arc::clone(s))
            .collect()
    };
    for subscriber in &subscribers {
        subscriber.on_records(&batch);
    }
    shared().sink.lock().append(&mut batch);
}

struct ThreadBuffer {
    /// Generation of the session this thread last joined (0: none yet).
    generation: u64,
    node: u32,
    rank: u32,
    records: Vec<Record>,
}

impl ThreadBuffer {
    const fn new() -> ThreadBuffer {
        ThreadBuffer { generation: 0, node: 0, rank: 0, records: Vec::new() }
    }

    /// Make this thread a member of session `generation`, dropping whatever
    /// it still buffered under another one.
    fn join(&mut self, generation: u64) {
        if self.generation != generation {
            self.records.clear();
            self.generation = generation;
        }
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

/// Whether a session is live — anywhere in the process, not necessarily
/// one the calling thread belongs to. The whole disabled-mode hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event on the calling thread. A no-op (one atomic load) when
/// no session is live, and dropped when the thread is not a member of the
/// one that is.
#[inline]
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    let generation = GENERATION.load(Ordering::Acquire);
    let batch = BUFFER.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.generation != generation {
            // Not a member of the live session: someone else's run.
            return None;
        }
        let ts_ns = shared().start.elapsed().as_nanos() as u64;
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
/// A no-op when no session is live. Membership is not checked: callbacks
/// run on member threads, and a thread-exit flush can no longer ask.
///
/// ```
/// use cannikin_telemetry::{inject, Counter, Event, Session};
///
/// let probe = || Event::Counter(Counter { name: "probe".into(), value: 1.0 });
/// inject(0, 0, probe()); // no session in the process: dropped
/// let session = Session::start();
/// inject(1, 2, probe());
/// let records = session.drain();
/// assert_eq!(records.len(), 1);
/// assert_eq!((records[0].node, records[0].rank), (1, 2));
/// ```
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

/// A session membership, captured on one thread to be entered on another.
/// Capture it *before* spawning ([`context`]) and move it into the child.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    generation: u64,
}

/// The calling thread's membership: of the session it started or last
/// entered, live or not. Entering the context of a non-member is harmless
/// (the child records nothing either).
pub fn context() -> Context {
    Context { generation: BUFFER.with(|cell| cell.borrow().generation) }
}

impl Context {
    /// Join the captured session on the calling thread, for as long as that
    /// session lives.
    pub fn enter(self) {
        BUFFER.with(|cell| cell.borrow_mut().join(self.generation));
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
            // membership check discards it in that case.
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
    /// (ending every earlier membership), enrols the calling thread as the
    /// first member and the owner whose subscribers are fed, and enables
    /// emission.
    pub fn start() -> Session {
        let guard = SESSION_LOCK.lock();
        shared().sink.lock().clear();
        shared().taps.lock().owner = Some(std::thread::current().id());
        let generation = GENERATION.fetch_add(1, Ordering::Release) + 1;
        BUFFER.with(|cell| cell.borrow_mut().join(generation));
        ENABLED.store(true, Ordering::Release);
        Session { _guard: guard }
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
        shared().taps.lock().owner = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Counter;
    use std::sync::mpsc;

    // No test here takes a lock: the harness runs them on parallel threads,
    // and membership is what keeps each out of the others' sessions.

    fn count_event(i: u64) -> Event {
        Event::Counter(Counter { name: "t".to_string(), value: i as f64 })
    }

    fn values(records: &[Record]) -> Vec<f64> {
        records
            .iter()
            .map(|r| match &r.event {
                Event::Counter(c) => c.value,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        emit(count_event(1)); // no session of ours live: must vanish
        let session = Session::start();
        emit(count_event(2));
        let records = session.drain();
        assert_eq!(records.len(), 1, "only the in-session event is kept");
    }

    #[test]
    fn drain_returns_timestamp_sorted_records() {
        let session = Session::start();
        for i in 0..200 {
            emit(count_event(i));
        }
        let records = session.drain();
        assert_eq!(records.len(), 200);
        assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Same-thread emission order survives the stable sort.
        assert!(values(&records).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sessions_isolate_their_events() {
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
        let session = Session::start();
        let ctx = context();
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                std::thread::spawn(move || {
                    ctx.enter();
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
            let own: Vec<Record> = records.iter().filter(|r| r.rank == t).cloned().collect();
            assert_eq!(own.len(), 500);
            assert!(values(&own).windows(2).all(|w| w[0] < w[1]), "thread {t} out of order");
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

    fn counting() -> Arc<CountingSubscriber> {
        Arc::new(CountingSubscriber { seen: Mutex::new(Vec::new()) })
    }

    #[test]
    fn subscriber_sees_every_record_exactly_once() {
        let sub = counting();
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
        let sub = counting();
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
        let _guard = subscribe(Arc::new(InjectingSubscriber));
        let session = Session::start();
        for i in 0..(FLUSH_THRESHOLD as u64) {
            emit(count_event(i));
        }
        // Threshold flush already fired inside the emit loop; a worker
        // thread exercises the thread-exit flush path too.
        let ctx = context();
        std::thread::spawn(move || {
            ctx.enter();
            emit(count_event(1_000));
        })
        .join()
        .unwrap();
        let records = session.drain();
        let injected: Vec<&Record> =
            records.iter().filter(|r| matches!(r.event, Event::SpanBegin(_))).collect();
        assert_eq!(injected.len(), 2, "one injection per non-marker batch");
        assert!(injected.iter().all(|r| r.node == 9 && r.rank == 9));
        assert_eq!(records.len(), FLUSH_THRESHOLD + 1 + 2);
    }

    #[test]
    fn a_thread_that_never_joined_records_nothing() {
        let sub = counting();
        let _guard = subscribe(sub.clone());
        let session = Session::start();
        std::thread::spawn(|| {
            for i in 0..1_000 {
                emit(count_event(i));
            }
            counter("stranger", 1.0);
            drop(span("stranger"));
        })
        .join()
        .unwrap();
        assert!(session.drain().is_empty(), "a non-member's events reached the sink");
        assert!(sub.seen.lock().is_empty(), "a non-member's events reached the subscriber");
    }

    #[test]
    fn a_joined_thread_records_in_order_under_its_own_identity() {
        let session = Session::start();
        let _id = set_thread_identity(1, 1);
        let ctx = context();
        std::thread::spawn(move || {
            ctx.enter();
            let _id = set_thread_identity(4, 2);
            for i in 0..300 {
                emit(count_event(i));
            }
        })
        .join()
        .unwrap();
        emit(count_event(300));
        let records = session.drain();
        let expected: Vec<f64> = (0..=300).map(f64::from).collect();
        assert_eq!(values(&records), expected);
        // Membership is inherited; identity is not.
        assert!(records[..300].iter().all(|r| (r.node, r.rank) == (4, 2)));
        assert_eq!((records[300].node, records[300].rank), (1, 1));
    }

    #[test]
    fn subscribers_hear_only_the_sessions_their_thread_starts() {
        // Registered by another thread, and still registered while ours runs.
        let foreign = counting();
        let (registered_tx, registered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let other = {
            let foreign = foreign.clone();
            std::thread::spawn(move || {
                let _guard = subscribe(foreign);
                registered_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            })
        };
        registered_rx.recv().unwrap();

        let ours = counting();
        let _guard = subscribe(ours.clone());
        let session = Session::start();
        let n = FLUSH_THRESHOLD as u64 * 3 + 5;
        for i in 0..n {
            emit(count_event(i));
        }
        let drained = session.drain();
        done_tx.send(()).unwrap();
        other.join().unwrap();

        assert_eq!(drained.len() as u64, n);
        assert_eq!(*ours.seen.lock(), drained, "every flushed batch, exactly once, in order");
        assert!(foreign.seen.lock().is_empty(), "another thread's subscriber heard our session");
    }

    #[test]
    fn membership_ends_with_the_session() {
        // A long-lived worker: emits one event and flushes each time it is
        // poked, entering a context first when it is handed one.
        let (poke_tx, poke_rx) = mpsc::channel::<Option<Context>>();
        let (ack_tx, ack_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            for (i, ctx) in poke_rx.into_iter().enumerate() {
                if let Some(ctx) = ctx {
                    ctx.enter();
                }
                emit(count_event(i as u64));
                flush_thread();
                ack_tx.send(()).unwrap();
            }
        });
        let poke = |ctx: Option<Context>| {
            poke_tx.send(ctx).unwrap();
            ack_rx.recv().unwrap();
        };

        let first = Session::start();
        poke(Some(context()));
        assert_eq!(values(&first.drain()), [0.0]);
        drop(first);

        let second = Session::start();
        poke(None);
        assert!(second.drain().is_empty(), "a member of the previous session recorded into this one");
        poke(Some(context()));
        assert_eq!(values(&second.drain()), [2.0], "joining again resumes recording");
        drop(second);

        drop(poke_tx);
        worker.join().unwrap();
    }
}
