//! The one observer shape: an engine that turns records into verdicts,
//! run live by a [`Tap`] on the telemetry stream or offline by [`replay`]
//! over a recorded one.
//!
//! [`DetectorSet`](crate::DetectorSet) and [`SloEngine`](crate::SloEngine)
//! are both [`Observer`]s; [`crate::Monitor`] and [`crate::SloMonitor`]
//! are a tap around one, and [`crate::analyze`] and
//! [`crate::replay_slos`] a replay. Because the live tap writes each
//! verdict into the stream as the record the observer later finds in a
//! trace, replaying the trace reproduces the online verdicts exactly —
//! the agreement both reports check.

use cannikin_telemetry::{self as telemetry, Counter, Event, Record, Subscriber};
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// An engine over the record stream. It keeps no wall-clock state and
/// ignores the records it writes itself, so equal streams give equal
/// verdicts online and offline.
pub(crate) trait Observer: Send + 'static {
    /// What the engine concludes.
    type Verdict: Clone + Send;

    /// A running count of verdicts, injected under this counter name after
    /// each one.
    const TALLY: Option<&'static str> = None;

    /// Feed one record; returns the verdicts it triggered (usually none).
    fn observe(&mut self, record: &Record) -> Vec<Self::Verdict>;

    /// The verdict as the event written into the stream, and the node it
    /// is charged to when that is not its trigger's.
    fn event(verdict: &Self::Verdict) -> (Option<u32>, Event);

    /// The verdict a recorded event carries, if it is one of this
    /// observer's.
    fn recorded(event: &Event) -> Option<&Self::Verdict>;
}

/// What a tap holds under its one lock.
pub(crate) struct Tapped<O: Observer> {
    pub(crate) observer: O,
    /// Every verdict since installation, in detection order.
    pub(crate) verdicts: Vec<O::Verdict>,
    /// Records observed since installation.
    pub(crate) events_seen: u64,
}

struct Sink<O: Observer>(Mutex<Tapped<O>>);

impl<O: Observer> Subscriber for Sink<O> {
    fn on_records(&self, batch: &[Record]) {
        let mut tapped = self.0.lock();
        for record in batch {
            tapped.events_seen += 1;
            for verdict in tapped.observer.observe(record) {
                // `inject`, not `emit`: callbacks may run during a
                // thread-exit flush, and injected records do not loop back
                // through subscribers (see the recorder docs).
                let (node, event) = O::event(&verdict);
                telemetry::inject(node.unwrap_or(record.node), record.rank, event);
                tapped.verdicts.push(verdict);
                if let Some(name) = O::TALLY {
                    let value = tapped.verdicts.len() as f64;
                    telemetry::inject(record.node, record.rank, Event::Counter(Counter { name: name.into(), value }));
                }
            }
        }
    }
}

/// A live observer: runs it over every batch flushed by the sessions the
/// installing thread starts. Cheap to clone; the subscription lasts until
/// the last clone drops.
pub(crate) struct Tap<O: Observer> {
    sink: Arc<Sink<O>>,
    _guard: Arc<telemetry::SubscriberGuard>,
}

impl<O: Observer> Clone for Tap<O> {
    fn clone(&self) -> Self {
        Tap { sink: Arc::clone(&self.sink), _guard: Arc::clone(&self._guard) }
    }
}

impl<O: Observer> Tap<O> {
    pub(crate) fn install(observer: O) -> Tap<O> {
        let sink = Arc::new(Sink(Mutex::new(Tapped { observer, verdicts: Vec::new(), events_seen: 0 })));
        let guard = telemetry::subscribe(sink.clone() as Arc<dyn Subscriber>);
        Tap { sink, _guard: Arc::new(guard) }
    }

    /// The tap's state, locked. Mid-run readers call
    /// `telemetry::flush_thread()` first, so the calling thread's buffered
    /// records have reached the observer.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Tapped<O>> {
        self.sink.0.lock()
    }
}

/// Rerun `observer` over a recorded stream (in drain order). Returns the
/// verdicts it reaches (`offline`) and those recorded in the trace
/// (`online`), each in stream order. `before` sees every record, and the
/// observer's state, before the observer does.
pub(crate) fn replay<O: Observer>(
    observer: &mut O,
    records: &[Record],
    mut before: impl FnMut(&O, &Record),
) -> (Vec<O::Verdict>, Vec<O::Verdict>) {
    let mut offline = Vec::new();
    let mut online = Vec::new();
    for record in records {
        before(observer, record);
        if let Some(verdict) = O::recorded(&record.event) {
            online.push(verdict.clone());
        }
        offline.extend(observer.observe(record));
    }
    (offline, online)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, replay_slos, DetectorSet, InsightConfig, SloEngine};
    use cannikin_telemetry::{Session, SloRule, SplitDecision, SplitSource, StepTiming};
    use std::fmt::Debug;

    /// The detectors and a stream on which they fire once: a plan that
    /// predicted 0.4 s per batch realizes 0.8 s. A calibration drift
    /// names no node, so its record is charged to its trigger's.
    fn detectors() -> (DetectorSet, Vec<Event>) {
        let decision = Event::SplitDecision(SplitDecision {
            total: 64,
            local: vec![32, 32],
            predicted_t: Some(0.4),
            source: SplitSource::Solver,
        });
        let mut events = vec![decision.clone()];
        for step in 0..5 {
            events.push(Event::StepTiming(StepTiming {
                step,
                rank: 0,
                b_i: 32,
                t_compute: 0.8,
                t_comm: 0.0,
                overlap: 0.0,
            }));
        }
        events.push(decision);
        (DetectorSet::new(InsightConfig::default()), events)
    }

    fn goodput_floor() -> Vec<SloRule> {
        vec![SloRule::GoodputFloor { floor: 1.0 }]
    }

    /// The SLO engine and a stream on which it fires once: goodput dips
    /// under its floor and recovers.
    fn slos() -> (SloEngine, Vec<Event>) {
        let events = [5.0, 0.2, 4.0]
            .map(|value| Event::Counter(Counter { name: "fleet_goodput".into(), value }))
            .to_vec();
        (SloEngine::new(goodput_floor()), events)
    }

    /// Emit `events` from node 3, rank 5, with `observer` tapped live;
    /// returns the tap and the drained trace.
    fn live<O: Observer>(observer: O, events: &[Event]) -> (Tap<O>, Vec<Record>) {
        let tap = Tap::install(observer);
        let session = Session::start();
        {
            let _id = telemetry::set_thread_identity(3, 5);
            for event in events {
                telemetry::emit(event.clone());
            }
            telemetry::flush_thread();
        }
        (tap, session.drain())
    }

    #[test]
    fn a_verdict_carries_its_triggers_node_and_rank() {
        fn check<O: Observer>((observer, events): (O, Vec<Event>))
        where
            O::Verdict: PartialEq + Debug,
        {
            let (tap, trace) = live(observer, &events);
            let verdicts = tap.lock().verdicts.clone();
            assert_eq!(verdicts.len(), 1);
            let written: Vec<(u32, u32, &O::Verdict)> =
                trace.iter().filter_map(|r| O::recorded(&r.event).map(|v| (r.node, r.rank, v))).collect();
            assert_eq!(written, [(3, 5, &verdicts[0])]);
            if let Some(name) = O::TALLY {
                let tally = trace.iter().find_map(|r| match &r.event {
                    Event::Counter(c) if c.name == name => Some((r.node, r.rank, c.value)),
                    _ => None,
                });
                assert_eq!(tally, Some((3, 5, 1.0)));
            }
        }
        check(detectors());
        check(slos());
    }

    #[test]
    fn injected_records_are_not_redelivered() {
        fn check<O: Observer>((observer, events): (O, Vec<Event>)) {
            let (tap, trace) = live(observer, &events);
            // The sink holds the verdict (and its tally) after the emitted
            // records, but the observer saw only what was emitted.
            let injected = 1 + usize::from(O::TALLY.is_some());
            assert_eq!(trace.len(), events.len() + injected);
            let tapped = tap.lock();
            assert_eq!((tapped.events_seen, tapped.verdicts.len()), (events.len() as u64, 1));
        }
        check(detectors());
        check(slos());
    }

    #[test]
    fn a_dropped_tap_unsubscribes() {
        fn check<O: Observer>((observer, events): (O, Vec<Event>)) {
            let session = Session::start();
            drop(Tap::install(observer));
            for event in &events {
                telemetry::emit(event.clone());
            }
            telemetry::flush_thread();
            // No panic, no injected records: the tap is gone.
            assert_eq!(session.drain().len(), events.len());
        }
        check(detectors());
        check(slos());
    }

    /// The live tap's trace replays to the same verdicts; a dropped or a
    /// forged verdict record breaks the agreement, both in the one replay
    /// and in the report built on it.
    #[test]
    fn replay_reproduces_online_verdicts_and_detects_tampering() {
        fn check<O: Observer>(make: impl Fn() -> (O, Vec<Event>), agrees: impl Fn(&[Record]) -> bool) -> Vec<Record>
        where
            O::Verdict: PartialEq + Debug,
        {
            let (observer, events) = make();
            let (_tap, trace) = live(observer, &events);
            let replayed = |trace: &[Record]| replay(&mut make().0, trace, |_, _| {});
            let (offline, online) = replayed(&trace);
            assert_eq!(offline.len(), 1);
            assert_eq!(offline, online);
            assert!(agrees(&trace));

            let verdict_at = trace.iter().position(|r| O::recorded(&r.event).is_some()).expect("a verdict record");
            let mut dropped = trace.clone();
            dropped.remove(verdict_at);
            let (offline, online) = replayed(&dropped);
            assert_ne!(offline, online);
            assert!(!agrees(&dropped));

            let mut forged = trace.clone();
            forged.push(trace[verdict_at].clone());
            let (offline, online) = replayed(&forged);
            assert_ne!(offline, online);
            assert!(!agrees(&forged));
            trace
        }
        check(detectors, |trace| analyze(trace, InsightConfig::default()).anomalies_match());
        let trace = check(slos, |trace| replay_slos(trace, &goodput_floor()).verdicts_match());
        let report = replay_slos(&trace, &goodput_floor());
        assert_eq!(report.count_for("goodput_floor", None), 1);
        assert!(report.render().contains("verdicts agree"));
    }
}
