//! The live monitor: a recorder [`Subscriber`] hosting the detector
//! suite.
//!
//! [`Monitor::install`] registers a tap on the telemetry sink; from then
//! on every flushed batch runs through the [`DetectorSet`] on the
//! emitting thread. Each anomaly is injected back into the event stream
//! as a typed [`AnomalyDetected`] record (plus an `insight_anomalies`
//! counter), so exported traces carry the online verdicts, and is queued
//! for the engine: [`Monitor::drain_new`] hands back anomalies found
//! since the last drain, and [`Monitor::report`] summarizes the whole
//! run as a [`HealthReport`].
//!
//! Emission from inside the subscriber callback uses
//! [`cannikin_telemetry::inject`] exclusively — callbacks can run during
//! a thread-exit flush, where touching the thread-local buffer would be
//! undefined (see the recorder docs).

use crate::detectors::{DetectorSet, InsightConfig};
use cannikin_telemetry::{self as telemetry, AnomalyDetected, AnomalyKind, Counter, Event, Record, Subscriber};
use parking_lot::Mutex;
use std::sync::Arc;

struct State {
    set: DetectorSet,
    events_seen: u64,
    /// Every anomaly since installation (the cumulative report).
    anomalies: Vec<AnomalyDetected>,
    /// Anomalies since the last [`Monitor::drain_new`].
    fresh: Vec<AnomalyDetected>,
}

struct Inner {
    state: Mutex<State>,
}

impl Subscriber for Inner {
    fn on_records(&self, batch: &[Record]) {
        let mut state = self.state.lock();
        for record in batch {
            state.events_seen += 1;
            let found = state.set.observe(record);
            for anomaly in found {
                telemetry::inject(
                    anomaly.node.unwrap_or(record.node),
                    record.rank,
                    Event::AnomalyDetected(anomaly.clone()),
                );
                state.anomalies.push(anomaly.clone());
                state.fresh.push(anomaly);
                telemetry::inject(
                    record.node,
                    record.rank,
                    Event::Counter(Counter {
                        name: "insight_anomalies".to_string(),
                        value: state.anomalies.len() as f64,
                    }),
                );
            }
        }
    }
}

/// A live diagnostics tap on the telemetry stream. Cheap to clone; the
/// subscription lasts until the last clone drops.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<Inner>,
    _guard: Arc<telemetry::SubscriberGuard>,
}

impl Monitor {
    /// Register a monitor with the given thresholds. It observes every
    /// record flushed from now on by the sessions the calling thread
    /// starts (recording itself still requires a live
    /// `telemetry::Session`).
    pub fn install(config: InsightConfig) -> Monitor {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                set: DetectorSet::new(config),
                events_seen: 0,
                anomalies: Vec::new(),
                fresh: Vec::new(),
            }),
        });
        let guard = telemetry::subscribe(inner.clone() as Arc<dyn Subscriber>);
        Monitor { inner, _guard: Arc::new(guard) }
    }

    /// Anomalies detected since the previous call (the engine's per-epoch
    /// poll). Call `telemetry::flush_thread()` first so the current
    /// thread's buffered events have reached the detectors.
    pub fn drain_new(&self) -> Vec<AnomalyDetected> {
        std::mem::take(&mut self.inner.state.lock().fresh)
    }

    /// Cumulative health summary since installation.
    pub fn report(&self) -> HealthReport {
        let state = self.inner.state.lock();
        let mut straggling: Vec<u32> =
            state.anomalies.iter().filter(|a| a.kind == AnomalyKind::Straggler).filter_map(|a| a.node).collect();
        straggling.sort_unstable();
        straggling.dedup();
        HealthReport {
            events_seen: state.events_seen,
            anomalies: state.anomalies.clone(),
            straggling_nodes: straggling,
            latest_calibration_error: state.set.latest_calibration_error(),
            latest_noise_scale: state.set.smoothed_noise_scale(),
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        write!(f, "Monitor({} events, {} anomalies)", state.events_seen, state.anomalies.len())
    }
}

/// What the monitor knows about the run's health — the summary the
/// engine logs per epoch and tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Records observed since installation.
    pub events_seen: u64,
    /// Every anomaly fired, in detection order.
    pub anomalies: Vec<AnomalyDetected>,
    /// Distinct nodes flagged as stragglers, ascending.
    pub straggling_nodes: Vec<u32>,
    /// Relative OptPerf error of the most recently completed plan.
    pub latest_calibration_error: Option<f64>,
    /// Smoothed gradient-noise-scale trajectory, when GNS events flow.
    pub latest_noise_scale: Option<f64>,
}

impl HealthReport {
    /// No anomalies of any kind.
    pub fn healthy(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// A short multi-line text rendering (the engine's per-epoch log
    /// line and the CLI's online section).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health: {} events, {} anomalies ({})",
            self.events_seen,
            self.anomalies.len(),
            if self.healthy() { "healthy" } else { "DEGRADED" }
        );
        if !self.straggling_nodes.is_empty() {
            let _ = writeln!(out, "  straggling nodes: {:?}", self.straggling_nodes);
        }
        if let Some(err) = self.latest_calibration_error {
            let _ = writeln!(out, "  plan calibration error: {:.1}%", err * 100.0);
        }
        if let Some(phi) = self.latest_noise_scale {
            let _ = writeln!(out, "  smoothed noise scale: {phi:.1}");
        }
        for a in &self.anomalies {
            let _ = writeln!(
                out,
                "  [{}] step {} node {} expected {:.4} observed {:.4} ({:.2}x)",
                a.kind.as_str(),
                a.step,
                a.node.map_or_else(|| "-".to_string(), |n| n.to_string()),
                a.expected,
                a.observed,
                a.severity
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{Session, StepTiming};

    fn emit_timing(step: u64, rank: u32, b: u64, t: f64) {
        telemetry::emit(Event::StepTiming(StepTiming {
            step,
            rank,
            b_i: b,
            t_compute: t,
            t_comm: 0.0,
            overlap: 0.0,
        }));
    }

    #[test]
    fn monitor_detects_and_injects_anomalies_online() {
        let monitor = Monitor::install(InsightConfig::default());
        let session = Session::start();
        let law = |b: f64| 0.01 * b + 0.05;
        let mut step = 0u64;
        for _ in 0..6 {
            for b in [32u64, 48] {
                emit_timing(step, 0, b, law(b as f64));
                step += 1;
            }
        }
        for _ in 0..4 {
            emit_timing(step, 0, 32, 2.0 * law(32.0));
            step += 1;
        }
        telemetry::flush_thread();

        let fresh = monitor.drain_new();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, AnomalyKind::Straggler);
        assert_eq!(fresh[0].node, Some(0));
        assert!(monitor.drain_new().is_empty(), "drain_new must not replay");

        let report = monitor.report();
        assert!(!report.healthy());
        assert_eq!(report.straggling_nodes, vec![0]);
        assert_eq!(report.anomalies, fresh, "report keeps what drain_new handed out");

        // The anomaly (and its counter) were injected into the stream.
        let records = session.drain();
        let injected: Vec<&AnomalyDetected> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::AnomalyDetected(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(injected.len(), 1);
        assert_eq!(*injected[0], fresh[0]);
        assert!(records.iter().any(|r| matches!(
            &r.event,
            Event::Counter(c) if c.name == "insight_anomalies" && (c.value - 1.0).abs() < 1e-12
        )));
        let rendered = report.render();
        assert!(rendered.contains("DEGRADED"));
        assert!(rendered.contains("straggler"));
    }

    #[test]
    fn healthy_run_reports_healthy() {
        let monitor = Monitor::install(InsightConfig::default());
        let session = Session::start();
        let law = |b: f64| 0.02 * b + 0.1;
        for step in 0..30u64 {
            let b = if step % 2 == 0 { 16 } else { 24 };
            emit_timing(step, 0, b, law(b as f64));
        }
        telemetry::flush_thread();
        let report = monitor.report();
        assert!(report.healthy());
        assert_eq!(report.events_seen, 30);
        assert!(report.render().contains("healthy"));
        drop(session);
    }

    #[test]
    fn dropped_monitor_unsubscribes() {
        let session = Session::start();
        {
            let _monitor = Monitor::install(InsightConfig::default());
        }
        emit_timing(0, 0, 32, 0.5);
        telemetry::flush_thread();
        // No panic, no injected events: the tap is gone.
        let records = session.drain();
        assert_eq!(records.len(), 1);
    }
}
