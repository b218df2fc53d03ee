//! The live monitor: the one live tap, hosting the detector suite.
//!
//! [`Monitor::install`] registers a tap on the telemetry sink; from then
//! on every flushed batch runs through the [`DetectorSet`] on the
//! emitting thread. Each anomaly is injected back into the event stream
//! as a typed [`AnomalyDetected`] record (plus an `insight_anomalies`
//! counter), so exported traces carry the online verdicts, and
//! [`Monitor::report`] summarizes the whole run as a [`HealthReport`].
//! Mid-run readers call `telemetry::flush_thread()` first, so the
//! calling thread's buffered events have reached the detectors.

use crate::detectors::{DetectorSet, InsightConfig};
use crate::observer::Tap;
use cannikin_telemetry::{AnomalyDetected, AnomalyKind};

/// A live diagnostics tap on the telemetry stream. Cheap to clone; the
/// subscription lasts until the last clone drops.
#[derive(Clone)]
pub struct Monitor {
    tap: Tap<DetectorSet>,
}

impl Monitor {
    /// Register a monitor with the given thresholds. It observes every
    /// record flushed from now on by the sessions the calling thread
    /// starts (recording itself still requires a live
    /// `telemetry::Session`).
    pub fn install(config: InsightConfig) -> Monitor {
        Monitor { tap: Tap::install(DetectorSet::new(config)) }
    }

    /// Cumulative health summary since installation.
    pub fn report(&self) -> HealthReport {
        let tapped = self.tap.lock();
        let mut straggling: Vec<u32> =
            tapped.verdicts.iter().filter(|a| a.kind == AnomalyKind::Straggler).filter_map(|a| a.node).collect();
        straggling.sort_unstable();
        straggling.dedup();
        HealthReport {
            events_seen: tapped.events_seen,
            anomalies: tapped.verdicts.clone(),
            straggling_nodes: straggling,
            latest_calibration_error: tapped.observer.latest_calibration_error(),
            latest_noise_scale: tapped.observer.smoothed_noise_scale(),
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tapped = self.tap.lock();
        write!(f, "Monitor({} events, {} anomalies)", tapped.events_seen, tapped.verdicts.len())
    }
}

/// What the monitor knows about the run's health — the summary the
/// experiments render and tests assert on.
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
    use cannikin_telemetry::{self as telemetry, Event, RegimeChange, Session, StepTiming};

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
        for step in 0..6u64 {
            emit_timing(step, 0, 32, 0.37);
        }
        // The analyzer's verdicts: node 0 slowed 2x, node 1 sped up.
        telemetry::emit(Event::RegimeChange(RegimeChange { node: 0, b_i: 32, expected: 0.37, observed: 0.74 }));
        telemetry::emit(Event::RegimeChange(RegimeChange { node: 1, b_i: 32, expected: 0.74, observed: 0.37 }));
        telemetry::flush_thread();

        let report = monitor.report();
        assert!(!report.healthy());
        assert_eq!(report.straggling_nodes, vec![0]);
        assert_eq!(report.anomalies.len(), 1);
        let straggler = &report.anomalies[0];
        assert_eq!((straggler.kind, straggler.node, straggler.step), (AnomalyKind::Straggler, Some(0), 5));

        // The anomaly (and its counter) were injected into the stream.
        let records = session.drain();
        let injected: Vec<&AnomalyDetected> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::AnomalyDetected(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(injected, [straggler]);
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
}
