//! # cannikin-insight — diagnostics over the telemetry stream
//!
//! Cannikin's value proposition is that its predictions *stay
//! calibrated*: the OptPerf model must keep matching realized step times
//! (§3), the GNS trajectory must stay smooth enough to drive batch
//! sizing (§4), and a node whose compute law changed (the §6 contention
//! scenario) must be re-profiled rather than trusted. That last verdict
//! is the analyzer's own: `cannikin-core` clears the node's history and
//! emits a `RegimeChange`, and this crate *reports* it as a straggler
//! when the node got slower. This crate watches the `cannikin-telemetry`
//! event stream for those failure modes, in two interchangeable forms:
//!
//! * **Online** — [`Monitor::install`] taps the recorder's sink via the
//!   subscriber API and runs the [`DetectorSet`] live: stragglers from
//!   the analyzer's regime changes, predicted-vs-observed plan
//!   calibration, GNS drift, and all-reduce bucket imbalance. Anomalies
//!   are injected back into the stream as typed
//!   [`AnomalyDetected`](cannikin_telemetry::AnomalyDetected) events, and
//!   [`Monitor::report`] summarizes them. Nothing flows back into
//!   training: the monitor observes, the analyzer decides.
//! * **Offline** — [`replay::analyze`] reconstructs per-node/per-plan
//!   timelines from a drained session or a parsed JSONL export and
//!   replays the *same* detectors, so the `cannikin-insight` CLI can
//!   post-mortem any run exported with `CANNIKIN_TELEMETRY=jsonl:…` —
//!   and the round-trip tests assert the offline rerun reproduces the
//!   online verdicts byte-for-byte.
//!
//! ```
//! use cannikin_insight::{InsightConfig, Monitor};
//! use cannikin_telemetry as telemetry;
//!
//! let monitor = Monitor::install(InsightConfig::default());
//! let session = telemetry::Session::start();
//! // ... training emits StepTiming / SplitDecision / Gns events ...
//! telemetry::flush_thread();
//! assert!(monitor.report().healthy());
//! let records = session.drain();
//! let replay = cannikin_insight::replay::analyze(&records, InsightConfig::default());
//! assert!(replay.anomalies_match());
//! ```

pub mod detectors;
pub mod monitor;
pub mod replay;
pub mod report;
pub mod slo;

pub use detectors::{DetectorSet, InsightConfig};
pub use monitor::{HealthReport, Monitor};
pub use replay::{analyze, NodeTimeline, PlanSummary, ReplayReport};
pub use report::{FleetTraceReport, JobTimeline};
pub use slo::{replay_slos, SloEngine, SloMonitor, SloReport};
