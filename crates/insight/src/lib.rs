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
//! event stream for those failure modes — and judges fleet SLOs — with
//! two engines of one shape: the anomaly [`DetectorSet`] (stragglers from
//! the analyzer's regime changes, predicted-vs-observed plan calibration,
//! GNS drift, all-reduce bucket imbalance) and the [`SloEngine`]. Each
//! turns records into verdicts and runs in two interchangeable forms:
//!
//! * **Online** — one live tap, the crate's only recorder subscriber:
//!   [`Monitor::install`] and [`SloMonitor::install`] run the engine over
//!   every flushed batch and inject each verdict back into the stream as
//!   a typed [`AnomalyDetected`](cannikin_telemetry::AnomalyDetected) or
//!   [`SloViolation`](cannikin_telemetry::SloViolation) record;
//!   [`Monitor::report`] and [`SloMonitor::violations`] summarize them.
//!   Nothing flows back into training: the monitor observes, the analyzer
//!   decides.
//! * **Offline** — one replay: [`replay::analyze`] and [`replay_slos`]
//!   rerun the *same* engine over a drained session or a parsed JSONL
//!   export and set its verdicts next to the ones recorded in the trace;
//!   [`replay::analyze`] also reconstructs per-node and per-plan
//!   timelines. So the `cannikin-insight` CLI can post-mortem any run
//!   exported with `CANNIKIN_TELEMETRY=jsonl:…`, and the round-trip tests
//!   assert the offline rerun reproduces the online verdicts
//!   byte-for-byte.
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
mod observer;
pub mod replay;
pub mod report;
pub mod slo;

pub use detectors::{DetectorSet, InsightConfig};
pub use monitor::{HealthReport, Monitor};
pub use replay::{analyze, NodeTimeline, PlanSummary, ReplayReport};
pub use report::{FleetTraceReport, JobTimeline};
pub use slo::{replay_slos, SloEngine, SloMonitor, SloReport};
