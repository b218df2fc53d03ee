//! # cannikin-insight — diagnostics over recorded telemetry traces
//!
//! Cannikin's value proposition is that its predictions *stay
//! calibrated*: the OptPerf model must keep matching realized step times
//! (§3), the GNS trajectory must stay smooth enough to drive batch
//! sizing (§4), and a node whose compute law changed (the §6 contention
//! scenario) must be re-profiled rather than trusted. That last verdict
//! is the analyzer's own: `cannikin-core` clears the node's history and
//! emits a `RegimeChange`, and this crate *reports* it as a straggler
//! when the node got slower. This crate reads recorded `cannikin-telemetry`
//! event streams for those failure modes — and judges fleet [`SloRule`]s —
//! with two passes over the records: [`analyze`] runs the anomaly
//! detectors (stragglers from the analyzer's regime changes,
//! predicted-vs-observed plan calibration, GNS drift, all-reduce bucket
//! imbalance, each with fixed thresholds) and reconstructs per-node and
//! per-plan timelines; [`replay_slos`] judges the rules. Both run over a
//! drained session or a parsed JSONL export, so the `cannikin-insight`
//! CLI can post-mortem any run exported with `CANNIKIN_TELEMETRY=jsonl:…`.
//! Nothing flows back into training: the diagnostics report, the analyzer
//! decides.
//!
//! ```
//! use cannikin_insight::{analyze, InsightConfig};
//! use cannikin_telemetry as telemetry;
//!
//! let session = telemetry::Session::start();
//! // ... training emits StepTiming / SplitDecision / Gns events ...
//! let records = session.drain();
//! let replay = analyze(&records, InsightConfig {});
//! assert!(replay.anomalies.is_empty());
//! ```

pub mod detectors;
pub mod replay;
pub mod report;
pub mod slo;

pub use detectors::{AnomalyDetected, AnomalyKind, InsightConfig};
pub use replay::{analyze, NodeTimeline, PlanSummary, ReplayReport};
pub use report::{FleetTraceReport, JobTimeline};
pub use slo::{default_fleet_slos, nearest_rank, replay_slos, SloReport, SloRule, SloViolation};
