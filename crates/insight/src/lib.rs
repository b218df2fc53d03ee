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
//! event streams for those failure modes — and judges fleet SLOs — with
//! two engines: the anomaly [`DetectorSet`] (stragglers from
//! the analyzer's regime changes, predicted-vs-observed plan calibration,
//! GNS drift, all-reduce bucket imbalance) and the [`SloEngine`]. Each
//! turns records into verdicts, and every diagnostic is a function of a
//! recorded trace: [`analyze`] and [`replay_slos`] run their engine over a
//! drained session or a parsed JSONL export, and [`analyze`] also
//! reconstructs per-node and per-plan timelines. So the `cannikin-insight`
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
//! let replay = analyze(&records, InsightConfig::default());
//! assert!(replay.anomalies.is_empty());
//! ```

pub mod detectors;
pub mod replay;
pub mod report;
pub mod slo;

pub use detectors::{AnomalyDetected, AnomalyKind, DetectorSet, InsightConfig};
pub use replay::{analyze, NodeTimeline, PlanSummary, ReplayReport};
pub use report::{FleetTraceReport, JobTimeline};
pub use slo::{replay_slos, SloEngine, SloReport, SloViolation};
