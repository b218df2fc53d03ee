//! Offline trace replay: reconstruct timelines from a recorded stream
//! and run the same detectors the live monitor runs.
//!
//! [`analyze`] consumes the records of a drained session (or a parsed
//! JSONL export), builds per-node timing timelines and per-plan
//! calibration summaries, and replays the [`DetectorSet`] over the
//! stream. Because a drained stream is timestamp-sorted and a single
//! driver thread's emission order survives that sort, the offline
//! detectors see exactly the sequence the online monitor saw — so
//! [`ReplayReport::anomalies_match`] can demand byte-for-byte agreement
//! between the `offline` rerun and the `online` verdicts recorded in the
//! trace.

use crate::detectors::{DetectorSet, InsightConfig};
use cannikin_telemetry::{AnomalyDetected, Event, Histogram, Record};
use std::collections::BTreeMap;

/// Timing summary of one node (envelope rank of its `StepTiming`s).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTimeline {
    /// Node / rank index.
    pub rank: u32,
    /// Step timings observed.
    pub steps: u64,
    /// Mean local batch size.
    pub mean_batch: f64,
    /// Compute-time quantiles, seconds.
    pub compute_p50: f64,
    /// 90th percentile compute time, seconds.
    pub compute_p90: f64,
    /// Worst observed compute time, seconds.
    pub compute_max: f64,
}

/// Predicted-vs-realized summary of one plan interval (the records
/// between two consecutive `SplitDecision`s).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Ordinal of the decision in the trace.
    pub index: usize,
    /// Planning path (`even_init`, `bootstrap`, `solver`, `warm_start`).
    pub source: String,
    /// Total batch size of the plan.
    pub total: u64,
    /// Per-node local batches.
    pub local: Vec<u64>,
    /// The solver's predicted batch time, if the plan was model-based.
    pub predicted_t: Option<f64>,
    /// Mean realized batch time under the plan (straggler compute plus
    /// non-overlapped synchronization), if steps were observed.
    pub realized_t: Option<f64>,
    /// `|realized − predicted| / predicted`, when both exist.
    pub rel_error: Option<f64>,
}

/// Everything [`analyze`] reconstructs from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Total records in the trace.
    pub events: u64,
    /// Record count per event kind, sorted by kind.
    pub kind_counts: Vec<(String, u64)>,
    /// Per-node timelines, ascending by rank.
    pub nodes: Vec<NodeTimeline>,
    /// Per-plan calibration, in trace order.
    pub plans: Vec<PlanSummary>,
    /// Anomalies produced by replaying the detectors over the trace.
    pub offline: Vec<AnomalyDetected>,
    /// `AnomalyDetected` records already present in the trace (the online
    /// monitor's verdicts), in trace order.
    pub online: Vec<AnomalyDetected>,
}

impl ReplayReport {
    /// Whether the offline rerun reproduced the online verdicts exactly
    /// (same count, same kinds, same steps, same payloads).
    pub fn anomalies_match(&self) -> bool {
        self.offline == self.online
    }

    /// Text rendering of the full report (the CLI's output).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} records", self.events);
        for (kind, count) in &self.kind_counts {
            let _ = writeln!(out, "  {kind:<18} {count}");
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(out, "per-node compute (s): rank  steps  mean_b  p50      p90      max");
            for n in &self.nodes {
                let _ = writeln!(
                    out,
                    "                      {:>4}  {:>5}  {:>6.1}  {:.5}  {:.5}  {:.5}",
                    n.rank, n.steps, n.mean_batch, n.compute_p50, n.compute_p90, n.compute_max
                );
            }
        }
        if !self.plans.is_empty() {
            let _ = writeln!(out, "plans: idx  source      total  predicted  realized  error");
            for p in &self.plans {
                let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.5}"));
                let _ = writeln!(
                    out,
                    "       {:>3}  {:<10}  {:>5}  {:>9}  {:>8}  {}",
                    p.index,
                    p.source,
                    p.total,
                    fmt_opt(p.predicted_t),
                    fmt_opt(p.realized_t),
                    p.rel_error.map_or_else(|| "-".to_string(), |e| format!("{:.1}%", e * 100.0)),
                );
            }
        }
        let _ = writeln!(out, "anomalies: {} offline, {} online in trace", self.offline.len(), self.online.len());
        for a in &self.offline {
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
        let _ = writeln!(
            out,
            "online/offline agreement: {}",
            if self.anomalies_match() { "EXACT" } else { "MISMATCH" }
        );
        out
    }
}

/// Per-plan accumulation while scanning the trace.
#[derive(Debug, Default)]
struct PlanAccum {
    steps: BTreeMap<u64, (f64, f64, f64, u64)>, // max_compute, max_comm, sum_overlap, count
}

impl PlanAccum {
    fn observe(&mut self, step: u64, t_compute: f64, t_comm: f64, overlap: f64) {
        let e = self.steps.entry(step).or_insert((0.0, 0.0, 0.0, 0));
        e.0 = e.0.max(t_compute);
        e.1 = e.1.max(t_comm);
        e.2 += overlap;
        e.3 += 1;
    }

    fn realized(&self) -> Option<f64> {
        if self.steps.is_empty() {
            return None;
        }
        let total: f64 = self
            .steps
            .values()
            .map(|&(compute, comm, overlap_sum, count)| {
                let overlap = if count > 0 { overlap_sum / count as f64 } else { 0.0 };
                compute + (1.0 - overlap.clamp(0.0, 1.0)) * comm
            })
            .sum();
        Some(total / self.steps.len() as f64)
    }
}

struct NodeAccum {
    hist: Histogram,
    steps: u64,
    batch_sum: f64,
    compute_max: f64,
}

impl NodeAccum {
    fn new() -> NodeAccum {
        NodeAccum {
            // 1 µs … ~67 s in 26 exponential buckets: covers every step
            // time the simulator or the functional path produces.
            hist: Histogram::exponential(1e-6, 2.0, 26),
            steps: 0,
            batch_sum: 0.0,
            compute_max: 0.0,
        }
    }
}

/// Reconstruct timelines and replay the detectors over a record stream.
/// Pass the records in drain order (a drained session or a parsed JSONL
/// export is already timestamp-sorted).
pub fn analyze(records: &[Record], config: InsightConfig) -> ReplayReport {
    let mut set = DetectorSet::new(config);
    let mut kind_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut nodes: BTreeMap<u32, NodeAccum> = BTreeMap::new();
    let mut plans: Vec<PlanSummary> = Vec::new();
    let mut accum: Option<PlanAccum> = None;
    let mut offline = Vec::new();
    let mut online = Vec::new();
    let mut events = 0u64;

    fn finalize_plan(plans: &mut [PlanSummary], accum: &mut Option<PlanAccum>) {
        if let (Some(acc), Some(plan)) = (accum.take(), plans.last_mut()) {
            plan.realized_t = acc.realized();
            plan.rel_error = match (plan.predicted_t, plan.realized_t) {
                (Some(p), Some(r)) if p > 0.0 => Some((r - p).abs() / p),
                _ => None,
            };
        }
    }

    for record in records {
        events += 1;
        *kind_counts.entry(record.event.kind()).or_insert(0) += 1;
        offline.extend(set.observe(record));
        match &record.event {
            Event::StepTiming(t) => {
                let node = nodes.entry(t.rank).or_insert_with(NodeAccum::new);
                node.hist.record(t.t_compute);
                node.steps += 1;
                node.batch_sum += t.b_i as f64;
                node.compute_max = node.compute_max.max(t.t_compute);
                if let Some(acc) = accum.as_mut() {
                    acc.observe(t.step, t.t_compute, t.t_comm, t.overlap);
                }
            }
            Event::SplitDecision(d) => {
                finalize_plan(&mut plans, &mut accum);
                plans.push(PlanSummary {
                    index: plans.len(),
                    source: d.source.as_str().to_string(),
                    total: d.total,
                    local: d.local.clone(),
                    predicted_t: d.predicted_t,
                    realized_t: None,
                    rel_error: None,
                });
                accum = Some(PlanAccum::default());
            }
            Event::AnomalyDetected(a) => online.push(a.clone()),
            _ => {}
        }
    }
    finalize_plan(&mut plans, &mut accum);

    let nodes = nodes
        .into_iter()
        .map(|(rank, acc)| NodeTimeline {
            rank,
            steps: acc.steps,
            mean_batch: if acc.steps > 0 { acc.batch_sum / acc.steps as f64 } else { 0.0 },
            compute_p50: acc.hist.quantile(0.5).unwrap_or(0.0),
            compute_p90: acc.hist.quantile(0.9).unwrap_or(0.0),
            compute_max: acc.compute_max,
        })
        .collect();

    ReplayReport {
        events,
        kind_counts: kind_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        nodes,
        plans,
        offline,
        online,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{SplitDecision, SplitSource, StepTiming};

    fn timing(step: u64, rank: u32, b: u64, t: f64) -> Record {
        Record {
            ts_ns: step * 10 + u64::from(rank),
            node: rank,
            rank: 0,
            event: Event::StepTiming(StepTiming {
                step,
                rank,
                b_i: b,
                t_compute: t,
                t_comm: 0.01,
                overlap: 0.5,
            }),
        }
    }

    fn decision(predicted: Option<f64>, local: Vec<u64>) -> Record {
        Record {
            ts_ns: 0,
            node: 0,
            rank: 0,
            event: Event::SplitDecision(SplitDecision {
                total: local.iter().sum(),
                local,
                predicted_t: predicted,
                source: SplitSource::Solver,
            }),
        }
    }

    #[test]
    fn timelines_and_plans_are_reconstructed() {
        let mut records = vec![decision(Some(0.5), vec![32, 32])];
        for step in 0..10u64 {
            records.push(timing(step, 0, 32, 0.3));
            records.push(timing(step, 1, 32, 0.49));
        }
        let report = analyze(&records, InsightConfig::default());
        assert_eq!(report.events, 21);
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.nodes[0].rank, 0);
        assert_eq!(report.nodes[0].steps, 10);
        assert!((report.nodes[0].mean_batch - 32.0).abs() < 1e-9);
        assert!(report.nodes[1].compute_max >= 0.49);
        // One plan: realized = max compute (0.49) + 0.5 * 0.01 comm.
        assert_eq!(report.plans.len(), 1);
        let plan = &report.plans[0];
        assert_eq!(plan.source, "solver");
        let realized = plan.realized_t.unwrap();
        assert!((realized - 0.495).abs() < 1e-9, "realized {realized}");
        assert!(plan.rel_error.unwrap() < 0.05);
        assert!(report.anomalies_match(), "no anomalies on either side");
        assert!(report.render().contains("EXACT"));
    }

    #[test]
    fn offline_detectors_reproduce_recorded_anomalies() {
        // A trace with a straggler signature and the matching online
        // verdict, as the live monitor would have injected it.
        let mut records = Vec::new();
        let law = |b: f64| 0.01 * b + 0.05;
        let mut step = 0u64;
        for _ in 0..6 {
            for b in [32u64, 48] {
                records.push(timing(step, 0, b, law(b as f64)));
                step += 1;
            }
        }
        for _ in 0..3 {
            records.push(timing(step, 0, 32, 2.0 * law(32.0)));
            step += 1;
        }
        // First pass tells us what the online monitor would have found.
        let first = analyze(&records, InsightConfig::default());
        assert_eq!(first.offline.len(), 1);
        assert!(!first.anomalies_match(), "trace carries no online verdicts yet");
        // Embed the verdicts as the live monitor does and re-analyze.
        for a in &first.offline {
            records.push(Record {
                ts_ns: u64::MAX,
                node: a.node.unwrap_or(0),
                rank: 0,
                event: Event::AnomalyDetected(a.clone()),
            });
        }
        let second = analyze(&records, InsightConfig::default());
        assert_eq!(second.online, first.offline);
        assert!(second.anomalies_match());
    }
}
