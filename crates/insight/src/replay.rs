//! Trace replay: reconstruct timelines from a recorded stream and run the
//! detectors over it.
//!
//! [`analyze`] consumes the records of a drained session (or a parsed
//! JSONL export), builds per-node timing timelines and per-plan
//! calibration summaries, and runs the anomaly detectors over the stream in
//! record order. A drained stream is timestamp-sorted and a single driver
//! thread's emission order survives that sort, so a same-seed run gives
//! the same anomalies.

use crate::detectors::{relative_error, AnomalyDetected, DetectorSet, InsightConfig};
use crate::slo::nearest_rank;
use cannikin_telemetry::{Event, Record};
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
    /// Median compute time (nearest rank over the finite samples; 0 when
    /// there are none), seconds.
    pub compute_p50: f64,
    /// 90th percentile compute time, by the same rule, seconds.
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
    /// Anomalies the detectors find over the trace, in trace order.
    pub anomalies: Vec<AnomalyDetected>,
}

impl ReplayReport {
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
        let _ = writeln!(out, "anomalies: {}", self.anomalies.len());
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

#[derive(Default)]
struct NodeAccum {
    /// The finite compute times, in record order.
    computes: Vec<f64>,
    steps: u64,
    batch_sum: f64,
    compute_max: f64,
}

/// Reconstruct timelines and replay the detectors over a record stream.
/// Pass the records in drain order (a drained session or a parsed JSONL
/// export is already timestamp-sorted). `InsightConfig` holds nothing.
pub fn analyze(records: &[Record], _: InsightConfig) -> ReplayReport {
    let mut kind_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut nodes: BTreeMap<u32, NodeAccum> = BTreeMap::new();
    let mut plans: Vec<PlanSummary> = Vec::new();
    // A plan's realized time is the detectors' calibration fold over its
    // steps, read as the next decision (or the end of the trace) closes it.
    let close = |plan: Option<&mut PlanSummary>, set: &DetectorSet| {
        if let Some(plan) = plan {
            plan.realized_t = set.open_plan_realized();
            plan.rel_error = plan.predicted_t.zip(plan.realized_t).and_then(|(p, r)| relative_error(p, r));
        }
    };
    let mut set = DetectorSet::default();
    let mut anomalies = Vec::new();
    for record in records {
        *kind_counts.entry(record.event.kind()).or_insert(0) += 1;
        match &record.event {
            Event::StepTiming(t) => {
                let node = nodes.entry(t.rank).or_default();
                if t.t_compute.is_finite() {
                    node.computes.push(t.t_compute);
                }
                node.steps += 1;
                node.batch_sum += t.b_i as f64;
                node.compute_max = node.compute_max.max(t.t_compute);
            }
            Event::SplitDecision(d) => {
                close(plans.last_mut(), &set);
                plans.push(PlanSummary {
                    index: plans.len(),
                    source: d.source.as_str().to_string(),
                    total: d.total,
                    local: d.local.clone(),
                    predicted_t: d.predicted_t,
                    realized_t: None,
                    rel_error: None,
                });
            }
            _ => {}
        }
        anomalies.extend(set.observe(record));
    }
    close(plans.last_mut(), &set);

    let nodes = nodes
        .into_iter()
        .map(|(rank, mut acc)| {
            acc.computes.sort_by(f64::total_cmp);
            let quantile = |q| if acc.computes.is_empty() { 0.0 } else { nearest_rank(&acc.computes, q) };
            NodeTimeline {
                rank,
                steps: acc.steps,
                mean_batch: if acc.steps > 0 { acc.batch_sum / acc.steps as f64 } else { 0.0 },
                compute_p50: quantile(0.5),
                compute_p90: quantile(0.9),
                compute_max: acc.compute_max,
            }
        })
        .collect();

    ReplayReport {
        events: records.len() as u64,
        kind_counts: kind_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        nodes,
        plans,
        anomalies,
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
        let report = analyze(&records, InsightConfig {});
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
        assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
        assert!(report.render().contains("anomalies: 0\n"), "{}", report.render());
    }

    /// Every plan gets the realized time of its own steps, with or without
    /// a prediction; steps before the first decision belong to no plan.
    #[test]
    fn each_plan_realizes_its_own_steps() {
        let mut records = vec![timing(0, 0, 32, 9.0), decision(None, vec![32, 32])];
        records.extend((1..4).map(|step| timing(step, 0, 32, 0.2)));
        records.push(decision(Some(0.4), vec![32, 32]));
        records.extend((4..8).map(|step| timing(step, 0, 32, 0.8)));
        let report = analyze(&records, InsightConfig {});
        let realized: Vec<f64> = report.plans.iter().map(|p| p.realized_t.expect("steps ran")).collect();
        assert!((realized[0] - 0.205).abs() < 1e-12 && (realized[1] - 0.805).abs() < 1e-12, "{realized:?}");
        assert_eq!(report.plans[0].rel_error, None, "no prediction, no error");
        assert!((report.plans[1].rel_error.expect("predicted") - 1.0125).abs() < 1e-12);
        assert!(report.render().contains("  0.20500  -\n"), "{}", report.render());
    }

    /// The per-node quantiles are recorded samples at rank `⌈q·n⌉`, not
    /// values interpolated inside a bucket.
    #[test]
    fn node_quantiles_are_nearest_rank_samples() {
        let computes = [0.010, 0.011, 0.030, 0.031, 0.100];
        let records: Vec<Record> = computes.iter().zip(0u64..).map(|(&t, step)| timing(step, 0, 32, t)).collect();
        let node = &analyze(&records, InsightConfig {}).nodes[0];
        assert_eq!((node.compute_p50, node.compute_p90, node.compute_max), (0.030, 0.100, 0.100));
    }
}
