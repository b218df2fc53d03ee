//! The `telemetry` experiment: record a short Cannikin run on cluster B
//! and summarize the event stream — counts per event type, span-duration
//! quantiles, and the solver-overhead percentage — the same numbers a
//! Chrome-trace viewer would show, rendered as text.

use crate::row;
use cannikin_core::engine::{CannikinTrainer, TrainerConfig};
use cannikin_telemetry::{self as telemetry, Event, Histogram, Record};
use cannikin_workloads::{clusters, profiles};
use hetsim::Simulator;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Run six epochs of ResNet-18/CIFAR-10 on cluster B with recording
/// enabled and render the summary.
pub fn telemetry_summary() -> String {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let base = profile.base_batch.max(cluster.len() as u64);
    let sim = Simulator::new(cluster, profile.job.clone(), 151);
    let config = TrainerConfig::new(profile.dataset_size, base, profile.max_batch);
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(Box::new(profile.noise))
        .config(config)
        .build()
        .expect("valid config");

    let session = telemetry::Session::start();
    trainer.run_epochs(6).expect("run");
    let records = session.drain();
    drop(session);
    summarize(&records)
}

/// Render the summary of an already-drained record stream.
pub fn summarize(records: &[Record]) -> String {
    let mut out = format!("telemetry — {} events recorded\n\n", records.len());

    // ---- Event counts per type. ----
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *counts.entry(r.event.kind()).or_default() += 1;
    }
    let widths = [20, 10];
    out += &row(&["event type".into(), "count".into()], &widths);
    out.push('\n');
    for (kind, count) in &counts {
        out += &row(&[(*kind).to_string(), count.to_string()], &widths);
        out.push('\n');
    }

    // ---- Span-duration quantiles (B/E pairs, LIFO per (node, rank)). ----
    let mut open: HashMap<(u32, u32), Vec<(String, u64)>> = HashMap::new();
    let mut durations: BTreeMap<String, Histogram> = BTreeMap::new();
    for r in records {
        match &r.event {
            Event::SpanBegin(s) => open.entry((r.node, r.rank)).or_default().push((s.name.clone(), r.ts_ns)),
            Event::SpanEnd(s) => {
                if let Some((name, begin_ns)) = open.get_mut(&(r.node, r.rank)).and_then(Vec::pop) {
                    debug_assert_eq!(name, s.name, "span nesting violated");
                    let hist = durations
                        .entry(name)
                        .or_insert_with(|| Histogram::exponential(1e-6, 4.0, 24));
                    hist.record(r.ts_ns.saturating_sub(begin_ns) as f64 / 1e9);
                }
            }
            _ => {}
        }
    }
    let widths = [12, 8, 12, 12, 12];
    out.push('\n');
    out += &row(&["span".into(), "count".into(), "p50 (s)".into(), "p90 (s)".into(), "mean (s)".into()], &widths);
    out.push('\n');
    for (name, hist) in &durations {
        out += &row(
            &[
                name.clone(),
                hist.count().to_string(),
                format!("{:.6}", hist.quantile(0.5).unwrap_or(0.0)),
                format!("{:.6}", hist.quantile(0.9).unwrap_or(0.0)),
                format!("{:.6}", hist.mean().unwrap_or(0.0)),
            ],
            &widths,
        );
        out.push('\n');
    }

    // ---- Solver overhead vs (simulated) training time. ----
    let mut solver_ns = 0u64;
    let mut invocations = 0usize;
    let mut epoch_time_s = 0.0;
    let mut overhead_s = 0.0;
    for r in records {
        match &r.event {
            Event::SolverInvocation(s) => {
                solver_ns += s.wall_ns;
                invocations += 1;
            }
            Event::Counter(c) if c.name == "epoch_time_s" => epoch_time_s += c.value,
            Event::Counter(c) if c.name == "overhead_s" => overhead_s += c.value,
            _ => {}
        }
    }
    out.push('\n');
    out += &format!("solver invocations: {invocations} ({:.3} ms total)\n", solver_ns as f64 / 1e6);
    if epoch_time_s > 0.0 {
        out += &format!(
            "optimizer overhead: {:.6}% of training time (Table 6 basis)\n",
            100.0 * overhead_s / (overhead_s + epoch_time_s)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_all_sections() {
        let out = telemetry_summary();
        assert!(out.contains("events recorded"), "{out}");
        assert!(out.contains("split_decision"), "{out}");
        assert!(out.contains("step_timing"), "{out}");
        assert!(out.contains("solver_invocation"), "{out}");
        assert!(out.contains("epoch"), "{out}");
        assert!(out.contains("solver invocations:"), "{out}");
        assert!(out.contains("optimizer overhead:"), "{out}");
    }
}
