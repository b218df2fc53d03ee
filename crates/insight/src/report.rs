//! The fleet report: a self-contained, deterministic rendering of one
//! JSONL trace — per-job allocation timelines, SLO compliance, anomaly
//! list — as text and as a single-file HTML page.
//!
//! ## Determinism contract
//!
//! Everything rendered derives from payload fields that are pure
//! functions of the simulation: decision ordinals
//! ([`FleetJobSample::decision`]), node counts, simulated-time service
//! figures. Record timestamps (`ts_ns`, wall-clock) are never read and no
//! date, hostname or path is embedded, so two same-seed runs render
//! byte-identical reports — the property the CI determinism gate diffs
//! for.

use crate::detectors::InsightConfig;
use crate::replay::{self, ReplayReport};
use crate::slo::{replay_slos, SloReport, SloRule};
use cannikin_telemetry::{Event, FleetJobSample, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One job's reconstructed allocation history.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimeline {
    /// Job name.
    pub name: String,
    /// `(decision, granted, demanded)` per decision round the job was
    /// live (admitted or queued), in decision order.
    pub samples: Vec<(u64, u32, u32)>,
    /// Admissions observed (first grant plus re-admissions after
    /// eviction).
    pub admissions: u64,
    /// Preemption events observed.
    pub preemptions: u64,
    /// Most nodes the job held at once.
    pub peak_granted: u32,
    /// Final priority-weighted service (node-seconds / weight).
    pub weighted_service: f64,
}

/// Everything the `report` subcommand renders.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraceReport {
    /// Records in the trace.
    pub events: u64,
    /// Fleet-allocator decision rounds observed.
    pub decisions: u64,
    /// Per-job timelines, sorted by job name.
    pub jobs: Vec<JobTimeline>,
    /// Final values of the fleet-level gauges (`fleet_goodput`,
    /// `fleet_fairness`, `fleet_pool_util`, `fleet_queue_depth`), sorted
    /// by name.
    pub gauges: Vec<(String, f64)>,
    /// The SLO verdicts over the trace.
    pub slo: SloReport,
    /// The detector replay (timelines, plans, anomaly list).
    pub replay: ReplayReport,
}

/// The fleet-level gauge counters the report surfaces.
const FLEET_GAUGES: [&str; 4] = ["fleet_fairness", "fleet_goodput", "fleet_pool_util", "fleet_queue_depth"];

/// Build the report from a trace: reconstruct job timelines from
/// [`FleetJobSample`]s, rerun the SLO engine and the anomaly detectors.
pub fn build(records: &[Record], rules: &[SloRule]) -> FleetTraceReport {
    let mut jobs: BTreeMap<String, JobTimeline> = BTreeMap::new();
    let mut decisions = 0u64;
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let job_entry = |jobs: &mut BTreeMap<String, JobTimeline>, name: &str| {
        jobs.entry(name.to_string()).or_insert_with(|| JobTimeline {
            name: name.to_string(),
            samples: Vec::new(),
            admissions: 0,
            preemptions: 0,
            peak_granted: 0,
            weighted_service: 0.0,
        });
    };
    for record in records {
        match &record.event {
            Event::FleetDecision(_) => decisions += 1,
            Event::FleetJobSample(FleetJobSample { decision, job, granted, demanded, weighted_service }) => {
                job_entry(&mut jobs, job);
                let entry = jobs.get_mut(job).expect("just inserted");
                entry.samples.push((*decision, *granted, *demanded));
                entry.peak_granted = entry.peak_granted.max(*granted);
                entry.weighted_service = *weighted_service;
            }
            Event::JobAdmitted(a) => {
                job_entry(&mut jobs, &a.job);
                jobs.get_mut(&a.job).expect("just inserted").admissions += 1;
            }
            Event::JobPreempted(p) => {
                job_entry(&mut jobs, &p.job);
                jobs.get_mut(&p.job).expect("just inserted").preemptions += 1;
            }
            Event::Counter(c) if FLEET_GAUGES.contains(&c.name.as_str()) => {
                gauges.insert(c.name.clone(), c.value);
            }
            _ => {}
        }
    }
    FleetTraceReport {
        events: records.len() as u64,
        decisions,
        jobs: jobs.into_values().collect(),
        gauges: gauges.into_iter().collect(),
        slo: replay_slos(records, rules),
        replay: replay::analyze(records, InsightConfig {}),
    }
}

/// Run-length encode a timeline into `(first_decision, last_decision,
/// granted, demanded)` segments — the unit both renderers draw.
fn segments(samples: &[(u64, u32, u32)]) -> Vec<(u64, u64, u32, u32)> {
    let mut out: Vec<(u64, u64, u32, u32)> = Vec::new();
    for &(d, g, w) in samples {
        match out.last_mut() {
            Some(seg) if seg.2 == g && seg.3 == w && seg.1 + 1 == d => seg.1 = d,
            _ => out.push((d, d, g, w)),
        }
    }
    out
}

impl FleetTraceReport {
    /// The plain-text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet report: {} records, {} decisions, {} jobs", self.events, self.decisions, self.jobs.len());
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name} = {value}");
        }
        let _ = writeln!(out, "\nallocation timelines (decision ranges, granted/demanded nodes):");
        for job in &self.jobs {
            let _ = writeln!(
                out,
                "  {} — peak {} nodes, {} admissions, {} preemptions, weighted service {:.3}",
                job.name, job.peak_granted, job.admissions, job.preemptions, job.weighted_service
            );
            for (from, to, granted, demanded) in segments(&job.samples) {
                let span = if from == to { format!("d{from}") } else { format!("d{from}-d{to}") };
                let _ = writeln!(out, "    {span}: {granted}/{demanded}");
            }
        }
        let _ = writeln!(out, "\nSLO compliance:");
        out.push_str(&indent(&self.slo.render()));
        let _ = writeln!(out, "\nanomalies: {}", self.replay.anomalies.len());
        for a in &self.replay.anomalies {
            let _ = writeln!(
                out,
                "  [{}] step {} node {} observed {:.4} vs expected {:.4}",
                a.kind.as_str(),
                a.step,
                a.node.map_or_else(|| "-".to_string(), |n| n.to_string()),
                a.observed,
                a.expected
            );
        }
        out
    }

    /// The single-file HTML report: inline CSS, SVG allocation timelines,
    /// SLO compliance table, anomaly list. No external assets, dates or
    /// paths.
    pub fn render_html(&self) -> String {
        let mut body = String::new();
        let _ = writeln!(body, "<h1>Cannikin fleet report</h1>");
        let _ = writeln!(
            body,
            "<p>{} records · {} decisions · {} jobs</p>",
            self.events,
            self.decisions,
            self.jobs.len()
        );
        if !self.gauges.is_empty() {
            let _ = writeln!(body, "<table><tr><th>gauge</th><th>final value</th></tr>");
            for (name, value) in &self.gauges {
                let _ = writeln!(body, "<tr><td>{}</td><td>{value}</td></tr>", escape(name));
            }
            let _ = writeln!(body, "</table>");
        }

        let _ = writeln!(body, "<h2>Allocation timelines</h2>");
        let max_decision = self.jobs.iter().flat_map(|j| j.samples.iter().map(|s| s.0)).max().unwrap_or(0);
        let max_nodes =
            self.jobs.iter().flat_map(|j| j.samples.iter().map(|s| s.1.max(s.2))).max().unwrap_or(1).max(1);
        for job in &self.jobs {
            let _ = writeln!(
                body,
                "<h3>{} <small>peak {} nodes · {} admissions · {} preemptions · weighted service {:.3}</small></h3>",
                escape(&job.name),
                job.peak_granted,
                job.admissions,
                job.preemptions,
                job.weighted_service
            );
            body.push_str(&timeline_svg(&segments(&job.samples), max_decision, max_nodes));
        }

        let _ = writeln!(body, "<h2>SLO compliance</h2>");
        let _ = writeln!(body, "<table><tr><th>objective</th><th>status</th><th>violations</th></tr>");
        for rule in &self.slo.rules {
            let n = self.slo.count_for(rule.id(), rule.job());
            let _ = writeln!(
                body,
                "<tr><td>{}</td><td class=\"{}\">{}</td><td>{n}</td></tr>",
                escape(&rule.describe()),
                if n == 0 { "ok" } else { "bad" },
                if n == 0 { "OK" } else { "VIOLATED" }
            );
        }
        let _ = writeln!(body, "</table>");
        if !self.slo.violations.is_empty() {
            let _ = writeln!(body, "<ul>");
            for v in &self.slo.violations {
                let _ = writeln!(
                    body,
                    "<li><code>{}</code> at #{}: observed {:.4} vs threshold {:.4}{}</li>",
                    escape(&v.rule),
                    v.at,
                    v.observed,
                    v.threshold,
                    v.job.as_deref().map_or_else(String::new, |j| format!(" (job {})", escape(j)))
                );
            }
            let _ = writeln!(body, "</ul>");
        }

        let _ = writeln!(body, "<h2>Anomalies</h2>");
        let _ = writeln!(body, "<p>{} anomalies</p>", self.replay.anomalies.len());
        if !self.replay.anomalies.is_empty() {
            let _ = writeln!(body, "<ul>");
            for a in &self.replay.anomalies {
                let _ = writeln!(
                    body,
                    "<li><code>{}</code> step {} node {}: observed {:.4} vs expected {:.4}</li>",
                    a.kind.as_str(),
                    a.step,
                    a.node.map_or_else(|| "-".to_string(), |n| n.to_string()),
                    a.observed,
                    a.expected
                );
            }
            let _ = writeln!(body, "</ul>");
        }

        format!(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
             <title>Cannikin fleet report</title>\n<style>{CSS}</style></head>\n<body>\n{body}</body></html>\n"
        )
    }
}

const CSS: &str = "body{font-family:system-ui,sans-serif;max-width:60em;margin:2em auto;padding:0 1em;color:#222}\
table{border-collapse:collapse;margin:0.5em 0}td,th{border:1px solid #bbb;padding:0.25em 0.6em;text-align:left}\
h3 small{font-weight:normal;color:#666}.ok{color:#1a7f37}.bad{color:#b42318;font-weight:bold}\
svg{display:block;margin:0.25em 0 1em}code{background:#f3f3f3;padding:0 0.2em}";

/// An SVG bar timeline: demanded nodes as a light background step,
/// granted nodes as the filled foreground.
fn timeline_svg(segments: &[(u64, u64, u32, u32)], max_decision: u64, max_nodes: u32) -> String {
    const W: f64 = 640.0;
    const H: f64 = 64.0;
    let cols = (max_decision + 1).max(1) as f64;
    let col_w = W / cols;
    let mut out = format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" role=\"img\">\
         <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{H}\" fill=\"#f7f7f7\"/>"
    );
    for &(from, to, granted, demanded) in segments {
        let x = from as f64 * col_w;
        let w = (to - from + 1) as f64 * col_w;
        for (nodes, fill) in [(demanded, "#c9ddf2"), (granted, "#3b76af")] {
            if nodes == 0 {
                continue;
            }
            let h = H * f64::from(nodes) / f64::from(max_nodes);
            let _ = write!(
                out,
                "<rect x=\"{x:.2}\" y=\"{:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"{fill}\"/>",
                H - h
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::default_fleet_slos;
    use cannikin_telemetry::{Counter, FleetDecision, JobAdmitted};

    fn rec(event: Event) -> Record {
        Record { ts_ns: 0, node: 0, rank: 0, event }
    }

    fn sample(decision: u64, job: &str, granted: u32, demanded: u32) -> Record {
        rec(Event::FleetJobSample(FleetJobSample {
            decision,
            job: job.into(),
            granted,
            demanded,
            weighted_service: decision as f64 * 1.5,
        }))
    }

    fn demo_trace() -> Vec<Record> {
        let mut t = vec![
            rec(Event::JobAdmitted(JobAdmitted { job: "cifar-0".into(), nodes: 2, queued_s: 0.0 })),
            rec(Event::Counter(Counter { name: "fleet_goodput".into(), value: 12.5 })),
            rec(Event::Counter(Counter { name: "fleet_fairness".into(), value: 0.9 })),
        ];
        for d in 0..4 {
            t.push(rec(Event::FleetDecision(FleetDecision {
                decision: d,
                running: 1,
                queued: 0,
                reassigned: 0,
                pool: 4,
            })));
            t.push(sample(d, "cifar-0", if d < 2 { 2 } else { 3 }, 3));
        }
        t
    }

    #[test]
    fn build_reconstructs_timelines_and_gauges() {
        let report = build(&demo_trace(), &default_fleet_slos());
        assert_eq!(report.decisions, 4);
        assert_eq!(report.jobs.len(), 1);
        let job = &report.jobs[0];
        assert_eq!(job.name, "cifar-0");
        assert_eq!(job.samples.len(), 4);
        assert_eq!(job.peak_granted, 3);
        assert_eq!(job.admissions, 1);
        assert_eq!(segments(&job.samples), vec![(0, 1, 2, 3), (2, 3, 3, 3)]);
        assert_eq!(report.gauges, vec![("fleet_fairness".into(), 0.9), ("fleet_goodput".into(), 12.5)]);
        assert!(report.slo.violations.is_empty() && report.replay.anomalies.is_empty());
    }

    #[test]
    fn renderings_are_deterministic_and_self_contained() {
        let rules = default_fleet_slos();
        let report = build(&demo_trace(), &rules);
        let text = report.render_text();
        assert!(text.contains("d0-d1: 2/3"), "{text}");
        assert!(text.contains("d2-d3: 3/3"), "{text}");
        assert!(text.contains("SLO compliance"));
        let html = report.render_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(!html.contains("http"), "no external assets");
        // Same trace, shifted wall-clock timestamps: byte-identical output.
        let mut shifted = demo_trace();
        for (i, r) in shifted.iter_mut().enumerate() {
            r.ts_ns = 1_000_000 + i as u64 * 31;
        }
        let other = build(&shifted, &rules);
        assert_eq!(text, other.render_text());
        assert_eq!(html, other.render_html());
    }

    #[test]
    fn violations_are_listed_in_both_renderings() {
        let mut trace = demo_trace();
        // Goodput dips under the default 1 sample/s floor: one crossing.
        trace.push(rec(Event::Counter(Counter { name: "fleet_goodput".into(), value: 0.1 })));
        let report = build(&trace, &default_fleet_slos());
        assert_eq!(report.slo.count_for("goodput_floor", None), 1);
        assert!(report.render_text().contains("goodput_floor at #2"), "{}", report.render_text());
        assert!(report.render_html().contains("VIOLATED"));
    }

    #[test]
    fn job_names_are_escaped_in_html() {
        let trace = vec![sample(0, "a<b&c", 1, 1)];
        let report = build(&trace, &[]);
        let html = report.render_html();
        assert!(html.contains("a&lt;b&amp;c"));
        assert!(!html.contains("a<b&c"));
    }
}
