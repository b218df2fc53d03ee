//! Fleet scheduling trajectory (the `cannikin-fleet` PR): aggregate
//! goodput, makespan, queueing delay and fairness of the adaptive fleet
//! allocator against the FIFO and static-partition baselines, over
//! seeded synthetic arrival traces — the measurements behind
//! `BENCH_fleet.json`.
//!
//! Everything here is simulated time from seeded traces, so the numbers
//! are deterministic: `gate fleet` can hold the committed
//! baseline to a tight tolerance without flaking on shared CI runners.

use crate::gate::GateCheck;
use crate::{fmt, row};
use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController, FleetReport};
use cannikin_telemetry::Json;
use hetsim::catalog::Gpu;
use hetsim::cluster::NodeSpec;

/// Pinned seeds of the two arrival traces in the fleet trajectory.
pub const FLEET_SEEDS: [u64; 2] = [7, 17];

/// Jobs per synthetic trace. Six jobs on eight nodes keeps the pool
/// contended through the middle of each trace — the regime where the
/// policies actually differ (with fewer jobs than half the pool, the
/// static partition's equal slices land near every job's scaling knee
/// by accident and all three policies converge).
const JOBS_PER_TRACE: usize = 6;

/// Mean inter-arrival gap, fleet seconds.
const MEAN_GAP_S: f64 = 30.0;

/// The shared pool: 2×A100 + 2×V100 + 4×RTX6000 (the paper's mixed
/// cluster shape, sized so contention is real but every job fits).
pub fn fleet_pool() -> Vec<NodeSpec> {
    let mut out = Vec::new();
    for (gpu, count) in [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)] {
        for i in 0..count {
            out.push(NodeSpec::new(format!("{gpu}-{i}"), gpu));
        }
    }
    out
}

fn run_policy(seed: u64, policy: AllocPolicy) -> FleetReport {
    let trace = synthetic_trace(seed, JOBS_PER_TRACE, MEAN_GAP_S);
    FleetController::new(fleet_pool(), trace, policy)
        .expect("valid fleet")
        .run_to_completion(50_000)
        .expect("stream drains")
}

/// One policy's headline numbers on one trace.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Completion time of the whole stream, fleet seconds.
    pub makespan: f64,
    /// Σ effective epochs × dataset size over makespan, samples/s.
    pub goodput: f64,
    /// Mean queueing delay across the trace's jobs, seconds.
    pub queue_delay: f64,
    /// Jain fairness over weighted service.
    pub fairness: f64,
}

impl PolicyOutcome {
    fn of(report: &FleetReport) -> Self {
        PolicyOutcome {
            makespan: report.makespan,
            goodput: report.aggregate_goodput,
            queue_delay: report.mean_queue_delay,
            fairness: report.fairness,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("makespan_s".into(), Json::num(self.makespan)),
            ("goodput".into(), Json::num(self.goodput)),
            ("queue_delay_s".into(), Json::num(self.queue_delay)),
            ("fairness".into(), Json::num(self.fairness)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let f = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric `{key}`"))
        };
        Ok(PolicyOutcome {
            makespan: f("makespan_s")?,
            goodput: f("goodput")?,
            queue_delay: f("queue_delay_s")?,
            fairness: f("fairness")?,
        })
    }
}

/// All three policies on one seeded trace, plus the gated ratios.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Trace seed.
    pub seed: u64,
    /// The adaptive fleet allocator (the system under test).
    pub cannikin: PolicyOutcome,
    /// Head-of-line FIFO baseline.
    pub fifo: PolicyOutcome,
    /// Fixed-equal-partition baseline.
    pub static_: PolicyOutcome,
}

impl TraceOutcome {
    /// `cannikin.goodput / fifo.goodput` — >1 means Cannikin wins.
    pub fn goodput_vs_fifo(&self) -> f64 {
        self.cannikin.goodput / self.fifo.goodput
    }

    /// `cannikin.goodput / static.goodput`.
    pub fn goodput_vs_static(&self) -> f64 {
        self.cannikin.goodput / self.static_.goodput
    }

    /// `fifo.makespan / cannikin.makespan` — >1 means Cannikin finishes
    /// the stream sooner.
    pub fn makespan_vs_fifo(&self) -> f64 {
        self.fifo.makespan / self.cannikin.makespan
    }

    /// `static.makespan / cannikin.makespan`.
    pub fn makespan_vs_static(&self) -> f64 {
        self.static_.makespan / self.cannikin.makespan
    }
}

/// The full fleet trajectory in structured form — what `gate fleet`
/// serializes into `BENCH_fleet.json`.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// One outcome per pinned trace seed.
    pub traces: Vec<TraceOutcome>,
}

impl FleetBenchReport {
    /// Serialize for `BENCH_fleet.json` (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("cannikin-fleet-v1".into())),
            ("pool_nodes".into(), Json::num(fleet_pool().len() as f64)),
            ("jobs_per_trace".into(), Json::num(JOBS_PER_TRACE as f64)),
            (
                "traces".into(),
                Json::Arr(
                    self.traces
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("seed".into(), Json::num(t.seed as f64)),
                                ("cannikin".into(), t.cannikin.to_json()),
                                ("fifo".into(), t.fifo.to_json()),
                                ("static".into(), t.static_.to_json()),
                                ("goodput_vs_fifo".into(), Json::num(t.goodput_vs_fifo())),
                                ("goodput_vs_static".into(), Json::num(t.goodput_vs_static())),
                                ("makespan_vs_fifo".into(), Json::num(t.makespan_vs_fifo())),
                                ("makespan_vs_static".into(), Json::num(t.makespan_vs_static())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstruct a report from `BENCH_fleet.json` (the `gate fleet`
    /// baseline side). Missing or malformed fields become errors.
    pub fn from_json(json: &Json) -> Result<FleetBenchReport, String> {
        let Some(Json::Arr(traces)) = json.get("traces") else {
            return Err("missing `traces` array".into());
        };
        let traces = traces
            .iter()
            .map(|t| {
                let seed = t
                    .get("seed")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| "trace missing `seed`".to_string())? as u64;
                let policy = |key: &str| -> Result<PolicyOutcome, String> {
                    let obj = t.get(key).ok_or_else(|| format!("trace {seed} missing `{key}`"))?;
                    PolicyOutcome::from_json(obj).map_err(|e| format!("trace {seed} `{key}`: {e}"))
                };
                Ok(TraceOutcome {
                    seed,
                    cannikin: policy("cannikin")?,
                    fifo: policy("fifo")?,
                    static_: policy("static")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetBenchReport { traces })
    }

    /// The gated ratios against the committed baseline `base`, per pinned
    /// trace. Floors never drop below 1.0: even a generous baseline cannot
    /// excuse the adaptive allocator losing to a baseline policy outright.
    pub fn checks(&self, base: &FleetBenchReport, tol: f64) -> Vec<GateCheck> {
        let mut checks = Vec::new();
        for f in &self.traces {
            let Some(b) = base.traces.iter().find(|t| t.seed == f.seed) else {
                checks.push(GateCheck::skipped(
                    format!("s{}", f.seed),
                    "trace seed absent from baseline (baseline refresh needed)",
                ));
                continue;
            };
            let ratios: [(&str, f64, f64); 4] = [
                ("goodput_vs_fifo", f.goodput_vs_fifo(), b.goodput_vs_fifo()),
                ("goodput_vs_static", f.goodput_vs_static(), b.goodput_vs_static()),
                ("makespan_vs_fifo", f.makespan_vs_fifo(), b.makespan_vs_fifo()),
                ("makespan_vs_static", f.makespan_vs_static(), b.makespan_vs_static()),
            ];
            for (name, current, baseline) in ratios {
                checks.push(GateCheck::floor(
                    format!("s{}.{name}", f.seed),
                    current,
                    baseline,
                    (baseline * (1.0 - tol)).max(1.0),
                    tol,
                ));
            }
            // Fairness guards the allocator's other promise: winning on
            // goodput must not come from starving low-priority tenants.
            checks.push(GateCheck::floor(
                format!("s{}.fairness", f.seed),
                f.cannikin.fairness,
                b.cannikin.fairness,
                b.cannikin.fairness * (1.0 - tol),
                tol,
            ));
        }
        checks
    }
}

/// Run the full fleet trajectory: every pinned trace under all three
/// policies. Deterministic — same binary, same numbers.
pub fn fleet_report() -> FleetBenchReport {
    FleetBenchReport {
        traces: FLEET_SEEDS
            .iter()
            .map(|&seed| TraceOutcome {
                seed,
                cannikin: PolicyOutcome::of(&run_policy(seed, AllocPolicy::Cannikin)),
                fifo: PolicyOutcome::of(&run_policy(seed, AllocPolicy::Fifo)),
                static_: PolicyOutcome::of(&run_policy(seed, AllocPolicy::Static)),
            })
            .collect(),
    }
}

/// Rendered fleet trajectory (the `figures fleet` experiment).
pub fn fleet() -> String {
    let report = fleet_report();
    let mut out = String::from(
        "Fleet scheduling — adaptive allocator vs FIFO and static partition\n(8-node mixed pool, 6-job seeded arrival traces)\n\n",
    );
    let widths = [6, 10, 13, 16, 15, 10];
    out += &row(
        &[
            "trace".into(),
            "policy".into(),
            "makespan (s)".into(),
            "goodput (sm/s)".into(),
            "queue delay (s)".into(),
            "fairness".into(),
        ],
        &widths,
    );
    out.push('\n');
    for t in &report.traces {
        for (name, p) in
            [("cannikin", &t.cannikin), ("fifo", &t.fifo), ("static", &t.static_)]
        {
            out += &row(
                &[
                    format!("s{}", t.seed),
                    name.into(),
                    fmt(p.makespan),
                    fmt(p.goodput),
                    fmt(p.queue_delay),
                    fmt(p.fairness),
                ],
                &widths,
            );
            out.push('\n');
        }
        out += &format!(
            "  s{}: goodput {:.2}x fifo / {:.2}x static; makespan {:.2}x fifo / {:.2}x static\n",
            t.seed,
            t.goodput_vs_fifo(),
            t.goodput_vs_static(),
            t.makespan_vs_fifo(),
            t.makespan_vs_static(),
        );
    }
    out += "\n(GNS-driven demand caps stop over-parallelization past each job's\n statistical knee, and epoch-boundary reallocation keeps freed nodes\n busy — FIFO over-feeds the head job while the queue idles, and the\n static partition strands a finished job's slice)\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let outcome = |x: f64| PolicyOutcome {
            makespan: 100.0 * x,
            goodput: 2_000.0 * x,
            queue_delay: 3.0 * x,
            fairness: 0.9,
        };
        let report = FleetBenchReport {
            traces: vec![TraceOutcome {
                seed: 11,
                cannikin: outcome(1.0),
                fifo: outcome(1.5),
                static_: outcome(1.2),
            }],
        };
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("valid json");
        let back = FleetBenchReport::from_json(&parsed).expect("complete report");
        assert_eq!(back.traces.len(), 1);
        assert_eq!(back.traces[0].seed, 11);
        assert!((back.traces[0].fifo.makespan - 150.0).abs() < 1e-9);
        assert!((back.traces[0].goodput_vs_fifo() - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn adaptive_beats_both_baselines_on_every_pinned_trace() {
        // The PR's acceptance criterion, held as a test: on both pinned
        // arrival traces Cannikin wins aggregate goodput AND makespan
        // against FIFO and the static partition.
        let report = fleet_report();
        assert_eq!(report.traces.len(), FLEET_SEEDS.len());
        for t in &report.traces {
            assert!(t.goodput_vs_fifo() > 1.0, "s{}: goodput vs fifo {:.3}", t.seed, t.goodput_vs_fifo());
            assert!(t.goodput_vs_static() > 1.0, "s{}: goodput vs static {:.3}", t.seed, t.goodput_vs_static());
            assert!(t.makespan_vs_fifo() > 1.0, "s{}: makespan vs fifo {:.3}", t.seed, t.makespan_vs_fifo());
            assert!(
                t.makespan_vs_static() > 1.0,
                "s{}: makespan vs static {:.3}",
                t.seed,
                t.makespan_vs_static()
            );
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_policy(FLEET_SEEDS[0], AllocPolicy::Cannikin);
        let b = run_policy(FLEET_SEEDS[0], AllocPolicy::Cannikin);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.aggregate_goodput.to_bits(), b.aggregate_goodput.to_bits());
    }
}
