//! The `slo` experiment: fleet mission control end-to-end. A pinned
//! fleet trace is recorded; afterwards the drained trace is replayed and
//! the report shows the final gauge values the trace carries and the SLO
//! compliance table.

use super::fleet::fleet_pool;
use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController};
use cannikin_insight::{default_fleet_slos, report, SloRule};
use cannikin_telemetry as telemetry;

/// Seed of the pinned arrival trace (the first `gate fleet` seed).
const SEED: u64 = 7;

/// Jobs in the trace (matches the fleet trajectory).
const JOBS: usize = 6;

/// Per-job admission-wait ceiling judged for every submission, s. Tight
/// enough that late arrivals into the contended pool trip it, so the
/// report shows real violations, not an empty table.
const QUEUE_CEILING_S: f64 = 30.0;

/// Run the fleet and render gauges and compliance.
pub fn slo() -> String {
    let trace = synthetic_trace(SEED, JOBS, 30.0);
    let mut rules = default_fleet_slos();
    rules.extend(trace.iter().map(|s| SloRule::JobQueueCeiling { job: s.name.clone(), ceiling_s: QUEUE_CEILING_S }));
    let mut controller =
        FleetController::new(fleet_pool(), trace, AllocPolicy::Cannikin).expect("valid fleet");

    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains");
    let records = session.drain();
    drop(session);

    let fleet = report::build(&records, &rules);
    let mut out = format!(
        "slo — fleet mission control over the s{SEED} trace ({} events, {} rules)\n\n",
        records.len(),
        rules.len()
    );
    out += "final gauges:\n";
    for name in ["fleet_goodput", "fleet_fairness", "fleet_pool_util", "fleet_queue_depth"] {
        if let Some((_, value)) = fleet.gauges.iter().find(|(gauge, _)| gauge == name) {
            out += &format!("  {name} = {value:.4}\n");
        }
    }
    out += &format!("  fleet_decisions_total = {}\n\n", fleet.decisions);

    out += &fleet.slo.render();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pinned_trace_crosses_the_fairness_floor_once() {
        let out = slo();
        assert!(out.contains("slo: 10 rules, 1 violations\n"), "{out}");
        assert!(out.contains("fairness_floor at #2: observed 0.1667 vs threshold 0.2000\n"), "{out}");
        assert!(out.contains("fleet_goodput ="), "{out}");
        assert!(out.contains("queue wait"), "{out}");
    }
}
