//! The `slo` experiment: fleet mission control end-to-end. A pinned
//! fleet trace runs with the live SLO monitor and the time-series
//! recorder attached; afterwards the drained trace is replayed offline
//! and the report shows (a) the exported gauge values, (b) the SLO
//! compliance table, and (c) the online/offline verdict agreement the
//! determinism contract promises.

use super::fleet::fleet_pool;
use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController};
use cannikin_insight::{replay_slos, SloMonitor};
use cannikin_telemetry::{self as telemetry, Labels, SeriesRecorder};

/// Seed of the pinned arrival trace (the first `gate fleet` seed).
const SEED: u64 = 7;

/// Jobs in the trace (matches the fleet trajectory).
const JOBS: usize = 6;

/// Per-job admission-wait ceiling attached to every submission, s. Tight
/// enough that late arrivals into the contended pool trip it, so the
/// report shows real violations, not an empty table.
const QUEUE_CEILING_S: f64 = 30.0;

/// Run the monitored fleet and render gauges, compliance and agreement.
pub fn slo() -> String {
    let trace: Vec<_> =
        synthetic_trace(SEED, JOBS, 30.0).into_iter().map(|s| s.queue_slo(QUEUE_CEILING_S)).collect();
    let mut controller =
        FleetController::new(fleet_pool(), trace, AllocPolicy::Cannikin).expect("valid fleet");
    let rules = controller.slo_rules();

    let monitor = SloMonitor::install(rules.clone());
    let series = SeriesRecorder::install();
    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains");
    let records = session.drain();
    drop(session);

    let store = series.store();
    let none = Labels::default();
    let mut out = format!(
        "slo — fleet mission control over the s{SEED} trace ({} events, {} rules)\n\n",
        records.len(),
        rules.len()
    );
    out += "final gauges (series store):\n";
    for name in ["fleet_goodput", "fleet_fairness", "fleet_pool_util", "fleet_queue_depth"] {
        if let Some(value) = store.last(name, &none) {
            out += &format!("  {name} = {value:.4}\n");
        }
    }
    out += &format!(
        "  fleet_decisions_total = {}\n\n",
        store.counter_total("fleet_decisions_total", &none).unwrap_or(0.0)
    );

    let offline = replay_slos(&records, &rules);
    out += &offline.render();
    let online = monitor.violations();
    out += &format!(
        "\nonline monitor: {} violations — agreement {}\n",
        online.len(),
        if offline.verdicts_match() && online == offline.online { "EXACT" } else { "MISMATCH" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_and_offline_verdicts_agree_on_the_pinned_trace() {
        let out = slo();
        assert!(out.contains("agreement EXACT"), "{out}");
        assert!(out.contains("verdicts agree"), "{out}");
        assert!(out.contains("fleet_goodput ="), "{out}");
        assert!(out.contains("job_queue_ceiling") || out.contains("queue wait"), "{out}");
    }
}
