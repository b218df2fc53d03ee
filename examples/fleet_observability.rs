//! Fleet mission control end-to-end: run a multi-tenant fleet with the
//! live observers attached, then render the deterministic report.
//!
//! ```text
//! cargo run --release --example fleet_observability
//! ```
//!
//! A seeded 6-job arrival trace runs on the 8-node mixed pool with two
//! subscribers tapping the telemetry stream at once: the SLO monitor
//! (typed violations injected back into the trace) and the anomaly
//! monitor. Afterwards the drained trace is replayed offline and the
//! fleet report — final gauges, allocation timelines, SLO compliance,
//! anomalies — is printed, plus a self-contained HTML page. Same seed,
//! same bytes, every run.

use cannikin::fleet::{synthetic_trace, AllocPolicy, FleetController};
use cannikin::insight::{report, InsightConfig, Monitor, SloMonitor};
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::NodeSpec;
use cannikin::telemetry;

fn main() {
    let pool: Vec<NodeSpec> = [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)]
        .iter()
        .flat_map(|&(gpu, n)| (0..n).map(move |i| NodeSpec::new(format!("{gpu}-{i}"), gpu)))
        .collect();
    let trace = synthetic_trace(7, 6, 30.0);
    let mut controller =
        FleetController::new(pool, trace, AllocPolicy::Cannikin).expect("valid fleet");
    let rules = controller.slo_rules();

    // Observers first, session second: subscribers registered while a
    // session is live still see every subsequent batch, but starting
    // clean keeps the trace complete from the first decision.
    let slos = SloMonitor::install(rules.clone());
    let monitor = Monitor::install(InsightConfig::default());
    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains");
    telemetry::flush_thread();
    let records = session.drain();
    drop(session);

    println!(
        "recorded {} events, {} online SLO violations, {} online anomalies\n",
        records.len(),
        slos.violations().len(),
        monitor.report().anomalies.len()
    );

    let fleet = report::build(&records, InsightConfig::default(), &rules);
    println!("{}", fleet.render_text());

    let html_path = std::env::temp_dir().join("cannikin_fleet_report.html");
    std::fs::write(&html_path, fleet.render_html()).expect("write html");
    println!("HTML report: {}", html_path.display());
    assert!(fleet.verdicts_match(), "online and offline verdicts must agree");
}
