//! Fleet mission control end-to-end: record a multi-tenant fleet run,
//! then render the deterministic report from the drained trace.
//!
//! ```text
//! cargo run --release --example fleet_observability
//! ```
//!
//! A seeded 6-job arrival trace runs on the 8-node mixed pool inside a
//! telemetry session. Afterwards the drained trace is replayed and the
//! fleet report — final gauges, allocation timelines, SLO compliance,
//! anomalies — is printed, plus a self-contained HTML page. Same seed,
//! same bytes, every run.

use cannikin::fleet::{synthetic_trace, AllocPolicy, FleetController};
use cannikin::insight::{default_fleet_slos, report};
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

    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains");
    let records = session.drain();
    drop(session);

    let fleet = report::build(&records, &default_fleet_slos());
    println!(
        "recorded {} events, {} SLO violations, {} anomalies\n",
        records.len(),
        fleet.slo.violations.len(),
        fleet.replay.anomalies.len()
    );
    println!("{}", fleet.render_text());

    let html_path = std::env::temp_dir().join("cannikin_fleet_report.html");
    std::fs::write(&html_path, fleet.render_html()).expect("write html");
    println!("HTML report: {}", html_path.display());
}
