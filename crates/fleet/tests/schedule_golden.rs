//! The fleet's decisions, byte for byte.
//!
//! `tests/golden/schedule_*.txt` hold the schedule log, the assignment
//! history and the report of three drained traces: the two `gate fleet`
//! traces (seeds 7 and 17 on the 8-node mixed pool), and seed 6 with a
//! fault plan that kills the pool's fastest node mid-run — the case where
//! every job's demand must be re-profiled against a pool it was not
//! profiled on. The fixtures were written by the controller that
//! re-profiled every job's demand on every tick and replayed admission
//! curves serially on its own thread; a change to how often or where that
//! work runs must reproduce them. `CANNIKIN_BLESS=1` only makes sense from
//! a checkout of a controller you trust with this file copied in.

use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController, FleetJobSpec};
use hetsim::catalog::Gpu;
use hetsim::cluster::NodeSpec;
use hetsim::FaultPlan;

/// `gate fleet`'s pool: 2×A100 + 2×V100 + 4×RTX6000.
fn fleet_pool() -> Vec<NodeSpec> {
    let mut out = Vec::new();
    for (gpu, count) in [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)] {
        for i in 0..count {
            out.push(NodeSpec::new(format!("{gpu}-{i}"), gpu));
        }
    }
    out
}

fn drained(trace: Vec<FleetJobSpec>) -> String {
    let mut fleet = FleetController::new(fleet_pool(), trace, AllocPolicy::Cannikin).expect("valid fleet");
    let report = fleet.run_to_completion(50_000).expect("stream drains");
    let mut text = String::new();
    for (line, owners) in fleet.schedule_log().iter().zip(fleet.assignment_history()) {
        text.push_str(&format!("{line} | {owners:?}\n"));
    }
    text.push_str(&format!("{report:#?}\n"));
    text
}

fn check(name: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("CANNIKIN_BLESS").is_some() {
        std::fs::write(&path, text).expect("write golden fixture");
    }
    let golden = std::fs::read_to_string(&path).expect("committed fixture");
    for (line, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {} departs", line + 1, path.display());
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "{} has a different line count", path.display());
}

#[test]
fn gate_fleet_traces_match_the_golden_schedules() {
    check("schedule_s7.txt", &drained(synthetic_trace(7, 6, 30.0)));
    check("schedule_s17.txt", &drained(synthetic_trace(17, 6, 30.0)));
}

#[test]
fn a_node_death_mid_run_matches_the_golden_schedule() {
    // The fourth tenant is admitted onto the freed A100-0 — node 0 of its
    // simulator — and loses it 150 steps in, while two other tenants hold
    // demands profiled against the eight-node pool.
    let mut trace = synthetic_trace(6, 6, 30.0);
    let victim = trace.remove(3).fault_plan(FaultPlan::new(5).crash_at(150, 0));
    trace.insert(3, victim);
    let text = drained(trace);
    let granted: Vec<bool> =
        text.lines().filter(|l| l.starts_with('d')).map(|l| l.contains("\"A100-0\"")).collect();
    let last = granted.iter().rposition(|&g| g).expect("the fastest node serves someone");
    assert!(0 < last && last < granted.len() / 2, "it dies mid-run: last granted at decision {}", last + 1);
    check("schedule_death.txt", &text);
}
