//! The fleet's decisions, byte for byte.
//!
//! `tests/golden/schedule_*.txt` hold the schedule log, the assignment
//! history and the report of three drained traces: the two `gate fleet`
//! traces (seeds 7 and 17 on the 8-node mixed pool), and seed 6 with a
//! fault plan that kills the pool's fastest node mid-run — the case where
//! every job's demand must be re-priced against a pool it was not priced
//! on. The fixtures were written by the controller that predicts each
//! job's scaling curve by walking its planner over the ground-truth laws;
//! a change to how often or where demand work runs must reproduce them.
//! `CANNIKIN_BLESS=1` only makes sense from a checkout of a controller you
//! trust with this file copied in.
//!
//! `tests/golden/digests.txt` widens the net at one line per drained trace:
//! an FNV-1a digest of the schedule log, the assignment history and every
//! bit of the report, for seeds 0..25 under each policy, plus a trace where
//! a node dies after a job's first decision and before the first decision
//! its scaling curve can bind — the curve is then read on the surviving
//! pool.

use cannikin_fleet::{synthetic_trace, AllocPolicy, FleetController, FleetJobSpec, FleetReport};
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
    let (fleet, report) = drain(trace, AllocPolicy::Cannikin);
    let mut text = String::new();
    for (line, owners) in fleet.schedule_log().iter().zip(fleet.assignment_history()) {
        text.push_str(&format!("{line} | {owners:?}\n"));
    }
    text.push_str(&format!("{report:#?}\n"));
    text
}

fn drain(trace: Vec<FleetJobSpec>, policy: AllocPolicy) -> (FleetController, FleetReport) {
    let mut fleet = FleetController::new(fleet_pool(), trace, policy).expect("valid fleet");
    let report = fleet.run_to_completion(50_000).expect("stream drains");
    (fleet, report)
}

/// FNV-1a over the schedule log, the assignment history and every field
/// of the report, floats by their bits.
fn digest(trace: Vec<FleetJobSpec>, policy: AllocPolicy) -> u64 {
    let (fleet, report) = drain(trace, policy);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (line, owners) in fleet.schedule_log().iter().zip(fleet.assignment_history()) {
        eat(format!("{line} | {owners:?}\n").as_bytes());
    }
    let FleetReport { policy, makespan, aggregate_goodput, mean_queue_delay, fairness, decisions, jobs } = &report;
    eat(format!("{policy:?}").as_bytes());
    for x in [*makespan, *aggregate_goodput, *mean_queue_delay, *fairness] {
        eat(&x.to_bits().to_le_bytes());
    }
    eat(&decisions.to_le_bytes());
    for j in jobs {
        eat(j.name.as_bytes());
        eat(j.priority.as_bytes());
        for x in [j.arrival, j.admitted_at, j.finished_at, j.effective_epochs, j.service] {
            eat(&x.to_bits().to_le_bytes());
        }
        eat(&(j.epochs_run as u64).to_le_bytes());
        eat(&(j.preemptions as u64).to_le_bytes());
    }
    hash
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
    // simulator — and loses it 50 steps in, in its first epoch, while
    // three other tenants hold demands priced against the eight-node pool.
    let mut trace = synthetic_trace(6, 6, 30.0);
    let victim = trace.remove(3).fault_plan(FaultPlan::new(5).crash_at(50, 0));
    trace.insert(3, victim);
    let text = drained(trace);
    let granted: Vec<bool> =
        text.lines().filter(|l| l.starts_with('d')).map(|l| l.contains("\"A100-0\"")).collect();
    let last = granted.iter().rposition(|&g| g).expect("the fastest node serves someone");
    assert!(0 < last && last < granted.len() / 2, "it dies mid-run: last granted at decision {}", last + 1);
    check("schedule_death.txt", &text);
}

#[test]
fn synthetic_traces_match_the_golden_digests() {
    let mut text = String::new();
    for policy in [AllocPolicy::Cannikin, AllocPolicy::Fifo, AllocPolicy::Static] {
        for seed in 0..25 {
            text.push_str(&format!("{policy:?} s{seed} {:016x}\n", digest(synthetic_trace(seed, 6, 30.0), policy)));
        }
    }
    // cifar-0 is admitted on eight live nodes asking no more than its
    // floor of two; 100 steps in it loses one of them, its floor drops to
    // one, and its next ask is the first its scaling knee can cap.
    let mut trace = synthetic_trace(0, 6, 30.0);
    let victim = trace.remove(0).node_range(2, 8).fault_plan(FaultPlan::new(5).crash_at(100, 0));
    assert_eq!(victim.name, "cifar-0");
    trace.insert(0, victim);
    text.push_str(&format!("Cannikin s0-death {:016x}\n", digest(trace, AllocPolicy::Cannikin)));
    check("digests.txt", &text);
}
