//! Fleet mission control (ISSUE 8 acceptance): fleet runs reach the
//! drained trace without losing, duplicating or reordering events, and
//! the SLO engine's verdicts over a trace survive its JSONL export —
//! including over crash-recovery traces.

use cannikin::core::engine::TrainerConfig;
use cannikin::fleet::{synthetic_trace, AllocPolicy, FleetController, FleetJobSpec};
use cannikin::insight::{analyze, default_fleet_slos, replay_slos, report, AnomalyKind, InsightConfig, SloRule};
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::NodeSpec;
use cannikin::sim::job::JobSpec;
use cannikin::sim::FaultPlan;
use cannikin::telemetry::{self as telemetry, export, Event, Record};

fn pool4() -> Vec<NodeSpec> {
    vec![
        NodeSpec::new("a100-0", Gpu::A100),
        NodeSpec::new("v100-0", Gpu::V100),
        NodeSpec::new("v100-1", Gpu::V100),
        NodeSpec::new("rtx-0", Gpu::Rtx6000),
    ]
}

fn two_jobs() -> Vec<FleetJobSpec> {
    vec![
        FleetJobSpec::new("alpha", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 2.0)
            .node_range(1, 3)
            .noise(300.0, 1.0)
            .seed(5),
        FleetJobSpec::new("beta", JobSpec::neumf_movielens(), TrainerConfig::new(6_400, 64, 512), 1.5)
            .arrival(10.0)
            .noise(250.0, 1.2)
            .seed(6),
    ]
}

/// The job a `NodeGranted` record grants to.
fn grant(r: &Record) -> Option<String> {
    match &r.event {
        Event::NodeGranted(g) => Some(g.job.clone()),
        _ => None,
    }
}

#[test]
fn fleet_decisions_reach_the_sink_exactly_once_in_order() {
    let mut controller = FleetController::new(pool4(), two_jobs(), AllocPolicy::Cannikin).expect("valid fleet");

    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains");
    let records = session.drain();
    drop(session);

    let grants: Vec<String> = records.iter().filter_map(grant).collect();
    assert!(!grants.is_empty(), "the run must grant nodes");

    // Decisions are 1-based and consecutive — a dropped or doubled batch
    // would break the arithmetic.
    let decisions: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::FleetDecision(d) => Some(d.decision),
            _ => None,
        })
        .collect();
    assert!(!decisions.is_empty(), "the run must decide");
    assert_eq!(decisions, (1..=decisions.len() as u64).collect::<Vec<_>>());

    // The fleet report folded from the sink counts every decision and,
    // per job, every admission.
    let fleet = report::build(&records, &default_fleet_slos());
    assert_eq!(fleet.decisions, decisions.len() as u64);
    let admitted = records.iter().filter(|r| matches!(r.event, Event::JobAdmitted(_))).count() as u64;
    assert_eq!(fleet.jobs.iter().map(|j| j.admissions).sum::<u64>(), admitted);
    // Every node a job held at a decision was granted to it first.
    for job in &fleet.jobs {
        let granted = grants.iter().filter(|g| **g == job.name).count();
        assert!(
            job.peak_granted > 0 && job.peak_granted as usize <= granted,
            "{}: held {} nodes at once after {granted} grants",
            job.name,
            job.peak_granted
        );
    }
}

#[test]
fn per_thread_emission_order_survives_concurrent_flushes() {
    // Two emitting threads with distinct ranks interleave arbitrarily;
    // each thread's own sequence must still arrive in order in the
    // drained trace.
    const RANKS: [u32; 2] = [1, 2];
    let session = telemetry::Session::start();
    let ctx = telemetry::context();
    let handles: Vec<_> = RANKS
        .iter()
        .map(|&rank| {
            std::thread::spawn(move || {
                ctx.enter();
                let _id = telemetry::set_thread_identity(rank, rank);
                for i in 1..=500u64 {
                    telemetry::emit(Event::FleetDecision(cannikin::telemetry::FleetDecision {
                        decision: i,
                        running: 1,
                        queued: 0,
                        reassigned: 0,
                        pool: 1,
                    }));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let records = session.drain();
    drop(session);

    let expect: Vec<u64> = (1..=500).collect();
    for rank in RANKS {
        let ordinals: Vec<u64> = records
            .iter()
            .filter(|r| r.rank == rank)
            .filter_map(|r| match &r.event {
                Event::FleetDecision(d) => Some(d.decision),
                _ => None,
            })
            .collect();
        assert_eq!(ordinals, expect, "rank {rank}: sink order");
    }
}

#[test]
fn slo_verdicts_replay_exactly_over_a_crash_trace() {
    let jobs = vec![
        FleetJobSpec::new("alpha", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 2.0)
            .node_range(2, 3)
            .noise(300.0, 1.0)
            .seed(5)
            .fault_plan(FaultPlan::new(5).crash_at(40, 0)),
        // Beta arrives mid-alpha and demands more nodes than alpha
        // leaves free, so it queues until alpha finishes — guaranteeing
        // its (nanosecond) queue ceiling fires.
        FleetJobSpec::new("beta", JobSpec::neumf_movielens(), TrainerConfig::new(6_400, 64, 512), 1.5)
            .arrival(0.5)
            .node_range(3, 3)
            .noise(250.0, 1.2)
            .seed(6),
    ];
    let mut controller =
        FleetController::new(pool4(), jobs, AllocPolicy::Cannikin).expect("valid fleet");
    // Tighten the defaults with beta's queue ceiling and a zero-step
    // recovery ceiling so the crash path actually produces violations.
    let mut rules = default_fleet_slos();
    rules.push(SloRule::JobQueueCeiling { job: "beta".into(), ceiling_s: 1e-9 });
    rules.push(SloRule::RecoveryCeiling { max_steps: 0 });

    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains past the crash");
    let records = session.drain();
    drop(session);

    assert!(
        records.iter().any(|r| matches!(r.event, Event::FaultInjected(_))),
        "the crash must surface in the trace"
    );
    let report = replay_slos(&records, &rules);
    assert!(
        report.count_for("job_queue_ceiling", Some("beta")) >= 1,
        "the nanosecond queue ceiling must fire on admission: {:?}",
        report.violations
    );
    // The JSONL export, parsed back, replays to the same verdicts.
    let parsed = export::parse_jsonl(&export::jsonl_string(&records)).expect("trace parses");
    assert_eq!(replay_slos(&parsed, &rules), report);
}

/// A fleet trace is the controller's decisions, its demand pricing and the
/// admitted jobs' real epochs, and no training that did not happen: the
/// scaling-curve profiler replays a job's whole training `cap` times.
#[test]
fn a_fleet_trace_holds_no_profiling_replays() {
    let pool = || {
        let mut nodes = Vec::new();
        for (gpu, count) in [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)] {
            nodes.extend((0..count).map(|i| NodeSpec::new(format!("{gpu}-{i}"), gpu)));
        }
        nodes
    };
    let traced = || {
        let session = telemetry::Session::start();
        let report = FleetController::new(pool(), synthetic_trace(7, 6, 30.0), AllocPolicy::Cannikin)
            .expect("valid fleet")
            .run_to_completion(50_000)
            .expect("stream drains");
        (report, session.drain())
    };
    let (report, records) = traced();

    let admitted = records
        .iter()
        .position(|r| matches!(r.event, Event::JobAdmitted(_)))
        .expect("a job is admitted");
    let trains = |r: &Record| match &r.event {
        Event::StepTiming(_) | Event::SplitDecision(_) | Event::PolicyDecision(_) => true,
        Event::SpanBegin(span) => span.name == "epoch",
        _ => false,
    };
    let early: Vec<&'static str> = records[..admitted].iter().filter(|r| trains(r)).map(|r| r.event.kind()).collect();
    assert!(early.is_empty(), "{} training records precede the first admission: {:?}", early.len(), &early[..early.len().min(8)]);
    let planned = records.iter().filter(|r| matches!(r.event, Event::PolicyDecision(_))).count();
    let epochs: usize = report.jobs.iter().map(|j| j.epochs_run).sum();
    assert_eq!(planned, epochs, "one policy decision per epoch a job really ran");

    // No node's law changed in this trace, so nothing is a straggler —
    // however different the laws of the jobs sharing a rank index are.
    let replayed = analyze(&records, InsightConfig {});
    let stragglers: Vec<_> = replayed.anomalies.iter().filter(|a| a.kind == AnomalyKind::Straggler).collect();
    assert!(stragglers.is_empty(), "{stragglers:?}");

    // Wall-clock readings aside, the trace is a function of the seed.
    let masked = |records: Vec<Record>| -> Vec<String> {
        records
            .into_iter()
            .filter(|r| !matches!(&r.event, Event::Counter(c) if c.name == "overhead_s"))
            .map(|r| {
                let line = Record { ts_ns: 0, ..r }.to_jsonl_line();
                match line.split_once("\"wall_ns\":") {
                    Some((head, tail)) => format!("{head}\"wall_ns\":0{}", tail.trim_start_matches(|c: char| c.is_ascii_digit())),
                    None => line,
                }
            })
            .collect()
    };
    let first = masked(records);
    let second = masked(traced().1);
    assert_eq!(first.len(), second.len(), "same seed, same record count");
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "record {i} differs between two same-seed runs");
    }
}
