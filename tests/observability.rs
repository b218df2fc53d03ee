//! Fleet mission control (ISSUE 8 acceptance): concurrent subscribers
//! observe fleet runs without losing, duplicating or reordering events,
//! and the SLO engine's online verdicts replay offline byte-for-byte —
//! including over crash-recovery traces.

use std::sync::{Arc, Mutex};

use cannikin::core::engine::TrainerConfig;
use cannikin::fleet::{synthetic_trace, AllocPolicy, FleetController, FleetJobSpec};
use cannikin::insight::{replay_slos, InsightConfig, Monitor, SloMonitor};
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::NodeSpec;
use cannikin::sim::job::JobSpec;
use cannikin::sim::FaultPlan;
use cannikin::telemetry::{
    self as telemetry, Event, Labels, Record, SeriesRecorder, SloRule, Subscriber,
};

/// A raw subscriber that keeps every record of every batch delivered.
#[derive(Default)]
struct Counting {
    seen: Mutex<Vec<Record>>,
}

impl Subscriber for Counting {
    fn on_records(&self, batch: &[Record]) {
        self.seen.lock().unwrap().extend_from_slice(batch);
    }
}

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

fn key(r: &Record) -> Option<String> {
    match &r.event {
        Event::FleetDecision(d) => Some(format!("decision:{}", d.decision)),
        Event::NodeGranted(g) => Some(format!("grant:{}:{}", g.job, g.node)),
        _ => None,
    }
}

#[test]
fn concurrent_subscribers_see_fleet_events_exactly_once_in_order() {
    // Three observers at once: the raw counting subscriber, the series
    // recorder and the anomaly monitor — plus the sink itself.
    let counting = Arc::new(Counting::default());
    let _guard = telemetry::subscribe(counting.clone() as Arc<dyn Subscriber>);
    let series = SeriesRecorder::install();
    let monitor = Monitor::install(InsightConfig::default());

    let session = telemetry::Session::start();
    FleetController::new(pool4(), two_jobs(), AllocPolicy::Cannikin)
        .expect("valid fleet")
        .run_to_completion(50_000)
        .expect("stream drains");
    let records = session.drain();
    drop(session);

    // The sink's FleetDecision/NodeGranted sequence is ground truth; the
    // subscriber must have received exactly the same events in the same
    // order — no loss, no duplication, no reorder.
    let truth: Vec<String> = records.iter().filter_map(key).collect();
    let observed: Vec<String> = counting.seen.lock().unwrap().iter().filter_map(key).collect();
    assert!(!truth.is_empty(), "the run must produce decisions and grants");
    assert_eq!(observed, truth, "subscriber delivery must match the sink exactly");

    // Decisions are 1-based and consecutive — a dropped or doubled batch
    // would break the arithmetic.
    let decisions: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::FleetDecision(d) => Some(d.decision),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, (1..=decisions.len() as u64).collect::<Vec<_>>());

    // The series store folded the same stream: its totals equal the
    // sink's event counts.
    let store = series.store();
    let none = Labels::default();
    assert_eq!(store.counter_total("fleet_decisions_total", &none), Some(decisions.len() as f64));
    let grants = truth.iter().filter(|k| k.starts_with("grant:")).count();
    let granted_total: f64 = ["alpha", "beta"]
        .iter()
        .filter_map(|j| store.counter_total("fleet_node_grants_total", &none.clone().with("job", *j)))
        .sum();
    assert_eq!(granted_total, grants as f64);

    // The monitor saw every *emitted* record exactly once. Injected
    // records (its own anomalies and their counter) reach the sink but
    // never loop back through subscribers.
    let injected = records
        .iter()
        .filter(|r| match &r.event {
            Event::AnomalyDetected(_) | Event::SloViolation(_) => true,
            Event::Counter(c) => c.name == "insight_anomalies",
            _ => false,
        })
        .count();
    assert_eq!(monitor.report().events_seen as usize, records.len() - injected);
}

#[test]
fn per_thread_emission_order_survives_concurrent_flushes() {
    // Two emitting threads with distinct ranks interleave arbitrarily;
    // each thread's own sequence must still arrive in order at every
    // subscriber and in the drained trace.
    const RANKS: [u32; 2] = [1, 2];
    let counters = [Arc::new(Counting::default()), Arc::new(Counting::default())];
    let _guards: Vec<_> =
        counters.iter().map(|c| telemetry::subscribe(c.clone() as Arc<dyn Subscriber>)).collect();

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
                telemetry::flush_thread();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let records = session.drain();
    drop(session);

    // One thread's ordinals, in the order `stream` holds them.
    let of_rank = |stream: &[Record], rank: u32| -> Vec<u64> {
        stream
            .iter()
            .filter(|r| r.rank == rank)
            .filter_map(|r| match &r.event {
                Event::FleetDecision(d) => Some(d.decision),
                _ => None,
            })
            .collect()
    };
    let expect: Vec<u64> = (1..=500).collect();
    for rank in RANKS {
        for counting in &counters {
            assert_eq!(of_rank(&counting.seen.lock().unwrap(), rank), expect, "rank {rank}: subscriber order");
        }
        assert_eq!(of_rank(&records, rank), expect, "rank {rank}: sink order");
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
            .seed(6)
            .queue_slo(1e-9),
    ];
    let mut controller =
        FleetController::new(pool4(), jobs, AllocPolicy::Cannikin).expect("valid fleet");
    // Tighten the defaults with the per-job rules and a zero-step
    // recovery ceiling so the crash path actually produces violations.
    let mut rules = controller.slo_rules();
    rules.push(SloRule::RecoveryCeiling { max_steps: 0 });

    let monitor = SloMonitor::install(rules.clone());
    let session = telemetry::Session::start();
    controller.run_to_completion(50_000).expect("stream drains past the crash");
    let records = session.drain();
    drop(session);

    assert!(
        records.iter().any(|r| matches!(r.event, Event::FaultInjected(_))),
        "the crash must surface in the trace"
    );
    let report = replay_slos(&records, &rules);
    assert!(report.verdicts_match(), "offline rerun must reproduce the online verdicts");
    assert_eq!(report.online, monitor.violations(), "trace carries the monitor's verdicts");
    assert!(
        report.count_for("job_queue_ceiling", Some("beta")) >= 1,
        "the nanosecond queue ceiling must fire on admission: {:?}",
        report.offline
    );
}

/// A fleet trace is the controller's decisions and the admitted jobs' real
/// epochs, and nothing else: the admission profiler replays every job's
/// whole training `cap` times, and none of that happened.
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
