//! Chaos harness (ISSUE 4 acceptance): seeded fault schedules against both
//! engines, with per-epoch invariants, same-seed determinism down to the
//! telemetry JSONL.
//!
//! Four named schedules — `crash`, `transient`, `flapping`, `elastic`
//! (join + leave) — each run through the simulated [`CannikinTrainer`];
//! the thread-parallel [`ParallelTrainer`] gets the comm-loss and
//! elasticity variants that make sense for real gradients. Set
//! `CANNIKIN_CHAOS_SCHEDULE=crash[,transient,…]` to restrict a run to a
//! subset (the CI matrix runs one schedule per job); unset or blank runs
//! them all.

use std::time::Duration;

use cannikin::collectives::{Codec, CommFaultPlan, RetryPolicy, TransportKind};
use cannikin::core::engine::parallel::{ParallelConfig, ParallelEpochReport, ParallelTrainer};
use cannikin::core::engine::{
    CannikinTrainer, EpochRecord, LinearNoiseGrowth, TrainerConfig, TrainingSubject,
};
use cannikin::dnn::data::gaussian_blobs;
use cannikin::dnn::models::mlp_classifier;
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::{ClusterSpec, NodeSpec};
use cannikin::sim::job::JobSpec;
use cannikin::sim::{FaultPlan, Simulator};
use cannikin::telemetry::{self as telemetry, Json, Record};

/// Honor the `CANNIKIN_CHAOS_SCHEDULE` CI-matrix filter.
fn schedule_enabled(name: &str) -> bool {
    schedule_selected(std::env::var("CANNIKIN_CHAOS_SCHEDULE").ok().as_deref(), name)
}

/// Whether `filter` (a comma-separated list of schedule names) selects
/// `name`. Unset and blank both select everything, as for every
/// `CANNIKIN_*` variable: a blank value must not turn the suite into one
/// that passes having run nothing.
fn schedule_selected(filter: Option<&str>, name: &str) -> bool {
    match filter.map(str::trim) {
        None | Some("") => true,
        Some(filter) => filter.split(',').any(|s| s.trim().eq_ignore_ascii_case(name)),
    }
}

#[test]
fn schedule_filter_selects_by_name_and_blank_selects_all() {
    for filter in [None, Some(""), Some("  ")] {
        for name in ["crash", "transient", "flapping", "elastic", "fleet"] {
            assert!(schedule_selected(filter, name), "{filter:?} must run `{name}`");
        }
    }
    assert!(schedule_selected(Some("crash"), "crash"));
    assert!(!schedule_selected(Some("crash"), "fleet"));
    assert!(schedule_selected(Some("crash, Fleet"), "fleet"), "a list, trimmed, case-insensitive");
    assert!(!schedule_selected(Some("crash,fleet"), "elastic"));
    for name in ["crash", "transient", "flapping", "elastic", "fleet"] {
        assert!(!schedule_selected(Some("earthquake"), name), "an unknown name selects nothing");
    }
}

fn cluster3() -> ClusterSpec {
    ClusterSpec::new(
        "chaos",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    )
}

fn noise() -> LinearNoiseGrowth {
    LinearNoiseGrowth { initial: 400.0, rate: 0.1 }
}

/// The four seeded schedules of the acceptance matrix. Steps are global
/// batch indices; with B = 64 over a 6 400-sample dataset each epoch is
/// 100 steps, so every schedule fires mid-run, not at an epoch boundary.
fn plan(name: &str, seed: u64) -> FaultPlan {
    match name {
        // Crash the A100 — the fastest stave. (Losing a *slow* node at a
        // small total batch can come out net-faster: a 2-node ring moves
        // (n-1)/n = 1/2 of the gradient instead of 2/3.)
        "crash" => FaultPlan::new(seed).crash_at(140, 0),
        "transient" => FaultPlan::new(seed).transient_comm(0.15, 2),
        "flapping" => FaultPlan::new(seed).flapping(2, 35, 0.5, 50).burst_at(220, 0, 10, 2.5),
        "elastic" => FaultPlan::new(seed)
            .join_at(130, NodeSpec::new("late-a100", Gpu::A100))
            .leave_at(260, 0),
        other => panic!("unknown chaos schedule `{other}`"),
    }
}

struct SimRun {
    records: Vec<EpochRecord>,
    /// Normalized telemetry JSONL (wall-clock fields zeroed).
    jsonl: Vec<String>,
}

/// One traced 4-epoch run of the simulated engine under `plan`.
fn run_sim_schedule(name: &str, seed: u64) -> SimRun {
    let session = telemetry::Session::start();

    let sim = Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), seed).with_fault_plan(plan(name, seed));
    let mut config = TrainerConfig::new(6_400, 64, 512);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise(noise())
        .config(config)
        .build()
        .expect("valid config");
    let records = trainer.run_epochs(4).expect("chaos epochs");

    let stream = session.drain();
    SimRun { records, jsonl: normalize(&stream) }
}

/// A fault-free reference run with the same seed and configuration.
fn run_sim_clean(cluster: ClusterSpec, seed: u64) -> Vec<EpochRecord> {
    let sim = Simulator::new(cluster, JobSpec::resnet18_cifar10(), seed);
    let mut config = TrainerConfig::new(6_400, 64, 512);
    config.adaptive_batch = false;
    CannikinTrainer::builder()
        .simulator(sim)
        .noise(noise())
        .config(config)
        .build()
        .expect("valid config")
        .run_epochs(4)
        .expect("clean epochs")
}

/// JSONL lines with the only non-deterministic fields — real wall-clock
/// timestamps and durations — zeroed out.
fn normalize(records: &[Record]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let mut json = r.to_json();
            if let Json::Obj(members) = &mut json {
                let wall_counter = members
                    .iter()
                    .any(|(k, v)| k == "name" && matches!(v, Json::Str(s) if s == "overhead_s"));
                for (key, value) in members.iter_mut() {
                    if key == "ts_ns" || key == "wall_ns" || (wall_counter && key == "value") {
                        *value = Json::Num(0.0);
                    }
                }
            }
            json.to_string_compact()
        })
        .collect()
}

/// Epoch records with the one real-wall-clock field (solver overhead)
/// cleared, as `{:?}` text for exact comparison: a simulated record's
/// unmeasured loss and accuracy are `NaN`, which compares unequal to
/// itself, while the text is bit-exact for every finite field.
fn scrub(records: &[EpochRecord]) -> Vec<String> {
    records
        .iter()
        .cloned()
        .map(|mut r| {
            r.overhead_seconds = 0.0;
            format!("{r:?}")
        })
        .collect()
}

/// The per-epoch invariants every schedule must uphold: the split always
/// covers the full batch over the live membership, wall time and
/// statistical progress are monotone, and — because failed steps are
/// retried, never skipped — every epoch completes all 100 steps and
/// contributes exactly one base-batch epoch of samples (none lost, none
/// double-counted).
fn check_invariants(name: &str, records: &[EpochRecord]) {
    assert_eq!(records.len(), 4);
    let mut cumulative = 0.0;
    let mut effective = 0.0;
    for r in records {
        assert_eq!(
            r.local_batches.iter().sum::<u64>(),
            r.total_batch,
            "{name} epoch {}: split must sum to the total",
            r.epoch
        );
        assert!(r.local_batches.iter().all(|&b| b >= 1), "{name} epoch {}: no empty share", r.epoch);
        assert_eq!(r.steps, 100, "{name} epoch {}: every step must complete", r.epoch);
        assert!(r.epoch_time > 0.0 && r.epoch_time.is_finite());
        assert!(r.cumulative_time >= cumulative, "{name}: the clock is monotone");
        let gained = r.effective_epochs - effective;
        assert!(
            (gained - r.efficiency).abs() < 1e-9,
            "{name} epoch {}: gained {gained} effective epochs, expected {} — a sample was lost or double-counted",
            r.epoch,
            r.efficiency
        );
        cumulative = r.cumulative_time;
        effective = r.effective_epochs;
    }
}

fn check_determinism(name: &str) {
    let a = run_sim_schedule(name, 1234);
    let b = run_sim_schedule(name, 1234);
    assert_eq!(scrub(&a.records), scrub(&b.records), "{name}: same seed must replay the same epochs");
    assert_eq!(a.jsonl, b.jsonl, "{name}: same seed must replay the same telemetry stream");
    check_invariants(name, &a.records);
}

// ---------------------------------------------------------------- sim engine

#[test]
fn chaos_crash_schedule() {
    if !schedule_enabled("crash") {
        return;
    }
    let run = run_sim_schedule("crash", 42);
    check_invariants("crash", &run.records);
    // The crash fires in epoch 1: the dead rank is evicted and the split
    // re-solved over the survivors at the same total.
    assert_eq!(run.records[0].local_batches.len(), 3);
    assert!(run.records[1].faults >= 1, "the crash must surface as a fault");
    assert!(run.records[1].recoveries >= 2, "eviction + replan");
    assert_eq!(run.records[3].local_batches.len(), 2, "survivor split");
    assert!(run.jsonl.iter().any(|l| l.contains("\"fault_injected\"")), "faults reach telemetry");
    assert!(run.jsonl.iter().any(|l| l.contains("\"recovery_action\"")), "recoveries reach telemetry");

    // Bounded damage. At B = 64 shrinking the ring from 3 to 2 nodes can
    // save more communication than the dead node's compute was worth, so
    // the faulty run may legitimately beat the 3-node reference. The
    // honest bound is against the survivor membership run clean from step
    // 0: the faulty run additionally pays for its slower 3-node prefix,
    // the crash-detection timeout and the retried step — a blip, not a
    // checkpoint restart.
    let survivors = ClusterSpec::new("chaos-survivors", vec![
        NodeSpec::new("v100", Gpu::V100),
        NodeSpec::new("rtx", Gpu::Rtx6000),
    ]);
    let best_case: f64 = run_sim_clean(survivors, 42).iter().map(|r| r.epoch_time).sum();
    let reference: f64 = run_sim_clean(cluster3(), 42).iter().map(|r| r.epoch_time).sum();
    let faulty: f64 = run.records.iter().map(|r| r.epoch_time).sum();
    assert!(faulty > best_case, "detection + the 3-node prefix must cost time: {faulty} vs {best_case}");
    assert!(faulty < 3.0 * reference.max(best_case), "recovery must be bounded: {faulty} vs {reference}");
    check_determinism("crash");
}

#[test]
fn chaos_transient_comm_schedule() {
    if !schedule_enabled("transient") {
        return;
    }
    let run = run_sim_schedule("transient", 42);
    check_invariants("transient", &run.records);
    // Membership never changes; some steps pay retries (and a few exhaust
    // the 2-attempt budget and re-run), but no epoch loses a step.
    for r in &run.records {
        assert_eq!(r.local_batches.len(), 3);
    }
    let faults: u32 = run.records.iter().map(|r| r.faults).sum();
    assert!(faults >= 1, "a 15% per-step failure rate must fire in 400 steps");
    let clean: f64 = run_sim_clean(cluster3(), 42).iter().map(|r| r.epoch_time).sum();
    let faulty: f64 = run.records.iter().map(|r| r.epoch_time).sum();
    assert!(faulty > clean, "timeouts and backoff must cost time");
    assert!(faulty < 2.0 * clean, "retries must stay cheap: {faulty} vs {clean}");
    check_determinism("transient");
}

#[test]
fn chaos_flapping_contention_schedule() {
    if !schedule_enabled("flapping") {
        return;
    }
    let run = run_sim_schedule("flapping", 42);
    check_invariants("flapping", &run.records);
    for r in &run.records {
        assert_eq!(r.local_batches.len(), 3, "flapping never changes membership");
    }
    let faults: u32 = run.records.iter().map(|r| r.faults).sum();
    assert!(faults >= 2, "period-35 flapping must toggle repeatedly in 400 steps");
    let clean: f64 = run_sim_clean(cluster3(), 42).iter().map(|r| r.epoch_time).sum();
    let faulty: f64 = run.records.iter().map(|r| r.epoch_time).sum();
    assert!(faulty > clean, "contended phases must cost time");
    check_determinism("flapping");
}

#[test]
fn chaos_elastic_join_leave_schedule() {
    if !schedule_enabled("elastic") {
        return;
    }
    let run = run_sim_schedule("elastic", 42);
    check_invariants("elastic", &run.records);
    assert_eq!(run.records[0].local_batches.len(), 3);
    assert_eq!(run.records[1].local_batches.len(), 4, "the joiner is admitted in epoch 1");
    assert_eq!(run.records[3].local_batches.len(), 3, "the leaver is gone by the end");
    let recoveries: u32 = run.records.iter().map(|r| r.recoveries).sum();
    assert!(recoveries >= 2, "a join and a leave each trigger recovery actions");
    check_determinism("elastic");
}

#[test]
fn chaos_fleet_crash_schedule() {
    if !schedule_enabled("fleet") {
        return;
    }
    // Fleet-level chaos: a tenant's fault plan kills one of its granted
    // nodes mid-run. The control plane must reconcile the death into the
    // shared pool (the node never serves anyone again), keep the rest of
    // the stream draining, and stay bitwise deterministic.
    use cannikin::fleet::{AllocPolicy, FleetController, FleetJobSpec};
    let run = || {
        let pool = vec![
            NodeSpec::new("a100-0", Gpu::A100),
            NodeSpec::new("v100-0", Gpu::V100),
            NodeSpec::new("v100-1", Gpu::V100),
            NodeSpec::new("rtx-0", Gpu::Rtx6000),
        ];
        let faulty = FleetJobSpec::new(
            "faulty",
            JobSpec::resnet18_cifar10(),
            TrainerConfig::new(6_400, 64, 512),
            3.0,
        )
        .node_range(2, 3)
        .noise(300.0, 1.0)
        .seed(5)
        .fault_plan(FaultPlan::new(5).crash_at(40, 0));
        let bystander = FleetJobSpec::new(
            "bystander",
            JobSpec::neumf_movielens(),
            TrainerConfig::new(6_400, 64, 512),
            2.0,
        )
        .arrival(10.0)
        .noise(250.0, 1.2)
        .seed(6);
        let mut fleet = FleetController::new(pool, vec![faulty, bystander], AllocPolicy::Cannikin)
            .expect("valid fleet");
        let report = fleet.run_to_completion(50_000).expect("the stream drains past the crash");
        (fleet.schedule_log().to_vec(), fleet.pool().live(), report)
    };
    let (log_a, live_a, report_a) = run();
    assert!(live_a < 4, "the crashed node left the shared pool");
    for job in &report_a.jobs {
        assert!(job.effective_epochs > 0.0, "{} made progress despite the crash", job.name);
    }
    let (log_b, live_b, report_b) = run();
    assert_eq!(log_a, log_b, "fleet chaos must replay bitwise under the same seeds");
    assert_eq!(live_a, live_b);
    assert_eq!(report_a.makespan.to_bits(), report_b.makespan.to_bits());
}

// ----------------------------------------------------------- parallel engine

fn parallel_config(n: usize, seed: u64) -> ParallelConfig {
    ParallelConfig {
        slowdowns: vec![1.0; n],
        base_batch: 48,
        max_batch: 96,
        adaptive: false,
        base_lr: 0.05,
        seed,
        comm_faults: None,
        retry: RetryPolicy::default(),
        transport: TransportKind::InProcess,
        codec: Codec::None,
        overlap: false,
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(100),
        jitter: 0.5,
        timeout: Duration::from_secs(5),
    }
}

fn run_parallel(config: ParallelConfig, epochs: usize) -> Vec<ParallelEpochReport> {
    let ds = gaussian_blobs(384, 6, 8, 17);
    let mut trainer = ParallelTrainer::builder()
        .dataset(ds)
        .model(|seed| mlp_classifier(8, 16, 6, seed))
        .config(config)
        .build()
        .expect("valid config");
    (0..epochs).map(|_| trainer.run_epoch().expect("epoch")).collect()
}

#[test]
fn chaos_parallel_comm_loss_is_lossless_and_deterministic() {
    if !schedule_enabled("transient") {
        return;
    }
    // Injected failures at fixed sequence numbers, including one burst
    // (seq 5, count 9) deep enough to exhaust the 3-attempt budget and
    // force the step-level retry loop. Single epoch: epoch 0 always runs
    // the even split, so clean and faulty runs are bitwise comparable
    // (later epochs re-split from measured wall timings, which vary run
    // to run).
    let faulty_config = || {
        let mut c = parallel_config(3, 7);
        c.comm_faults = Some(CommFaultPlan::new().fail_at(0, 1).fail_at(5, 9).fail_at(12, 2));
        c.retry = fast_retry();
        c
    };
    let clean = run_parallel(parallel_config(3, 7), 1);
    let faulty = run_parallel(faulty_config(), 1);
    let again = run_parallel(faulty_config(), 1);

    let retries: u32 = faulty.iter().map(|r| r.recoveries).sum();
    assert!(retries > 0, "the injected failures must be hit");
    assert_eq!(clean.iter().map(|r| r.recoveries).sum::<u32>(), 0);
    for (c, f) in clean.iter().zip(&faulty) {
        assert_eq!(c.local_batches, f.local_batches);
        assert_eq!(c.mean_loss, f.mean_loss, "retried gradients must be bitwise identical");
        assert_eq!(c.accuracy, f.accuracy);
        assert_eq!(c.noise_scale, f.noise_scale);
    }
    for (f, g) in faulty.iter().zip(&again) {
        assert_eq!(f.mean_loss, g.mean_loss, "same seed, same faults, same run");
        assert_eq!(f.recoveries, g.recoveries);
    }
}

#[test]
fn chaos_parallel_elastic_membership() {
    if !schedule_enabled("elastic") && !schedule_enabled("crash") {
        return;
    }
    let ds = gaussian_blobs(384, 6, 8, 17);
    let mut trainer = ParallelTrainer::builder()
        .dataset(ds)
        .model(|seed| mlp_classifier(8, 16, 6, seed))
        .config(parallel_config(3, 7))
        .build()
        .expect("valid config");
    let mut reports = vec![trainer.run_epoch().expect("epoch"), trainer.run_epoch().expect("epoch")];
    trainer.remove_rank(1); // crash detected between epochs
    reports.push(trainer.run_epoch().expect("epoch"));
    trainer.add_rank(1.5); // replacement (slower) capacity arrives
    reports.push(trainer.run_epoch().expect("epoch"));

    assert_eq!(reports[1].local_batches.len(), 3);
    assert_eq!(reports[2].local_batches.len(), 2, "shrunk group");
    assert_eq!(reports[3].local_batches.len(), 3, "regrown group");
    for r in &reports {
        assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch);
        assert!(r.local_batches.iter().all(|&b| b >= 1));
        assert!(r.mean_loss.is_finite());
    }
    assert!(
        reports.last().unwrap().mean_loss < reports[0].mean_loss,
        "training must keep converging across membership changes: {} -> {}",
        reports[0].mean_loss,
        reports.last().unwrap().mean_loss
    );
}
