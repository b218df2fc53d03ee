//! End-to-end insight round trip: a traced `hetsim` run with a
//! mid-training contention injection. The analyzer's change point must
//! clear the slowed node on its 5th consecutive outlier step, and the
//! replay of the drained trace must report that verdict as the straggler.
//! The re-profile that follows must move the split back toward the
//! ground-truth OptPerf optimum, and replaying the exported JSONL trace
//! must find the same anomalies as the drained one.
//!
//! Single test function: the telemetry recorder is process-global, and
//! this binary is its own process.

use cannikin::core::engine::{CannikinTrainer, LinearNoiseGrowth, TrainerConfig, TrainingSubject};
use cannikin::core::optperf::{OptPerfSolver, SolverInput};
use cannikin::insight::{analyze, AnomalyKind, InsightConfig};
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::{ClusterSpec, NodeSpec};
use cannikin::sim::job::JobSpec;
use cannikin::sim::Simulator;
use cannikin::telemetry::{self as telemetry, export};

#[test]
fn straggler_roundtrip_detect_replan_replay() {
    let cluster = ClusterSpec::new(
        "insight-rt",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    );
    // Compute-heavy job so the split visibly tracks per-node speed.
    let job = JobSpec::resnet50_imagenet();
    let sim = Simulator::new(cluster, job.clone(), 12);
    let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
    let mut config = TrainerConfig::new(20_000, 128, 1024);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise(noise)
        .config(config)
        .build()
        .expect("valid config");

    let session = telemetry::Session::start();

    // ---- Healthy phase: bootstrap, then the solver split settles. ----
    let healthy = trainer.run_epochs(5).expect("healthy run");
    let mut records = session.drain();
    let healthy_report = analyze(&records, InsightConfig {});
    assert!(
        healthy_report.anomalies.iter().all(|a| a.kind != AnomalyKind::Straggler),
        "no straggler may fire on a healthy run: {:?}",
        healthy_report.anomalies
    );
    let healthy_share = healthy.last().unwrap().local_batches[0];

    // ---- Inject contention: the A100 loses 60% of its compute (§6). ----
    trainer.simulator_mut().set_contention(0, 0.4);
    let degraded = trainer.run_epochs(5).expect("degraded run");

    records.extend(session.drain());
    drop(session);
    let report = analyze(&records, InsightConfig {});
    let stragglers: Vec<_> =
        report.anomalies.iter().filter(|a| a.kind == AnomalyKind::Straggler).collect();
    let first = stragglers.first().expect("contention must be flagged");
    assert_eq!(first.node, Some(0), "the slowed node is the straggler");
    assert_eq!(first.step, 4, "the analyzer clears the node on its 5th consecutive outlier");
    assert!(stragglers.iter().all(|a| a.node == Some(0)), "only node 0 straggles: {stragglers:?}");

    // The re-profile: the epoch after detection drops back to the
    // bootstrap path, then the model re-engages on the slowed coefficients,
    // relearned from the observations the analyzer kept since the reset.
    assert!(degraded[0].used_model, "epoch 5 still trusts the (stale) model");
    assert!(!degraded[1].used_model, "epoch 6 must re-profile after the reset");
    assert!(degraded[2].used_model, "the model re-engages at epoch 7");
    assert!(degraded.last().unwrap().used_model, "model must re-engage by epoch 9");

    // The split moves from the stale share toward the ground-truth OptPerf
    // optimum of the *contended* cluster.
    let truth = SolverInput::from_ground_truth(trainer.simulator_mut().cluster(), &job);
    let optimal = OptPerfSolver::new(truth).solve(128).expect("feasible").local_batches;
    let final_share = degraded.last().unwrap().local_batches[0];
    assert!(
        final_share < healthy_share,
        "node 0's share must shrink: {healthy_share} -> {final_share} (optimal {})",
        optimal[0]
    );
    assert!(
        final_share.abs_diff(optimal[0]) < healthy_share.abs_diff(optimal[0]),
        "split must move toward the OptPerf optimum: healthy {healthy_share}, final {final_share}, optimal {}",
        optimal[0]
    );

    // ---- Export the trace and replay it. ----
    let dir = std::env::temp_dir().join("cannikin-insight-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    export::write_jsonl(&path, &records).expect("export");

    let text = std::fs::read_to_string(&path).expect("read trace");
    let parsed = export::parse_jsonl(&text).expect("parse trace");
    assert_eq!(parsed.len(), records.len(), "JSONL round trip preserves every record");

    let rerun = analyze(&parsed, InsightConfig {});
    assert_eq!(rerun.anomalies, report.anomalies, "the JSONL export replays to the same anomalies");
    let rendered = rerun.render();
    assert!(rendered.contains("[straggler] step 4 node 0 "), "{rendered}");
}
