//! Baseline step-time pins and the crash-recovery comparison (§5.4).
//!
//! Two kinds of coverage:
//!
//! 1. the baselines' step-time models are pinned against the simulator's
//!    deterministic `ideal_batch_time` ground truth, so a regression in
//!    either side of the comparison shows up here before it skews a figure;
//! 2. the headline elastic-recovery claim — Cannikin absorbs a mid-training
//!    crash in-band (evict, re-solve, continue) while static DDP pays a
//!    checkpoint-restart round trip — is asserted end to end.

use cannikin_baselines::{time_to_target, HetPipeTrainer, System};
use cannikin_core::engine::{CannikinTrainer, LinearNoiseGrowth, TrainerConfig, TrainingSubject};
use cannikin_core::optperf::even_split;
use cannikin_core::policy::PolicyKind;
use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::{FaultPlan, Simulator};

fn cluster() -> ClusterSpec {
    ClusterSpec::new(
        "recovery",
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

#[test]
fn even_split_is_bottlenecked_by_the_slowest_node() {
    let sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 7);
    // The step-time model must charge the even split the straggler's time:
    // shifting load from the RTX 6000 to the A100 strictly helps.
    let even = sim.ideal_batch_time(&[40, 40, 40]);
    let skewed = sim.ideal_batch_time(&[60, 40, 20]);
    assert!(even > 0.0 && skewed > 0.0);
    assert!(skewed < even, "skewed {skewed} should beat even {even} on a heterogeneous cluster");
}

#[test]
fn ddp_mean_batch_time_tracks_the_ideal_model() {
    let sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 7);
    let ideal = sim.ideal_batch_time(&even_split(120, 3));
    let mut ddp = System::Ddp.build(sim, noise(), 12_000, 120, 120).expect("valid config");
    let r = ddp.next_epoch().expect("epoch");
    let rel = (r.mean_batch_time - ideal).abs() / ideal;
    assert!(rel < 0.25, "measured {} vs ideal {ideal}: off by {rel}", r.mean_batch_time);
}

#[test]
fn hetpipe_step_time_model_is_closed_form() {
    let sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 7);
    let mut hp = HetPipeTrainer::new(sim, noise(), 12_000, 120, 120);
    let pinned = hp.batch_time();
    assert!(pinned > 0.0);
    // A fixed-batch pipeline has no run-to-run variance: every epoch's
    // mean batch time equals the closed-form model exactly.
    let r0 = hp.next_epoch().expect("epoch");
    let r1 = hp.next_epoch().expect("epoch");
    assert_eq!(r0.mean_batch_time, pinned);
    assert_eq!(r1.mean_batch_time, pinned);
}

#[test]
fn lbbsp_rebalancing_reduces_step_time() {
    let sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 7);
    let mut lb = System::LbBsp.build(sim, noise(), 12_000, 120, 120).expect("valid config");
    let records = lb.run_epochs(12).expect("run");
    let first = records[0].mean_batch_time;
    let settled: f64 = records[9..].iter().map(|r| r.mean_batch_time).sum::<f64>() / 3.0;
    assert!(settled < first * 0.98, "Δ-bounded rebalancing should shed the straggler: first {first}, settled {settled}");
}

#[test]
fn cannikin_recovers_from_a_crash_faster_than_static_ddp() {
    let job = JobSpec::resnet18_cifar10();
    let target = 3.0;

    // Cannikin: node 1 crashes at step 150 (mid-epoch 1). The trainer
    // evicts it, re-solves the split over the survivors at the same total
    // and keeps going — the only losses are the detection timeout and the
    // retried step.
    let plan = FaultPlan::new(77).crash_at(150, 1);
    let sim = Simulator::new(cluster(), job.clone(), 21).with_fault_plan(plan);
    let mut config = TrainerConfig::new(6_400, 64, 512);
    config.adaptive_batch = false;
    let mut cannikin = CannikinTrainer::builder()
        .simulator(sim)
        .noise(noise())
        .config(config)
        .build()
        .expect("valid config");
    let records = cannikin.train_until(target, 60).expect("cannikin run");
    let t_cannikin = time_to_target(&records, target).expect("cannikin reaches the target");
    assert!(records.iter().any(|r| r.faults > 0), "the crash must register");
    assert_eq!(records.last().unwrap().local_batches.len(), 2, "survivor split");

    // Static DDP — `System::Ddp`'s configuration, kept concrete to reach
    // the simulator: the same crash kills the job halfway through epoch
    // 1. A collective cannot shrink in flight, so the process group
    // aborts, the half epoch is lost, and the job restarts on the
    // survivors from the epoch-0 checkpoint after a 30 s round trip
    // (detection, rescheduling, checkpoint reload, process-group re-init).
    let sim = Simulator::new(cluster(), job, 21);
    let mut config = TrainerConfig::new(6_400, 64, 64);
    config.adaptive_batch = false;
    let mut ddp = CannikinTrainer::builder()
        .simulator(sim)
        .noise(noise())
        .config(config)
        .policy(PolicyKind::Even)
        .build()
        .expect("valid config");
    let mut ddp_records = vec![ddp.next_epoch().expect("epoch")];
    let steps = 6_400 / 64;
    let lost = ddp.simulator_mut().ideal_batch_time(&even_split(64, 3)) * steps as f64 * 0.5;
    ddp.simulator_mut().remove_node(1);
    ddp.on_cluster_change();
    let restart = lost + 30.0;
    ddp.restore_progress(ddp.effective_epochs(), ddp.cumulative_time() + restart, ddp.epochs_run());
    ddp_records.extend(ddp.train_until(target, 60).expect("ddp run"));
    let t_ddp = time_to_target(&ddp_records, target).expect("ddp reaches the target");
    let resumed = &ddp_records[1];
    assert_eq!(resumed.local_batches, vec![32, 32], "even split over the survivors");
    // The lost half epoch and the restart are on the clock, with no
    // statistical progress for them.
    let clock = resumed.cumulative_time - ddp_records[0].cumulative_time;
    assert!(clock > resumed.epoch_time + 30.0 - 1e-9, "clock {clock} must include lost work + restart");

    assert!(
        t_cannikin < t_ddp,
        "elastic recovery should beat checkpoint-restart: cannikin {t_cannikin}s vs ddp {t_ddp}s"
    );
}
